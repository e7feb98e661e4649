"""§V-H — per-operation overhead of the analysis engine.

Shape target is the paper's cost ordering — open/read cheapest, then
close (full-file inspection), then write, then rename (move tracking +
linking) — plus real host-side microbenchmarks of the hot paths
(windowed entropy, sdhash digesting at 11 KB ciphertext, 32 KiB random
and 1 MiB text, a fresh 1×1 compare, engine post-op handling).
"""

import random

import pytest

from repro.corpus.wordlists import paragraphs
from repro.crypto import chacha20_xor
from repro.entropy import shannon_entropy, windowed_entropy
from repro.experiments import PAPER_PERF_MS, run_performance
from repro.simhash import SdDigest, compare, sdhash


@pytest.fixture(scope="module")
def perf():
    return run_performance(n_files=60, corpus_files=400, repeats=3)


def test_bench_operation_overhead(benchmark):
    result = benchmark.pedantic(
        lambda: run_performance(n_files=60, corpus_files=400, repeats=3),
        rounds=1, iterations=1)
    print()
    print(result.render())


class TestPerfShape:
    def test_paper_cost_ordering(self, perf):
        m = perf.modelled_ms
        assert m["open"] < m["close"] < m["write"] < m["rename"]

    def test_modelled_magnitudes_near_paper(self, perf):
        # within 2x of the paper's milliseconds, per op class
        for op in ("close", "write", "rename"):
            assert 0.5 * PAPER_PERF_MS[op] <= perf.modelled_ms[op] \
                <= 2.0 * PAPER_PERF_MS[op], op

    def test_open_read_sub_millisecond(self, perf):
        assert perf.modelled_ms["open"] < 1.0
        assert perf.modelled_ms.get("read", 0.0) < 1.0

    def test_host_overhead_measured(self, perf):
        # the engine does real work on writes/closes; the probe must see it
        assert perf.measured_overhead_us["write"] >= 0.0
        assert any(v > 0 for v in perf.measured_overhead_us.values())


# ---------------------------------------------------------------------------
# real microbenchmarks of the engine's hot paths
# ---------------------------------------------------------------------------

_PAYLOAD_32K = random.Random(0).randbytes(32768)


def test_bench_shannon_entropy_32k(benchmark):
    result = benchmark(shannon_entropy, _PAYLOAD_32K)
    assert result > 7.9


def test_bench_windowed_entropy_32k(benchmark):
    values = benchmark(windowed_entropy, _PAYLOAD_32K)
    assert values.size > 0


def test_bench_sdhash_digest_32k(benchmark):
    digest = benchmark(sdhash, _PAYLOAD_32K)
    assert digest is not None


def test_bench_sdhash_compare(benchmark):
    a = sdhash(_PAYLOAD_32K)
    b = sdhash(random.Random(1).randbytes(32768))
    score = benchmark(compare, a, b)
    assert score <= 5


def _text(seed: int, size: int) -> bytes:
    return paragraphs(random.Random(seed), size + 1024).encode()[:size]


#: attack_replay's mean digest: an ~11 KB document's ciphertext
_CIPHER_11K = chacha20_xor(bytes(32), bytes(12), _text(3, 11_000))
_TEXT_1M = _text(4, 1 << 20)


def test_bench_sdhash_digest_11k_ciphertext(benchmark):
    digest = benchmark(sdhash, _CIPHER_11K)
    assert digest is not None and len(digest) == 1


def test_bench_sdhash_digest_1mib_text(benchmark):
    digest = benchmark.pedantic(sdhash, args=(_TEXT_1M,), rounds=5,
                                iterations=1)
    assert digest is not None and len(digest) > 1


def test_bench_sdhash_compare_1x1_fresh(benchmark):
    """A close's compare: two one-filter digests holding only the packed
    rows the kernel built, with nothing derived from them cached yet."""
    a = sdhash(_CIPHER_11K)
    b = sdhash(chacha20_xor(bytes(32), bytes(12), _text(5, 11_000)))

    def fresh():
        return tuple(SdDigest(d.packed_matrix(), d.counts, d.n_features,
                              d.source_len) for d in (a, b)), {}

    score = benchmark.pedantic(compare, setup=fresh, rounds=200)
    assert len(a) == len(b) == 1 and score <= 5


def test_bench_chacha20_bulk_1mb(benchmark):
    from repro.crypto import chacha20_xor
    data = random.Random(2).randbytes(1 << 20)
    out = benchmark(chacha20_xor, bytes(32), bytes(12), data)
    assert len(out) == len(data)
