"""Same-process A/B speed gates.

Each gate times a fast path against its own reference in one process
and asserts the ratio at the bar the fast path was accepted with.
Nothing here reads a committed results file, so a slower run cannot
pass by being recorded, and both legs share whatever load the host is
under.

Correctness of each fast path (bit-identical digests, store entries and
verdicts) is checked by the tier-1 suite under ``tests/``.  The end-to-end
trend of whole workloads is perfbench's job (``perfbench/README.md``).

Run with ``make bench-ab`` (about 30 s on 2 CPUs)::

    PYTHONPATH=src:benchmarks python -m pytest -q benchmarks/bench_ab.py
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from conftest import close_heavy_campaign, digest_with_filters, text
from repro.core import CryptoDropConfig
from repro.corpus.baselines import BaselineStore
from repro.corpus.builder import generate
from repro.faults import ingest_chaos, transient_faults
from repro.ingest import EndpointSessionManager, record_endpoint_stream
from repro.ransomware import instantiate
from repro.ransomware.factory import working_cohort
from repro.simhash.sdhash import compare, digest_many, sdhash
from tests.reference import compare_scalar, sdhash_scalar


def _best_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _speedup(fast_fn, slow_fn, fast_repeats: int,
             slow_repeats: int) -> float:
    """Speedup of ``fast_fn`` over ``slow_fn``, legs interleaved.

    The larger of two estimators: the best paired-round ratio (the legs
    of a round run back to back, so a burst of load hits both) and the
    ratio of the per-leg minima.  Noise must slow the fast leg in every
    round and at its minimum to understate the speedup, while a broken
    fast path drags both estimators down.
    """
    fast_times, slow_times, paired = [], [], []
    for i in range(max(fast_repeats, slow_repeats)):
        started = time.perf_counter()
        fast_fn()
        fast_times.append(time.perf_counter() - started)
        if i < slow_repeats:
            started = time.perf_counter()
            slow_fn()
            slow_times.append(time.perf_counter() - started)
            paired.append(slow_times[-1] / fast_times[-1])
    return max(max(paired), min(slow_times) / min(fast_times))


def _small_docs(n_docs: int, seed_base: int) -> list:
    """600-1200 byte documents: the small-file tail of the paper's corpus,
    where per-file dispatch costs more than the digest arithmetic."""
    return [text(seed_base + i, 600 + (i * 37) % 601) for i in range(n_docs)]


def test_sdhash_vectorised_ge_1p5x():
    payload = text(3, 128 * 1024)
    speedup = _speedup(lambda: sdhash(payload),
                       lambda: sdhash_scalar(payload), 9, 3)
    assert speedup >= 1.5, f"only {speedup:.2f}x"


def test_compare_batched_ge_5x_at_32_filters():
    a = digest_with_filters(32)
    b = digest_with_filters(32)
    compare(a, b)  # warm the packed-matrix caches
    scalar = _best_seconds(lambda: compare_scalar(a, b), 3)
    batched = _best_seconds(lambda: compare(a, b), 5)
    assert scalar / batched >= 5.0, f"only {scalar / batched:.1f}x"


def test_close_path_cached_ge_2x():
    workload = dict(n_files=24, rewrites=6, payload=48 * 1024)
    cached_s, _ = close_heavy_campaign(**workload)
    uncached_s, _ = close_heavy_campaign(**workload, digest_cache_entries=0)
    assert uncached_s / cached_s >= 2.0, f"only {uncached_s / cached_s:.1f}x"


def test_digest_many_ge_2x_at_32_docs():
    docs = _small_docs(32, seed_base=100)
    speedup = _speedup(lambda: digest_many(docs),
                       lambda: [sdhash(d) for d in docs], 9, 4)
    assert speedup >= 2.0, f"only {speedup:.2f}x"


def test_store_build_batched_ge_3x_at_1024_docs():
    contents = {f"docs/note{i}.txt": doc
                for i, doc in enumerate(_small_docs(1024, seed_base=500))}
    corpus = SimpleNamespace(contents=contents, seed=977)
    speedup = _speedup(lambda: BaselineStore.build(corpus, batched=True),
                       lambda: BaselineStore.build(corpus, batched=False),
                       9, 4)
    assert speedup >= 3.0, f"only {speedup:.2f}x"


def test_ingest_faulted_ge_0p7_of_fault_free_at_64_endpoints():
    """A 64-tenant session under shard kills, poison events, queue stalls
    and transient denials (breaker and watchdog on) sustains at least 70%
    of the fault-free throughput over the same recorded streams."""
    corpus = generate(seed=1721, n_files=40, n_dirs=8)
    profiles = [s.profile for s in working_cohort(base_seed=0)]
    streams = {f"ep{i:03d}": record_endpoint_stream(
                   corpus, instantiate(profiles[(i * 7) % len(profiles)]),
                   seed=i, max_events=600)
               for i in range(64)}
    faults = {}
    for i, tenant in enumerate(sorted(streams)):
        faults[tenant] = (
            ingest_chaos(seed=31 + i, kill_shard_at_events=(25,)),
            ingest_chaos(seed=31 + i, poison_event_rate=0.04),
            ingest_chaos(seed=31 + i, queue_stall_rate=0.02),
            transient_faults(seed=31 + i, deny_rate=0.15,
                             short_read_rate=0.0, latency_spike_rate=0.0,
                             max_denials=20),
        )[i % 4]
    config = CryptoDropConfig(telemetry_enabled=True)

    def session(fault_map):
        manager = EndpointSessionManager(corpus, config=config)
        for tenant in sorted(streams):
            manager.add_endpoint(tenant, streams[tenant],
                                 fault_plan=fault_map.get(tenant))
        started = time.perf_counter()
        manager.run()
        elapsed = time.perf_counter() - started
        manager.close()
        return elapsed

    fault_free, faulted = [], []
    for _ in range(2):
        fault_free.append(session({}))
        faulted.append(session(faults))
    # same events applied in both legs, so throughput is inverse time
    ratio = min(fault_free) / min(faulted)
    assert ratio >= 0.7, f"faulted/fault-free throughput only {ratio:.2f}"


def test_telemetry_off_lt_1p02_of_baseline():
    """The close-heavy workload with telemetry disabled (the default)
    against an interleaved baseline leg of the same workload: the
    smaller of the best per-round ratio and the ratio of the leg minima
    stays under 1.02.  Both legs run the disabled path, so this bounds
    the noise the measurement sees; tier-1 pins the guard itself by
    counting instrument calls
    (``tests/test_telemetry.py::TestDisabledPath``)."""
    workload = dict(n_files=24, rewrites=6, payload=48 * 1024)
    baseline, disabled, ratios = [], [], []
    for _ in range(5):
        baseline.append(close_heavy_campaign(**workload)[0])
        disabled.append(close_heavy_campaign(**workload)[0])
        ratios.append(disabled[-1] / baseline[-1])
    ratio = min(min(ratios), min(disabled) / min(baseline))
    assert ratio < 1.02, f"disabled path at {ratio:.4f}x baseline"
