"""Golden equivalence of the vectorised sdhash paths to the scalar ones.

The vectorised feature selector, digest builder, and batched all-pairs
compare must be *bit-identical* to the scalar reference implementations —
identical hexdigests, identical integer scores — over diverse corpora:
text, random bytes, compressed data, zero padding, and multi-filter
(300 KB+) documents.  Any last-ulp float divergence in the entropy
selection or any popcount discrepancy in the compare shows up here.

The window entropies histogram only the byte range of their buffer and
rely on NumPy's float64 summation order to stay bit for bit the 256-bin
sums; a canary checks that order against the installed NumPy, and
hypothesis tests probe buffers at the edges of the byte ranges.
"""

import random
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus.wordlists import paragraphs
from repro.simhash.bloom import feature_positions
from repro.simhash.sdhash import (_ENTROPY_TERMS, WINDOW, SdDigest,
                                  StreamingDigestState, _window_entropies,
                                  compare, digest_many, sdhash)
from tests.reference import (BloomFilter, _select_features,
                             _select_features_scalar, _window_entropy_scalar,
                             compare_scalar, sdhash_scalar)


def _corpus():
    rng = random.Random(2024)
    samples = [
        paragraphs(rng, 4000).encode(),
        paragraphs(rng, 20000).encode(),
        paragraphs(rng, 300_000).encode(),          # multi-filter
        rng.randbytes(600),
        rng.randbytes(8192),
        rng.randbytes(70_000),
        zlib.compress(paragraphs(rng, 30000).encode()),
        paragraphs(rng, 3000).encode() + bytes(4000),
        bytes(2048),                                 # all zeros: no features
        paragraphs(rng, 2000).encode() * 3,          # repetitive
    ]
    # near-duplicates: high (not near-zero) scores exercise the formula
    base = paragraphs(rng, 15000).encode()
    samples.append(base[:7000] + b"edited here" + base[7000:])
    return samples


CORPUS = _corpus()


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_feature_selection_identical(idx):
    data = CORPUS[idx]
    assert _select_features(data) == _select_features_scalar(data)


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_digest_identical(idx):
    data = CORPUS[idx]
    vec = sdhash(data)
    ref = sdhash_scalar(data)
    if ref is None:
        assert vec is None
        return
    assert vec.hexdigest() == ref.hexdigest()
    assert vec.n_features == ref.n_features
    assert len(vec) == len(ref)


def test_multi_filter_digest_spans_filters():
    digest = sdhash(CORPUS[2])
    assert digest is not None and len(digest) >= 2


def test_all_pairs_compare_identical():
    digests = [sdhash(d) for d in CORPUS]
    for a in digests:
        for b in digests:
            assert compare(a, b) == compare_scalar(a, b)


def test_compare_against_golden_values():
    # identity is 100; unrelated random blobs are near zero
    text = sdhash(CORPUS[1])
    assert compare(text, text) == 100
    assert compare(text, sdhash(CORPUS[5])) <= 5
    # a light edit keeps a high score
    base = sdhash(CORPUS[0])
    edited = sdhash(CORPUS[0][:2000] + b"x" + CORPUS[0][2000:])
    assert compare(base, edited) >= 80


def test_feature_positions_match_scalar_bloom():
    import hashlib

    features = _select_features(CORPUS[0])[:50]
    raw = b"".join(hashlib.sha1(f).digest() for f in features)
    rows = feature_positions(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(features), 20))
    for feature, row in zip(features, rows):
        assert sorted(BloomFilter.positions(
            hashlib.sha1(feature).digest())) == sorted(row.tolist())


def test_state_roundtrip_preserves_packed_matrix():
    digest = sdhash(CORPUS[2])
    clone = SdDigest.from_state(digest.to_state())
    assert clone.hexdigest() == digest.hexdigest()
    assert compare(clone, digest) == 100


# ---------------------------------------------------------------------------
# property: compare is symmetric on both paths
# ---------------------------------------------------------------------------

_blob = st.binary(min_size=0, max_size=6000)


@settings(max_examples=40, deadline=None)
@given(seed_a=st.integers(0, 2**16), seed_b=st.integers(0, 2**16),
       size_a=st.integers(512, 24_000), size_b=st.integers(512, 24_000))
def test_compare_symmetric_random_corpora(seed_a, seed_b, size_a, size_b):
    a = sdhash(random.Random(seed_a).randbytes(size_a)
               + paragraphs(random.Random(seed_a), size_a).encode())
    b = sdhash(random.Random(seed_b).randbytes(size_b)
               + paragraphs(random.Random(seed_b), size_b).encode())
    assert compare(a, b) == compare(b, a)
    assert compare_scalar(a, b) == compare_scalar(b, a)
    assert compare(a, b) == compare_scalar(a, b)


@settings(max_examples=25, deadline=None)
@given(data=_blob)
def test_digest_equivalence_arbitrary_bytes(data):
    vec = sdhash(data)
    ref = sdhash_scalar(data)
    if ref is None:
        assert vec is None
    else:
        assert vec.hexdigest() == ref.hexdigest()


# ---------------------------------------------------------------------------
# canary: the float64 summation order the window entropies rely on
# ---------------------------------------------------------------------------


def _pairwise_model(values):
    """NumPy's float64 sum of a contiguous run of a multiple of 8 values,
    in plain Python.  A run over 128 values splits at its half, rounded
    down to a multiple of 8.  A run of 8 to 128 values adds value ``i``
    into lane ``i % 8`` in ascending order and combines the lanes as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``."""
    n = len(values)
    assert n and n % 8 == 0
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_model(values[:half]) + _pairwise_model(values[half:])
    r = list(values[:8])
    for i in range(8, n, 8):
        for j in range(8):
            r[j] += values[i + j]
    return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))


def _order_changed(what):
    return (f"{what}: NumPy's float64 pairwise summation no longer follows "
            f"the order the sdhash window entropies rely on (numpy "
            f"{np.__version__}); the ranged histogram sums and the pins in "
            f"tests/data/sdhash_golden.txt depend on it")


def _hex(values):
    return [float(v).hex() for v in values]


def _random_windows(rng, count):
    """``count`` 64-byte windows, each with its non-zero bins in a random
    span of byte values."""
    windows = []
    for _ in range(count):
        lo = int(rng.integers(0, 256))
        hi = int(rng.integers(lo, 256))
        distinct = int(rng.integers(1, min(WINDOW, hi - lo + 1) + 1))
        values = rng.choice(np.arange(lo, hi + 1), distinct, replace=False)
        cuts = np.sort(rng.choice(np.arange(1, WINDOW), distinct - 1,
                                  replace=False))
        sizes = np.diff(np.concatenate([[0], cuts, [WINDOW]]))
        window = np.repeat(values, sizes).astype(np.uint8)
        rng.shuffle(window)
        windows.append(window)
    return windows


class TestSummationOrderCanary:
    """``_window_entropies`` sums only the 8-aligned byte range of its
    buffer and relies on NumPy summing a 256-term row in exactly the
    order :func:`_pairwise_model` describes.  A NumPy that changes that
    order fails here, with its cause, before the golden diff fails."""

    def test_row_sums_follow_the_pairwise_model(self):
        rng = np.random.default_rng(19)
        counts = rng.integers(0, WINDOW + 1, size=(3000, 256))
        keep = rng.random((3000, 256)) < rng.random((3000, 1))
        rows = _ENTROPY_TERMS[np.where(keep, counts, 0)]
        model = _hex(_pairwise_model(row.tolist()) for row in rows)
        assert _hex(row.sum() for row in rows) == model, \
            _order_changed("row.sum()")
        assert _hex(rows.sum(axis=1)) == model, \
            _order_changed("(k, 256) sum(axis=1)")

    def test_ranged_sums_follow_the_pairwise_model(self):
        rng = np.random.default_rng(23)
        windows = _random_windows(rng, 300)
        lows = np.array([w.min() for w in windows])
        highs = np.array([w.max() for w in windows])
        model = np.array([-_pairwise_model(
            _ENTROPY_TERMS[np.bincount(w, minlength=256)].tolist())
            for w in windows])
        for b0 in range(0, 256, 8):
            for b1 in range(b0 + 8, 257, 8):
                fit = np.flatnonzero((lows >= b0) & (highs < b1))
                if fit.size == 0:
                    continue
                # two bytes past the last window set the buffer's range
                edges = [b0 + rng.integers(8), b1 - 1 - rng.integers(8)]
                buf = np.concatenate([windows[i] for i in fit]
                                     + [np.array(edges, np.uint8)])
                got = _window_entropies(buf, np.arange(fit.size) * WINDOW)
                assert _hex(got) == _hex(model[fit]), \
                    _order_changed(f"the kernel's sum over [{b0}, {b1})")


# ---------------------------------------------------------------------------
# property: narrow, straddling and full byte ranges give the scalar values
# ---------------------------------------------------------------------------

#: byte alphabets at the range edges: one 8-bin group, the lowest and
#: highest groups, a range straddling 128, the top half, ASCII text with
#: one byte >= 128, and every value
_ALPHABETS = ("group", "low", "high", "straddle", "upper", "text_one_high",
              "all")


def _alphabet_blob(kind, seed, size, at):
    """``size`` bytes drawn from alphabet ``kind``; ``at`` places the high
    byte of ``text_one_high``."""
    rng = np.random.default_rng(seed)
    if kind == "text_one_high":
        text = bytearray(paragraphs(random.Random(seed), size + 64)
                         .encode()[:size])
        if text:
            text[at % size] = int(rng.integers(128, 256))
        return bytes(text)
    group = 8 * (seed % 32)
    lo, hi = {"group": (group, group + 8), "low": (0, 8),
              "high": (248, 256), "straddle": (120, 136),
              "upper": (128, 256), "all": (0, 256)}[kind]
    return rng.integers(lo, hi, size, dtype=np.uint8).tobytes()


def _same_digest(got, ref):
    return (got and got.hexdigest()) == (ref and ref.hexdigest())


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(_ALPHABETS), seed=st.integers(0, 2**32 - 1),
       size=st.integers(WINDOW, 5000), at=st.integers(0, 10**6),
       n_starts=st.integers(1, 3000))
@example(kind="straddle", seed=1, size=5000, at=0, n_starts=3000)
@example(kind="text_one_high", seed=2, size=5000, at=4321, n_starts=3000)
@example(kind="all", seed=3, size=5000, at=0, n_starts=3000)
def test_window_entropies_match_scalar_at_range_edges(kind, seed, size, at,
                                                      n_starts):
    buf = np.frombuffer(_alphabet_blob(kind, seed, size, at), np.uint8)
    offsets = buf.size - WINDOW + 1
    starts = np.sort(np.random.default_rng(seed).choice(
        offsets, min(n_starts, offsets), replace=False))
    want = [_window_entropy_scalar(buf[s:s + WINDOW])
            for s in starts.tolist()]
    assert _hex(_window_entropies(buf, starts)) == _hex(want)


_blob_spec = st.tuples(st.sampled_from(_ALPHABETS),
                       st.integers(0, 2**32 - 1), st.integers(0, 6000),
                       st.integers(0, 10**6))


@settings(max_examples=15, deadline=None)
@given(specs=st.lists(_blob_spec, min_size=1, max_size=6))
@example(specs=[("text_one_high", 4, 5000, 77), ("all", 5, 3000, 0),
                ("low", 6, 2000, 0), ("upper", 7, 4000, 0)])
# the span's first 4,096 bytes hold a byte below 8 but none at 248 or
# above, so its range is read from the whole span
@example(specs=[("low", 8, 5000, 0), ("high", 9, 3000, 0)])
def test_digest_many_mixed_ranges_match_scalar(specs):
    batch = [_alphabet_blob(*spec) for spec in specs]
    for blob, got in zip(batch, digest_many(batch)):
        assert _same_digest(got, sdhash_scalar(blob))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 20_000), min_size=1, max_size=8))
def test_stream_alternating_text_and_ciphertext_matches_scalar(seed, sizes):
    rng = random.Random(seed)
    chunks = [paragraphs(rng, n + 64).encode()[:n] if i % 2 == 0
              else rng.randbytes(n) for i, n in enumerate(sizes)]
    state = StreamingDigestState()
    for chunk in chunks:
        state.update(chunk)
    assert _same_digest(state.finalize(), sdhash_scalar(b"".join(chunks)))
