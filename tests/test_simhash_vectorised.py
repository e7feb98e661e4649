"""Golden equivalence of the vectorised sdhash paths to the scalar ones.

The vectorised feature selector, digest builder, and batched all-pairs
compare must be *bit-identical* to the scalar reference implementations —
identical hexdigests, identical integer scores — over diverse corpora:
text, random bytes, compressed data, zero padding, and multi-filter
(300 KB+) documents.  Any last-ulp float divergence in the entropy
selection or any popcount discrepancy in the compare shows up here.
"""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.wordlists import paragraphs
from repro.simhash.bloom import BloomFilter, feature_positions, packed_popcount
from repro.simhash.sdhash import SdDigest, _select_features, compare, sdhash
from tests.reference import (_select_features_scalar, compare_scalar,
                             sdhash_scalar)


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

    import numpy as np
    features = _select_features(CORPUS[0])[:50]
    raw = b"".join(hashlib.sha1(f).digest() for f in features)
    rows = feature_positions(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(features), 20))
    for feature, row in zip(features, rows):
        assert sorted(BloomFilter.positions(
            hashlib.sha1(feature).digest())) == sorted(row.tolist())


def test_packed_popcount_matches_bits():
    filt = BloomFilter()
    rng = random.Random(5)
    for _ in range(80):
        filt.add(rng.randbytes(20))
    assert packed_popcount(filt.packed()) == int(filt.bits.sum())


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
