"""Similarity digests: sdhash-style and CTPH."""

import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.wordlists import paragraphs
from repro.simhash import (MIN_DIGEST_BYTES, compare, compare_signatures,
                           ctph, sdhash)
from tests.reference import BloomFilter


def _text(seed, approx=16000):
    return paragraphs(random.Random(seed), approx).encode()


def _score(x, y):
    return compare(sdhash(x), sdhash(y))


class TestBloomFilter:
    def test_add_and_contains(self):
        filt = BloomFilter()
        feature = b"\x42" * 20
        filt.add(feature)
        assert filt.contains(feature)

    def test_absent_feature_unlikely_contained(self):
        filt = BloomFilter()
        filt.add(b"\x01" * 20)
        assert not filt.contains(b"\xfe" * 20)

    def test_popcount_grows(self):
        filt = BloomFilter()
        before = filt.popcount()
        filt.add(b"\x99" * 20)
        assert filt.popcount() > before

    def test_full_after_capacity(self):
        from repro.simhash import MAX_FEATURES
        filt = BloomFilter()
        rng = random.Random(0)
        for _ in range(MAX_FEATURES):
            filt.add(rng.randbytes(20))
        assert filt.full

    def test_identical_filters_similarity_one(self):
        rng = random.Random(1)
        features = [rng.randbytes(20) for _ in range(60)]
        a = BloomFilter.from_features(features)
        b = BloomFilter.from_features(features)
        assert a.similarity(b) == pytest.approx(1.0)

    def test_disjoint_filters_similarity_near_zero(self):
        rng = random.Random(2)
        a = BloomFilter.from_features(rng.randbytes(20) for _ in range(60))
        b = BloomFilter.from_features(rng.randbytes(20) for _ in range(60))
        assert a.similarity(b) < 0.25

    def test_empty_filter_similarity_zero(self):
        assert BloomFilter().similarity(BloomFilter()) == 0.0


class TestSdhashProperties:
    def test_self_similarity_is_100(self):
        digest = sdhash(_text(1))
        assert compare(digest, digest) == 100

    def test_small_edit_keeps_high_score(self):
        data = bytearray(_text(2))
        data[500:540] = b"X" * 40
        assert _score(_text(2), bytes(data)) >= 90

    def test_ciphertext_scores_near_zero(self):
        """§III-B: encrypted output must not match its plaintext."""
        plain = _text(3)
        cipher = random.Random(3).randbytes(len(plain))
        assert _score(plain, cipher) <= 5

    def test_two_random_blobs_near_zero(self):
        rng = random.Random(4)
        assert _score(rng.randbytes(9000), rng.randbytes(9000)) <= 5

    def test_small_files_yield_no_digest(self):
        """§V-C: files under 512 bytes cannot be scored."""
        assert sdhash(b"A tiny note." * 10) is None
        assert len(b"A tiny note." * 10) < MIN_DIGEST_BYTES

    def test_512_byte_text_file_digests(self):
        data = _text(5)[:700]
        assert sdhash(data) is not None

    def test_compare_with_missing_digest_is_none(self):
        assert compare(None, sdhash(_text(6))) is None
        assert compare(sdhash(_text(6)), None) is None

    def test_shift_invariance(self):
        """A shared byte run must match regardless of its offset —
        the property that keeps benign container saves above the
        ciphertext floor."""
        shared = _text(7, 12000)
        a = b"HEADER-A" + shared
        b = b"A-COMPLETELY-DIFFERENT-PREFIX!!" + shared
        assert _score(a, b) >= 50

    def test_shared_zip_members_score_positive(self):
        common = zlib.compress(_text(8))
        doc1 = common + zlib.compress(b"unique one" * 200)
        doc2 = common + zlib.compress(b"other half" * 210)
        assert _score(doc1, doc2) > 5

    def test_score_symmetric(self):
        a, b = sdhash(_text(9)), sdhash(_text(10))
        assert compare(a, b) == compare(b, a)

    def test_digest_deterministic(self):
        assert sdhash(_text(11)).hexdigest() == sdhash(_text(11)).hexdigest()

    def test_large_input_chains_filters(self):
        big = _text(12, 300000)
        digest = sdhash(big)
        assert len(digest) > 1
        assert compare(digest, digest) == 100

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10000))
    def test_plain_vs_cipher_always_separable(self, seed):
        rng = random.Random(seed)
        plain = paragraphs(rng, 4000).encode()
        cipher = rng.randbytes(len(plain))
        score = _score(plain, cipher)
        assert score is None or score <= 10

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=2048, max_size=8192))
    def test_score_range(self, data):
        other = bytes(reversed(data))
        score = _score(data, other)
        assert score is None or 0 <= score <= 100


class TestCtph:
    def test_self_match_100(self):
        sig = ctph(_text(20))
        assert compare_signatures(sig, sig) == 100

    def test_edit_keeps_match(self):
        data = bytearray(_text(21))
        data[100:110] = b"0123456789"
        score = compare_signatures(ctph(_text(21)), ctph(bytes(data)))
        assert score >= 60

    def test_cipher_no_match(self):
        plain = _text(22)
        cipher = random.Random(22).randbytes(len(plain))
        assert compare_signatures(ctph(plain), ctph(cipher)) <= 5

    def test_tiny_input_none(self):
        assert ctph(b"short") is None

    def test_signature_string_format(self):
        sig = ctph(_text(23))
        blocksize, s1, s2 = str(sig).split(":")
        assert int(blocksize) >= 3
        assert s1 and s2

    def test_mismatched_blocksizes_score_zero(self):
        small = ctph(_text(24, 1000))
        huge = ctph(_text(25, 600000))
        assert compare_signatures(small, huge) == 0

    def test_signature_equality(self):
        assert ctph(_text(26)) == ctph(_text(26))
