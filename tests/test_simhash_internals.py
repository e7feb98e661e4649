"""sdhash internals: anchoring, feature selection, digest geometry."""

import random

import pytest

from repro.simhash import MAX_FEATURES, WINDOW, sdhash
from repro.simhash.sdhash import (ANCHOR_MASK, MIN_FEATURE_ENTROPY,
                                  _anchor_positions)
from tests.reference import _select_features

import numpy as np


def _buf(data):
    return np.frombuffer(bytes(data), dtype=np.uint8)


class TestAnchoring:
    def test_density_near_one_sixteenth(self):
        data = random.Random(0).randbytes(100000)
        starts = _anchor_positions(_buf(data))
        density = starts.size / len(data)
        assert 1 / 24 < density < 1 / 11   # expectation 1/16

    def test_anchors_are_shift_invariant(self):
        """The same byte run anchors the same windows at any offset —
        the property fixed-stride scanning lacks."""
        shared = random.Random(1).randbytes(4000)
        a = b"x" * 7 + shared          # arbitrary, non-16-aligned prefix
        b = b"y" * 123 + shared
        wa = {bytes(a[s:s + WINDOW]) for s in _anchor_positions(_buf(a))
              if s >= 7 + 8}
        wb = {bytes(b[s:s + WINDOW]) for s in _anchor_positions(_buf(b))
              if s >= 123 + 8}
        overlap = len(wa & wb) / max(1, min(len(wa), len(wb)))
        assert overlap > 0.8

    def test_too_short_input_no_anchors(self):
        assert _anchor_positions(_buf(b"tiny")).size == 0

    def test_anchors_leave_room_for_window(self):
        data = random.Random(2).randbytes(3000)
        starts = _anchor_positions(_buf(data))
        assert all(s + WINDOW <= len(data) for s in starts)

    def test_mask_controls_density(self):
        # the configured mask implies the 1/(mask+1) expectation
        assert ANCHOR_MASK == 15


class TestFeatureSelection:
    def test_zero_regions_yield_no_features(self):
        features = _select_features(bytes(5000))
        assert features == []

    def test_features_meet_entropy_floor(self):
        from repro.entropy import shannon_entropy
        data = bytes(1000) + random.Random(3).randbytes(3000) + bytes(1000)
        for feature in _select_features(data):
            assert shannon_entropy(feature) >= MIN_FEATURE_ENTROPY

    def test_features_are_window_sized(self):
        data = random.Random(4).randbytes(4000)
        features = _select_features(data)
        assert features and all(len(f) == WINDOW for f in features)

    def test_selection_deterministic(self):
        data = random.Random(5).randbytes(6000)
        assert _select_features(data) == _select_features(data)


class TestDigestGeometry:
    def test_filter_chaining_respects_capacity(self):
        big = random.Random(6).randbytes(400000)
        digest = sdhash(big)
        assert len(digest) >= 2
        for count in digest.counts[:-1]:
            assert count == MAX_FEATURES
        assert 0 < digest.counts[-1] <= MAX_FEATURES

    def test_feature_count_recorded(self):
        data = random.Random(7).randbytes(20000)
        digest = sdhash(data)
        assert digest.n_features == sum(digest.counts)
        assert digest.source_len == len(data)

    def test_hexdigest_stable_and_distinct(self):
        a = sdhash(random.Random(8).randbytes(5000))
        b = sdhash(random.Random(9).randbytes(5000))
        assert a.hexdigest() != b.hexdigest()
        assert len(a.hexdigest()) == 40
