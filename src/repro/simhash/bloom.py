"""Bloom filters for similarity digests.

sdhash packs selected features into a chain of 256-byte Bloom filters
(2048 bits, 5 bit-positions per feature, at most 160 features per filter).
We reproduce that geometry.  :class:`BloomFilter` is the per-feature,
per-filter reading; the digest kernel derives every feature's bit
positions at once with :func:`feature_positions` and compares packed
filters as Python ints (:func:`repro.simhash.sdhash.compare`).
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

__all__ = ["BloomFilter", "FILTER_BITS", "BITS_PER_FEATURE", "MAX_FEATURES",
           "feature_positions"]

FILTER_BITS = 2048          # 256 bytes, as in sdhash
BITS_PER_FEATURE = 5        # sdhash uses 5 sub-hashes per SHA-1 feature
MAX_FEATURES = 160          # features per filter before chaining


def feature_positions(hashes: np.ndarray) -> np.ndarray:
    """Bit positions for a batch of feature hashes, vectorised.

    ``hashes`` is an ``(n, 20)`` uint8 array of SHA-1 digests; the result
    is ``(n, BITS_PER_FEATURE)`` int64 positions, bit-identical to
    :meth:`BloomFilter.positions` per row.  The five 11-bit slices occupy
    the low 55 bits of the first-16-bytes big-endian integer, which live
    entirely inside bytes 8..16 viewed as one big-endian uint64.
    """
    low = np.ascontiguousarray(hashes[:, 8:16]).view(">u8")
    low = low.astype(np.uint64).reshape(-1)
    shifts = np.arange(BITS_PER_FEATURE, dtype=np.uint64) * np.uint64(11)
    return ((low[:, None] >> shifts[None, :])
            & np.uint64(FILTER_BITS - 1)).astype(np.int64)


class BloomFilter:
    """A fixed-geometry Bloom filter over 160-bit feature hashes."""

    __slots__ = ("bits", "count")

    def __init__(self) -> None:
        self.bits = np.zeros(FILTER_BITS, dtype=bool)
        self.count = 0

    @staticmethod
    def positions(feature_hash: bytes) -> List[int]:
        """Derive the 5 bit positions from a 20-byte hash (11 bits each)."""
        value = int.from_bytes(feature_hash[:16], "big")
        positions = []
        for _ in range(BITS_PER_FEATURE):
            positions.append(value & (FILTER_BITS - 1))
            value >>= 11
        return positions

    def add(self, feature_hash: bytes) -> None:
        for pos in self.positions(feature_hash):
            self.bits[pos] = True
        self.count += 1

    @property
    def full(self) -> bool:
        return self.count >= MAX_FEATURES

    def popcount(self) -> int:
        return int(self.bits.sum())

    def intersect_count(self, other: "BloomFilter") -> int:
        return int((self.bits & other.bits).sum())

    def contains(self, feature_hash: bytes) -> bool:
        return all(self.bits[pos] for pos in self.positions(feature_hash))

    def similarity(self, other: "BloomFilter") -> float:
        """Similarity estimate in [0, 1] between two filters.

        Uses sdhash's approach: compare the observed bit overlap against
        the overlap expected from two independent filters of the observed
        densities, normalised by the maximum possible overlap.
        """
        pa, pb = self.popcount(), other.popcount()
        if pa == 0 or pb == 0:
            return 0.0
        overlap = self.intersect_count(other)
        expected = pa * pb / FILTER_BITS
        max_overlap = min(pa, pb)
        if max_overlap <= expected:
            return 0.0
        score = (overlap - expected) / (max_overlap - expected)
        return max(0.0, min(1.0, score))

    @classmethod
    def from_features(cls, hashes: Iterable[bytes]) -> "BloomFilter":
        filt = cls()
        for feature_hash in hashes:
            filt.add(feature_hash)
        return filt

    def packed(self) -> np.ndarray:
        """The bit array packed to 256 uint8 values (np.packbits order)."""
        return np.packbits(self.bits)
