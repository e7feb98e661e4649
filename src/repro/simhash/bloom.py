"""Bloom filters for similarity digests.

sdhash packs selected features into a chain of 256-byte Bloom filters
(2048 bits, 5 bit-positions per feature, at most 160 features per filter).
We reproduce that geometry.  The digest kernel derives every feature's
bit positions at once with :func:`feature_positions` and compares packed
filters as Python ints (:func:`repro.simhash.sdhash.compare`); the
per-feature, per-filter reading is ``BloomFilter`` in
``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FILTER_BITS", "BITS_PER_FEATURE", "MAX_FEATURES",
           "feature_positions"]

FILTER_BITS = 2048          # 256 bytes, as in sdhash
BITS_PER_FEATURE = 5        # sdhash uses 5 sub-hashes per SHA-1 feature
MAX_FEATURES = 160          # features per filter before chaining


def feature_positions(hashes: np.ndarray) -> np.ndarray:
    """Bit positions for a batch of feature hashes, vectorised.

    ``hashes`` is an ``(n, 20)`` uint8 array of SHA-1 digests; the result
    is ``(n, BITS_PER_FEATURE)`` int64 positions, bit-identical to the
    scalar ``BloomFilter.positions`` of ``tests/reference.py`` per row.
    The five 11-bit slices occupy the low 55 bits of the first-16-bytes
    big-endian integer, which live entirely inside bytes 8..16 viewed as
    one big-endian uint64.
    """
    low = np.ascontiguousarray(hashes[:, 8:16]).view(">u8")
    low = low.astype(np.uint64).reshape(-1)
    shifts = np.arange(BITS_PER_FEATURE, dtype=np.uint64) * np.uint64(11)
    return ((low[:, None] >> shifts[None, :])
            & np.uint64(FILTER_BITS - 1)).astype(np.int64)
