"""Similarity-preserving hashes.

``sdhash`` is the paper's similarity metric (Roussev's similarity digests);
``ssdeep`` (Kornblum's CTPH) is provided as the cited alternative backend
for ablation experiments.
"""

from .bloom import BITS_PER_FEATURE, FILTER_BITS, MAX_FEATURES
from .sdhash import (ANCHOR_MASK, MIN_DIGEST_BYTES, WINDOW, SdDigest,
                     compare, digest_many, sdhash)
from .ssdeep import MIN_INPUT, CtphSignature, compare_signatures, ctph

__all__ = [
    "ANCHOR_MASK", "BITS_PER_FEATURE", "CtphSignature",
    "FILTER_BITS", "MAX_FEATURES", "MIN_DIGEST_BYTES", "MIN_INPUT",
    "SdDigest", "WINDOW", "compare", "compare_signatures", "ctph",
    "digest_many", "sdhash",
]
