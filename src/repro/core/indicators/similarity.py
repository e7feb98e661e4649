"""Primary indicator: similarity collapse (paper §III-B).

"Given the similarity hash of the previous version of a file, a comparison
with the hash of the encrypted version of that file should yield no match"
— ciphertext is indistinguishable from random data, and sdhash scores two
random blobs near zero.  A comparable pair of digests scoring at or below
the near-zero threshold is one hit.

Files too small to digest (< 512 B for sdhash) yield ``None`` and score
nothing — the CTB-Locker delay of §V-C.
"""

from __future__ import annotations

from typing import Optional

from ...simhash import compare, compare_signatures, ctph, sdhash
from ..filestate import InspectionResult, TrackedFile

__all__ = ["similarity_score", "similarity_collapsed"]


def similarity_score(record: TrackedFile, new_content: bytes,
                     backend: str = "sdhash",
                     inspection: Optional[InspectionResult] = None
                     ) -> Optional[int]:
    """0–100 similarity of ``new_content`` to the record's baseline.

    None when either side has no digest (too small, never captured, or the
    file was born empty under the current writer).  A baseline whose
    digest is still deferred raises ``ValueError``: the caller
    materialises it through its cache first, as the engine does.

    ``inspection`` carries the close path's single
    :class:`~..filestate.InspectionResult` for ``new_content`` so the
    digest is not recomputed here.  When the inspection did *not* digest
    (``digested`` is False — e.g. the buffer exceeded the inspection
    ceiling), we fall back to digesting directly: the ceiling only caps
    the *baseline* side, matching the pre-cache behaviour.
    """
    if not record.has_baseline or record.born_empty:
        return None
    if record.pending_content is not None:
        raise ValueError(
            "baseline digest is still deferred: materialise it with "
            "FileStateCache.materialise_baseline before comparing")
    if backend == "sdhash":
        make, score = sdhash, compare
    elif backend == "ctph":
        make, score = ctph, compare_signatures
    else:
        raise ValueError(f"unknown similarity backend {backend!r}")
    if record.base_digest is None:
        return None
    if inspection is not None and inspection.digested:
        return score(record.base_digest, inspection.digest)
    return score(record.base_digest, make(new_content))


def similarity_collapsed(score: Optional[int], trigger_max: int = 5) -> bool:
    """True when the comparison succeeded and came back near zero."""
    return score is not None and score <= trigger_max
