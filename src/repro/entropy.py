"""Shannon entropy over byte arrays.

Implements the paper's §III-C formula exactly:

    e = sum_i P(B_i) * log2(1 / P(B_i)),   P(B_i) = F_i / total_bytes

giving a value in [0, 8] where 8 is a perfectly even byte distribution.
Also provides the vectorised windowed variant that the sdhash-style feature
selector uses, and the paper's §IV-C1 weighted-mean machinery
(``w = 0.125 × ⌊e⌉ × b``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "shannon_entropy",
    "corrected_entropy",
    "corrected_entropy_from_counts",
    "corrected_entropies_from_histograms",
    "histograms_many",
    "entropy_weight",
    "windowed_entropy",
    "WeightedEntropyMean",
]


def _as_bytes(data) -> bytes:
    """Copy only non-bytes inputs (memoryview, bytearray); the engine's
    read/write payloads are already immutable ``bytes``."""
    return data if isinstance(data, bytes) else bytes(data)


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy of ``data`` in bits per byte (0.0 for empty input)."""
    if not data:
        return 0.0
    counts = np.bincount(np.frombuffer(_as_bytes(data), dtype=np.uint8),
                         minlength=256)
    probs = counts[counts > 0] / len(data)
    return float(-(probs * np.log2(probs)).sum())


def corrected_entropy(data: bytes) -> float:
    """Miller–Madow bias-corrected Shannon entropy, clamped to [0, 8].

    The naive plug-in estimator underestimates entropy on short samples:
    a 2 KiB ciphertext chunk measures ≈ 7.91 even though the source is
    uniform.  The Miller–Madow correction adds ``(K − 1) / (2·n·ln 2)``
    (K = observed distinct byte values), which restores ciphertext chunks
    to ≈ 8.0 at every operation size the engine sees.  The per-process
    entropy means use this estimator so the paper's 0.1 delta threshold
    keeps its resolution regardless of a sample's chunking habits.
    """
    if not data:
        return 0.0
    buf = np.frombuffer(_as_bytes(data), dtype=np.uint8)
    counts = np.bincount(buf, minlength=256)
    nonzero = counts[counts > 0]
    probs = nonzero / len(buf)
    plug_in = float(-(probs * np.log2(probs)).sum())
    correction = (len(nonzero) - 1) / (2.0 * len(buf) * np.log(2.0))
    return min(8.0, plug_in + correction)


def corrected_entropy_from_counts(counts: np.ndarray, n: int) -> float:
    """:func:`corrected_entropy` from a precomputed byte histogram.

    ``counts`` is a 256-bin integer histogram summing to ``n``.  Because
    the histogram is exact integers however it was accumulated, the value
    is bit-identical to ``corrected_entropy(data)`` over the same bytes.
    """
    if n == 0:
        return 0.0
    nonzero = counts[counts > 0]
    probs = nonzero / n
    plug_in = float(-(probs * np.log2(probs)).sum())
    correction = (len(nonzero) - 1) / (2.0 * n * np.log(2.0))
    return min(8.0, plug_in + correction)


def histograms_many(blobs) -> np.ndarray:
    """Per-blob 256-bin byte histograms as an ``(n, 256)`` int64 array.

    Each row equals ``np.bincount(np.frombuffer(blob, np.uint8),
    minlength=256)`` — one contiguous counting pass per blob, which beats
    any concatenated scatter: a shared ``(n × 256)``-bin bincount touches
    a multi-megabyte output randomly per chunk, while per-blob counts stay
    in cache.  Integer counts are exact regardless of accumulation route.
    """
    F = len(blobs)
    hists = np.zeros((F, 256), dtype=np.int64)
    for i, blob in enumerate(blobs):
        if len(blob):
            hists[i] = np.bincount(
                np.frombuffer(_as_bytes(blob), dtype=np.uint8),
                minlength=256)
    return hists


def corrected_entropies_from_histograms(hists: np.ndarray,
                                        lens) -> np.ndarray:
    """Batched :func:`corrected_entropy_from_counts` over histogram rows.

    The plug-in term for each row is a ``np.sum`` over that row's nonzero
    probability terms — elementwise ops plus a contiguous pairwise slice
    sum, the same reduction the scalar path performs — so every value is
    bit-identical to calling the scalar function row by row.
    """
    F = hists.shape[0]
    out = np.zeros(F, dtype=np.float64)
    if F == 0:
        return out
    lens = np.asarray(lens, dtype=np.int64)
    mask = hists > 0
    k_per_file = mask.sum(axis=1)
    nonzero = hists[mask].astype(np.float64)
    probs = nonzero / lens.repeat(k_per_file)
    prod = probs * np.log2(probs)
    bounds = np.zeros(F + 1, dtype=np.int64)
    np.cumsum(k_per_file, out=bounds[1:])
    ln2 = np.log(2.0)
    for i in range(F):
        n = int(lens[i])
        if n == 0:
            continue
        plug_in = float(-prod[bounds[i]:bounds[i + 1]].sum())
        correction = (int(k_per_file[i]) - 1) / (2.0 * n * ln2)
        out[i] = min(8.0, plug_in + correction)
    return out


def windowed_entropy(data: bytes, window: int = 64, step: int = 16) -> np.ndarray:
    """Entropy of each ``window``-byte window, advanced ``step`` bytes.

    Fully vectorised: builds per-window byte histograms with a single
    scatter-add.  Returns an empty array when ``data`` is shorter than one
    window.
    """
    buf = np.frombuffer(_as_bytes(data), dtype=np.uint8)
    if len(buf) < window:
        return np.zeros(0, dtype=np.float64)
    views = np.lib.stride_tricks.sliding_window_view(buf, window)[::step]
    n_windows = views.shape[0]
    rows = np.repeat(np.arange(n_windows, dtype=np.int64), window)
    flat = rows * 256 + views.ravel()
    counts = np.bincount(flat, minlength=n_windows * 256).reshape(n_windows, 256)
    # count → p·log2(p) term table (counts are integers in [0, window]):
    # identical float ops per term, but no log2 over a mostly-zero matrix
    c = np.arange(1, window + 1, dtype=np.float64)
    terms = np.zeros(window + 1, dtype=np.float64)
    terms[1:] = (c / window) * np.log2(c / window)
    return -terms[counts].sum(axis=1)


def entropy_weight(entropy: float, n_bytes: int) -> float:
    """The paper's weight ``w = 0.125 × ⌊e⌉ × b``.

    ``⌊e⌉`` is the entropy rounded to the nearest integer; the 0.125
    constant normalises the entropy factor to [0, 1] so that "low-entropy
    and small read/write operations do not over-influence the mean".
    """
    return 0.125 * round(entropy) * n_bytes


class WeightedEntropyMean:
    """Incrementally maintained weighted arithmetic mean of op entropies.

    One instance per (process, direction): ``Pread`` or ``Pwrite``.
    With ``corrected=True`` (the engine's setting) the Miller–Madow
    estimator is used per op; the weight formula is unchanged.
    """

    __slots__ = ("_weighted_sum", "_weight_total", "ops", "corrected")

    def __init__(self, corrected: bool = False) -> None:
        self._weighted_sum = 0.0
        self._weight_total = 0.0
        self.ops = 0
        self.corrected = corrected

    def update(self, data: bytes) -> float:
        """Fold one atomic read/write; returns that op's entropy."""
        e = corrected_entropy(data) if self.corrected else shannon_entropy(data)
        return self._fold(e, len(data))

    def update_from_counts(self, counts: np.ndarray, n: int) -> float:
        """Fold one op from its precomputed 256-bin byte histogram.

        Lets a caller that already counted the payload's bytes feed the
        mean without a second ``bincount`` over the same buffer; the
        folded entropy is bit-identical to :meth:`update` on the counted
        bytes.
        """
        if self.corrected:
            e = corrected_entropy_from_counts(counts, n)
        elif n == 0:
            e = 0.0
        else:
            probs = counts[counts > 0] / n
            e = float(-(probs * np.log2(probs)).sum())
        return self._fold(e, n)

    def _fold(self, e: float, n_bytes: int) -> float:
        w = entropy_weight(e, n_bytes)
        self._weighted_sum += w * e
        self._weight_total += w
        self.ops += 1
        return e

    @property
    def value(self) -> Optional[float]:
        """Current mean, or None before any weighted observation."""
        if self._weight_total == 0.0:
            return None
        return self._weighted_sum / self._weight_total

    def state(self) -> Tuple[float, float, int]:
        return self._weighted_sum, self._weight_total, self.ops

    def load(self, weighted_sum: float, weight_total: float,
             ops: int) -> "WeightedEntropyMean":
        """Restore a :meth:`state` tuple (engine checkpoint/restore)."""
        self._weighted_sum = float(weighted_sum)
        self._weight_total = float(weight_total)
        self.ops = int(ops)
        return self
