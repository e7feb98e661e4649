"""sdhash-style similarity digests (Roussev, 2010).

The detector's similarity indicator rests on three properties of sdhash,
all reproduced here:

1. two *homologous* files (sharing substantial byte runs) score high
   (100 "indicating a high likelihood that two files are related"),
2. a file and its ciphertext — or any two unrelated random blobs — score 0
   ("statistically comparable to that of two blobs of random data"),
3. **small files yield no digest** (real sdhash needs a minimum feature
   population; the paper leans on this: CTB-Locker's sub-512-byte victims
   could not be scored, delaying union indication, §V-C).

Algorithm (faithful in shape, simplified in constants — see DESIGN.md):

* candidate 64-byte windows are anchored at **content-defined positions**
  (a cheap rolling hash over the preceding 8 bytes selects ~1/16 of all
  offsets).  Real sdhash evaluates every offset; content anchoring keeps
  the ~16× cost saving of a strided scan while preserving the property
  that matters — *shift invariance*: a byte run shared between two files
  anchors the same windows in both regardless of its offset,
* each candidate's Shannon entropy is computed (vectorised); windows that
  are near-constant (< ``MIN_FEATURE_ENTROPY``) are dropped and only
  local entropy maxima within a popularity neighbourhood are kept,
  mirroring sdhash's popularity rank,
* SHA-1 each selected window into a chain of 2048-bit Bloom filters
  (≤ 160 features each),
* compare digests filter-by-filter; the score is the mean of each filter's
  best match against the other digest, scaled to 0–100.

Each stage has one implementation, which :func:`sdhash`,
:func:`digest_many` and :class:`StreamingDigestState` all call: the
anchor scan (:func:`_anchor_starts`, wrapping uint8 sums), the window
entropies (:func:`_window_entropies`), the popularity rule
(:func:`_popular`, shifted maxima over a line of entropies) and the
feature emission (:func:`_feature_positions` hashes slices of one bytes
object, :func:`_bloom_rows` scatters every filter of a batch into one
bit matrix and packs it once).  :func:`sdhash` is the batched kernel run
on a batch of one.  A :class:`WindowReference` — the window entropies a
stream computed for a related version — lets :func:`digest_many` skip
the entropy of every window inside a content-defined chunk the two
versions share byte for byte.  :func:`compare` scores a pair on Python
ints, and :func:`compare_many` calls it per pair.
The per-feature / per-pair scalar reading of the same definition lives
in ``tests/reference.py``; the golden equivalence tests
(``tests/test_simhash_vectorised.py``) pin the two bit-identical,
``tests/data/sdhash_golden.txt`` pins absolute digests and scores, and
``make bench-ab`` measures the gap.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

from .bloom import FILTER_BITS, MAX_FEATURES, BloomFilter, feature_positions

__all__ = ["SdDigest", "sdhash", "compare", "digest_many", "compare_many",
           "StreamingDigestState", "WindowReference",
           "MIN_DIGEST_BYTES", "WINDOW", "ANCHOR_MASK"]

WINDOW = 64
#: anchor density: offsets where rolling-hash & ANCHOR_MASK == 0 (~1/16)
ANCHOR_MASK = 15
#: rolling-hash weights over the 8 bytes before a window
_ANCHOR_WEIGHTS = np.array([1, 3, 5, 7, 11, 13, 17, 19], dtype=np.uint8)
#: sdhash refuses to digest tiny inputs; the paper pins the practical
#: threshold at 512 bytes ("sdhash is unable to generate similarity scores
#: for such small files", §V-C — files < 512 B).
MIN_DIGEST_BYTES = 512
MIN_FEATURES = 4
#: windows whose entropy falls below this carry too little structure
#: (long zero runs, padding) and are excluded, as in sdhash's rank table.
MIN_FEATURE_ENTROPY = 0.8
#: popularity neighbourhood: a window must be the entropy maximum of its
#: neighbouring candidates to be selected (ties broken leftmost).
POPULARITY_SPAN = 3

_FILTER_BYTES = FILTER_BITS // 8


def _as_bytes(data) -> bytes:
    """Copy only non-bytes inputs (memoryview, bytearray)."""
    return data if isinstance(data, bytes) else bytes(data)


class SdDigest:
    """A chained-Bloom-filter similarity digest.

    It holds its filters packed: an ``(n_filters, 256)`` uint8 bit-matrix
    in np.packbits order, plus each filter's feature count.  The kernel,
    the store decoder and :meth:`from_state` all build it that way, so
    :func:`compare` never packs anything.
    """

    __slots__ = ("counts", "n_features", "source_len", "_packed", "_ints",
                 "_filters")

    def __init__(self, packed: np.ndarray, counts: List[int],
                 n_features: int, source_len: int) -> None:
        self._packed = packed
        #: features per filter, in chain order
        self.counts = counts
        self.n_features = n_features
        self.source_len = source_len
        self._ints: Optional[Tuple[List[int], List[int]]] = None
        self._filters: Optional[List[BloomFilter]] = None

    def __len__(self) -> int:
        return self._packed.shape[0]

    @property
    def filters(self) -> List[BloomFilter]:
        """The filters as :class:`BloomFilter` objects, unpacked on first
        use; per-filter inspection reads them, the digest and compare
        paths never do."""
        if self._filters is None:
            bits = np.unpackbits(self._packed, axis=1).astype(bool)
            self._filters = []
            for row, count in zip(bits, self.counts):
                filt = BloomFilter()
                filt.bits = row
                filt.count = count
                self._filters.append(filt)
        return self._filters

    def packed_matrix(self) -> np.ndarray:
        """All filters as an ``(n_filters, 256)`` uint8 bit-matrix
        (np.packbits order) — what the store codec writes."""
        return self._packed

    def _int_rows(self) -> Tuple[List[int], List[int]]:
        """Each filter as one 2048-bit Python int, with its popcount;
        computed once, for :func:`compare`."""
        if self._ints is None:
            raw = self._packed.tobytes()
            words = [int.from_bytes(raw[lo:lo + _FILTER_BYTES], "big")
                     for lo in range(0, len(raw), _FILTER_BYTES)]
            self._ints = (words, [w.bit_count() for w in words])
        return self._ints

    def hexdigest(self) -> str:
        """Stable textual form (for logging / golden tests)."""
        return hashlib.sha1(self._packed.tobytes()).hexdigest()

    # -- checkpoint serialization (JSON-safe, exact) -------------------

    def to_state(self) -> dict:
        return {
            "filters": [{"bits": row.tobytes().hex(), "count": count}
                        for row, count in zip(self._packed, self.counts)],
            "n_features": self.n_features,
            "source_len": self.source_len,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SdDigest":
        entries = state["filters"]
        raw = b"".join(bytes.fromhex(entry["bits"]) for entry in entries)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(entries),
                                                            _FILTER_BYTES)
        return cls(packed, [int(entry["count"]) for entry in entries],
                   int(state["n_features"]), int(state["source_len"]))


# -- stage 1: anchors ---------------------------------------------------------

#: chunk length for the rolling-hash scan: bounds its working set so
#: multi-megabyte buffers (and batch concatenations) stay cache-resident
_ANCHOR_CHUNK = 1 << 18


def _anchor_starts(buf: np.ndarray) -> np.ndarray:
    """Rolling-hash anchor offsets over ``buf``, unfiltered.

    Only ``rolling & ANCHOR_MASK`` is tested and 16 divides 256, so the
    products and sums wrapped to uint8 decide exactly the anchors the
    exact integer sum decides.
    """
    n = buf.size - 7
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    parts = []
    acc = np.empty(min(n, _ANCHOR_CHUNK), dtype=np.uint8)
    term = np.empty_like(acc)
    for lo in range(0, n, _ANCHOR_CHUNK):
        m = min(n - lo, _ANCHOR_CHUNK)
        values, tmp = acc[:m], term[:m]
        np.multiply(buf[lo:lo + m], _ANCHOR_WEIGHTS[0], out=values)
        for k in range(1, 8):
            np.multiply(buf[lo + k:lo + k + m], _ANCHOR_WEIGHTS[k], out=tmp)
            values += tmp
        values &= ANCHOR_MASK
        part = np.flatnonzero(values == 0)
        if part.size:
            parts.append(part + (lo + 8))
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _anchor_positions(buf: np.ndarray) -> np.ndarray:
    """Content-defined window start offsets (shift-invariant)."""
    if len(buf) < WINDOW + 8:
        return np.zeros(0, dtype=np.int64)
    # a window starting at offset i is anchored by the context ending at i-1
    starts = _anchor_starts(buf)
    return starts[starts + WINDOW <= len(buf)]


# -- stage 2: window entropies ------------------------------------------------

#: term table for window entropies: _ENTROPY_TERMS[c] equals the
#: ``p * log2(p)`` term for a byte count of c out of WINDOW, computed with
#: the same float ops the direct formula uses — looking it up instead of
#: calling log2 on a mostly-zero (windows, bins) matrix is what makes
#: feature selection fast, while every summed term stays bit-identical.
_ENTROPY_TERMS = np.zeros(WINDOW + 1, dtype=np.float64)
_counts = np.arange(1, WINDOW + 1, dtype=np.float64)
_ENTROPY_TERMS[1:] = (_counts / WINDOW) * np.log2(_counts / WINDOW)
del _counts


#: row-block size for the per-window histograms: a small block keeps each
#: scatter's working set (block × width int64 counts + the term gather,
#: width ≤ 256 bins) in the L1/L2 caches and every temporary under the
#: allocator's mmap threshold; rows are independent, so blocking cannot
#: change a result.
_ENTROPY_BLOCK = 128
#: windows copied out of the buffer per gather (128 KiB of rows): enough
#: blocks to amortise the gather's call overhead, few enough that the
#: copy never grows with the input
_GATHER_ROWS = 16 * _ENTROPY_BLOCK
#: the block row each histogram index belongs to, ``WINDOW`` times per row
_ROW_OF = np.repeat(np.arange(_ENTROPY_BLOCK, dtype=np.int64), WINDOW)
_ROW_OF.flags.writeable = False
#: bytes whose range is read before the whole buffer's: a byte below 8
#: and one at 248 or above already make the range all 256 bins, and a
#: range can only widen, so full-width content (ciphertext, compressed
#: data) never reads the rest of its buffer for it
_RANGE_PREFIX = 4096


def _byte_range(buf: np.ndarray) -> Tuple[int, int]:
    """The 8-aligned byte range ``[b0, b1)`` that holds every byte of
    ``buf``."""
    head = buf[:_RANGE_PREFIX]
    if np.minimum.reduce(head) < 8 and np.maximum.reduce(head) >= 248:
        return 0, 256
    return (int(np.minimum.reduce(buf)) & ~7,
            (int(np.maximum.reduce(buf)) | 7) + 1)


def _window_entropies(buf: np.ndarray, starts: np.ndarray,
                      byte_range: Optional[Tuple[int, int]] = None
                      ) -> np.ndarray:
    """Shannon entropy of the ``WINDOW`` bytes of ``buf`` at each start.

    Rows are gathered from ``buf`` through a strided view
    ``_GATHER_ROWS`` at a time, so the windows are never copied out all
    at once: transient memory stays bounded, not ``WINDOW`` bytes per
    anchor.

    Each window is histogrammed over the 8-aligned byte range
    ``[b0, b1)`` of ``buf`` only (``b1 - b0`` bins: 120 for ASCII text,
    256 for ciphertext), or over ``byte_range`` when the caller knows an
    8-aligned range that holds every window, and the value is
    bit-identical to the 256-bin sum.  NumPy sums a contiguous row of 256
    float64 terms as ``pairwise(a[:128]) + pairwise(a[128:])``, and a
    pairwise run of at most 128 values adds bin ``j`` into lane ``j % 8``
    in ascending order before combining the eight lanes.  An 8-aligned
    range keeps every bin in its lane and in its order, and every bin it
    leaves out has a count of 0, whose term ``+0.0`` leaves a lane
    unchanged (no term is ``-0.0``).  So the range is summed once when
    it lies inside one half of 0–255 or is all of it, and as two
    half-sums added together when it straddles 128.  ``tests/test_simhash_vectorised.py`` checks this
    model of NumPy's summation order against the installed NumPy.
    """
    n = starts.size
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    # every window as a row of one strided view of ``buf`` (the ndarray
    # constructor builds it in a fifth of ``as_strided``'s time; it is
    # only read)
    every = np.ndarray((buf.size - WINDOW + 1, WINDOW), np.uint8, buf,
                       strides=(1, 1))
    b0, b1 = _byte_range(buf) if byte_range is None else byte_range
    width = b1 - b0
    # a range that straddles 128 short of all 256 bins sums as two halves
    split = 128 - b0 if b0 < 128 < b1 and width < 256 else width
    block = min(n, _ENTROPY_BLOCK)
    # byte v of block row r counts at r * width + v - b0
    base = _ROW_OF[:block * WINDOW] * width
    if b0:
        base -= b0
    idx = np.empty(block * WINDOW, dtype=np.int64)
    terms = np.empty((block, width), dtype=np.float64)
    high = np.empty(block, dtype=np.float64)
    for lo in range(0, n, block):
        if lo % _GATHER_ROWS == 0:
            rows = every[starts[lo:lo + _GATHER_ROWS]].reshape(-1)
        hi = min(n, lo + block)
        k = hi - lo
        at = (lo % _GATHER_ROWS) * WINDOW
        np.add(base[:k * WINDOW], rows[at:at + k * WINDOW],
               out=idx[:k * WINDOW])
        counts = np.bincount(idx[:k * WINDOW],
                             minlength=k * width).reshape(k, width)
        np.take(_ENTROPY_TERMS, counts, mode="clip", out=terms[:k])
        if split < width:
            terms[:k, :split].sum(axis=1, out=out[lo:hi])
            terms[:k, split:].sum(axis=1, out=high[:k])
            out[lo:hi] += high[:k]
        else:
            terms[:k].sum(axis=1, out=out[lo:hi])
    # the per-row value is -(sum of terms); negating the finished sums is
    # exact, so results match the direct -_ENTROPY_TERMS[counts].sum() form
    np.negative(out, out=out)
    return out


def _span_entropies(buf: np.ndarray, starts: np.ndarray,
                    offsets: np.ndarray, file_of: np.ndarray) -> np.ndarray:
    """:func:`_window_entropies` over a batch span, each window
    histogrammed over its own blob's byte range.

    A span whose range is narrow is one call.  A full-width span made of
    several blobs (one binary blob among text ones) groups its windows by
    their blob's 8-aligned range and makes one call per distinct range,
    so the binary blob does not widen every text window to 256 bins.
    """
    span = _byte_range(buf)
    if span != (0, 256) or offsets.size <= 2:
        return _window_entropies(buf, starts, span)
    heads = offsets[:-1]
    low = (np.minimum.reduceat(buf, heads) & 0xF8).astype(np.int64)
    high = (np.maximum.reduceat(buf, heads) | 7).astype(np.int64) + 1
    # each blob's range as one int: b0 << 9 | b1 (b1 <= 256)
    ranges = (low << 9) | high
    keys = np.unique(ranges).tolist()
    if len(keys) == 1:
        return _window_entropies(buf, starts, span)
    out = np.empty(starts.size, dtype=np.float64)
    for key in keys:
        pick = np.flatnonzero((ranges == key)[file_of])
        out[pick] = _window_entropies(buf, starts[pick], (key >> 9, key & 511))
    return out


# -- stage 2b: entropies lent by a related version ----------------------------

#: content-defined chunks for reusing window entropies: an anchored window
#: start is a candidate boundary when its 8 context bytes, read as one
#: little-endian uint64 and multiplied by this constant mod 2**64, have
#: their top 8 bits zero (about one anchor in 256, a chunk every ~4 KiB)
_CUT_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_CUT_SHIFT = np.uint64(56)
#: a candidate is a boundary only this far past the previous boundary, so
#: repetitive content (a zero run anchors, and cuts at, every offset)
#: never makes more than ``len // _MIN_CHUNK`` boundaries
_MIN_CHUNK = 512


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian uint64 at every offset of ``buf`` (a view)."""
    return np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))


def _cut_candidates(buf: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The anchored window starts of ``buf`` (at least one) that are
    candidate chunk boundaries."""
    hashed = _words(buf)[starts - 8] * _CUT_MULTIPLIER
    return starts[(hashed >> _CUT_SHIFT) == 0]


def _chunk_bounds(size: int, cuts: np.ndarray) -> np.ndarray:
    """Content-defined chunk boundaries of a ``size``-byte buffer whose
    candidates are ``cuts`` (ascending): 0, each candidate at least
    ``_MIN_CHUNK`` past the boundary before it, and ``size``.  One
    ``searchsorted`` per chunk, however many candidates there are."""
    bounds = [0]
    while True:
        i = int(cuts.searchsorted(bounds[-1] + _MIN_CHUNK))
        if i == cuts.size:
            break
        bounds.append(int(cuts[i]))
    bounds.append(size)
    return np.array(bounds, dtype=np.int64)


def _chunk_keys(buf: np.ndarray, bounds: np.ndarray):
    """Each chunk long enough to hold a window, as ``(start, key)``; the
    key (length, first and last 8 bytes) only finds candidates, a byte
    comparison decides."""
    heads, ends = bounds[:-1], bounds[1:]
    fits = ends - heads >= WINDOW + 8
    heads, ends = heads[fits], ends[fits]
    if heads.size == 0:
        return []
    words = _words(buf)
    return zip(heads.tolist(), zip((ends - heads).tolist(),
                                   words[heads].tolist(),
                                   words[ends - 8].tolist()))


class WindowReference:
    """Window entropies one version lends the digest of a related one.

    ``data`` is a version's bytes, ``starts`` the start of every anchored
    window in it (ascending, uint32) and ``entropies`` each window's
    entropy — what a :class:`StreamingDigestState` computed while the
    version streamed.  Given one, :func:`digest_many` cuts its input and
    ``data`` into content-defined chunks, and every window of the input
    inside a chunk that ``data`` holds byte for byte takes the lent
    entropy; the rest are computed.  An anchor decision reads only a
    window's 8 context bytes and its entropy only its 64 bytes, and
    :func:`_window_entropies` gives a window the same float64 whatever
    call computes it, so equal chunks hold the same windows at the same
    relative offsets with the same entropies: the digest is bit for bit
    the one computed from scratch.  The chunk rule decides only how much
    is reused.  ``reused`` and ``computed`` count the windows each way.
    """

    __slots__ = ("data", "starts", "entropies", "reused", "computed",
                 "_table")

    def __init__(self, data: bytes, starts: np.ndarray,
                 entropies: np.ndarray) -> None:
        self.data = data
        self.starts = starts
        self.entropies = entropies
        self.reused = 0
        self.computed = 0
        self._table: Optional[dict] = None

    def shared(self, data: bytes, buf: np.ndarray,
               starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The windows at ``starts`` in ``data`` (``buf`` is its array)
        that lie inside a chunk this reference holds byte for byte, as
        indices into ``starts`` and the matching indices into
        ``self.starts``.  A window lies inside a chunk when its 8 context
        bytes and its 64 bytes do."""
        empty = np.zeros(0, dtype=np.int64)
        if self.starts.size == 0:
            return empty, empty
        if self._table is None:
            mine = np.frombuffer(self.data, dtype=np.uint8)
            # a repeated chunk keeps its first copy: any equal one serves
            self._table = {}
            bounds = _chunk_bounds(mine.size,
                                   _cut_candidates(mine, self.starts))
            for head, key in _chunk_keys(mine, bounds):
                self._table.setdefault(key, head)
        table, theirs = self._table, self.data
        own_heads, ref_heads, lengths = [], [], []
        bounds = _chunk_bounds(buf.size, _cut_candidates(buf, starts))
        for head, key in _chunk_keys(buf, bounds):
            at = table.get(key)
            n = key[0]
            if at is not None and data[head:head + n] == theirs[at:at + n]:
                own_heads.append(head)
                ref_heads.append(at)
                lengths.append(n)
        if not lengths:
            return empty, empty
        own_heads = np.array(own_heads, dtype=np.int64)
        ref_heads = np.array(ref_heads, dtype=np.int64)
        tails = np.array(lengths, dtype=np.int64) - WINDOW
        first = starts.searchsorted(own_heads + 8)
        counts = starts.searchsorted(own_heads + tails, side="right") - first
        # equal chunks anchor the same windows, so the reference's run
        # starts at its chunk's first window and is as long
        shift = self.starts.searchsorted(
            (ref_heads + 8).astype(self.starts.dtype)) - first
        own = np.arange(int(counts.sum())) + np.repeat(
            first - (np.cumsum(counts) - counts), counts)
        return own, own + np.repeat(shift, counts)


# -- stage 3: popularity ------------------------------------------------------


def _popular(line: np.ndarray) -> np.ndarray:
    """The popularity rule for the candidates ``line[span:-span]``.

    ``line`` holds candidate entropies in window order with
    ``POPULARITY_SPAN`` context values on each side: decided neighbours,
    held-back candidates, or -inf where there is no neighbour (a buffer's
    ends, the gaps between a batch's files).  A candidate is kept when it
    reaches ``MIN_FEATURE_ENTROPY``, strictly exceeds each of its ``span``
    left neighbours (the leftmost of a tie wins) and is no lower than any
    of its ``span`` right neighbours.  Returns the keep mask.
    """
    span = POPULARITY_SPAN
    n = line.size - 2 * span
    # q[j] = max(line[j:j + span]) from span - 1 shifted maxima; max is
    # order-insensitive, so this is each neighbourhood's maximum exactly
    q = line[:n + span + 1].copy()
    for shift in range(1, span):
        np.maximum(q, line[shift:shift + n + span + 1], out=q)
    cand = line[span:span + n]
    # the right neighbourhood q[i + span + 1] leaves the candidate out:
    # e >= max(e, rest) reduces to e >= max(rest)
    return ((cand >= MIN_FEATURE_ENTROPY) & (cand > q[:n])
            & (cand >= q[span + 1:]))


def _select(blobs: List[bytes],
            reference: Optional[WindowReference] = None
            ) -> Tuple[bytes, np.ndarray, np.ndarray]:
    """Feature selection over a batch, in one pass over its concatenation.

    Returns the concatenation, the start of each selected window in it
    (ascending) and the index of the blob that holds it.  An anchor only
    counts when its 8-byte context and its window both lie inside one
    blob, and every blob's candidates sit on one line between -inf gaps
    of ``POPULARITY_SPAN``, so each blob gets the selection it gets alone.
    With a ``reference``, windows in chunks it shares take its entropies
    and only the rest are computed.
    """
    cat = b"".join(blobs)
    buf = np.frombuffer(cat, dtype=np.uint8)
    starts = _anchor_positions(buf)
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    np.cumsum([len(blob) for blob in blobs], out=offsets[1:])
    file_of = np.searchsorted(offsets, starts, side="right") - 1
    inside = ((starts - 8 >= offsets[file_of])
              & (starts + WINDOW <= offsets[file_of + 1]))
    starts, file_of = starts[inside], file_of[inside]
    if starts.size == 0:
        return cat, starts, file_of
    span = POPULARITY_SPAN
    line = np.full(starts.size + span * (len(blobs) + 1), -np.inf)
    # candidate i of blob f sits at line[span:-span][i + span * f]: a gap
    # of span -inf values between neighbouring blobs
    slot = np.arange(starts.size) + span * file_of
    own = None
    if reference is not None:
        own, theirs = reference.shared(cat, buf, starts)
        reference.reused += own.size
        reference.computed += starts.size - own.size
    if own is None or own.size == 0:
        ent = _span_entropies(buf, starts, offsets, file_of)
    else:
        ent = np.empty(starts.size, dtype=np.float64)
        ent[own] = reference.entropies[theirs]
        todo = np.ones(starts.size, dtype=bool)
        todo[own] = False
        todo = np.flatnonzero(todo)
        ent[todo] = _span_entropies(buf, starts[todo], offsets,
                                    file_of[todo])
    line[span:-span][slot] = ent
    keep = _popular(line)[slot]
    return cat, starts[keep], file_of[keep]


def _select_features(data: bytes) -> List[bytes]:
    """Pick characteristic 64-byte windows of ``data``."""
    cat, starts, _ = _select([_as_bytes(data)])
    return [cat[s:s + WINDOW] for s in starts.tolist()]


# -- stage 4: feature emission ------------------------------------------------


def _feature_positions(windows: List[bytes]) -> np.ndarray:
    """``(k, BITS_PER_FEATURE)`` Bloom bit positions of each window's
    SHA-1."""
    sha1 = hashlib.sha1
    raw = b"".join([sha1(window).digest() for window in windows])
    return feature_positions(np.frombuffer(raw, dtype=np.uint8)
                             .reshape(-1, 20))


def _bloom_rows(positions: np.ndarray, filt_of: np.ndarray,
                n_filters: int) -> Tuple[np.ndarray, List[int]]:
    """Every feature's bits scattered into its filter's row of one
    ``(n_filters, FILTER_BITS)`` matrix, packed once: the packed rows
    and each filter's feature count."""
    bits = np.zeros((n_filters, FILTER_BITS), dtype=bool)
    bits.reshape(-1)[(filt_of[:, None] * FILTER_BITS
                      + positions).reshape(-1)] = True
    return (np.packbits(bits, axis=1),
            np.bincount(filt_of, minlength=n_filters).tolist())


# -- entry points -------------------------------------------------------------


def sdhash(data: bytes) -> Optional[SdDigest]:
    """Digest ``data``; returns None when the input is too small to score."""
    data = _as_bytes(data)
    if len(data) < MIN_DIGEST_BYTES:
        return None
    return _digest_group([data])[0]


#: cap on the concatenated byte span one batched pass materialises; larger
#: batches are split into groups so the anchor offsets, entropies and
#: Bloom scatters (each a few bytes per input byte) stay within a bounded
#: memory footprint at corpus scale
_BATCH_SPAN_BYTES = 4 << 20


def _digest_group(blobs: List[bytes],
                  reference: Optional[WindowReference] = None
                  ) -> List[Optional[SdDigest]]:
    """One batched pass over blobs that all meet ``MIN_DIGEST_BYTES``.

    Selection runs over the concatenation (:func:`_select`); each blob's
    features then chain, in order, into filters of ``MAX_FEATURES``, and
    all filters of all blobs are scattered and packed together.  Every
    result is the digest the blob gets alone.
    """
    F = len(blobs)
    out: List[Optional[SdDigest]] = [None] * F
    cat, starts, file_of = _select(blobs, reference)
    if starts.size == 0:
        return out
    # feature j of blob f goes to filter filt_base[f] + (j - the blob's
    # first feature) // MAX_FEATURES
    per_blob = np.bincount(file_of, minlength=F)
    filt_base = np.zeros(F + 1, dtype=np.int64)
    np.cumsum((per_blob + MAX_FEATURES - 1) // MAX_FEATURES,
              out=filt_base[1:])
    first_feat = np.cumsum(per_blob) - per_blob
    filt_of = filt_base[file_of] + ((np.arange(starts.size)
                                     - first_feat[file_of]) // MAX_FEATURES)
    feats, first_filt = per_blob.tolist(), filt_base.tolist()
    packed, counts = _bloom_rows(
        _feature_positions([cat[s:s + WINDOW] for s in starts.tolist()]),
        filt_of, first_filt[-1])
    for k, n in enumerate(feats):
        if n >= MIN_FEATURES:
            lo, hi = first_filt[k], first_filt[k + 1]
            out[k] = SdDigest(packed[lo:hi], counts[lo:hi], n,
                              len(blobs[k]))
    return out


def digest_many(contents, reference: Optional[WindowReference] = None
                ) -> List[Optional[SdDigest]]:
    """Digest a batch of buffers in one vectorised pass per size group.

    Returns one entry per input, in order: ``None`` exactly where
    :func:`sdhash` returns None (input under ``MIN_DIGEST_BYTES`` or too
    few selected features), otherwise an :class:`SdDigest` bit-identical
    to ``sdhash(content)`` — same filters, feature count, and hexdigest.
    A ``reference`` (:class:`WindowReference`) lends the entropies of the
    windows the inputs share with a related version, and counts them.
    """
    results: List[Optional[SdDigest]] = [None] * len(contents)
    pending_idx: List[int] = []
    pending: List[bytes] = []
    pending_bytes = 0
    for i, content in enumerate(contents):
        blob = _as_bytes(content)
        if len(blob) < MIN_DIGEST_BYTES:
            continue
        if pending and pending_bytes + len(blob) > _BATCH_SPAN_BYTES:
            for j, dig in zip(pending_idx,
                              _digest_group(pending, reference)):
                results[j] = dig
            pending_idx, pending, pending_bytes = [], [], 0
        pending_idx.append(i)
        pending.append(blob)
        pending_bytes += len(blob)
    if pending:
        for j, dig in zip(pending_idx, _digest_group(pending, reference)):
            results[j] = dig
    return results


#: bytes of context a new window can reach back into: the latest byte a
#: future window may need is ``total - (WINDOW - 1) - 8`` (its start can be
#: as early as ``total - WINDOW + 1`` and its anchor context spans the 8
#: preceding bytes), so a 71-byte tail always suffices.
_STREAM_TAIL = WINDOW + 7


class StreamingDigestState:
    """Incremental :func:`sdhash` over an append-only byte stream.

    Feed write chunks with :meth:`update` as they land; :meth:`finalize`
    returns the digest in O(tail) — it never re-reads the stream.  The
    result is **bit-identical** to ``sdhash(whole_buffer)`` for every
    chunking of the same bytes (pinned by ``tests/test_streaming_digest.py``):

    * anchors: a candidate window starting at absolute offset ``S`` is
      discovered in the chunk where ``S + WINDOW`` first fits the stream;
      its rolling-hash context (bytes ``S-8 .. S-1``) always lies inside
      the carried 71-byte tail, so the anchor decision sees exactly the
      bytes the whole-buffer scan sees,
    * entropies: ``_window_entropies`` is row-independent, and a row's
      value does not depend on the byte range its call histograms (a
      chunk's range is its own, not the whole stream's), so per-chunk
      calls produce the same float64 values as one whole-buffer call,
    * popularity: candidates arrive in globally ascending ``S`` order
      (per-chunk intervals ``(T_old-WINDOW, T_new-WINDOW]`` are disjoint
      and increasing); the rule needs ``POPULARITY_SPAN`` neighbours on
      each side, so the last ``span`` candidates stay pending and the
      ``span`` most recent decided entropies are carried as left context
      (``-inf`` initially and as final right padding — exactly the
      whole-buffer padding),
    * filters: features emit in order, and every ``MAX_FEATURES`` of them
      are packed into one filter row, exactly as :func:`sdhash` chains
      them.

    ``min_stream_bytes`` sets how much work a write does:

    * ``0`` streams from the first byte;
    * a positive threshold keeps the stream *buffered* — chunk refs only,
      no numpy work per write — until the threshold is crossed (or
      :meth:`finalize` is called), then replays it through the pipeline;
    * ``None`` keeps only the running key and byte count — no chunk refs,
      no numpy work — for a writer whose digest no close will read; such
      a state cannot :meth:`finalize`.

    Once streaming, the pipeline's own state is O(1) in stream length: a
    71-byte tail, ≤ ``span`` pending windows, <160 pending feature
    positions, plus the finished filters (256 B / 160 features).  The
    stream also keeps every window it computed, its start (uint32) and
    its entropy (float64), 12 bytes a window: about 0.75 byte per
    streamed byte of text at one anchor in 16.
    :meth:`window_reference` lends them to the digest of the version this
    stream replaces.  They are dropped for good once keeping them would
    pass 1 byte per streamed byte (a zero run anchors every offset), and
    freed by :meth:`window_reference` and :meth:`finalize`.

    A running ``blake2b-16`` mirrors :class:`~repro.core.filestate.DigestCache`
    keys in every mode, so the close path gets its cache key in O(1) and
    never hashes the written bytes a second time.
    """

    __slots__ = ("total", "min_stream_bytes", "streaming", "consumed",
                 "chunks_consumed", "n_features", "retained_bytes",
                 "_streamed", "_finalized", "_chunks",
                 "_tail", "_left", "_pend_ent", "_pend_win",
                 "_rows", "_counts", "_pos_rows", "_pos_count", "_hasher",
                 "_seen_starts", "_seen_ent")

    def __init__(self, min_stream_bytes: Optional[int] = 0) -> None:
        #: bytes received so far (every mode)
        self.total = 0
        self.min_stream_bytes = min_stream_bytes
        #: True once numpy work happens per chunk
        self.streaming = min_stream_bytes == 0
        #: True once finalize() actually produced the digest incrementally
        self.consumed = False
        self.chunks_consumed = 0
        self.n_features = 0
        self._streamed = 0
        self._finalized = False
        #: chunk refs while buffered; None when streaming or key-only
        self._chunks: Optional[List[bytes]] = [] if min_stream_bytes else None
        self._tail = b""
        self._left = np.full(POPULARITY_SPAN, -np.inf)
        self._pend_ent = np.zeros(0, dtype=np.float64)
        self._pend_win: List[bytes] = []
        #: packed rows of the finished filters, and their feature counts
        self._rows: List[np.ndarray] = []
        self._counts: List[int] = []
        self._pos_rows: List[np.ndarray] = []
        self._pos_count = 0
        self._hasher = hashlib.blake2b(digest_size=16)
        #: every computed window's start and entropy, per chunk; None once
        #: dropped or handed out
        self._seen_starts: Optional[List[np.ndarray]] = []
        self._seen_ent: List[np.ndarray] = []
        #: bytes those lists hold
        self.retained_bytes = 0

    def update(self, chunk) -> None:
        """Consume the next appended chunk (must be the bytes written at
        offset ``self.total`` — the caller enforces sequentiality)."""
        chunk = _as_bytes(chunk)
        if not chunk:
            return
        self._hasher.update(chunk)
        self.total += len(chunk)
        if self.streaming:
            self._consume(chunk)
        elif self._chunks is not None:
            self._chunks.append(chunk)
            if self.total >= self.min_stream_bytes:
                self._begin_streaming()

    def key(self) -> bytes:
        """The :class:`DigestCache` key of the bytes seen so far."""
        return self._hasher.copy().digest()

    def window_reference(self, data: bytes) -> WindowReference:
        """The windows this stream computed, lent over ``data`` — the
        bytes it saw — to the digest of the version they replace.  The
        stream keeps none of them afterwards.  The reference holds no
        window when the stream never ran the pipeline or dropped them."""
        starts, ent = self._seen_starts, self._seen_ent
        self._drop_windows()
        if not starts:
            return WindowReference(data, np.zeros(0, dtype=np.uint32),
                                   np.zeros(0))
        return WindowReference(data, np.concatenate(starts),
                               np.concatenate(ent))

    def finalize(self) -> Optional[SdDigest]:
        """Close the stream and return the digest (None exactly where
        ``sdhash`` returns None).  O(tail); callable once."""
        if self._finalized:
            raise RuntimeError("StreamingDigestState already finalized")
        if self.min_stream_bytes is None:
            raise RuntimeError("a key-only StreamingDigestState has no "
                               "digest to finalize")
        if not self.streaming:
            self._begin_streaming()
        self._drop_windows()
        self._finalized = True
        self.consumed = True
        # decide the held-back candidates against -inf right padding,
        # exactly the whole-buffer line's end
        if self._pend_ent.size:
            line = np.concatenate([self._left, self._pend_ent,
                                   np.full(POPULARITY_SPAN, -np.inf)])
            keep = np.flatnonzero(_popular(line)).tolist()
            if keep:
                self._emit([self._pend_win[i] for i in keep])
            self._pend_ent = np.zeros(0, dtype=np.float64)
            self._pend_win = []
        if self.total < MIN_DIGEST_BYTES or self.n_features < MIN_FEATURES:
            return None
        if self._pos_count:
            self._pack(self._pos_count)
        packed = (self._rows[0] if len(self._rows) == 1
                  else np.concatenate(self._rows))
        return SdDigest(packed, list(self._counts), self.n_features,
                        self.total)

    # -- internal pipeline ---------------------------------------------

    def _begin_streaming(self) -> None:
        chunks, self._chunks = self._chunks, None
        self.streaming = True
        for chunk in chunks:
            self._consume(chunk)

    def _consume(self, chunk: bytes) -> None:
        t_old = self._streamed
        combined = self._tail + chunk
        t_new = t_old + len(chunk)
        base = t_new - len(combined)
        buf = np.frombuffer(combined, dtype=np.uint8)
        starts = _anchor_positions(buf)
        # new windows only: those whose end first fits this chunk
        # (earlier ones were decided by the chunk that completed them)
        starts = starts[starts + (base + WINDOW) > t_old]
        if starts.size:
            ent = _window_entropies(buf, starts)
            if self._seen_starts is not None:
                self._retain(starts, base, ent, t_new)
            self._advance(combined, starts.tolist(), ent)
        self._streamed = t_new
        self._tail = combined[max(0, len(combined) - _STREAM_TAIL):]
        self.chunks_consumed += 1

    def _retain(self, starts: np.ndarray, base: int, ent: np.ndarray,
                streamed: int) -> None:
        """Keep a chunk's windows (``starts`` at ``base`` in the stream),
        or drop every kept one for good when they would pass 1 byte per
        streamed byte (or a uint32 offset)."""
        kept = self.retained_bytes + starts.size * (4 + 8)
        if kept > streamed or streamed > 0xFFFFFFFF:
            self._drop_windows()
            return
        self._seen_starts.append(np.add(starts, base, dtype=np.uint32,
                                        casting="unsafe"))
        self._seen_ent.append(ent)
        self.retained_bytes = kept

    def _drop_windows(self) -> None:
        self._seen_starts = None
        self._seen_ent = []
        self.retained_bytes = 0

    def _advance(self, combined: bytes, starts: List[int],
                 ent: np.ndarray) -> None:
        """Decide every candidate that has ``POPULARITY_SPAN`` right
        neighbours; hold back the rest.  The candidates are the held-back
        windows, then this chunk's windows at ``starts`` in ``combined``."""
        held = self._pend_win
        if held:
            ent = np.concatenate([self._pend_ent, ent])

        def window(i: int) -> bytes:
            if i < len(held):
                return held[i]
            start = starts[i - len(held)]
            return combined[start:start + WINDOW]

        decide = ent.size - POPULARITY_SPAN
        if decide > 0:
            line = np.concatenate([self._left, ent])
            self._left = line[decide:decide + POPULARITY_SPAN].copy()
            keep = np.flatnonzero(_popular(line)).tolist()
            if keep:
                self._emit([window(i) for i in keep])
        lo = max(decide, 0)
        self._pend_ent = ent[lo:].copy()
        self._pend_win = [window(i) for i in range(lo, ent.size)]

    def _emit(self, windows: List[bytes]) -> None:
        positions = _feature_positions(windows)
        self._pos_rows.append(positions)
        self._pos_count += positions.shape[0]
        self.n_features += positions.shape[0]
        if self._pos_count >= MAX_FEATURES:
            self._pack(self._pos_count - self._pos_count % MAX_FEATURES)

    def _pack(self, k: int) -> None:
        """Pack the first ``k`` pending features into filter rows of
        ``MAX_FEATURES`` each (the last may hold fewer)."""
        stacked = (self._pos_rows[0] if len(self._pos_rows) == 1
                   else np.concatenate(self._pos_rows))
        packed, counts = _bloom_rows(stacked[:k],
                                     np.arange(k) // MAX_FEATURES,
                                     -(-k // MAX_FEATURES))
        self._rows.append(packed)
        self._counts.extend(counts)
        rest = stacked[k:]
        self._pos_rows = [rest] if rest.shape[0] else []
        self._pos_count = int(rest.shape[0])


# -- compare ------------------------------------------------------------------


def _ordered(a: SdDigest, b: SdDigest) -> tuple:
    """The (small, large) pair, independent of argument order.

    The score averages best-matches over the *smaller* digest's filters.
    When both digests hold the same number of filters that choice is
    ambiguous, so ties break on digest content (feature count, then
    hexdigest) rather than argument position — making ``compare``
    symmetric: ``compare(a, b) == compare(b, a)``.
    """
    if len(a) != len(b):
        return (a, b) if len(a) < len(b) else (b, a)
    if a.n_features != b.n_features:
        return (a, b) if a.n_features < b.n_features else (b, a)
    return (a, b) if a.hexdigest() <= b.hexdigest() else (b, a)


def compare(a: Optional[SdDigest], b: Optional[SdDigest]) -> Optional[int]:
    """sdhash confidence score 0–100; None when either digest is missing.

    The arithmetic mirrors :meth:`BloomFilter.similarity` operation for
    operation, so scores are bit-identical to the scalar per-pair loop in
    ``tests/reference.py``.
    """
    if a is None or b is None:
        return None
    return _score_ints(*_ordered(a, b))


def _score_ints(small: SdDigest, large: SdDigest) -> int:
    """The score of one ordered pair with each filter a 2048-bit int and
    its popcount ``int.bit_count`` — no numpy dispatch at all."""
    words, pops = large._int_rows()
    scores = []
    for x, pa in zip(*small._int_rows()):
        # the clip to [0, 1]: best starts at 0.0, and the overlap never
        # exceeds max_overlap, so raw never exceeds 1
        best = 0.0
        for y, pb in zip(words, pops):
            expected = pa * pb / FILTER_BITS
            max_overlap = min(pa, pb)
            if pa == 0 or pb == 0 or max_overlap <= expected:
                continue
            raw = ((x & y).bit_count() - expected) / (max_overlap - expected)
            if raw > best:
                best = raw
        scores.append(best)
    return int(round(100 * sum(scores) / len(scores)))


def compare_many(pairs) -> List[Optional[int]]:
    """Score a batch of digest pairs: :func:`compare` on each.

    ``pairs`` is a sequence of ``(a, b)`` digests; either element may be
    None, which yields None for that pair.  Each digest's int rows are
    built once and kept, so a digest met in many pairs is unpacked once.
    """
    return [compare(a, b) for a, b in pairs]


def compare_bytes(x: bytes, y: bytes) -> Optional[int]:
    """Convenience one-shot comparison of two buffers."""
    return compare(sdhash(x), sdhash(y))
