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
feature emission (:func:`_sha1s` hashes the selected windows into one
buffer, :func:`_bloom_rows` scatters every filter of a buffer into one
bit matrix and packs it once).  :func:`sdhash` is the batched kernel run
on a batch of one; a stream collects its features' SHA-1s as it goes
and builds its filters once, at :meth:`~StreamingDigestState.finalize`.
A :class:`WindowReference` — the windows, entropies and feature SHA-1s
a stream computed for a related version — lets :func:`digest_many` skip
the anchor scan, the entropy, and the SHA-1 where the stream selected
it, of every window inside a run of bytes the two versions share, found
by walking the stream's content-defined chunks in order (:class:`_Walk`);
only the gaps between runs are scanned and computed.
:func:`compare` scores a pair on Python ints, or, from
``_WORDS_MIN_PAIRS`` filter pairs on, with one popcount over the AND of
every pair's uint64 words.
The per-feature / per-pair scalar reading of the same definition lives
in ``tests/reference.py``; the golden equivalence tests
(``tests/test_simhash_vectorised.py``) pin the two bit-identical,
``tests/data/sdhash_golden.txt`` pins absolute digests and scores, and
``make bench-ab`` measures the gap.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Optional, Tuple

import numpy as np

from .bloom import FILTER_BITS, MAX_FEATURES, feature_positions

__all__ = ["SdDigest", "sdhash", "compare", "digest_many",
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

    __slots__ = ("counts", "n_features", "source_len", "_packed", "_ints")

    def __init__(self, packed: np.ndarray, counts: List[int],
                 n_features: int, source_len: int) -> None:
        self._packed = packed
        #: features per filter, in chain order
        self.counts = counts
        self.n_features = n_features
        self.source_len = source_len
        self._ints: Optional[Tuple[List[int], List[int]]] = None

    def __len__(self) -> int:
        return self._packed.shape[0]

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
_p = np.arange(1, WINDOW + 1, dtype=np.float64) / WINDOW
_ENTROPY_TERMS[1:] = _p * np.log2(_p)
del _p


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
    ``_MIN_CHUNK`` past the boundary before it, and ``size``.

    A candidate ``_MIN_CHUNK`` or more past the candidate before it is a
    boundary whatever precedes it (no boundary can lie between the two),
    so only the candidates between two such heads need the chain from
    their head; every head's chain is followed at once, a step per
    chunk of the longest, so text (clusters of two or three candidates)
    takes a few vectorised steps, not one ``searchsorted`` per chunk."""
    cuts = cuts[cuts.searchsorted(cuts.dtype.type(_MIN_CHUNK)):]
    if cuts.size == 0:
        return np.array([0, size], dtype=np.int64)
    heads = np.concatenate(([0], np.flatnonzero(np.diff(cuts)
                                                >= _MIN_CHUNK) + 1))
    ends = np.append(heads[1:], cuts.size)
    chained = ends - heads > 1
    picked = [heads]
    at, end = heads[chained], ends[chained]
    while at.size:
        at = cuts.searchsorted(cuts[at] + _MIN_CHUNK)
        more = at < end
        at, end = at[more], end[more]
        picked.append(at)
    picked = np.concatenate(picked)
    picked.sort()
    bounds = np.empty(picked.size + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, size
    bounds[1:-1] = cuts[picked]
    return bounds


def _chunk_keys(buf: np.ndarray, bounds: np.ndarray):
    """Each chunk long enough to hold a window, as ``(index, key)``: its
    index in ``bounds`` and a key (length, first and last 8 bytes) that
    only finds candidates, a byte comparison decides."""
    heads, ends = bounds[:-1], bounds[1:]
    fits = np.flatnonzero(ends - heads >= WINDOW + 8)
    if fits.size == 0:
        return []
    heads, ends = heads[fits], ends[fits]
    words = _words(buf)
    return zip(fits.tolist(), zip((ends - heads).tolist(),
                                  words[heads].tolist(),
                                  words[ends - 8].tolist()))


def _reach(equal, room: int) -> int:
    """The longest span ``k <= room`` with ``equal(0, k)``, where
    ``equal(lo, hi)`` compares ``[lo, hi)`` of two byte strings whose
    ``[0, lo)`` is known equal: spans growing fourfold from ``WINDOW``,
    then a bisection of the one that differs, so the bytes compared stay
    within a few times the answer, each compare a ``memcmp``."""
    lo, hi, step = 0, room, WINDOW
    while lo < hi:
        mid = min(hi, lo + step)
        if not equal(lo, mid):
            hi = mid - 1
            break
        lo, step = mid, 4 * step
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if equal(lo, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


#: consecutive chunks of the reference the walk may find out of place
#: (a replaced span) before it stops predicting their offsets and
#: matches the old version's chunks by key instead (an insert, a
#: delete, moved or unrelated content)
_WALK_MISSES = 8
#: bytes of the old version the first block of key matching covers; a
#: block that matches nothing doubles the next, so unrelated content is
#: scanned once, in a few calls
_LOST_BLOCK = 1 << 15


class _Walk:
    """The old version ``data`` (``buf`` its array) walked in order
    against the content-defined chunks of a reference ``ref``.

    :meth:`walk` finds the runs ``[o, r, n]`` with
    ``data[o:o + n] == ref.data[r:r + n]``, ascending and disjoint in
    ``data``: each chunk of ``ref`` is compared, as one ``memcmp``, at
    the offset of ``data`` the chunk before it predicts.  A miss skips
    the chunk there (an edit in place keeps its length); ``_WALK_MISSES``
    misses in a row (an insert, a delete, moved or unrelated content),
    or a streak that runs past the end of ``data``, hand ``data`` from
    the first byte the first of them differs in to key matching
    (:meth:`_lost`), which resumes the walk after a chunk it finds.
    Every run then grows over the bytes its neighbours still share
    (:meth:`_widen`), so a gap holds little more than changed bytes.
    :meth:`anchors` finds the anchor offsets of any span of ``data``,
    scanning only what no earlier call scanned.
    """

    def __init__(self, ref: "WindowReference", data: bytes,
                 buf: np.ndarray) -> None:
        self.data, self.buf = data, buf
        self.mine = np.frombuffer(ref.data, dtype=np.uint8)
        self.view = memoryview(ref.data)
        self.bounds = _chunk_bounds(
            self.mine.size, _cut_candidates(self.mine, ref.starts)).tolist()
        self.runs: List[List[int]] = []
        self._table: Optional[dict] = None
        #: the spans of ``data`` scanned so far, disjoint and ascending:
        #: their ends, and ``(start, anchor offsets)``
        self._ends: List[int] = []
        self._scanned: List[Tuple[int, np.ndarray]] = []

    # -- anchors --------------------------------------------------------

    def anchors(self, lo: int, hi: int) -> np.ndarray:
        """The anchor offsets ``s`` of ``data`` with ``lo <= s < hi``
        (``s`` anchors the window starting there), ascending int64."""
        lo = max(lo, 8)
        parts, at = [], lo
        i = bisect.bisect_right(self._ends, lo)
        while at < hi and i < len(self._ends):
            start, found = self._scanned[i]
            if start >= hi:
                break
            if start > at:
                parts.append(self._scan(at, start))
                i += 1  # the span just scanned sits before this one
            stop = min(hi, self._ends[i])
            parts.append(found[found.searchsorted(max(at, start)):
                               found.searchsorted(stop)])
            at, i = stop, i + 1
        if at < hi:
            parts.append(self._scan(at, hi))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.zeros(0, np.int64)

    def _scan(self, lo: int, hi: int) -> np.ndarray:
        """:func:`_anchor_starts` over the bytes the offsets ``[lo, hi)``
        read, kept for later calls."""
        found = _anchor_starts(self.buf[lo - 8:hi - 1]) + (lo - 8)
        i = bisect.bisect_left(self._ends, hi)
        self._ends.insert(i, hi)
        self._scanned.insert(i, (lo, found))
        return found

    # -- the walk -------------------------------------------------------

    def _add(self, o: int, r: int, n: int) -> None:
        """A run, merged into the last one when it continues it."""
        if self.runs:
            last = self.runs[-1]
            if last[0] + last[2] == o and last[1] + last[2] == r:
                last[2] += n
                return
        self.runs.append([o, r, n])

    def walk(self) -> List[List[int]]:
        """The runs, found as the class describes and widened by
        :meth:`_widen`."""
        data, view, bounds = self.data, self.view, self.bounds
        last, n = len(bounds) - 1, len(data)
        at = chunk = misses = lost = lost_ref = 0
        while True:
            if at < n and chunk < last and misses < _WALK_MISSES:
                lo, hi = bounds[chunk], bounds[chunk + 1]
                if data.startswith(view[lo:hi], at):
                    self._add(at, lo, hi - lo)
                    misses = 0
                else:
                    if not misses:
                        lost, lost_ref = at, lo
                    misses += 1
                at, chunk = at + hi - lo, chunk + 1
                continue
            # lost its way, ran out of chunks, or out of ``data`` in the
            # middle of a miss streak: match by key from the first byte
            # that differs at the last offset predicted
            if misses:
                at = lost + _reach(lambda a, b: data.startswith(
                    view[lost_ref + a:lost_ref + b], lost + a),
                    min(n - lost, len(view) - lost_ref))
            elif at >= n:
                break
            found = self._lost(at)
            if found is None:
                break
            (at, chunk), misses = found, 0
        return self._widen()

    def _lost(self, lo: int) -> Optional[Tuple[int, int]]:
        """Match ``data``'s chunks from ``lo`` on against the reference's
        table, a block at a time; each block starts at the last boundary
        of the one before, so the chunks are those one pass would cut.
        Every match is a run.  Returns the offset and chunk after the
        last match of the first block with one, or None at the end."""
        buf, n = self.buf, self.buf.size
        top = n - WINDOW + 1  # window starts lie below
        size = _LOST_BLOCK
        while lo < top:
            hi = min(top, lo + size)
            final = hi == top
            cuts = _cut_candidates(buf, self.anchors(lo, hi)) - lo
            bounds = _chunk_bounds((n if final else hi) - lo, cuts) + lo
            if not final:
                bounds = bounds[:-1]  # its last chunk runs on
            found = self._matches(bounds)
            if found is not None:
                return found
            if final:
                break
            lo, size = int(bounds[-1]), 2 * size
        return None

    def _matches(self, bounds: np.ndarray) -> Optional[Tuple[int, int]]:
        """The chunks of ``data`` between ``bounds`` that the reference
        holds, added as runs; the offset and chunk after the last one."""
        if self._table is None:
            # a repeated chunk keeps its first copy: any equal one serves
            self._table = {}
            for index, key in _chunk_keys(self.mine, np.array(self.bounds)):
                self._table.setdefault(key, index)
        data, view, theirs = self.data, self.view, self.bounds
        heads = bounds.tolist()
        found = None
        for index, key in _chunk_keys(self.buf, bounds):
            chunk = self._table.get(key)
            if chunk is None:
                continue
            head, lo = heads[index], theirs[chunk]
            if data.startswith(view[lo:lo + key[0]], head):
                self._add(head, lo, key[0])
                found = head + key[0], chunk + 1
        return found

    def _widen(self) -> List[List[int]]:
        """Each run grown back and forth over the bytes ``data`` and the
        reference still share at its offset, up to its neighbours; runs
        that then meet at one offset merge."""
        data, view, runs = self.data, self.view, self.runs
        size, theirs = len(data), len(view)
        out: List[List[int]] = []
        done = 0
        for i, (o, r, n) in enumerate(runs):
            back = _reach(lambda lo, hi: data.endswith(
                view[r - hi:r - lo], 0, o - lo), min(o - done, r))
            o, r, n = o - back, r - back, n + back
            nxt = runs[i + 1][0] if i + 1 < len(runs) else size
            end = o + n
            n += _reach(lambda lo, hi: data.startswith(
                view[r + n + lo:r + n + hi], end + lo),
                min(nxt - end, theirs - r - n))
            if out and out[-1][0] + out[-1][2] == o \
                    and out[-1][0] - out[-1][1] == o - r:
                out[-1][2] += n
            else:
                out.append([o, r, n])
            done = o + n
        return out


class WindowReference:
    """Window entropies and SHA-1s one version lends the digest of a
    related one.

    ``data`` is a version's bytes, ``starts`` the start of every anchored
    window in it (ascending, uint32), ``entropies`` each window's entropy,
    ``sha1s`` the SHA-1s of the windows it selected, in window order, as
    far as it has decided them (20 bytes a feature), and ``selected`` the
    index of each of those windows (ascending, int32) — what a
    :class:`StreamingDigestState` computed and decided while the version
    streamed.
    Given one, :func:`digest_many` walks its input against this
    version's content-defined chunks in order (:class:`_Walk`), and
    every window inside a run of bytes the two hold alike takes its
    start and entropy from here, and its SHA-1 too when this version
    selected it; only the gaps between runs are anchored and computed.
    An anchor decision reads only a window's 8 context bytes and its
    entropy and SHA-1 only its 64 bytes, and :func:`_window_entropies`
    gives a window the same float64 whatever call computes it, so equal
    runs hold the same windows at the same relative offsets with the
    same entropies: the digest is bit for bit the one computed from
    scratch.  The walk decides only how much is reused.
    ``reused`` and ``computed`` count the windows each way.
    """

    __slots__ = ("data", "starts", "entropies", "sha1s", "selected",
                 "reused", "computed")

    def __init__(self, data: bytes, starts: np.ndarray,
                 entropies: np.ndarray, sha1s: bytes,
                 selected: np.ndarray) -> None:
        self.data = data
        self.starts = starts
        self.entropies = entropies
        self.sha1s = sha1s
        self.selected = selected
        self.reused = 0
        self.computed = 0

    def sha1_rows(self) -> np.ndarray:
        """For each window here, the row of ``sha1s`` that holds its
        SHA-1, or -1: ``selected`` scattered."""
        rows = np.full(self.entropies.size, -1, dtype=np.int32)
        rows[self.selected] = np.arange(self.selected.size, dtype=np.int32)
        return rows

    def shared(self, data: bytes) -> Tuple[np.ndarray, np.ndarray,
                                           np.ndarray, np.ndarray]:
        """The windows of ``data``, with what this version lends them:
        every anchored window start (ascending, int32), its entropy and
        its row of ``sha1s`` (int32, -1 where it has none), and the
        indices of the windows it lends nothing, whose entropies are left
        for the caller to compute.

        A window whose 8 context bytes and 64 bytes lie inside a run the
        walk found (:meth:`_Walk.walk`) is this version's window at the
        run's offset, so its start, entropy and row are read from here
        as slices; only the gaps between runs, with their 8- and 64-byte
        margins, are anchored, from what the walk scanned or by a scan.
        ``sha1_rows`` runs once, and only if a window is lent."""
        buf = np.frombuffer(data, dtype=np.uint8)
        top = buf.size - WINDOW + 1  # window starts lie below
        if top <= 8:
            empty = np.zeros(0, dtype=np.int32)
            return empty, np.zeros(0), empty, np.zeros(0, dtype=np.intp)
        walk = _Walk(self, data, buf)
        runs = [run for run in walk.walk() if run[2] >= WINDOW + 8]
        mine = self.starts
        # each run's first and last window here, searched in one call
        # each with needles of ``starts``' dtype, so none converts it
        ends = np.array([(r + 8, r + n - WINDOW) for _, r, n in runs],
                        dtype=mine.dtype).reshape(-1, 2)
        firsts = mine.searchsorted(ends[:, 0]).tolist()
        lasts = mine.searchsorted(ends[:, 1], side="right").tolist()
        rows = (self.sha1_rows() if any(lo < hi for lo, hi in
                                        zip(firsts, lasts))
                else np.zeros(0, dtype=np.int32))
        starts, ent, lent = [], [], []
        todo = [np.zeros(0, dtype=np.intp)]
        size = 0

        def gap(lo: int, hi: int) -> None:
            nonlocal size
            found = walk.anchors(lo, hi).astype(np.int32)
            starts.append(found)
            ent.append(np.empty(found.size))
            lent.append(np.full(found.size, -1, dtype=np.int32))
            todo.append(np.arange(size, size + found.size))
            size += found.size

        at = 8
        for (o, r, n), lo, hi in zip(runs, firsts, lasts):
            if at < o + 8:
                gap(at, o + 8)
            starts.append(np.add(mine[lo:hi], o - r, dtype=np.int32,
                                 casting="unsafe"))
            ent.append(self.entropies[lo:hi])
            lent.append(rows[lo:hi])
            size += hi - lo
            at = o + n - WINDOW + 1
        if at < top:
            gap(at, top)
        return tuple(np.concatenate(parts) for parts in
                     (starts, ent, lent, todo))


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
            ) -> Tuple[bytes, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Feature selection over a batch, in one pass over its concatenation.

    Returns the concatenation, the start of each selected window in it
    (ascending), the index of the blob that holds it and, with a
    ``reference``, each selected window's row of ``reference.sha1s`` or
    -1 (None when no window is shared).  An anchor only counts when its
    8-byte context and its window both lie inside one blob, and every
    blob's candidates sit on one line between -inf gaps of
    ``POPULARITY_SPAN``, so each blob gets the selection it gets alone.
    A ``reference`` comes with one blob (:func:`digest_many`): the
    windows of the runs it shares take their starts and entropies from
    it (:meth:`WindowReference.shared`), and only the rest are anchored
    and computed.
    """
    cat = b"".join(blobs)
    buf = np.frombuffer(cat, dtype=np.uint8)
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    np.cumsum([len(blob) for blob in blobs], out=offsets[1:])
    lent = None
    if reference is not None and reference.starts.size:
        starts, ent, lent, todo = reference.shared(cat)
        file_of = np.zeros(starts.size, dtype=np.intp)
        reference.reused += starts.size - todo.size
        reference.computed += todo.size
        if starts.size == 0:
            return cat, starts, file_of, None
        if todo.size == starts.size:
            ent, lent = _span_entropies(buf, starts, offsets, file_of), None
        else:
            ent[todo] = _span_entropies(buf, starts[todo], offsets,
                                        file_of[todo])
        del todo
    else:
        starts = _anchor_positions(buf)
        file_of = np.searchsorted(offsets, starts, side="right") - 1
        inside = ((starts - 8 >= offsets[file_of])
                  & (starts + WINDOW <= offsets[file_of + 1]))
        # a pass holds ``starts`` throughout, so they are int32, and every
        # array is dropped once used: that bounds the scratch of a large
        # digest.  ``file_of`` and ``slot`` stay intp: NumPy converts an
        # index array of any other type on each gather and scatter, a
        # fixed cost a small digest would feel
        starts, file_of = starts[inside].astype(np.int32), file_of[inside]
        del inside
        if starts.size == 0:
            return cat, starts, file_of, None
        if reference is not None:
            reference.computed += starts.size
        ent = _span_entropies(buf, starts, offsets, file_of)
    span = POPULARITY_SPAN
    # candidate i of blob f sits at line[span:-span][i + span * f]: a gap
    # of span -inf values between neighbouring blobs
    slot = np.arange(starts.size) + span * file_of
    line = np.full(starts.size + span * (len(blobs) + 1), -np.inf)
    line[span:-span][slot] = ent
    del ent
    keep = _popular(line)[slot]
    return (cat, starts[keep], file_of[keep],
            None if lent is None else lent[keep])


# -- stage 4: feature emission ------------------------------------------------


def _sha1s(windows: List[bytes]) -> bytes:
    """Each window's SHA-1, concatenated: 20 bytes a feature."""
    sha1 = hashlib.sha1
    return b"".join([sha1(window).digest() for window in windows])


def _bloom_rows(sha1s, filt_of: np.ndarray,
                n_filters: int) -> Tuple[np.ndarray, List[int]]:
    """Every feature of ``sha1s`` (:func:`_sha1s`, or a contiguous
    ``(n, 20)`` uint8 array) scattered into its filter's row of one
    ``(n_filters, FILTER_BITS)`` matrix, packed once: the packed rows and
    each filter's feature count."""
    positions = feature_positions(np.frombuffer(sha1s, dtype=np.uint8)
                                  .reshape(-1, 20))
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
    cat, starts, file_of, lent = _select(blobs, reference)
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
    hashed = starts if lent is None else starts[lent < 0]
    sha1s = _sha1s([cat[s:s + WINDOW] for s in hashed.tolist()])
    if lent is not None:
        # a feature the reference selected takes its SHA-1 from there
        take = lent >= 0
        rows = np.empty((starts.size, 20), dtype=np.uint8)
        rows[take] = np.frombuffer(reference.sha1s, np.uint8).reshape(
            -1, 20)[lent[take]]
        rows[~take] = np.frombuffer(sha1s, np.uint8).reshape(-1, 20)
        sha1s = rows
    packed, counts = _bloom_rows(sha1s, filt_of, first_filt[-1])
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
    windows the input shares with a related version, and counts them; it
    is lent to one blob, so a batch with two digestable blobs and a
    ``reference`` raises ``ValueError``.
    """
    results: List[Optional[SdDigest]] = [None] * len(contents)
    pending_idx: List[int] = []
    pending: List[bytes] = []
    pending_bytes = 0
    for i, content in enumerate(contents):
        blob = _as_bytes(content)
        if len(blob) < MIN_DIGEST_BYTES:
            continue
        if pending and reference is not None:
            raise ValueError("a WindowReference is lent to one blob")
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
    returns the digest without re-reading the stream.  The result is
    **bit-identical** to ``sdhash(whole_buffer)`` for every chunking of
    the same bytes (pinned by ``tests/test_streaming_digest.py``):

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
    * features: each decided window's SHA-1 joins one buffer in window
      order (:func:`_sha1s`), and :meth:`finalize` chains the buffer
      into filters of ``MAX_FEATURES`` with :func:`_bloom_rows`, exactly
      as :func:`_digest_group` chains a blob's features.

    ``StreamingDigestState()`` runs the pipeline from the first byte.
    ``StreamingDigestState(streaming=False)`` keeps only the running key
    and byte count — no numpy work, no chunk refs — and cannot
    :meth:`finalize` until :meth:`start` hands it the ``total`` bytes it
    has seen; the next :meth:`update` or :meth:`finalize` runs them
    through the pipeline ahead of anything newer, on their own, so only
    their last ``_STREAM_TAIL`` bytes are copied again with the chunk.

    Once streaming, the pipeline keeps a 71-byte tail, ≤ ``span``
    held-back windows and a 20-byte SHA-1 per selected feature (about
    0.14 byte per streamed byte of text).  The stream also keeps every
    window it computed, its start (uint32) and its entropy (float64), 12
    bytes a window, and the index of each window it selected (int32), as
    :meth:`_advance` decides it: about 0.74 byte per streamed byte of
    text at one anchor in 16.  :meth:`window_reference` lends them to the
    digest of the version this stream replaces.  They are dropped for
    good once keeping them would pass 1 byte per streamed byte (a zero
    run anchors every offset), and freed by :meth:`window_reference` and
    :meth:`finalize`.  :meth:`window_reference` also lends the SHA-1
    buffer, which the stream keeps for :meth:`finalize`.

    A running ``blake2b-16`` mirrors :class:`~repro.core.filestate.DigestCache`
    keys in every mode, so the close path gets its cache key in O(1) and
    never hashes the written bytes a second time.
    """

    __slots__ = ("total", "streaming", "consumed", "chunks_consumed",
                 "n_features", "retained_bytes", "_streamed", "_tail",
                 "_line", "_pend_win", "_decided", "_hashes", "_hasher",
                 "_seen_starts", "_seen_ent", "_seen_sel")

    def __init__(self, streaming: bool = True) -> None:
        #: bytes received so far (every mode)
        self.total = 0
        #: True while the pipeline runs: from the first byte or :meth:`start`
        self.streaming = streaming
        #: True once finalize() has produced the digest
        self.consumed = False
        self.chunks_consumed = 0
        #: the digest's feature count, set by finalize()
        self.n_features = 0
        #: bytes the pipeline has scanned
        self._streamed = 0
        #: what new windows may reach back into: the last scanned
        #: ``_STREAM_TAIL`` bytes, or a seed from :meth:`start`, none of
        #: whose windows is scanned yet
        self._tail = b""
        #: the popularity line still open: the last ``span`` decided
        #: entropies (-inf before the first), then the held-back windows'
        self._line = np.full(POPULARITY_SPAN, -np.inf)
        self._pend_win: List[bytes] = []
        #: windows decided so far: the stream's index of the first held one
        self._decided = 0
        #: the selected features' SHA-1s, in window order
        self._hashes: List[bytes] = []
        self._hasher = hashlib.blake2b(digest_size=16)
        #: every computed window's start and entropy, and the selected
        #: windows' indices, per chunk; None once dropped or handed out
        self._seen_starts: Optional[List[np.ndarray]] = []
        self._seen_ent: List[np.ndarray] = []
        self._seen_sel: List[np.ndarray] = []
        #: bytes those lists hold
        self.retained_bytes = 0

    def start(self, seen) -> None:
        """Run a key-only state's pipeline from here on, beginning with
        ``seen``: the ``total`` bytes it has hashed.  Nothing is scanned
        here; the next :meth:`update` or :meth:`finalize` does it."""
        if self.streaming or len(seen) != self.total:
            raise ValueError(f"start() takes a key-only state's "
                             f"{self.total} bytes seen")
        self.streaming = True
        self._tail = _as_bytes(seen)

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

    def key(self) -> bytes:
        """The :class:`DigestCache` key of the bytes seen so far."""
        return self._hasher.copy().digest()

    def window_reference(self, data: bytes) -> WindowReference:
        """The windows this stream computed and the ones it selected,
        lent over ``data`` — the bytes it saw — to the digest of the
        version they replace, with the SHA-1 buffer :meth:`finalize`
        reads (joined once, here, and kept joined).  The stream keeps
        none of the windows afterwards.  The reference holds no window
        when the stream never ran the pipeline or dropped them."""
        starts, ent, sel = self._seen_starts, self._seen_ent, self._seen_sel
        self._drop_windows()
        if not starts:
            return WindowReference(data, np.zeros(0, dtype=np.uint32),
                                   np.zeros(0), b"",
                                   np.zeros(0, dtype=np.int32))
        self._hashes = [b"".join(self._hashes)]
        return WindowReference(data, np.concatenate(starts),
                               np.concatenate(ent), self._hashes[0],
                               np.concatenate(sel))

    def finalize(self) -> Optional[SdDigest]:
        """Close the stream and return the digest (None exactly where
        ``sdhash`` returns None): the held-back windows are decided and
        the filters built, nothing already streamed is read again.
        Callable once."""
        if self.consumed:
            raise RuntimeError("StreamingDigestState already finalized")
        if not self.streaming:
            raise RuntimeError("a key-only StreamingDigestState has no "
                               "digest to finalize")
        if self._streamed < self.total:
            self._consume(b"")  # a seed no update has scanned
        self._drop_windows()
        self.consumed = True
        # decide the held-back candidates against -inf right padding,
        # exactly the whole-buffer line's end: span -inf candidates, which
        # are never kept, so their (empty) windows are never hashed
        self._advance(b"", [0] * POPULARITY_SPAN,
                      np.full(POPULARITY_SPAN, -np.inf))
        sha1s = b"".join(self._hashes)
        n = self.n_features = len(sha1s) // 20
        if self.total < MIN_DIGEST_BYTES or n < MIN_FEATURES:
            return None
        packed, counts = _bloom_rows(sha1s, np.arange(n) // MAX_FEATURES,
                                     -(-n // MAX_FEATURES))
        return SdDigest(packed, counts, n, self.total)

    # -- internal pipeline ---------------------------------------------

    def _consume(self, chunk: bytes) -> None:
        if self._streamed < self.total - len(chunk):
            # a seed goes through alone, so only its last bytes join the
            # chunk's copy
            self._scan(self._tail, self.total - len(chunk))
        if chunk:
            self._scan(self._tail + chunk, self.total)
        self.chunks_consumed += 1

    def _scan(self, combined: bytes, t_new: int) -> None:
        """Run the pipeline over the stream's bytes up to ``t_new``:
        ``combined`` ends there and starts at most ``_STREAM_TAIL``
        bytes before the scanned ones end (or at a seed's start)."""
        t_old = self._streamed
        base = t_new - len(combined)
        buf = np.frombuffer(combined, dtype=np.uint8)
        starts = _anchor_positions(buf)
        # new windows only: those whose end lies past the scanned bytes
        # (earlier ones were decided by the chunk that completed them)
        starts = starts[starts + (base + WINDOW) > t_old]
        if starts.size:
            ent = _window_entropies(buf, starts)
            selected = self._advance(combined, starts.tolist(), ent)
            if self._seen_starts is not None:
                self._retain(starts, base, ent, selected, t_new)
        self._streamed = t_new
        self._tail = combined[max(0, len(combined) - _STREAM_TAIL):]

    def _retain(self, starts: np.ndarray, base: int, ent: np.ndarray,
                selected: np.ndarray, streamed: int) -> None:
        """Keep a chunk's windows (``starts`` at ``base`` in the stream)
        and the windows just selected, or drop every kept one for good
        when they would pass 1 byte per streamed byte (or a uint32
        offset)."""
        kept = (self.retained_bytes + starts.size * (4 + 8)
                + selected.size * 4)
        if kept > streamed or streamed > 0xFFFFFFFF:
            self._drop_windows()
            return
        self._seen_starts.append(np.add(starts, base, dtype=np.uint32,
                                        casting="unsafe"))
        self._seen_ent.append(ent)
        self._seen_sel.append(selected)
        self.retained_bytes = kept

    def _drop_windows(self) -> None:
        self._seen_starts = None
        self._seen_ent = []
        self._seen_sel = []
        self.retained_bytes = 0

    def _advance(self, combined: bytes, starts: List[int],
                 ent: np.ndarray) -> np.ndarray:
        """Decide every candidate that has ``POPULARITY_SPAN`` right
        neighbours and hash the kept ones; hold back the rest.  The
        candidates are the held-back windows, then this chunk's windows
        at ``starts`` in ``combined``.  Returns the stream's index of
        each kept window (int32)."""
        held = self._pend_win
        line = np.concatenate([self._line, ent])

        def window(i: int) -> bytes:
            if i < len(held):
                return held[i]
            start = starts[i - len(held)]
            return combined[start:start + WINDOW]

        decide = max(line.size - 2 * POPULARITY_SPAN, 0)
        keep = (np.flatnonzero(_popular(line)) if decide
                else np.zeros(0, dtype=np.intp))
        self._hashes.append(_sha1s([window(i) for i in keep.tolist()]))
        selected = np.add(keep, self._decided, dtype=np.int32,
                          casting="unsafe")
        self._decided += decide
        self._line = line[decide:].copy()
        self._pend_win = [window(i) for i in
                          range(decide, line.size - POPULARITY_SPAN)]
        return selected


# -- compare ------------------------------------------------------------------

#: filter pairs (``len(small) * len(large)``) from which :func:`compare`
#: scores with :func:`_score_words`: below it the loop over ints is faster
#: than numpy's fixed cost per call, and from 36 pairs on the popcount is
#: no slower even when both digests' ints are cached (docs/performance.md,
#: "A save's close", has the measurement)
_WORDS_MIN_PAIRS = 36
#: filter pairs ANDed at once by :func:`_score_words`: 256 bytes of
#: temporaries a pair
_WORDS_BLOCK_PAIRS = 2048


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

    The arithmetic mirrors the per-filter ``BloomFilter.similarity`` of
    ``tests/reference.py`` operation for operation, so scores are
    bit-identical to its scalar per-pair loop.  A pair of digests with
    ``_WORDS_MIN_PAIRS`` filter pairs or more is scored with numpy
    popcounts (:func:`_score_words`), a smaller one on Python ints.
    """
    if a is None or b is None:
        return None
    small, large = _ordered(a, b)
    # ``counts`` holds one entry a filter; ``len`` on it skips two
    # Python-level ``__len__`` calls on the pairs that score in a few µs
    if len(small.counts) * len(large.counts) >= _WORDS_MIN_PAIRS:
        return _score_words(small, large)
    return _score_ints(small, large)


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


def _filter_words(digest: SdDigest) -> np.ndarray:
    """The filters as an ``(n, 32)`` uint64 matrix.  A store-decoded
    digest holds a strided view of its payload, rows 260 bytes apart, so
    it is copied into contiguous, 8-byte-aligned rows first."""
    return np.ascontiguousarray(digest._packed).view(np.uint64)


def _score_words(small: SdDigest, large: SdDigest) -> int:
    """:func:`_score_ints` with every pair's overlap from one
    ``np.bitwise_count`` over the AND of the two digests' words, a block
    of ``small``'s filters at a time.  The float operations are
    ``_score_ints``'s on the same values, in the same order, and the
    sum is the same Python ``sum``, so the score is bit for bit."""
    xs, ys = _filter_words(small), _filter_words(large)
    pa = np.bitwise_count(xs).sum(axis=1, dtype=np.int64)
    pb = np.bitwise_count(ys).sum(axis=1, dtype=np.int64)
    best = np.empty(len(small), dtype=np.float64)
    rows = max(1, _WORDS_BLOCK_PAIRS // len(large))
    for lo in range(0, len(small), rows):
        overlap = np.bitwise_count(xs[lo:lo + rows, None] & ys).sum(
            axis=2, dtype=np.uint16)
        p = pa[lo:lo + rows, None]
        expected = p * pb / FILTER_BITS
        max_overlap = np.minimum(p, pb)
        # a pair with an empty filter has max_overlap == expected == 0
        raw = np.divide(overlap - expected, max_overlap - expected,
                        out=np.zeros_like(expected),
                        where=max_overlap > expected)
        raw.max(axis=1, initial=0.0, out=best[lo:lo + rows])
    return int(round(100 * sum(best.tolist()) / len(small)))
