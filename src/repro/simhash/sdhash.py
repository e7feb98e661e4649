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

Every stage past the SHA-1 calls is batched through NumPy: feature
selection uses a sliding-window maximum instead of a per-candidate Python
loop, Bloom bit positions are derived for all features at once, and
:func:`compare` evaluates every filter pair through a packed uint64/uint8
bit-matrix with table-driven popcounts.  The original per-feature /
per-pair implementations are retained as :func:`sdhash_scalar`,
:func:`compare_scalar`, and ``_select_features_scalar``; the golden
equivalence tests (``tests/test_simhash_vectorised.py``) pin the two
paths bit-identical, and ``make bench`` measures the gap.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

from .bloom import (FILTER_BITS, MAX_FEATURES, BloomFilter,
                    feature_positions, packed_popcount)

__all__ = ["SdDigest", "sdhash", "compare", "digest_many", "compare_many",
           "StreamingDigestState",
           "MIN_DIGEST_BYTES", "WINDOW", "ANCHOR_MASK", "sdhash_scalar",
           "compare_scalar"]

WINDOW = 64
#: anchor density: offsets where rolling-hash & ANCHOR_MASK == 0 (~1/16)
ANCHOR_MASK = 15
_ANCHOR_WEIGHTS = np.array([1, 3, 5, 7, 11, 13, 17, 19], dtype=np.int64)
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


def _as_bytes(data) -> bytes:
    """Copy only non-bytes inputs (memoryview, bytearray)."""
    return data if isinstance(data, bytes) else bytes(data)


class SdDigest:
    """A chained-Bloom-filter similarity digest."""

    __slots__ = ("filters", "n_features", "source_len", "_packed", "_pops")

    def __init__(self, filters: List[BloomFilter], n_features: int,
                 source_len: int) -> None:
        self.filters = filters
        self.n_features = n_features
        self.source_len = source_len
        self._packed: Optional[np.ndarray] = None
        self._pops: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.filters)

    def packed_matrix(self) -> np.ndarray:
        """All filters stacked as an ``(n_filters, 256)`` uint8 bit-matrix
        (np.packbits order), built once and cached — what :func:`compare`
        runs its all-pairs intersections over."""
        if self._packed is None:
            self._packed = np.stack([f.packed() for f in self.filters])
        return self._packed

    def popcounts(self) -> np.ndarray:
        """Per-filter set-bit counts, cached alongside the packed matrix."""
        if self._pops is None:
            self._pops = packed_popcount(self.packed_matrix())
        return self._pops

    def hexdigest(self) -> str:
        """Stable textual form (for logging / golden tests)."""
        h = hashlib.sha1()
        for row in self.packed_matrix():
            h.update(row.tobytes())
        return h.hexdigest()

    # -- checkpoint serialization (JSON-safe, exact) -------------------

    def to_state(self) -> dict:
        return {
            "filters": [{"bits": f.packed().tobytes().hex(),
                         "count": f.count} for f in self.filters],
            "n_features": self.n_features,
            "source_len": self.source_len,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SdDigest":
        filters: List[BloomFilter] = []
        for entry in state["filters"]:
            filt = BloomFilter()
            packed = np.frombuffer(bytes.fromhex(entry["bits"]),
                                   dtype=np.uint8)
            filt.bits = np.unpackbits(packed).astype(bool)[:len(filt.bits)]
            filt.count = int(entry["count"])
            filters.append(filt)
        return cls(filters, int(state["n_features"]),
                   int(state["source_len"]))


#: chunk length for the rolling-hash scan: bounds the int32 working set so
#: multi-megabyte buffers (and batch concatenations) stay cache-resident
#: instead of streaming eight full-length temporaries through DRAM
_ANCHOR_CHUNK = 1 << 18


def _anchor_starts(buf: np.ndarray) -> np.ndarray:
    """Rolling-hash anchor offsets over ``buf``, unfiltered.

    Every intermediate fits int32 exactly (max rolling value is
    ``sum(weights) * 255 = 19380``), so the chunked 32-bit accumulation
    is the same integer arithmetic as the original int64 formulation.
    """
    n = buf.size - 7
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    parts = []
    tmp = None
    for lo in range(0, n, _ANCHOR_CHUNK):
        m = min(n, lo + _ANCHOR_CHUNK) - lo
        values = np.multiply(buf[lo:lo + m], np.int32(_ANCHOR_WEIGHTS[0]),
                             dtype=np.int32)
        if tmp is None or tmp.size < m:
            tmp = np.empty(m, dtype=np.int32)
        for k in range(1, 8):
            np.multiply(buf[lo + k:lo + k + m], np.int32(_ANCHOR_WEIGHTS[k]),
                        dtype=np.int32, out=tmp[:m])
            values += tmp[:m]
        part = np.nonzero((values & ANCHOR_MASK) == 0)[0]
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


#: term table for window entropies: _ENTROPY_TERMS[c] equals the
#: ``p * log2(p)`` term for a byte count of c out of WINDOW, computed with
#: the same float ops the direct formula uses — looking it up instead of
#: calling log2 on a mostly-zero (n, 256) matrix is what makes feature
#: selection fast, while every summed term stays bit-identical.
_ENTROPY_TERMS = np.zeros(WINDOW + 1, dtype=np.float64)
_counts = np.arange(1, WINDOW + 1, dtype=np.float64)
_ENTROPY_TERMS[1:] = (_counts / WINDOW) * np.log2(_counts / WINDOW)
del _counts


#: row-block size for the per-window histograms: a small block keeps each
#: scatter's working set (block × 256 int64 counts + the term gather) in
#: the L1/L2 caches and every temporary under the allocator's mmap
#: threshold; rows are independent, so blocking cannot change a result.
_ENTROPY_BLOCK = 128


def _window_entropies(windows: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of an ``(n, WINDOW)`` uint8 array."""
    n = windows.shape[0]
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    block = min(n, _ENTROPY_BLOCK)
    base = np.repeat(np.arange(block, dtype=np.int64), WINDOW) * 256
    idx = np.empty(block * WINDOW, dtype=np.int64)
    terms = np.empty((block, 256), dtype=np.float64)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        k = hi - lo
        np.add(base[:k * WINDOW], windows[lo:hi].reshape(-1),
               out=idx[:k * WINDOW])
        counts = np.bincount(idx[:k * WINDOW],
                             minlength=k * 256).reshape(k, 256)
        np.take(_ENTROPY_TERMS, counts, mode="clip", out=terms[:k])
        terms[:k].sum(axis=1, out=out[lo:hi])
    # the per-row value is -(sum of terms); negating the finished sums is
    # exact, so results match the direct -_ENTROPY_TERMS[counts].sum() form
    np.negative(out, out=out)
    return out


def _select_feature_windows(data: bytes) -> np.ndarray:
    """The selected 64-byte windows of ``data`` as an ``(k, WINDOW)``
    uint8 array (k may be 0), fully vectorised.

    The popularity rule is a sliding-window maximum: a candidate survives
    when its entropy strictly exceeds every earlier neighbour's (leftmost
    tie wins) and is no lower than any later neighbour's.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    starts = _anchor_positions(buf)
    if starts.size == 0:
        return np.zeros((0, WINDOW), dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(buf, WINDOW)[starts]
    entropies = _window_entropies(windows)
    n = entropies.shape[0]
    span = POPULARITY_SPAN
    padded = np.full(n + 2 * span, -np.inf)
    padded[span:span + n] = entropies
    neigh = np.lib.stride_tricks.sliding_window_view(padded, 2 * span + 1)
    left_max = neigh[:, :span].max(axis=1)
    right_max = neigh[:, span:].max(axis=1)      # includes the candidate
    keep = ((entropies >= MIN_FEATURE_ENTROPY)
            & (entropies > left_max)
            & (entropies >= right_max))
    return np.ascontiguousarray(windows[keep])


def _select_features(data: bytes) -> List[bytes]:
    """Pick characteristic 64-byte windows of ``data``."""
    return [w.tobytes() for w in _select_feature_windows(_as_bytes(data))]


def _select_features_scalar(data: bytes) -> List[bytes]:
    """Scalar reference for the popularity-window selection loop.

    Kept verbatim from the pre-vectorisation implementation; the golden
    equivalence tests pin ``_select_features`` against it.
    """
    buf = np.frombuffer(bytes(data), dtype=np.uint8)
    starts = _anchor_positions(buf)
    if starts.size == 0:
        return []
    windows = np.lib.stride_tricks.sliding_window_view(buf, WINDOW)[starts]
    entropies = _window_entropies(windows)
    n = windows.shape[0]
    eligible = entropies >= MIN_FEATURE_ENTROPY
    features: List[bytes] = []
    for idx in range(n):
        if not eligible[idx]:
            continue
        lo = max(0, idx - POPULARITY_SPAN)
        hi = min(n, idx + POPULARITY_SPAN + 1)
        if entropies[idx] < entropies[lo:hi].max():
            continue
        # leftmost tie wins within the neighbourhood
        if idx - lo > 0 and np.any(entropies[lo:idx] >= entropies[idx]):
            continue
        start = int(starts[idx])
        features.append(bytes(data[start:start + WINDOW]))
    return features


def sdhash(data: bytes) -> Optional[SdDigest]:
    """Digest ``data``; returns None when the input is too small to score."""
    data = _as_bytes(data)
    if len(data) < MIN_DIGEST_BYTES:
        return None
    windows = _select_feature_windows(data)
    n = windows.shape[0]
    if n < MIN_FEATURES:
        return None
    sha1 = hashlib.sha1
    raw = b"".join([sha1(w).digest() for w in windows])
    hashes = np.frombuffer(raw, dtype=np.uint8).reshape(n, 20)
    positions = feature_positions(hashes)
    filters = [BloomFilter.from_position_rows(positions[i:i + MAX_FEATURES])
               for i in range(0, n, MAX_FEATURES)]
    return SdDigest(filters, n, len(data))


def sdhash_scalar(data: bytes) -> Optional[SdDigest]:
    """Scalar reference digest path (per-feature hash + ``BloomFilter.add``
    loop) — for golden equivalence tests and ``make bench`` only."""
    data = bytes(data)
    if len(data) < MIN_DIGEST_BYTES:
        return None
    features = _select_features_scalar(data)
    if len(features) < MIN_FEATURES:
        return None
    filters: List[BloomFilter] = [BloomFilter()]
    for feature in features:
        if filters[-1].full:
            filters.append(BloomFilter())
        filters[-1].add(hashlib.sha1(feature).digest())
    return SdDigest(filters, len(features), len(data))


#: cap on the concatenated byte span one batched pass materialises; larger
#: batches are split into groups so the gathered windows, entropies, and
#: Bloom scatters stay within a bounded memory footprint at corpus scale
_BATCH_SPAN_BYTES = 8 << 20


def _digest_group(blobs: List[bytes]) -> List[Optional[SdDigest]]:
    """One batched pass over blobs that all meet ``MIN_DIGEST_BYTES``.

    The whole feature pipeline — anchor scan, window entropies, popularity
    maxima, and the Bloom bit scatter — runs over the *concatenation* of
    the batch, with per-file boundaries enforced by masking and by -inf
    gaps, so every per-file result is bit-identical to :func:`sdhash`.
    """
    F = len(blobs)
    out: List[Optional[SdDigest]] = [None] * F
    lens = np.array([len(b) for b in blobs], dtype=np.int64)
    offsets = np.zeros(F + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    cat = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    starts = _anchor_starts(cat)
    # drop anchors whose window would run past the concatenation before
    # locating files: searchsorted on such a start can land out of range
    starts = starts[starts + WINDOW <= offsets[-1]]
    if starts.size == 0:
        return out
    file_of = np.searchsorted(offsets, starts, side="right") - 1
    # an anchor only counts when its 8-byte context and 64-byte window both
    # lie inside a single file — exactly the per-file anchor rule
    ok = ((starts - 8 >= offsets[file_of])
          & (starts + WINDOW <= offsets[file_of + 1]))
    starts = starts[ok]
    file_of = file_of[ok]
    total = starts.size
    if total == 0:
        return out
    windows = np.lib.stride_tricks.sliding_window_view(cat, WINDOW)[starts]
    entropies = _window_entropies(windows)
    # popularity maxima per file: lay every file's candidates on one line
    # with a -inf gap of POPULARITY_SPAN between neighbouring files, so a
    # sliding maximum never sees across a file boundary
    span = POPULARITY_SPAN
    counts_per_file = np.bincount(file_of, minlength=F)
    first_index = np.zeros(F + 1, dtype=np.int64)
    np.cumsum(counts_per_file, out=first_index[1:])
    seg_starts = np.zeros(F, dtype=np.int64)
    np.cumsum(counts_per_file[:-1] + span, out=seg_starts[1:])
    seg_starts += span
    pos = seg_starts[file_of] + (np.arange(total) - first_index[file_of])
    padded = np.full(int(pos[-1]) + span + 1, -np.inf)
    padded[pos] = entropies
    # q[j] = max(padded[j:j+span]) via span-1 shifted maxima; max is
    # order-insensitive, so this equals the neighbourhood max exactly
    q = padded[:padded.size - (span - 1)].copy()
    for shift in range(1, span):
        np.maximum(q, padded[shift:padded.size - (span - 1) + shift], out=q)
    # right_max in the per-file path includes the candidate itself, but
    # e >= max(e, rest) reduces to e >= max(rest), so q[pos + 1] suffices
    keep = ((entropies >= MIN_FEATURE_ENTROPY)
            & (entropies > q[pos - span])
            & (entropies >= q[pos + 1]))
    sel = np.ascontiguousarray(windows[keep])
    feat_counts = np.bincount(file_of[keep], minlength=F)
    n_sel = sel.shape[0]
    if n_sel == 0:
        return out
    sha1 = hashlib.sha1
    raw = b"".join([sha1(w).digest() for w in sel])
    hashes = np.frombuffer(raw, dtype=np.uint8).reshape(n_sel, 20)
    positions = feature_positions(hashes)
    bounds = np.zeros(F + 1, dtype=np.int64)
    np.cumsum(feat_counts, out=bounds[1:])
    # batched Bloom assembly: every filter of every file is one row of a
    # single boolean matrix filled by one flat scatter
    n_filters_per_file = (feat_counts + MAX_FEATURES - 1) // MAX_FEATURES
    filt_base = np.zeros(F + 1, dtype=np.int64)
    np.cumsum(n_filters_per_file, out=filt_base[1:])
    local = np.arange(n_sel) - bounds[:-1].repeat(feat_counts)
    filt_of_feature = (filt_base[:-1].repeat(feat_counts)
                       + local // MAX_FEATURES)
    nf = int(filt_base[-1])
    bits = np.zeros((nf, FILTER_BITS), dtype=bool)
    flat = (filt_of_feature[:, None] * FILTER_BITS + positions).reshape(-1)
    bits.reshape(-1)[flat] = True
    counts_per_filter = np.bincount(filt_of_feature, minlength=nf)
    for k, blob in enumerate(blobs):
        cnt = int(feat_counts[k])
        if cnt < MIN_FEATURES:
            continue
        filters: List[BloomFilter] = []
        for j in range(int(filt_base[k]), int(filt_base[k + 1])):
            filt = BloomFilter.__new__(BloomFilter)
            filt.bits = bits[j]
            filt.count = int(counts_per_filter[j])
            filters.append(filt)
        out[k] = SdDigest(filters, cnt, len(blob))
    return out


def digest_many(contents) -> List[Optional[SdDigest]]:
    """Digest a batch of buffers in one vectorised pass per size group.

    Returns one entry per input, in order: ``None`` exactly where
    :func:`sdhash` returns None (input under ``MIN_DIGEST_BYTES`` or too
    few selected features), otherwise an :class:`SdDigest` bit-identical
    to ``sdhash(content)`` — same filters, feature count, and hexdigest.
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
            for j, dig in zip(pending_idx, _digest_group(pending)):
                results[j] = dig
            pending_idx, pending, pending_bytes = [], [], 0
        pending_idx.append(i)
        pending.append(blob)
        pending_bytes += len(blob)
    if pending:
        for j, dig in zip(pending_idx, _digest_group(pending)):
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
    * entropies: ``_window_entropies`` is row-independent, so per-chunk
      calls produce the same float64 values as one whole-buffer call,
    * popularity: candidates arrive in globally ascending ``S`` order
      (per-chunk intervals ``(T_old-WINDOW, T_new-WINDOW]`` are disjoint
      and increasing); the rule needs ``POPULARITY_SPAN`` neighbours on
      each side, so the last ``span`` candidates stay pending and the
      ``span`` most recent decided entropies are carried as left context
      (``-inf`` initially and as final right padding — exactly the
      whole-buffer padding),
    * filters: features emit in order, chaining a Bloom filter per
      ``MAX_FEATURES`` exactly as :func:`sdhash` slices them.

    Streams smaller than ``min_stream_bytes`` stay in *buffered* mode —
    chunk refs only, no numpy work per write — and are replayed through
    the streaming pipeline the moment the threshold is crossed (or at
    :meth:`finalize`).  Memory is O(1) in stream length either way once
    streaming: a 71-byte tail, ≤ ``span`` pending windows, <160 pending
    feature positions, plus the finished filters (256 B / 160 features).

    A running ``blake2b-16`` mirrors :class:`~repro.core.filestate.DigestCache`
    keys so the close path gets its cache key in O(1) too.
    """

    __slots__ = ("total", "min_stream_bytes", "consumed", "chunks_consumed",
                 "filters", "n_features",
                 "_streamed", "_finalized", "_chunks", "_chunk_bytes",
                 "_tail", "_left", "_pend_ent", "_pend_win",
                 "_pos_rows", "_pos_count", "_hasher")

    def __init__(self, min_stream_bytes: int = 0) -> None:
        #: bytes received so far (both modes)
        self.total = 0
        self.min_stream_bytes = min_stream_bytes
        #: True once finalize() actually produced the digest incrementally
        self.consumed = False
        self.chunks_consumed = 0
        self.filters: List[BloomFilter] = []
        self.n_features = 0
        self._streamed = 0
        self._finalized = False
        self._chunks: Optional[List[bytes]] = [] if min_stream_bytes else None
        self._chunk_bytes = 0
        self._tail = b""
        self._left = np.full(POPULARITY_SPAN, -np.inf)
        self._pend_ent = np.zeros(0, dtype=np.float64)
        self._pend_win = np.zeros((0, WINDOW), dtype=np.uint8)
        self._pos_rows: List[np.ndarray] = []
        self._pos_count = 0
        self._hasher = hashlib.blake2b(digest_size=16)

    @property
    def streaming(self) -> bool:
        """True once past buffered mode (numpy work happens per chunk)."""
        return self._chunks is None

    def update(self, chunk) -> None:
        """Consume the next appended chunk (must be the bytes written at
        offset ``self.total`` — the caller enforces sequentiality)."""
        chunk = _as_bytes(chunk)
        if not chunk:
            return
        self._hasher.update(chunk)
        self.total += len(chunk)
        if self._chunks is not None:
            self._chunks.append(chunk)
            self._chunk_bytes += len(chunk)
            if self._chunk_bytes >= self.min_stream_bytes:
                self._begin_streaming()
            return
        self._consume(chunk)

    def key(self) -> bytes:
        """The :class:`DigestCache` key of the bytes seen so far."""
        return self._hasher.copy().digest()

    def finalize(self) -> Optional[SdDigest]:
        """Close the stream and return the digest (None exactly where
        ``sdhash`` returns None).  O(tail); callable once."""
        if self._finalized:
            raise RuntimeError("StreamingDigestState already finalized")
        if self._chunks is not None:
            self._begin_streaming()
        self._finalized = True
        self.consumed = True
        # decide the held-back candidates against -inf right padding,
        # mirroring the whole-buffer padded sliding maximum exactly
        n = self._pend_ent.size
        if n:
            span = POPULARITY_SPAN
            full = np.concatenate([self._left, self._pend_ent,
                                   np.full(span, -np.inf)])
            neigh = np.lib.stride_tricks.sliding_window_view(
                full, 2 * span + 1)
            cand = self._pend_ent
            keep = ((cand >= MIN_FEATURE_ENTROPY)
                    & (cand > neigh[:, :span].max(axis=1))
                    & (cand >= neigh[:, span:].max(axis=1)))
            if keep.any():
                self._emit(self._pend_win[keep])
            self._pend_ent = np.zeros(0, dtype=np.float64)
            self._pend_win = np.zeros((0, WINDOW), dtype=np.uint8)
        if self.total < MIN_DIGEST_BYTES or self.n_features < MIN_FEATURES:
            return None
        if self._pos_count:
            stacked = (self._pos_rows[0] if len(self._pos_rows) == 1
                       else np.concatenate(self._pos_rows))
            self.filters.append(BloomFilter.from_position_rows(stacked))
            self._pos_rows, self._pos_count = [], 0
        return SdDigest(list(self.filters), self.n_features, self.total)

    # -- internal pipeline ---------------------------------------------

    def _begin_streaming(self) -> None:
        chunks, self._chunks, self._chunk_bytes = self._chunks, None, 0
        for chunk in chunks:
            self._consume(chunk)

    def _consume(self, chunk: bytes) -> None:
        t_old = self._streamed
        combined = self._tail + chunk
        t_new = t_old + len(chunk)
        base = t_new - len(combined)
        buf = np.frombuffer(combined, dtype=np.uint8)
        starts = _anchor_starts(buf)
        if starts.size:
            # new windows only: those whose end first fits this chunk
            # (earlier ones were emitted by the chunk that completed them)
            keep = ((starts + WINDOW <= len(combined))
                    & (starts + base + WINDOW > t_old))
            starts = starts[keep]
            if starts.size:
                windows = np.lib.stride_tricks.sliding_window_view(
                    buf, WINDOW)[starts]
                self._advance(windows, _window_entropies(windows))
        self._streamed = t_new
        self._tail = combined[max(0, len(combined) - _STREAM_TAIL):]
        self.chunks_consumed += 1

    def _advance(self, windows: np.ndarray, ent: np.ndarray) -> None:
        if self._pend_ent.size:
            ent = np.concatenate([self._pend_ent, ent])
            windows = np.vstack([self._pend_win, windows])
        span = POPULARITY_SPAN
        decide = ent.size - span
        if decide <= 0:
            self._pend_ent = ent
            self._pend_win = np.ascontiguousarray(windows)
            return
        full = np.concatenate([self._left, ent])
        neigh = np.lib.stride_tricks.sliding_window_view(full, 2 * span + 1)
        cand = ent[:decide]
        keep = ((cand >= MIN_FEATURE_ENTROPY)
                & (cand > neigh[:, :span].max(axis=1))
                & (cand >= neigh[:, span:].max(axis=1)))
        self._left = full[decide:decide + span].copy()
        self._pend_ent = ent[decide:].copy()
        self._pend_win = windows[decide:].copy()
        if keep.any():
            self._emit(windows[:decide][keep])

    def _emit(self, windows: np.ndarray) -> None:
        sha1 = hashlib.sha1
        raw = b"".join([sha1(w).digest() for w in windows])
        hashes = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 20)
        positions = feature_positions(hashes)
        self._pos_rows.append(positions)
        self._pos_count += positions.shape[0]
        self.n_features += positions.shape[0]
        while self._pos_count >= MAX_FEATURES:
            stacked = (self._pos_rows[0] if len(self._pos_rows) == 1
                       else np.concatenate(self._pos_rows))
            self.filters.append(
                BloomFilter.from_position_rows(stacked[:MAX_FEATURES]))
            rest = stacked[MAX_FEATURES:]
            self._pos_rows = [rest] if rest.shape[0] else []
            self._pos_count = int(rest.shape[0])


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

    All filter pairs are evaluated in one batched pass over the two
    digests' packed bit-matrices; the arithmetic mirrors
    :meth:`BloomFilter.similarity` operation for operation, so scores are
    bit-identical to :func:`compare_scalar`.
    """
    if a is None or b is None:
        return None
    small, large = _ordered(a, b)
    inter = packed_popcount(small.packed_matrix()[:, None, :]
                            & large.packed_matrix()[None, :, :])
    pa = small.popcounts()[:, None]
    pb = large.popcounts()[None, :]
    expected = pa * pb / FILTER_BITS
    max_overlap = np.minimum(pa, pb)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (inter - expected) / (max_overlap - expected)
        sim = np.where((pa == 0) | (pb == 0) | (max_overlap <= expected),
                       0.0, np.clip(raw, 0.0, 1.0))
    scores = sim.max(axis=1).tolist()
    return int(round(100 * sum(scores) / len(scores)))


def compare_many(pairs) -> List[Optional[int]]:
    """Score a batch of digest pairs, bit-identical to :func:`compare`.

    ``pairs`` is a sequence of ``(a, b)`` digests; either element may be
    None, which yields None for that pair.  Pairs whose ordered digests
    share a (filters, filters) shape are stacked and scored in a single
    popcount pass — one numpy dispatch amortised over the whole group
    instead of one per pair.  The per-pair arithmetic, including the final
    sequential Python sum over filter scores, mirrors :func:`compare`
    operation for operation.
    """
    results: List[Optional[int]] = [None] * len(pairs)
    groups: dict = {}
    for p, (a, b) in enumerate(pairs):
        if a is None or b is None:
            continue
        small, large = _ordered(a, b)
        groups.setdefault((len(small), len(large)), []).append(
            (p, small, large))
    for members in groups.values():
        smalls = np.stack([s.packed_matrix() for _, s, _ in members])
        larges = np.stack([l.packed_matrix() for _, _, l in members])
        inter = packed_popcount(smalls[:, :, None, :]
                                & larges[:, None, :, :])
        pa = np.stack([s.popcounts() for _, s, _ in members])[:, :, None]
        pb = np.stack([l.popcounts() for _, _, l in members])[:, None, :]
        expected = pa * pb / FILTER_BITS
        max_overlap = np.minimum(pa, pb)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = (inter - expected) / (max_overlap - expected)
            sim = np.where((pa == 0) | (pb == 0) | (max_overlap <= expected),
                           0.0, np.clip(raw, 0.0, 1.0))
        best = sim.max(axis=2)
        for row, (p, _, _) in enumerate(members):
            scores = best[row].tolist()
            results[p] = int(round(100 * sum(scores) / len(scores)))
    return results


def compare_scalar(a: Optional[SdDigest],
                   b: Optional[SdDigest]) -> Optional[int]:
    """Scalar reference comparison (per-pair ``BloomFilter.similarity``
    loop) — for golden equivalence tests and ``make bench`` only."""
    if a is None or b is None:
        return None
    small, large = _ordered(a, b)
    scores = []
    for filt in small.filters:
        best = max(filt.similarity(other) for other in large.filters)
        scores.append(best)
    return int(round(100 * sum(scores) / len(scores)))


def compare_bytes(x: bytes, y: bytes) -> Optional[int]:
    """Convenience one-shot comparison of two buffers."""
    return compare(sdhash(x), sdhash(y))
