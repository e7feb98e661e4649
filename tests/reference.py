"""Eager reference for the engine's digest path.

:class:`EagerFileStateCache` stands in for
:class:`repro.core.filestate.FileStateCache` and does the naive thing:
every version it is shown — a captured baseline, a closed file, a moved
file — is typed with ``identify`` and digested with a per-file ``sdhash``
(or ``ctph``) on the spot.  It has no digest LRU, no baseline store, no
deferral, no batch and no stream, so wherever an engine built on it and
an engine built on the production cache disagree, the production digest
path is wrong.  ``sdhash`` itself is pinned to the scalar kernel by
``tests/test_simhash_vectorised.py``; only the path is under test here.

Swap it in from the test side, so the engine builds it wherever it would
build its cache::

    monkeypatch.setattr(repro.core.engine, "FileStateCache",
                        EagerFileStateCache)

The benchmark smoke pass (``tests/test_bench_smoke.py``) uses
:func:`eager_reference` for the same swap.
:func:`verdict_checkpoint` and :func:`detection_output` are what an engine
and the reference must agree on; bookkeeping counters (digest cache,
streams, wall times, telemetry metrics) describe the path, not the
verdict, and are left out.

:class:`ScalarAES` and the ``scalar_aes_*`` modes are the per-byte,
list-based AES that :mod:`repro.crypto.aes` replaced with its NumPy block
kernel; ``tests/test_crypto.py`` requires byte-identical output from both.

:func:`sdhash_scalar` and :func:`compare_scalar` are the digest kernel
read straight off its definition, sharing no stage with
:mod:`repro.simhash.sdhash`: an int64 rolling-hash anchor scan, one
256-bin histogram and one 1-D term sum per window, a per-candidate
popularity loop, one ``BloomFilter.add`` per feature and one
``BloomFilter.similarity`` per filter pair.  Only the constants come
from the kernel.  ``tests/test_simhash_vectorised.py``,
``tests/test_digest_batch.py`` and ``tests/test_streaming_digest.py``
require bit-identical digests and scores from both.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from typing import List, Optional

import numpy as np

import repro.core.engine as engine_mod
from repro.core.filestate import DigestCache, InspectionResult, TrackedFile
from repro.crypto.aes import _INV_SBOX, _SBOX, AES, _gmul
from repro.crypto.padding import pad, unpad
from repro.magic import identify
from repro.simhash import BloomFilter, SdDigest, ctph, sdhash
from repro.simhash.sdhash import (ANCHOR_MASK, MIN_DIGEST_BYTES,
                                  MIN_FEATURE_ENTROPY, MIN_FEATURES,
                                  POPULARITY_SPAN, WINDOW)

__all__ = ["EagerFileStateCache", "ScalarAES", "compare_scalar",
           "detection_output", "eager_reference", "scalar_aes_cbc_decrypt",
           "scalar_aes_cbc_encrypt", "scalar_aes_ctr_xor", "sdhash_scalar",
           "verdict_checkpoint"]


class _NothingPending:
    """The scheduler surface the engine and monitor call; nothing is
    ever deferred, so there is never anything to flush."""

    pending_bytes = 0

    def __len__(self) -> int:
        return 0

    def flush(self) -> int:
        return 0

    close = flush

    def stats(self) -> dict:
        return {"pending": 0, "pending_bytes": 0}


class EagerFileStateCache:
    """Node-id-keyed baselines, each digested the moment it is seen."""

    def __init__(self, backend: str = "sdhash",
                 max_inspect_bytes: int = 4 * 1024 * 1024,
                 digests_enabled: bool = True, **_unused) -> None:
        self.backend = backend
        self.max_inspect_bytes = max_inspect_bytes
        self.digests_enabled = digests_enabled
        #: a store handed to the engine is ignored: every baseline is
        #: digested from its bytes
        self.baseline_store = None
        #: counters only (campaign results read them); capacity 0, so it
        #: never caches anything
        self.digest_cache = DigestCache(0)
        self.scheduler = _NothingPending()
        self._by_node = {}

    def __len__(self) -> int:
        return len(self._by_node)

    def __contains__(self, node_id) -> bool:
        return node_id in self._by_node

    def get(self, node_id):
        return self._by_node.get(node_id)

    def is_tracked(self, node_id) -> bool:
        return node_id is not None and node_id in self._by_node

    def inspect(self, content, want_digest: bool = True, key=None,
                stream=None) -> InspectionResult:
        content = bytes(content)
        can_digest = (self.digests_enabled
                      and len(content) <= self.max_inspect_bytes)
        digest = sig = None
        if can_digest:
            self.digest_cache.bytes_digested += len(content)
            if self.backend == "sdhash":
                digest = sdhash(content)
            else:
                sig = ctph(content)
        return InspectionResult(identify(content), digest, sig, len(content),
                                can_digest)

    def materialise_baseline(self, record) -> None:
        """Nothing is ever deferred."""

    def track_new(self, node_id, path):
        record = TrackedFile(node_id=node_id, path=path, born_empty=True,
                             has_baseline=True)
        self._by_node[node_id] = record
        return record

    def ensure_baseline(self, node_id, path, content, inspection=None):
        record = self._record(node_id, path)
        if not record.has_baseline:
            self._set_baseline(record, content, inspection)
        return record

    def refresh_baseline(self, node_id, path, content, inspection=None):
        record = self._record(node_id, path)
        record.born_empty = False
        self._set_baseline(record, content, inspection)
        return record

    def on_rename(self, node_id, dest, clobbered_node_id):
        if node_id is None:
            return None
        moved = self._by_node.get(node_id)
        clobbered = (self._by_node.pop(clobbered_node_id, None)
                     if clobbered_node_id is not None else None)
        if clobbered is not None and clobbered.has_baseline \
                and not clobbered.born_empty:
            # §V-B2 Class-C linking: the incoming node is compared against
            # the baseline of the file it overwrote
            linked = dataclasses.replace(clobbered, node_id=node_id,
                                         path=dest)
            self._by_node[node_id] = linked
            return linked
        if moved is not None:
            moved.path = dest
        return moved

    def on_delete(self, node_id):
        if node_id is None:
            return None
        return self._by_node.pop(node_id, None)

    def checkpoint(self) -> dict:
        """The baselines in :meth:`FileStateCache.checkpoint`'s format."""
        entries = []
        for node_id in sorted(self._by_node):
            record = self._by_node[node_id]
            base_type = record.base_type
            entries.append({
                "node_id": node_id,
                "path": str(record.path),
                "base_type": None if base_type is None else {
                    "name": base_type.name,
                    "description": base_type.description,
                    "category": base_type.category,
                    "is_high_entropy": base_type.is_high_entropy,
                },
                "base_digest": (None if record.base_digest is None
                                else record.base_digest.to_state()),
                "base_ctph": (None if record.base_ctph is None
                              else str(record.base_ctph)),
                "base_size": record.base_size,
                "has_baseline": record.has_baseline,
                "born_empty": record.born_empty,
            })
        return {"backend": self.backend, "entries": entries,
                "digest_cache": self.digest_cache.counters(),
                "baseline_store": None}

    def _record(self, node_id, path):
        record = self._by_node.get(node_id)
        if record is None:
            record = self._by_node[node_id] = TrackedFile(node_id=node_id,
                                                          path=path)
        record.path = path
        return record

    def _set_baseline(self, record, content, inspection) -> None:
        if inspection is None:
            inspection = self.inspect(content)
        record.base_type = inspection.file_type
        record.base_size = inspection.size
        record.base_digest = inspection.digest
        record.base_ctph = inspection.ctph
        record.has_baseline = True


@contextlib.contextmanager
def eager_reference():
    """Build every engine in this block on :class:`EagerFileStateCache`."""
    production = engine_mod.FileStateCache
    engine_mod.FileStateCache = EagerFileStateCache
    try:
        yield
    finally:
        engine_mod.FileStateCache = production


def verdict_checkpoint(monitor) -> dict:
    """``monitor.checkpoint()`` with the bookkeeping counters left out."""
    state = monitor.checkpoint()
    for key in ("telemetry", "op_wall_us", "streams"):
        del state[key]
    del state["cache"]["digest_cache"]
    return state


def detection_output(monitor, pid) -> dict:
    """Verdicts, score histories and the telemetry-rebuilt timeline of
    ``pid``'s family (the monitor needs telemetry on)."""
    report = monitor.export_report()
    timeline = monitor.timeline(root_pid=monitor.engine._root_pid(pid))
    return {
        "detections": report["detections"],
        "processes": report["processes"],
        "timeline": [(e.timestamp_us, e.indicator, e.points,
                      e.score_after, e.path) for e in timeline.entries],
        "union": None if timeline.union is None
                 else (timeline.union.timestamp_us,
                       timeline.union.score_after,
                       timeline.union.threshold_after),
    }


class ScalarAES:
    """FIPS-197 rounds one byte at a time over a 16-int list, on the
    production key schedule (which the FIPS-197 vectors pin)."""

    def __init__(self, key: bytes) -> None:
        self._round_keys = AES(key)._round_keys.tolist()
        self.rounds = len(self._round_keys) - 1

    # state is a 16-int list in column-major order (as FIPS-197 lays it out)

    @staticmethod
    def _shift_rows(s):
        return [s[0], s[5], s[10], s[15],
                s[4], s[9], s[14], s[3],
                s[8], s[13], s[2], s[7],
                s[12], s[1], s[6], s[11]]

    @staticmethod
    def _inv_shift_rows(s):
        return [s[0], s[13], s[10], s[7],
                s[4], s[1], s[14], s[11],
                s[8], s[5], s[2], s[15],
                s[12], s[9], s[6], s[3]]

    @staticmethod
    def _mix_columns(s):
        out = [0] * 16
        for c in range(4):
            a = s[4 * c:4 * c + 4]
            out[4 * c + 0] = _gmul(a[0], 2) ^ _gmul(a[1], 3) ^ a[2] ^ a[3]
            out[4 * c + 1] = a[0] ^ _gmul(a[1], 2) ^ _gmul(a[2], 3) ^ a[3]
            out[4 * c + 2] = a[0] ^ a[1] ^ _gmul(a[2], 2) ^ _gmul(a[3], 3)
            out[4 * c + 3] = _gmul(a[0], 3) ^ a[1] ^ a[2] ^ _gmul(a[3], 2)
        return out

    @staticmethod
    def _inv_mix_columns(s):
        out = [0] * 16
        for c in range(4):
            a = s[4 * c:4 * c + 4]
            out[4 * c + 0] = (_gmul(a[0], 14) ^ _gmul(a[1], 11)
                              ^ _gmul(a[2], 13) ^ _gmul(a[3], 9))
            out[4 * c + 1] = (_gmul(a[0], 9) ^ _gmul(a[1], 14)
                              ^ _gmul(a[2], 11) ^ _gmul(a[3], 13))
            out[4 * c + 2] = (_gmul(a[0], 13) ^ _gmul(a[1], 9)
                              ^ _gmul(a[2], 14) ^ _gmul(a[3], 11))
            out[4 * c + 3] = (_gmul(a[0], 11) ^ _gmul(a[1], 13)
                              ^ _gmul(a[2], 9) ^ _gmul(a[3], 14))
        return out

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        state = [b ^ k for b, k in zip(block, self._round_keys[0])]
        for rnd in range(1, self.rounds):
            state = [_SBOX[b] for b in state]
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            state = [b ^ k for b, k in zip(state, self._round_keys[rnd])]
        state = [_SBOX[b] for b in state]
        state = self._shift_rows(state)
        state = [b ^ k for b, k in zip(state, self._round_keys[self.rounds])]
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        state = [b ^ k for b, k in zip(block, self._round_keys[self.rounds])]
        state = self._inv_shift_rows(state)
        state = [_INV_SBOX[b] for b in state]
        for rnd in range(self.rounds - 1, 0, -1):
            state = [b ^ k for b, k in zip(state, self._round_keys[rnd])]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [_INV_SBOX[b] for b in state]
        return bytes(b ^ k for b, k in zip(state, self._round_keys[0]))


def scalar_aes_cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """CBC with PKCS#7 padding, one :class:`ScalarAES` block at a time."""
    if len(iv) != 16:
        raise ValueError("IV must be 16 bytes")
    cipher = ScalarAES(key)
    previous = iv
    out = []
    for start in range(0, len(padded := pad(plaintext)), 16):
        block = bytes(a ^ b for a, b in zip(padded[start:start + 16],
                                            previous))
        previous = cipher.encrypt_block(block)
        out.append(previous)
    return b"".join(out)


def scalar_aes_cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`scalar_aes_cbc_encrypt`."""
    if len(iv) != 16:
        raise ValueError("IV must be 16 bytes")
    if len(ciphertext) % 16:
        raise ValueError("ciphertext is not block aligned")
    cipher = ScalarAES(key)
    previous = iv
    out = []
    for start in range(0, len(ciphertext), 16):
        block = ciphertext[start:start + 16]
        plain = cipher.decrypt_block(block)
        out.append(bytes(a ^ b for a, b in zip(plain, previous)))
        previous = block
    return unpad(b"".join(out))


def scalar_aes_ctr_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """CTR keystream XOR over counter blocks ``nonce ‖ be32(i)``, i from 0."""
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    cipher = ScalarAES(key)
    out = bytearray()
    counter = 0
    for start in range(0, len(data), 16):
        block = cipher.encrypt_block(nonce + counter.to_bytes(4, "big"))
        chunk = data[start:start + 16]
        out.extend(a ^ b for a, b in zip(chunk, block))
        counter += 1
    return bytes(out)


# -- scalar sdhash --------------------------------------------------------

#: rolling-hash weights over the 8 bytes before a window
_ANCHOR_WEIGHTS = (1, 3, 5, 7, 11, 13, 17, 19)

#: ``c/64 * log2(c/64)`` for a byte count c of a window (0 for c = 0)
_TERMS = np.zeros(WINDOW + 1, dtype=np.float64)
_TERMS[1:] = ((np.arange(1, WINDOW + 1, dtype=np.float64) / WINDOW)
              * np.log2(np.arange(1, WINDOW + 1, dtype=np.float64) / WINDOW))


def _anchor_positions_scalar(buf: np.ndarray) -> np.ndarray:
    """Window starts S with ``sum(w_k * buf[S-8+k]) & ANCHOR_MASK == 0``
    whose window fits in ``buf``, summed in plain int64."""
    n = buf.size
    if n < WINDOW + 8:
        return np.zeros(0, dtype=np.int64)
    wide = buf.astype(np.int64)
    rolling = sum(weight * wide[k:n - 7 + k]
                  for k, weight in enumerate(_ANCHOR_WEIGHTS))
    starts = np.flatnonzero((rolling & ANCHOR_MASK) == 0) + 8
    return starts[starts + WINDOW <= n]


def _window_entropy_scalar(window: np.ndarray) -> float:
    """Shannon entropy of one 64-byte window: its 256-bin histogram's
    terms summed as one 1-D array."""
    return float(-_TERMS[np.bincount(window, minlength=256)].sum())


def _select_features_scalar(data: bytes) -> List[bytes]:
    """The selected 64-byte windows of ``data``, one candidate at a time:
    entropy at least ``MIN_FEATURE_ENTROPY``, no lower than any neighbour
    within ``POPULARITY_SPAN``, and strictly above every earlier one
    (leftmost tie wins)."""
    buf = np.frombuffer(bytes(data), dtype=np.uint8)
    starts = _anchor_positions_scalar(buf)
    entropies = [_window_entropy_scalar(buf[s:s + WINDOW]) for s in starts]
    n = len(entropies)
    features: List[bytes] = []
    for idx in range(n):
        if entropies[idx] < MIN_FEATURE_ENTROPY:
            continue
        lo = max(0, idx - POPULARITY_SPAN)
        hi = min(n, idx + POPULARITY_SPAN + 1)
        if entropies[idx] < max(entropies[lo:hi]):
            continue
        if any(e >= entropies[idx] for e in entropies[lo:idx]):
            continue
        start = int(starts[idx])
        features.append(bytes(data[start:start + WINDOW]))
    return features


def sdhash_scalar(data: bytes) -> Optional[SdDigest]:
    """Digest ``data`` one feature at a time: SHA-1 each selected window
    and ``BloomFilter.add`` it, chaining a new filter when one is full."""
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
    return SdDigest(np.stack([filt.packed() for filt in filters]),
                    [filt.count for filt in filters], len(features),
                    len(data))


def compare_scalar(a: Optional[SdDigest],
                   b: Optional[SdDigest]) -> Optional[int]:
    """Mean over the smaller digest's filters of each one's best
    ``BloomFilter.similarity`` against the other digest, 0–100.

    The smaller digest has fewer filters, then fewer features, then the
    lower hexdigest, so the score does not depend on argument order."""
    if a is None or b is None:
        return None
    small, large = sorted((a, b), key=lambda d: (len(d.filters),
                                                 d.n_features,
                                                 d.hexdigest()))
    scores = [max(filt.similarity(other) for other in large.filters)
              for filt in small.filters]
    return int(round(100 * sum(scores) / len(scores)))
