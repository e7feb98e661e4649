"""Precomputed corpus baseline index — digest the corpus once, share it.

The paper's evaluation (§V-A) runs thousands of sample cycles against the
*same* planted corpus; every cycle starts a fresh engine whose first touch
of each document re-derives the identical baseline (magic type, sdhash
digest, entropy) from identical bytes.  :class:`BaselineStore` amortises
that: after ``generate()``, the whole corpus is digested exactly once into
an immutable content-keyed index that every engine — and, via fork
inheritance, every campaign worker process — resolves first-touch
baselines from instead of re-digesting.

Keys are the same 16-byte BLAKE2b content hashes the engine's
:class:`~repro.core.filestate.DigestCache` uses, so the store composes
with the single-digest close path: content the store has never seen (new
files, already-mutated versions) simply misses and falls back to live
digesting.

Entries are immutable and shared — :class:`BaselineEntry` deliberately
exposes the same attribute surface as
:class:`~repro.core.filestate.InspectionResult` (``file_type``,
``digest``, ``size``, ``digested``) so a store hit can be consumed
anywhere an inspection result is expected, with zero copying.

Checkpoints never embed store entries: :meth:`BaselineStore.describe`
yields a small descriptor (corpus seed, parameters, content fingerprint)
that a restored engine validates against its own attached store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, Optional, Union

from ..entropy import corrected_entropies_from_histograms, histograms_many
from ..magic import FileType, identify
from ..simhash.sdhash import SdDigest, digest_many
from ..simhash.ssdeep import CtphSignature, ctph
from ..store.backend import DictBackend

__all__ = ["BaselineEntry", "BaselineStore", "content_key",
           "fingerprint_state"]

_STATE_MASK = (1 << 128) - 1


def content_key(content: bytes) -> bytes:
    """16-byte BLAKE2b content hash — identical to ``DigestCache.key``."""
    return blake2b(content, digest_size=16).digest()


def fingerprint_state(keys) -> int:
    """Order-independent 128-bit fold of a key set (sum mod 2^128).

    Incremental and associative: builders accumulate it per key, shard
    merges just add shard states, and the on-disk header persists it so
    a reopened million-entry store validates checkpoints in O(1) — no
    sorted-key rehash (the old cold path was O(n log n))."""
    state = 0
    for key in keys:
        state = (state + int.from_bytes(key, "little")) & _STATE_MASK
    return state


@dataclass(frozen=True)
class BaselineEntry:
    """One corpus file's precomputed first-touch baseline.

    Duck-types :class:`~repro.core.filestate.InspectionResult` (plus the
    corrected Shannon entropy of the pristine bytes), so engines can use
    a store hit directly as the inspection of that content.  ``digest``
    is what the store's backend made: an sdhash digest or a CTPH
    signature.
    """

    file_type: FileType
    digest: Optional[Union[SdDigest, CtphSignature]]
    size: int
    entropy: float
    digested: bool

    #: a store entry is always fully materialised, never lazily pending
    deferred: bool = False


class BaselineStore:
    """Immutable content-key → :class:`BaselineEntry` index of a corpus.

    Built once per (corpus, similarity parameters) via :meth:`build`;
    lookups are single dict probes.  The store records the parameters it
    was digested under (``backend``, ``max_inspect_bytes``,
    ``digests_enabled``) so consumers can refuse a store that would
    yield different digests than live inspection — bit-identical scoring
    between store-backed and store-less runs is the contract.
    """

    __slots__ = ("seed", "backend", "max_inspect_bytes", "digests_enabled",
                 "total_bytes", "build_seconds", "path", "_impl",
                 "_state", "_fingerprint")

    def __init__(self, seed: int, backend: str, max_inspect_bytes: int,
                 digests_enabled: bool,
                 entries, total_bytes: int = 0,
                 build_seconds: float = 0.0,
                 state: Optional[int] = None) -> None:
        self.seed = seed
        self.backend = backend
        self.max_inspect_bytes = max_inspect_bytes
        self.digests_enabled = digests_enabled
        self.total_bytes = total_bytes
        self.build_seconds = build_seconds
        self.path: Optional[str] = None
        # a plain dict is wrapped in the in-memory backend; anything else
        # must already be a StoreBackend (e.g. an opened MmapBackend)
        self._impl = DictBackend(entries) if isinstance(entries, dict) \
            else entries
        self._state = state
        self._fingerprint: Optional[str] = None

    @property
    def _entries(self) -> Dict[bytes, BaselineEntry]:
        """Entry mapping (the live dict for dict storage; materialised on
        demand for mmap storage — tooling/tests, not the lookup path)."""
        return self._impl.as_dict()

    @property
    def storage(self) -> str:
        """Where entries live: ``"dict"`` (resident) or ``"mmap"``."""
        return self._impl.storage

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, corpus, backend: str = "sdhash",
              max_inspect_bytes: int = 4 * 1024 * 1024,
              digests_enabled: bool = True) -> "BaselineStore":
        """Digest every distinct content blob of ``corpus`` once.

        Every entry is bit-identical to a per-file identify, digest and
        entropy of its blob (``tests/reference.py`` keeps that loop as
        ``build_store_serial``).
        """
        if backend not in ("sdhash", "ctph"):
            raise ValueError(f"unknown similarity backend {backend!r}")
        started = time.perf_counter()
        keys, blobs, state = cls._distinct(corpus)
        entries, total = cls._build_entries(
            keys, blobs, backend, max_inspect_bytes, digests_enabled)
        return cls(corpus.seed, backend, max_inspect_bytes, digests_enabled,
                   entries, total_bytes=total,
                   build_seconds=time.perf_counter() - started,
                   state=state)

    @staticmethod
    def _distinct(corpus) -> tuple:
        """``corpus``'s distinct blobs, first copy first: their keys, the
        blobs and the keys' :func:`fingerprint_state`."""
        keys = []
        blobs = []
        seen = set()
        state = 0
        for content in corpus.contents.values():
            key = content_key(content)
            if key in seen:
                continue
            seen.add(key)
            keys.append(key)
            blobs.append(content)
            state = (state + int.from_bytes(key, "little")) & _STATE_MASK
        return keys, blobs, state

    @staticmethod
    def _build_entries(keys, blobs, backend: str, max_inspect_bytes: int,
                       digests_enabled: bool) -> tuple:
        """The entries of distinct ``blobs`` under ``keys`` and the bytes
        digested: sdhash blobs in one digest_many pass, CTPH blobs one at
        a time, every entropy from shared histogram scatters."""
        flags = [digests_enabled and len(c) <= max_inspect_bytes
                 for c in blobs]
        todo = [c for c, flag in zip(blobs, flags) if flag]
        digests = iter(digest_many(todo) if backend == "sdhash"
                       else [ctph(c) for c in todo])
        entropies = corrected_entropies_from_histograms(
            histograms_many(blobs), [len(c) for c in blobs])
        entries: Dict[bytes, BaselineEntry] = {}
        for key, content, digested, entropy in zip(keys, blobs, flags,
                                                   entropies.tolist()):
            entries[key] = BaselineEntry(
                identify(content), next(digests) if digested else None,
                len(content), entropy, digested)
        return entries, sum(len(c) for c in todo)

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> str:
        """Write this store to ``path`` in the on-disk format.

        One sequential pass — records stream out in entry order, the
        sorted key index and type table follow, and the header (with the
        incremental fingerprint state) seals the file.  The result
        reopens via :meth:`open` with an identical fingerprint.  The
        file is written under a temporary name and renamed over ``path``
        only once complete, so a save that fails leaves the previous
        store at ``path`` as it was.
        """
        from ..store.writer import StoreWriter
        writer = StoreWriter(path, seed=self.seed, backend=self.backend,
                             max_inspect_bytes=self.max_inspect_bytes,
                             digests_enabled=self.digests_enabled)
        try:
            for key in self._impl.keys():
                writer.add(key, self._impl.get(key))
            return writer.finish(total_bytes=self.total_bytes,
                                 build_seconds=self.build_seconds)
        except BaseException:
            writer.abort()
            raise

    @classmethod
    def open(cls, path, hot_entries: int = 4096) -> "BaselineStore":
        """Open an on-disk store lazily — O(1) in entry count.

        Nothing is deserialised up front; lookups page individual
        records in through a ``hot_entries``-bounded LRU.  Raises
        :class:`~repro.store.format.StoreFormatError` (with an
        actionable message) on truncated or corrupt files.
        """
        from ..store.mmapstore import MmapBackend
        impl = MmapBackend(path, hot_entries=hot_entries)
        header = impl.header
        store = cls(header.seed, header.backend, header.max_inspect_bytes,
                    header.digests_enabled, impl,
                    total_bytes=header.total_bytes,
                    build_seconds=header.build_seconds,
                    state=header.fingerprint_state)
        store.path = impl.path
        return store

    def close(self) -> None:
        """Release backend resources (the mmap and file handle)."""
        self._impl.close()

    # -- lookup --------------------------------------------------------------

    def get(self, key: bytes) -> Optional[BaselineEntry]:
        return self._impl.get(key)

    def lookup_content(self, content: bytes) -> Optional[BaselineEntry]:
        return self._impl.get(content_key(content))

    def entropy_of(self, content: bytes) -> Optional[float]:
        entry = self.lookup_content(content)
        return None if entry is None else entry.entropy

    def __len__(self) -> int:
        return len(self._impl)

    def __contains__(self, key: bytes) -> bool:
        return key in self._impl

    # -- identity ------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Stable hash of the key set + parameters (checkpoint identity).

        Derived from the order-independent :func:`fingerprint_state`, so
        it is O(1) when the state arrived with the store (every build
        path and the on-disk header supply it) — restore validation of a
        million-entry store never rehashes the key set.
        """
        if self._fingerprint is None:
            if self._state is None:
                self._state = fingerprint_state(self._impl.keys())
            h = blake2b(digest_size=8)
            h.update(f"{self.seed}|{self.backend}|{self.max_inspect_bytes}|"
                     f"{self.digests_enabled}|{len(self._impl)}".encode())
            h.update(self._state.to_bytes(16, "little"))
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def describe(self) -> dict:
        """Checkpoint-safe descriptor: identity, never entries."""
        return {
            "seed": self.seed,
            "backend": self.backend,
            "max_inspect_bytes": self.max_inspect_bytes,
            "digests_enabled": self.digests_enabled,
            "entries": len(self._impl),
            "storage": self.storage,
            "fingerprint": self.fingerprint,
        }

    def compatible_with(self, backend: str, max_inspect_bytes: int,
                        digests_enabled: bool,
                        seed: Optional[int] = None) -> bool:
        """Would this store return the same results as live inspection?

        ``seed`` (when the caller knows the corpus seed) fails fast on a
        parameter-identical store built from a *different* corpus —
        without it that mismatch only surfaced later, at checkpoint
        fingerprint validation.
        """
        return (self.backend == backend
                and self.max_inspect_bytes == max_inspect_bytes
                and self.digests_enabled == digests_enabled
                and (seed is None or self.seed == seed))

    def page_stats(self) -> dict:
        """Backend residency/paging counters (all-resident for dict)."""
        return self._impl.page_stats()

    # -- telemetry -----------------------------------------------------------

    def bind_telemetry(self, telemetry) -> None:
        """Route backend page-in observations onto a telemetry session."""
        self._impl.bind_telemetry(telemetry)

    def emit_built(self, telemetry, timestamp_us: float = 0.0) -> None:
        """Announce this store on a telemetry session's bus.

        Builds happen once per campaign, usually before any monitor (and
        so any bus clock) exists, hence the explicit timestamp.  Imported
        lazily: the store itself has no telemetry dependency.
        """
        if telemetry is None:
            return
        from ..telemetry.events import StoreBuilt
        telemetry.bus.emit(StoreBuilt(
            timestamp_us, entries=len(self._impl),
            total_bytes=self.total_bytes,
            build_seconds=round(self.build_seconds, 6),
            backend=self.backend))

    def announce(self, telemetry, open_seconds: float = 0.0,
                 timestamp_us: float = 0.0) -> None:
        """Storage-aware announcement: ``StoreBuilt`` for resident dict
        stores, ``StoreOpened`` for stores paged in from disk."""
        if telemetry is None:
            return
        if self.storage == "dict":
            self.emit_built(telemetry, timestamp_us)
            return
        from ..telemetry.events import StoreOpened
        telemetry.bus.emit(StoreOpened(
            timestamp_us, entries=len(self._impl),
            total_bytes=self.total_bytes, path=self.path or "",
            open_seconds=round(open_seconds, 6),
            hot_entries=self.page_stats().get("hot_capacity", 0)))
