"""Per-file state tracking — baselines, moves, links, and inspection.

CryptoDrop measures *change*, so it must know what each protected file
looked like before the current writer touched it.  :class:`FileStateCache`
keys state by the VFS's stable node ids (paper Fig. 2 "Caching"), which is
what makes the paper's hard cases work:

* **Class B** — a file moved out of the documents tree stays tracked by
  node id; the close-time inspection in the temp directory still compares
  against the documents-era baseline, and the move back re-keys the path
  ("the state of the file must be carefully tracked each time a file is
  moved", §III).
* **Class C move-over** — when a *new* file is renamed on top of a tracked
  file, the incoming node inherits the clobbered baseline, "allowing
  linking the original and new content and ultimately leading to union
  detection" (§V-B2).

Inspection — identifying a buffer's magic type and computing its
similarity digest — is the engine's single most expensive per-operation
job, so it is centralised in :meth:`FileStateCache.inspect`, which
returns one :class:`InspectionResult` that the engine threads through
scoring *and* baseline refresh (the single-digest invariant: each closed
version is typed and digested exactly once).  Behind it sits a bounded
:class:`DigestCache`, an LRU keyed by content hash, so re-inspections of
bytes the engine has already digested — Class-B files closing with
unchanged content after a move back, editors re-saving identical bytes —
skip the digest entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, Optional, Union

from ..fs.paths import WinPath
from ..magic import FileType, identify
from ..telemetry.events import BaselineResolved, CacheEvicted
from ..simhash import sdhash as _sdhash
from ..simhash.sdhash import SdDigest, WindowReference
from ..simhash.ssdeep import CtphSignature, ctph
from .schedule import InspectionScheduler

__all__ = ["TrackedFile", "FileStateCache", "InspectionResult",
           "DigestCache"]

#: what the cache's backend makes of one version: an sdhash digest or a
#: CTPH signature; only the code that makes or compares one tells them
#: apart
Digest = Union[SdDigest, CtphSignature]


@dataclass
class TrackedFile:
    """Baseline (previous-version) state for one file node."""

    node_id: int
    path: WinPath
    base_type: Optional[FileType] = None
    base_digest: Optional[Digest] = None
    base_size: int = 0
    #: True once a baseline has actually been captured from content
    has_baseline: bool = False
    #: True if this node was newly created by the writer (no prior version)
    born_empty: bool = False
    #: baseline bytes retained by a deferred capture — the digest is a
    #: pure function of content, so it can be materialised lazily the
    #: first time a comparison actually needs it (and never, for the
    #: common delete/overwrite-without-compare flows)
    pending_content: Optional[bytes] = None
    #: content key computed at capture time, carried alongside the
    #: pending bytes so materialisation never re-hashes the same content
    pending_key: Optional[bytes] = None


@dataclass
class InspectionResult:
    """One version's identification + digest, computed exactly once.

    ``digested`` records whether the similarity backend actually ran over
    the content (False when digests are disabled or the buffer exceeds
    the inspection ceiling) — consumers use it to distinguish "digest is
    None because the content cannot score" from "digest was never
    attempted".  ``deferred`` marks a capture whose digest waits: the
    content *could* be digested but no consumer needed it yet; the record
    keeps the bytes and the scheduler materialises them on first use.
    """

    file_type: FileType
    digest: Optional[Digest]
    size: int
    digested: bool
    deferred: bool = False
    #: the content's 16-byte BLAKE2b cache key when one was computed —
    #: threaded through so one close hashes its content exactly once
    key: Optional[bytes] = None


class DigestCache:
    """Bounded LRU of :class:`InspectionResult` keyed by content hash.

    The key is a 16-byte BLAKE2b of the content — hashing is ~50× cheaper
    than digesting, so a hit turns a close-time inspection into a lookup.
    Hit/miss/eviction counters and the bytes-digested tally feed
    :meth:`~repro.core.engine.AnalysisEngine.stats`; entries are
    deliberately *not* serialised by checkpoints (a restored engine
    re-digests rather than trusting stale results — see
    :meth:`FileStateCache.restore`).
    """

    #: lifetime counters, each a plain int attribute: lookups that hit
    #: and missed the LRU, evictions, ``bytes_digested`` and its subset
    #: ``bytes_streamed`` (digests an incremental StreamingDigestState
    #: finalized: the content was never re-read at close time), lookups
    #: an attached corpus BaselineStore resolved (``store_hits``) or fell
    #: through (``store_misses``), and inspections ``deferred`` to the
    #: scheduler
    _COUNTERS = ("hits", "misses", "evictions", "bytes_digested",
                 "bytes_streamed", "store_hits", "store_misses", "deferred")

    __slots__ = ("capacity", "telemetry", "_entries") + _COUNTERS

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(0, int(capacity))
        #: TelemetrySession or None, wired by the owning FileStateCache;
        #: eviction events are stamped with the bus clock (the cache has
        #: no operation context of its own)
        self.telemetry = None
        self.load_stats({})
        self._entries: "OrderedDict[bytes, InspectionResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(content: bytes) -> bytes:
        return blake2b(content, digest_size=16).digest()

    def get(self, key: bytes) -> Optional[InspectionResult]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: bytes, result: InspectionResult) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self.telemetry is not None:
                self.telemetry.cache_evictions.inc()
                self.telemetry.bus.emit(CacheEvicted(
                    self.telemetry.bus.clock_us,
                    entries=len(self._entries), capacity=self.capacity))

    def clear_entries(self) -> None:
        """Drop cached results; counters survive."""
        self._entries.clear()

    def counters(self) -> dict:
        """The checkpoint-safe slice of :meth:`stats`: lifetime counters
        only, no ephemeral entry count — a restored cache starts empty, so
        including ``entries`` would make checkpoints non-idempotent."""
        return {name: getattr(self, name) for name in self._COUNTERS}

    def stats(self) -> dict:
        return {"capacity": self.capacity, "entries": len(self._entries),
                **self.counters()}

    def load_stats(self, state: dict) -> None:
        for name in self._COUNTERS:
            setattr(self, name, int(state.get(name, 0)))


class FileStateCache:
    """Node-id-keyed baseline cache with move/link handling."""

    def __init__(self, backend: str = "sdhash",
                 max_inspect_bytes: int = 4 * 1024 * 1024,
                 digests_enabled: bool = True,
                 digest_cache_entries: int = 256,
                 baseline_store=None,
                 telemetry=None,
                 pending_bytes_cap: int = 0) -> None:
        if backend not in ("sdhash", "ctph"):
            raise ValueError(f"unknown similarity backend {backend!r}")
        self.backend = backend
        self.max_inspect_bytes = max_inspect_bytes
        #: ablation runs with the similarity indicator off skip digesting
        #: entirely (type identification is kept — it is cheap)
        self.digests_enabled = digests_enabled
        self.telemetry = telemetry
        self.digest_cache = DigestCache(digest_cache_entries)
        self.digest_cache.telemetry = telemetry
        #: read-only corpus BaselineStore consulted before digesting; must
        #: have been built under the same parameters, or its results would
        #: differ from live inspection (bit-identical scoring contract)
        if baseline_store is not None and not baseline_store.compatible_with(
                backend, max_inspect_bytes, digests_enabled):
            raise ValueError(
                "baseline store was built with different similarity "
                f"parameters ({baseline_store.backend}, "
                f"{baseline_store.max_inspect_bytes}, "
                f"digests={baseline_store.digests_enabled}) than this "
                f"cache ({backend}, {max_inspect_bytes}, "
                f"digests={digests_enabled})")
        self.baseline_store = baseline_store
        if baseline_store is not None and telemetry is not None:
            # surface mmap-backend page-ins on this engine's session
            # (dict storage has nothing to observe — no-op bind)
            baseline_store.bind_telemetry(telemetry)
        #: captures keep their bytes and enqueue here; a comparison
        #: materialises only the baseline it reads, and checkpoints,
        #: shutdown and the pending-bytes cap drain the rest in batches
        self.scheduler = InspectionScheduler(self, pending_bytes_cap)
        self._by_node: Dict[int, TrackedFile] = {}

    def __len__(self) -> int:
        return len(self._by_node)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_node

    def get(self, node_id: int) -> Optional[TrackedFile]:
        return self._by_node.get(node_id)

    # -- inspection ------------------------------------------------------------

    def inspect(self, content: bytes, want_digest: bool = True,
                key: Optional[bytes] = None,
                stream=None) -> InspectionResult:
        """Identify and digest ``content`` once, through store + LRU.

        Resolution order: :meth:`lookup` (digest LRU, then the attached
        :class:`~repro.corpus.baselines.BaselineStore`) → live
        inspection.  With ``want_digest=False`` a live inspection defers
        the digest: the result is type-and-size only, flagged
        ``deferred``, and never cached — callers retain the bytes and
        enqueue them on the scheduler, carrying the content ``key`` so
        the content is hashed once.  ``key``, when given, is the content
        key the caller already holds (a write stream's running hash).

        ``stream`` is an in-flight
        :class:`~repro.simhash.sdhash.StreamingDigestState` whose bytes
        the caller has validated to equal ``content`` (sdhash backend
        only).  On the live path it supplies the digest via an O(tail)
        ``finalize()`` — bit-identical to ``sdhash(content)``, without
        re-reading the content.  LRU/store hits still win (the stream
        is then simply discarded, unfinalized).
        """
        if not isinstance(content, bytes):
            content = bytes(content)
        found, key = self.lookup(content, key)
        if found is not None:
            return found
        dc = self.digest_cache
        file_type = identify(content)
        can_digest = (self.digests_enabled
                      and len(content) <= self.max_inspect_bytes)
        if can_digest and not want_digest:
            dc.deferred += 1
            if self.telemetry is not None:
                self._resolved("deferred", len(content))
            return InspectionResult(file_type, None, len(content),
                                    digested=False, deferred=True, key=key)
        digest: Optional[Digest] = None
        if can_digest:
            dc.bytes_digested += len(content)
            if self.backend == "ctph":
                digest = ctph(content)
            elif stream is not None:
                digest = stream.finalize()
                dc.bytes_streamed += len(content)
            else:
                digest = _sdhash(content)
        result = InspectionResult(file_type, digest, len(content),
                                  can_digest, key=key)
        self.remember_live(result)
        return result

    def lookup(self, content: bytes, key: Optional[bytes] = None):
        """Resolve ``content`` from the digest LRU, then the attached
        store: ``(result, key)`` where ``result`` is None on a miss (the
        caller digests live) and ``key`` is the content key, hashed here
        unless the caller already holds it.  Counts and emits exactly one
        resolution per hit.  Shared by :meth:`inspect` and the
        scheduler's flush, so both resolve a record the same way.
        """
        dc = self.digest_cache
        store = self.baseline_store
        if key is None and (dc.capacity > 0 or store is not None):
            key = dc.key(content)
        if dc.capacity > 0:
            found = dc.get(key)
            if found is not None:
                # cached results are always final (digested, or
                # permanently undigestable) — valid for any want_digest
                if self.telemetry is not None:
                    self._resolved("lru", found.size)
                return found, key
        else:
            dc.misses += 1
        if store is not None:
            entry = store.get(key)
            if entry is not None:
                dc.store_hits += 1
                if self.telemetry is not None:
                    self._resolved("store", entry.size)
                return entry, key
            dc.store_misses += 1
        return None, key

    def remember_live(self, result: InspectionResult) -> None:
        """Cache a live inspection under its content key and report it."""
        if result.key is not None and self.digest_cache.capacity > 0:
            self.digest_cache.put(result.key, result)
        if self.telemetry is not None:
            self._resolved("live", result.size)

    def _resolved(self, source: str, size: int) -> None:
        # only called with telemetry attached; stamped off the bus clock
        # (inspections have no operation context of their own)
        t = self.telemetry
        t.baseline_resolutions.inc(source=source)
        t.bus.emit(BaselineResolved(t.bus.clock_us, source=source,
                                    size=size))

    # -- lifecycle -----------------------------------------------------------

    def track_new(self, node_id: int, path: WinPath) -> TrackedFile:
        """Start tracking a freshly created (empty) file."""
        record = TrackedFile(node_id=node_id, path=path, born_empty=True,
                             has_baseline=True, base_size=0)
        self._by_node[node_id] = record
        return record

    def ensure_baseline(self, node_id: int, path: WinPath, content: bytes,
                        inspection: Optional[InspectionResult] = None
                        ) -> TrackedFile:
        """Capture the previous-version baseline if not already cached."""
        record = self._by_node.get(node_id)
        if record is None:
            record = TrackedFile(node_id=node_id, path=path)
            self._by_node[node_id] = record
        record.path = path
        if not record.has_baseline:
            self._capture(record, content, inspection)
        return record

    def _capture(self, record: TrackedFile, content: bytes,
                 inspection: Optional[InspectionResult] = None) -> None:
        if inspection is None:
            # A capture defers the digest: most captured baselines are
            # never compared (files that are deleted, renamed away, or
            # born under the writer), and the store/LRU still
            # short-circuits the deferral for known bytes.
            inspection = self.inspect(content, want_digest=False)
        record.base_type = inspection.file_type
        record.base_size = inspection.size
        # a deferred inspection has no digest until the scheduler's flush
        record.base_digest = inspection.digest
        if inspection.deferred:
            record.pending_content = content
            record.pending_key = inspection.key
            self.scheduler.enqueue(record)
        else:
            record.pending_content = None
            record.pending_key = None
            self.scheduler.discard(record.node_id)
        record.has_baseline = True

    def materialise_baseline(self, record: TrackedFile,
                             reference: Optional[WindowReference] = None
                             ) -> None:
        """Digest a deferred baseline now (a comparison needs it).

        Only this record drains, through the scheduler's flush — the
        same lookup, live digest and counters as any other
        materialisation.  Records pending for other nodes stay pending:
        a comparison reads one baseline, and digesting the rest now
        would only move their cost into this close (or spend it on
        digests nothing ever compares).  ``reference`` carries the
        window entropies of a new version that streamed, so the live
        digest computes only the windows the two versions do not share.
        """
        if record.pending_content is not None:
            self.scheduler.flush([record], reference)

    def refresh_baseline(self, node_id: int, path: WinPath, content: bytes,
                         inspection: Optional[InspectionResult] = None
                         ) -> TrackedFile:
        """After an inspection, the new version becomes the baseline.

        Pass the close-time :class:`InspectionResult` to reuse its type
        and digest — the single-digest close path — instead of paying for
        a second identification and digest of the same bytes.
        """
        record = self._by_node.get(node_id)
        if record is None:
            record = TrackedFile(node_id=node_id, path=path)
            self._by_node[node_id] = record
        record.path = path
        record.born_empty = False
        self._capture(record, content, inspection)
        return record

    # -- moves -----------------------------------------------------------------

    def on_rename(self, node_id: Optional[int], dest: WinPath,
                  clobbered_node_id: Optional[int]) -> Optional[TrackedFile]:
        """Handle a rename: re-key, and link a move-over to the old baseline.

        Returns the record that should be *compared against* for the moved
        node (the clobbered file's baseline when linking applies), or None
        when nothing is tracked on either side.
        """
        if node_id is None:
            return None
        moved = self._by_node.get(node_id)
        clobbered = (self._by_node.pop(clobbered_node_id, None)
                     if clobbered_node_id is not None else None)
        if clobbered is not None:
            # the clobbered record is gone; its pending bytes travel on
            # the inherited record below (or die with it)
            self.scheduler.discard(clobbered_node_id)
        if clobbered is not None and clobbered.has_baseline and not clobbered.born_empty:
            # Link: the incoming node inherits the overwritten baseline
            # (including a not-yet-materialised deferred one).
            inherited = TrackedFile(
                node_id=node_id, path=dest,
                base_type=clobbered.base_type,
                base_digest=clobbered.base_digest,
                base_size=clobbered.base_size,
                has_baseline=True, born_empty=False,
                pending_content=clobbered.pending_content,
                pending_key=clobbered.pending_key)
            self._by_node[node_id] = inherited
            # the moved node's own record is replaced, and its pending
            # slot with it — left behind, the slot would keep counting
            # bytes no tracked record holds
            self.scheduler.discard(node_id)
            if inherited.pending_content is not None:
                self.scheduler.enqueue(inherited)
            return inherited
        if moved is not None:
            moved.path = dest
            return moved
        return None

    def on_delete(self, node_id: Optional[int]) -> Optional[TrackedFile]:
        if node_id is None:
            return None
        self.scheduler.discard(node_id)
        return self._by_node.pop(node_id, None)

    def is_tracked(self, node_id: Optional[int]) -> bool:
        return node_id is not None and node_id in self._by_node

    # -- checkpoint / restore -------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-serialisable snapshot of every tracked baseline.

        Node ids are stable for the lifetime of a VFS, so a restored cache
        keyed by them reconnects to the same files after a monitor
        restart.  Digest-cache *entries* are deliberately excluded — only
        the counters travel — so a restored engine can never act on a
        stale cached inspection.  Deferred baselines are materialised
        first (pending bytes never serialise), and an attached
        :class:`~repro.corpus.baselines.BaselineStore` is referenced by
        its descriptor (corpus seed + fingerprint), never embedded.
        """
        # pending bytes never serialise: drain them as one batch first
        self.scheduler.flush()
        entries = []
        for node_id in sorted(self._by_node):
            record = self._by_node[node_id]
            base_type = record.base_type
            entries.append({
                "node_id": record.node_id,
                "path": str(record.path),
                "base_type": None if base_type is None else {
                    "name": base_type.name,
                    "description": base_type.description,
                    "category": base_type.category,
                    "is_high_entropy": base_type.is_high_entropy,
                },
                "base_digest": (None if record.base_digest is None
                                else record.base_digest.to_state()),
                "base_size": record.base_size,
                "has_baseline": record.has_baseline,
                "born_empty": record.born_empty,
            })
        return {"backend": self.backend, "entries": entries,
                "digest_cache": self.digest_cache.counters(),
                "baseline_store": (None if self.baseline_store is None
                                   else self.baseline_store.describe())}

    def restore(self, state: dict) -> None:
        """Replace the cache contents with a :meth:`checkpoint` snapshot
        taken under this cache's similarity backend."""
        descriptor = state.get("baseline_store")
        if descriptor is not None and self.baseline_store is not None \
                and descriptor.get("fingerprint") != \
                self.baseline_store.fingerprint:
            raise ValueError(
                "checkpoint references baseline store "
                f"{descriptor.get('fingerprint')!r} (corpus seed "
                f"{descriptor.get('seed')!r}) but this cache has store "
                f"{self.baseline_store.fingerprint!r} attached")
        if state.get("backend") != self.backend:
            raise ValueError(
                f"checkpoint holds {state.get('backend')!r} digests but "
                f"this cache compares with {self.backend!r}")
        digest_cls = SdDigest if self.backend == "sdhash" else CtphSignature
        self._by_node.clear()
        self.scheduler.clear()
        self.digest_cache.clear_entries()
        self.digest_cache.load_stats(state.get("digest_cache", {}))
        for entry in state["entries"]:
            type_state = entry["base_type"]
            record = TrackedFile(
                node_id=int(entry["node_id"]),
                path=WinPath(entry["path"]),
                base_type=None if type_state is None else FileType(
                    type_state["name"], type_state["description"],
                    type_state["category"], type_state["is_high_entropy"]),
                base_digest=(None if entry["base_digest"] is None
                             else digest_cls.from_state(entry["base_digest"])),
                base_size=int(entry["base_size"]),
                has_baseline=bool(entry["has_baseline"]),
                born_empty=bool(entry["born_empty"]),
            )
            self._by_node[record.node_id] = record
