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

The benchmark harness uses :func:`eager_reference` for the same swap.
:func:`verdict_checkpoint` and :func:`detection_output` are what an engine
and the reference must agree on; bookkeeping counters (digest cache,
streams, wall times, telemetry metrics) describe the path, not the
verdict, and are left out.
"""

from __future__ import annotations

import contextlib
import dataclasses

import repro.core.engine as engine_mod
from repro.core.filestate import DigestCache, InspectionResult, TrackedFile
from repro.magic import identify
from repro.simhash import ctph, sdhash

__all__ = ["EagerFileStateCache", "detection_output", "eager_reference",
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
