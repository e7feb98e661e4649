"""Deferred inspection scheduling — the batched close path.

Baseline captures keep their bytes and postpone the similarity digest
until a comparison first needs it (:class:`~repro.core.filestate.FileStateCache`
marks these records via ``pending_content``).  :class:`InspectionScheduler`
collects the pending set and materialises it through the batched
:func:`~repro.simhash.sdhash.digest_many` kernel: a comparison drains
only the record it reads, the pending-bytes cap drains the oldest
records until the set fits again, and a checkpoint, shutdown or explicit
``flush_inspections`` drains everything — one numpy dispatch per flush
instead of one per file.

A flush is always synchronous and always runs *before* the demanding
consumer proceeds (comparison, checkpoint, explicit
``flush_inspections``), and a digest is a pure function of content, so
detection output — scores, verdicts, timelines — equals that of an
engine that digests every version the moment it sees it
(``tests/reference.py`` keeps that eager reference).  Score reads
deliberately do *not* flush: scores only move inside ``post_operation``,
where any comparison has already materialised its digests, so a record
still pending at read time is provably score-neutral.  Each record in a
flush resolves through :meth:`FileStateCache.lookup` — digest LRU, then
corpus store — exactly as :meth:`FileStateCache.inspect` does, and only
the remainder goes to the live kernel.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..simhash.sdhash import digest_many
from ..simhash.ssdeep import ctph
from ..telemetry.events import DigestBatchFlushed

__all__ = ["InspectionScheduler"]


class InspectionScheduler:
    """Collects deferred-digest records and flushes them in batches.

    Owned by a :class:`~repro.core.filestate.FileStateCache`, which
    enqueues a record whenever a capture defers its digest and calls
    :meth:`flush` with just the record a comparison reads from
    ``materialise_baseline``, and with no argument (the whole set) from
    checkpoints.  Keyed by node id, oldest capture first: a record
    replaced under the same node (re-capture) takes a fresh slot at the
    end, and the cache discards the slot of a record it drops or replaces
    (delete, rename clobber, rename linking), so orphaned pending bytes
    are never digested.
    """

    __slots__ = ("cache", "telemetry", "_pending", "_pending_sizes",
                 "pending_bytes", "pending_bytes_cap", "forced_flushes",
                 "flushes", "materialised", "live_digests", "bytes_live",
                 "max_batch", "closes")

    def __init__(self, cache, pending_bytes_cap: int = 0) -> None:
        self.cache = cache
        self.telemetry = cache.telemetry
        self._pending: Dict[int, object] = {}
        #: exact bytes recorded per pending node — re-captures of the same
        #: node replace their slot, so the tally is a replace, not an add
        self._pending_sizes: Dict[int, int] = {}
        self.pending_bytes = 0
        #: watermark: a non-zero cap force-flushes the oldest pending
        #: records the moment retained ``pending_content`` bytes exceed
        #: it, until they fit again — bounding deferred-digest memory on
        #: long-lived monitors without digesting the whole set in one op
        self.pending_bytes_cap = max(0, int(pending_bytes_cap))
        self.forced_flushes = 0
        self.flushes = 0
        self.materialised = 0
        self.live_digests = 0
        self.bytes_live = 0
        self.max_batch = 0
        self.closes = 0

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, record) -> None:
        """Register a record whose capture deferred its digest."""
        node_id = record.node_id
        # a re-capture leaves its old slot, so the set stays oldest first
        self._pending.pop(node_id, None)
        old = self._pending_sizes.pop(node_id, 0)
        size = len(record.pending_content or b"")
        self._pending[node_id] = record
        self._pending_sizes[node_id] = size
        self.pending_bytes += size - old
        if self.telemetry is not None:
            self.telemetry.scheduler_pending_bytes.set(self.pending_bytes)
        if self.pending_bytes_cap and \
                self.pending_bytes > self.pending_bytes_cap:
            self.forced_flushes += 1
            self.flush(self._oldest_over_cap())

    def _oldest_over_cap(self) -> list:
        """The oldest pending records whose draining brings
        ``pending_bytes`` back to the cap."""
        excess = self.pending_bytes - self.pending_bytes_cap
        records = []
        for node_id, record in self._pending.items():
            if excess <= 0:
                break
            records.append(record)
            excess -= self._pending_sizes[node_id]
        return records

    def discard(self, node_id: Optional[int]) -> None:
        """Forget a pending record (deleted / clobbered nodes)."""
        if node_id is not None and self._pending.pop(node_id, None) \
                is not None:
            self.pending_bytes -= self._pending_sizes.pop(node_id, 0)
            if self.telemetry is not None:
                self.telemetry.scheduler_pending_bytes.set(
                    self.pending_bytes)

    def clear(self) -> None:
        """Drop the pending set without materialising (cache restore)."""
        self._pending.clear()
        self._pending_sizes.clear()
        self.pending_bytes = 0
        if self.telemetry is not None:
            self.telemetry.scheduler_pending_bytes.set(0)

    def close(self) -> int:
        """Shutdown/restart flush: drain everything pending, count it.

        The graceful-shutdown contract (``CryptoDropMonitor.close``,
        ``MonitorSupervisor.stop``, shard restarts): a digest deferred
        just before the monitor goes away must still be materialised —
        silently dropping it would make the final checkpoint disagree
        with an eager run.  Identical to :meth:`flush` except that the
        drain is recorded as a close-time flush, so operators can tell
        shutdown work from demand-driven batching in :meth:`stats`.
        """
        self.closes += 1
        return self.flush()

    def flush(self, records=None, reference=None) -> int:
        """Materialise pending digests now; returns records drained.

        ``records`` are the pending records to drain (a comparison's one
        baseline, the cap's oldest); the default drains the whole set.
        Records resolve through ``FileStateCache.lookup`` — LRU, then
        corpus store — like ``FileStateCache.inspect``, but the live
        remainder goes through :func:`digest_many` in one batch.  The
        cached inspection reuses the record's capture-time file type and
        content key, both pure functions of the same bytes.
        ``reference`` is a :class:`~repro.simhash.sdhash.WindowReference`
        handed to :func:`digest_many`: the window entropies of the
        streamed version that replaces a comparison's baseline.
        """
        if records is None:
            pending = list(self._pending.values())
            self._pending.clear()
            self._pending_sizes.clear()
            self.pending_bytes = 0
        else:
            pending = records
            for record in pending:
                self._pending.pop(record.node_id, None)
                self.pending_bytes -= self._pending_sizes.pop(
                    record.node_id, 0)
        if not pending:
            return 0
        if self.telemetry is not None:
            self.telemetry.scheduler_pending_bytes.set(self.pending_bytes)
        cache = self.cache
        live_records = []
        live_contents = []
        live_keys = []
        for record in pending:
            content = record.pending_content
            record.pending_content = None
            found, key = cache.lookup(content, record.pending_key)
            record.pending_key = None
            if found is not None:
                record.base_digest = found.digest
                record.base_ctph = found.ctph
                continue
            live_records.append(record)
            live_contents.append(content)
            live_keys.append(key)
        live = len(live_records)
        bytes_live = sum(len(content) for content in live_contents)
        if live:
            from .filestate import InspectionResult
            sdhash_backend = cache.backend == "sdhash"
            digests = (digest_many(live_contents, reference=reference)
                       if sdhash_backend else [None] * live)
            cache.digest_cache.bytes_digested += bytes_live
            for record, content, key, digest in zip(
                    live_records, live_contents, live_keys, digests):
                sig = None if sdhash_backend else ctph(content)
                cache.remember_live(InspectionResult(
                    record.base_type, digest, sig, len(content),
                    digested=True, key=key))
                record.base_digest = digest
                record.base_ctph = sig
        drained = len(pending)
        self.flushes += 1
        self.materialised += drained
        self.live_digests += live
        self.bytes_live += bytes_live
        if drained > self.max_batch:
            self.max_batch = drained
        if self.telemetry is not None:
            t = self.telemetry
            t.digest_batches.inc()
            t.digest_batch_size.observe(drained)
            t.bus.emit(DigestBatchFlushed(
                t.bus.clock_us, pending=drained, live=live,
                bytes_live=bytes_live))
        return drained

    def stats(self) -> dict:
        return {
            "pending": len(self._pending),
            "pending_bytes": self.pending_bytes,
            "pending_bytes_cap": self.pending_bytes_cap,
            "forced_flushes": self.forced_flushes,
            "flushes": self.flushes,
            "materialised": self.materialised,
            "live_digests": self.live_digests,
            "bytes_live": self.bytes_live,
            "max_batch": self.max_batch,
            "closes": self.closes,
        }
