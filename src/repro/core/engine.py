"""The CryptoDrop analysis engine.

A filter driver (paper Fig. 2) that receives every filesystem operation
touching the protected documents tree and converts it into indicator
measurements, reputation points, and — past threshold — a suspension
verdict.

Division of labour across the two filter hooks:

* **pre-operation** — baseline capture.  The first time the engine sees a
  node about to be modified (open-for-truncate, write, rename, delete) it
  snapshots the *previous version*: magic type + similarity digest.  This
  must happen pre-op or a truncating open would destroy the evidence.
* **post-operation** — measurement and scoring.  Reads/writes feed the
  per-process entropy means; closes after writes trigger full-file
  inspection (type change + similarity); renames handle move tracking and
  Class-C linking; deletes feed the deletion counter.

The engine never blocks an operation outright — ransomware is free to run
until its reputation crosses threshold, at which point the process family
is suspended and the (policy-modelled) user is asked.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..entropy import corrected_entropy_from_counts
from ..fs.errors import FsError
from ..fs.events import Decision, FsOperation, OpKind
from ..fs.filters import FilterDriver, PostVerdict
from ..fs.vfs import SYSTEM_PID, VirtualFileSystem
from ..magic import identify
from ..simhash.sdhash import StreamingDigestState
from ..telemetry.events import (IndicatorFired, ProcessSuspended,
                                StreamDigestFinalized)
from .config import CryptoDropConfig
from .detection import AlertPolicy, Detection, SuspendPolicy
from .filestate import FileStateCache, TrackedFile
from .indicators import (IndicatorHit, ProcessDeletionState,
                         ProcessEntropyState, ProcessFunnelState,
                         similarity_collapsed, similarity_score,
                         type_changed)
from .scoring import Scoreboard

__all__ = ["AnalysisEngine"]


class _ProcessState:
    """Per-process-family indicator accumulators."""

    __slots__ = ("entropy", "deletion", "funnel")

    def __init__(self, config: CryptoDropConfig) -> None:
        self.entropy = ProcessEntropyState(config.entropy_delta)
        self.deletion = ProcessDeletionState(config.deletion_allowance)
        self.funnel = ProcessFunnelState(config.funnel_spread)


class AnalysisEngine(FilterDriver):
    """CryptoDrop, as a filter driver over a virtual filesystem."""

    name = "cryptodrop"

    def __init__(self, vfs: VirtualFileSystem,
                 config: Optional[CryptoDropConfig] = None,
                 policy: Optional[AlertPolicy] = None,
                 baseline_store=None, telemetry=None) -> None:
        self.vfs = vfs
        self.config = config or CryptoDropConfig()
        self.policy = policy or SuspendPolicy()
        #: a ``repro.telemetry.TelemetrySession`` or None; every emit
        #: point below is guarded by one ``is None`` check so the
        #: disabled path constructs nothing
        self.telemetry = telemetry
        self.scoreboard = Scoreboard(self.config, telemetry=telemetry)
        self.cache = FileStateCache(self.config.similarity_backend,
                                    self.config.max_inspect_bytes,
                                    digests_enabled=self.config.enable_similarity,
                                    digest_cache_entries=self.config.digest_cache_entries,
                                    baseline_store=baseline_store,
                                    telemetry=telemetry,
                                    pending_bytes_cap=self.config.scheduler_pending_bytes_cap)
        #: the cache's deferred-digest scheduler: pending captures
        #: materialise through digest_many in one flush
        self.scheduler = self.cache.scheduler
        #: incremental close-path digests: append-only write streams feed
        #: a per-handle StreamingDigestState so finalising at close is
        #: O(tail) instead of O(file).  sdhash-only (the ctph backend has
        #: no incremental kernel); any non-append access falls back to the
        #: whole-content path, counted per reason in stream_fallbacks.
        self._stream_writes = (self.config.enable_similarity
                               and self.config.similarity_backend == "sdhash")
        #: handle_id → (node_id, StreamingDigestState)
        self._streams: Dict[int, tuple] = {}
        #: node_id → owning handle_id — a write through any *other* handle
        #: means the stream no longer mirrors the file bytes
        self._stream_nodes: Dict[int, int] = {}
        self.streams_started = 0
        self.streams_finalized = 0
        self.bytes_streamed = 0
        self.stream_fallbacks: Dict[str, int] = {}
        self.detections: List[Detection] = []
        self._proc: Dict[int, _ProcessState] = {}
        self._whitelist: set = set()
        #: funneling memo: node_id → identified type name for offset-0
        #: reads of untracked nodes (invalidated on write/delete)
        self._read_type_memo: Dict[int, str] = {}
        #: per-handle running byte histogram: handle_id → [counts, total]
        #: — each write payload is bincounted exactly once, feeding both
        #: the per-op entropy mean and the handle's cumulative stream
        #: entropy; dropped when the handle closes
        self._write_hists: Dict[int, list] = {}
        self._pending_cost_us = 0.0
        self.op_counts: Dict[str, int] = {}
        self.bytes_inspected = 0
        #: content bytes of every write-then-close inspection (the
        #: single-digest invariant: cache.digest_cache.bytes_digested
        #: never exceeds this plus baseline-capture traffic)
        self.bytes_closed = 0
        #: measured post_operation wall time per op kind, microseconds
        self.op_wall_us: Dict[str, float] = {}
        self._hits_applied = 0

    # ------------------------------------------------------------------
    # filter driver interface
    # ------------------------------------------------------------------

    def added_latency_us(self, op: FsOperation) -> float:
        cost, self._pending_cost_us = self._pending_cost_us, 0.0
        return cost

    def pre_operation(self, op: FsOperation) -> Decision:
        if op.pid == SYSTEM_PID:
            return Decision.ALLOW
        # Baselines are captured at the last moment the previous version is
        # guaranteed intact: before destructive opens, first writes, moves,
        # and deletes.  Plain read-opens never trigger a digest, so purely
        # observational workloads (AV scanners, viewers) stay cheap.
        if (op.kind in (OpKind.WRITE, OpKind.TRUNCATE, OpKind.RENAME,
                        OpKind.DELETE)
                or (op.kind is OpKind.OPEN and op.truncate)):
            self._maybe_capture_baseline(op)
        if (op.kind is OpKind.RENAME and op.dest_existed
                and op.dest_node_id is not None
                and op.dest_node_id not in self.cache
                and op.dest_path is not None
                and self.config.is_protected(op.dest_path)):
            # A move is about to clobber a protected file: snapshot the
            # victim's last version now so the incoming content can be
            # linked against it (§V-B2's Class-C linking).
            try:
                content = self.vfs.peek_read(op.dest_path)
            except FsError:
                content = None
            if content is not None:
                self.cache.ensure_baseline(op.dest_node_id, op.dest_path,
                                           content)
                self.bytes_inspected += len(content)
                self._charge_inspection(len(content))
        return Decision.ALLOW

    def post_operation(self, op: FsOperation) -> PostVerdict:
        if op.pid == SYSTEM_PID:
            return PostVerdict.ALLOW
        if not self._relevant(op):
            return PostVerdict.ALLOW
        started = time.perf_counter_ns()
        kind = op.kind.value
        self.op_counts[kind] = self.op_counts.get(kind, 0) + 1
        if self.telemetry is not None:
            # keep the bus clock on the simulated timebase so emitters
            # without operation context (digest cache, baseline store)
            # stamp events consistently
            self.telemetry.bus.clock_us = op.timestamp_us
        handler = self._DISPATCH.get(op.kind)
        hits_before = self._hits_applied
        if handler is not None:
            handler(self, op)
        # Scores only move through Scoreboard.apply (called from _apply in
        # the handlers), so an op that applied no indicator hit cannot have
        # pushed any row over threshold — skip materialising its scoreboard
        # row entirely.  Hot loops of benign reads/writes never touch the
        # scoreboard at all.
        if self._hits_applied == hits_before:
            verdict = PostVerdict.ALLOW
        else:
            verdict = self._verdict(op)
        elapsed_us = (time.perf_counter_ns() - started) / 1000.0
        self.op_wall_us[kind] = self.op_wall_us.get(kind, 0.0) + elapsed_us
        if self.telemetry is not None:
            self.telemetry.op_wall_us.observe(elapsed_us, kind=kind)
        return verdict

    # ------------------------------------------------------------------
    # scope and baselines
    # ------------------------------------------------------------------

    def _relevant(self, op: FsOperation) -> bool:
        """Protected-path ops, plus any op on a node we already track
        (Class B files riding outside the documents tree)."""
        if self.config.is_protected(op.path):
            return True
        if op.dest_path is not None and self.config.is_protected(op.dest_path):
            return True
        return self.cache.is_tracked(op.node_id)

    def _maybe_capture_baseline(self, op: FsOperation) -> None:
        if op.node_id is None or op.node_id in self.cache:
            return
        if not self._relevant(op):
            return
        try:
            content = self.vfs.peek_read(op.path)
        except FsError:
            return
        self.cache.ensure_baseline(op.node_id, op.path, content)
        self.bytes_inspected += len(content)
        self._charge_inspection(len(content))

    # ------------------------------------------------------------------
    # per-operation measurement
    # ------------------------------------------------------------------

    def _on_create(self, op: FsOperation) -> None:
        if op.node_id is not None and self.config.is_protected(op.path):
            self.cache.track_new(op.node_id, op.path)
        self._pending_cost_us += self.config.latency.open_us

    def _on_open(self, op: FsOperation) -> None:
        self._pending_cost_us += self.config.latency.open_us
        if op.truncate and self._stream_nodes and op.node_id is not None:
            # another handle just truncated the node: its owner's stream
            # no longer spans the file from byte 0
            self._discard_node_stream(op.node_id, "truncate")

    def _on_read(self, op: FsOperation) -> None:
        self._pending_cost_us += self.config.latency.read_us
        if not op.data:
            return
        state = self._state(op.pid)
        if self.config.enable_entropy:
            state.entropy.on_read(op.data)
        if self.config.enable_funneling:
            record = self.cache.get(op.node_id) if op.node_id else None
            type_name = None
            if record is not None and record.base_type is not None:
                type_name = record.base_type.name
            elif op.offset == 0:
                # Untracked node: identify once per node, not per read —
                # sweeps that re-read the same unprotected file repeatedly
                # (viewers, AV-style scans) pay identify() exactly once.
                type_name = self._read_type_memo.get(op.node_id)
                if type_name is None:
                    type_name = identify(op.data).name
                    if op.node_id is not None:
                        self._read_type_memo[op.node_id] = type_name
            if type_name and state.funnel.on_read_type(type_name):
                self._apply(op, IndicatorHit(
                    "funneling", self.config.funnel_points,
                    detail=f"spread={state.funnel.spread}"))

    def _on_write(self, op: FsOperation) -> None:
        lat = self.config.latency
        self._pending_cost_us += (lat.write_base_us
                                  + lat.write_per_kb_us * op.size / 1024.0)
        if op.node_id is not None and self._read_type_memo:
            # the node's content is changing — its memoised type is stale
            self._read_type_memo.pop(op.node_id, None)
        if not op.data:
            return
        if self._stream_writes:
            self._stream_feed(op)
        state = self._state(op.pid)
        if not self.config.enable_entropy:
            return
        # one bincount per payload: the chunk histogram feeds the per-op
        # weighted mean (bit-identical to hashing the raw bytes) and
        # accumulates into the handle's running stream histogram
        counts = np.bincount(np.frombuffer(op.data, dtype=np.uint8),
                             minlength=256)
        if op.handle_id is not None:
            hist = self._write_hists.get(op.handle_id)
            if hist is None:
                self._write_hists[op.handle_id] = [counts.copy(),
                                                   len(op.data)]
            else:
                hist[0] += counts
                hist[1] += len(op.data)
        delta = state.entropy.on_write_counts(counts, len(op.data))
        if delta is not None:
            self._apply(op, IndicatorHit(
                "entropy", self.config.entropy_points,
                primary_flag="entropy",
                detail=f"delta={delta:.3f}"))

    # -- streaming digest plumbing -------------------------------------

    def _stream_feed(self, op: FsOperation) -> None:
        """Route a write payload into its handle's incremental digest.

        A stream starts lazily at a handle's first offset-0 write (the
        VFS assigns handle ids after OPEN/CREATE dispatch, so opens can't
        start one) and stays valid only while this handle remains the
        node's sole writer and every write lands at the current end.
        Anything else drops the stream — close then takes the
        whole-content path, so correctness never depends on the pattern.
        """
        node_id, handle_id = op.node_id, op.handle_id
        if node_id is None or handle_id is None:
            return
        owner = self._stream_nodes.get(node_id)
        if owner is not None and owner != handle_id:
            self._drop_stream(owner, "handle_interleave")
            owner = None
        entry = self._streams.get(handle_id)
        if entry is None:
            if (owner is not None or op.offset != 0
                    or len(op.data) > self.config.max_inspect_bytes):
                return
            state = StreamingDigestState(
                self.config.stream_digest_min_bytes)
            state.update(op.data)
            self._streams[handle_id] = (node_id, state)
            self._stream_nodes[node_id] = handle_id
            self.streams_started += 1
            return
        s_node, state = entry
        if s_node != node_id:
            self._drop_stream(handle_id, "node_mismatch")
            return
        if op.offset != state.total:
            self._drop_stream(handle_id, "nonsequential")
            return
        if state.total + len(op.data) > self.config.max_inspect_bytes:
            # the close path won't digest oversize content anyway
            self._drop_stream(handle_id, "oversize")
            return
        state.update(op.data)

    def _drop_stream(self, handle_id: int,
                     reason: Optional[str] = None) -> Optional[
                         StreamingDigestState]:
        entry = self._streams.pop(handle_id, None)
        if entry is None:
            return None
        node_id, state = entry
        if self._stream_nodes.get(node_id) == handle_id:
            del self._stream_nodes[node_id]
        if reason is not None:
            self._count_stream_fallback(reason)
        return state

    def _discard_node_stream(self, node_id: Optional[int],
                             reason: Optional[str] = None) -> None:
        if node_id is None:
            return
        owner = self._stream_nodes.get(node_id)
        if owner is not None:
            self._drop_stream(owner, reason)

    def _count_stream_fallback(self, reason: str) -> None:
        self.stream_fallbacks[reason] = \
            self.stream_fallbacks.get(reason, 0) + 1
        if self.telemetry is not None:
            self.telemetry.stream_fallbacks.inc(reason=reason)

    def _on_truncate(self, op: FsOperation) -> None:
        # stream invalidation only — TRUNCATE ops were previously
        # undispatched, and their baseline capture already happens pre-op
        if self._stream_nodes and op.node_id is not None:
            self._discard_node_stream(op.node_id, "truncate")

    def _on_close(self, op: FsOperation) -> None:
        lat = self.config.latency
        stream: Optional[StreamingDigestState] = None
        if op.handle_id is not None:
            if self._write_hists:
                self._write_hists.pop(op.handle_id, None)
            if self._streams:
                stream = self._drop_stream(op.handle_id)
        if not op.wrote_since_open or op.node_id is None:
            self._pending_cost_us += lat.other_us
            return
        self._pending_cost_us += (lat.close_base_us
                                  + lat.close_per_kb_us * op.size / 1024.0)
        try:
            content = self.vfs.peek_read(op.path)
        except FsError:
            return
        self.bytes_closed += len(content)
        record = self.cache.get(op.node_id)
        if record is None:
            if self.config.is_protected(op.path):
                record = self.cache.track_new(op.node_id, op.path)
            else:
                return
        if stream is not None:
            if not stream.streaming:
                # buffered refs only — the stream never did numpy work,
                # so the whole-content path costs the same (not a fallback)
                stream = None
            elif stream.total != len(content):
                # the file holds bytes this stream never saw (pre-existing
                # longer content, out-of-band writes): fall back
                self._count_stream_fallback("length_mismatch")
                stream = None
        self._inspect_version(op, record, content, stream=stream)

    def _on_rename(self, op: FsOperation) -> None:
        lat = self.config.latency
        self._pending_cost_us += (lat.rename_base_us
                                  + lat.rename_per_kb_us * op.size / 1024.0)
        if op.node_id is None or op.dest_path is None:
            return
        clobbered_id = op.dest_node_id if op.dest_existed else None
        if clobbered_id is not None and self._read_type_memo:
            self._read_type_memo.pop(clobbered_id, None)
        if clobbered_id is not None and self._stream_nodes:
            # the clobbered node leaves the namespace; its stream (if any)
            # can never reach a close-time inspection
            self._discard_node_stream(clobbered_id)
        clobbered_tracked = (clobbered_id is not None
                             and self.cache.is_tracked(clobbered_id))
        record = self.cache.on_rename(op.node_id, op.dest_path, clobbered_id)
        if clobbered_tracked and record is not None:
            # Move-over of a tracked file: the original content is gone —
            # the deletion indicator counts it, and the incoming bytes are
            # inspected against the inherited ("linked") baseline.
            self._count_deletion(op)
            try:
                content = self.vfs.peek_read(op.dest_path)
            except FsError:
                return
            self._inspect_version(op, record, content)
        elif (record is None and self.config.is_protected(op.dest_path)):
            # Untracked file moved into the documents tree: it becomes the
            # baseline for future comparisons.
            try:
                content = self.vfs.peek_read(op.dest_path)
            except FsError:
                return
            self.cache.ensure_baseline(op.node_id, op.dest_path, content)
            self.bytes_inspected += len(content)

    def _on_delete(self, op: FsOperation) -> None:
        self._pending_cost_us += self.config.latency.delete_us
        if op.node_id is not None and self._read_type_memo:
            self._read_type_memo.pop(op.node_id, None)
        if op.node_id is not None and self._stream_nodes:
            self._discard_node_stream(op.node_id)
        was_tracked = self.cache.is_tracked(op.node_id)
        self.cache.on_delete(op.node_id)
        if was_tracked or self.config.is_protected(op.path):
            self._count_deletion(op)

    # ------------------------------------------------------------------
    # inspection and scoring
    # ------------------------------------------------------------------

    def _inspect_version(self, op: FsOperation, record: TrackedFile,
                         content: bytes, stream=None) -> None:
        """Close/link-time comparison of the new version to the baseline.

        The single-digest close path: ``cache.inspect`` types and digests
        the content exactly once (through the corpus BaselineStore and
        the digest LRU), and that one :class:`InspectionResult` feeds both
        the similarity comparison and the baseline refresh below.  The
        digest is requested only when this close will actually compare
        against a digestable baseline; otherwise the new version's digest
        is deferred until something consumes it — except when a validated
        ``stream`` is in hand: finalising it now costs O(tail), so
        deferring (and later re-reading the whole file) would only waste
        the incremental work.
        """
        state = self._state(op.pid)
        comparing = (record.has_baseline and not record.born_empty
                     and self.config.enable_similarity)
        if comparing:
            # the baseline side must exist before we can know whether the
            # new version's digest will be consumed
            self.cache.materialise_baseline(record)
        want_digest = (stream is not None
                       or (comparing
                           and (record.base_digest is not None
                                or record.base_ctph is not None)))
        inspection = self.cache.inspect(content, want_digest=want_digest,
                                        stream=stream)
        if stream is not None and stream.consumed:
            self.streams_finalized += 1
            self.bytes_streamed += len(content)
            if self.telemetry is not None:
                self.telemetry.incremental_digest_bytes.inc(len(content))
                self.telemetry.bus.emit(StreamDigestFinalized(
                    op.timestamp_us, path=str(op.path), size=len(content),
                    features=stream.n_features,
                    chunks=stream.chunks_consumed))
        new_type = inspection.file_type
        self.bytes_inspected += len(content)
        self._charge_inspection(len(content))
        if self.config.enable_funneling and new_type.name != "empty":
            state.funnel.on_write_type(new_type.name)
        if record.has_baseline and not record.born_empty:
            score = None
            if self.config.enable_similarity:
                score = similarity_score(record, content,
                                         self.config.similarity_backend,
                                         inspection=inspection)
            # §V-C dynamic scoring: when the similarity indicator cannot
            # speak (file below sdhash's floor), the remaining evidence
            # is weighted up so small-file sweeps convict sooner
            boost = 1.0
            if (self.config.dynamic_scoring
                    and self.config.enable_similarity and score is None):
                boost = self.config.dynamic_boost
            if (self.config.enable_type_change
                    and type_changed(record.base_type, new_type)):
                self._apply(op, IndicatorHit(
                    "type_change",
                    self.config.type_change_points * boost,
                    primary_flag="type_change",
                    detail=f"{record.base_type.name}->{new_type.name}"
                           + (" [boosted]" if boost > 1.0 else "")))
            if similarity_collapsed(score,
                                    self.config.similarity_trigger_max):
                self._apply(op, IndicatorHit(
                    "similarity", self.config.similarity_points,
                    primary_flag="similarity",
                    detail=f"score={score}"))
        self.cache.refresh_baseline(op.node_id, op.path
                                    if op.dest_path is None else op.dest_path,
                                    content, inspection=inspection)

    # Built once at class definition: op kind → unbound handler.  The
    # per-call dict the old post_operation rebuilt was ~7 dict inserts per
    # operation on the hottest path in the engine.
    _DISPATCH = {
        OpKind.CREATE: _on_create,
        OpKind.OPEN: _on_open,
        OpKind.READ: _on_read,
        OpKind.WRITE: _on_write,
        OpKind.TRUNCATE: _on_truncate,
        OpKind.CLOSE: _on_close,
        OpKind.RENAME: _on_rename,
        OpKind.DELETE: _on_delete,
    }

    def _count_deletion(self, op: FsOperation) -> None:
        if not self.config.enable_deletion:
            return
        state = self._state(op.pid)
        if state.deletion.on_delete():
            self._apply(op, IndicatorHit(
                "deletion", self.config.deletion_points,
                detail=f"count={state.deletion.count}"))

    def _apply(self, op: FsOperation, hit: IndicatorHit) -> None:
        self._hits_applied += 1
        root = self._root_pid(op.pid)
        name = self._proc_name(root)
        path = str(op.dest_path or op.path)
        if self.telemetry is not None:
            self.telemetry.indicator_hits.inc(indicator=hit.indicator)
            self.telemetry.bus.emit(IndicatorFired(
                op.timestamp_us, root_pid=root, indicator=hit.indicator,
                points=hit.points, path=path, detail=hit.detail))
        self.scoreboard.apply(root, hit, op.timestamp_us, path, name)

    def _verdict(self, op: FsOperation) -> PostVerdict:
        root = self._root_pid(op.pid)
        if root in self._whitelist:
            return PostVerdict.ALLOW
        row = self.scoreboard.row(root, self._proc_name(root))
        if row.detected or not row.over_threshold:
            return PostVerdict.ALLOW
        row.detected = True
        detection = Detection(
            root_pid=root, process_name=row.name, score=row.score,
            threshold=row.threshold, union_fired=row.union_fired,
            flags=set(row.flags), timestamp_us=op.timestamp_us,
            trigger_op=op.kind.value,
            trigger_path=str(op.dest_path or op.path),
            history_len=len(row.history))
        suspend = self.policy.decide(detection)
        detection.suspended = suspend
        self.detections.append(detection)
        if self.telemetry is not None:
            self.telemetry.suspensions.inc(
                action="suspend" if suspend else "alert_only")
            self.telemetry.score_at_suspension.observe(row.score)
            self.telemetry.bus.emit(ProcessSuspended(
                op.timestamp_us, root_pid=root, process_name=row.name,
                score=row.score, threshold=row.threshold,
                union_fired=row.union_fired, suspended=suspend,
                trigger_op=detection.trigger_op,
                trigger_path=detection.trigger_path))
        if not suspend:
            self._whitelist.add(root)
            return PostVerdict.ALLOW
        return PostVerdict(
            suspend=True,
            reason=f"cryptodrop: score {row.score:.0f} >= "
                   f"{row.threshold:.0f} ({'union' if row.union_fired else 'non-union'})")

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _root_pid(self, pid: int) -> int:
        if self.config.score_process_families and pid in self.vfs.processes:
            return self.vfs.processes.family_root(pid)
        return pid

    def _proc_name(self, pid: int) -> str:
        if pid in self.vfs.processes:
            return self.vfs.processes.get(pid).name
        return f"pid{pid}"

    def _state(self, pid: int) -> _ProcessState:
        root = self._root_pid(pid)
        state = self._proc.get(root)
        if state is None:
            state = _ProcessState(self.config)
            self._proc[root] = state
        return state

    def _charge_inspection(self, n_bytes: int) -> None:
        # digesting/identifying cost, folded into the op's charged latency
        self._pending_cost_us += 40.0 + 0.004 * n_bytes

    # ------------------------------------------------------------------
    # checkpoint / restore (crash-resilient service model)
    # ------------------------------------------------------------------

    CHECKPOINT_VERSION = 1

    def checkpoint(self) -> dict:
        """Serialise every piece of scoring state to a JSON-safe dict.

        Covers the scoreboard (scores, flags, union state, journals), the
        per-process indicator accumulators, the baseline cache (digests
        included), whitelisting, detections, and the operational counters
        — everything a restarted engine needs to keep scoring as if the
        crash never happened.
        """
        return {
            "version": self.CHECKPOINT_VERSION,
            "scoreboard": self.scoreboard.checkpoint(),
            "processes": {
                str(pid): {"entropy": state.entropy.state(),
                           "deletion": state.deletion.state(),
                           "funnel": state.funnel.state()}
                for pid, state in sorted(self._proc.items())},
            "cache": self.cache.checkpoint(),
            "whitelist": sorted(self._whitelist),
            "detections": [
                {"root_pid": d.root_pid, "process_name": d.process_name,
                 "score": d.score, "threshold": d.threshold,
                 "union_fired": d.union_fired, "flags": sorted(d.flags),
                 "timestamp_us": d.timestamp_us, "trigger_op": d.trigger_op,
                 "trigger_path": d.trigger_path, "suspended": d.suspended,
                 "files_lost": d.files_lost, "history_len": d.history_len}
                for d in self.detections],
            "op_counts": dict(self.op_counts),
            "bytes_inspected": self.bytes_inspected,
            "bytes_closed": self.bytes_closed,
            "op_wall_us": dict(self.op_wall_us),
            # lifetime streaming counters travel; in-flight streams do
            # not — a restored engine simply starts no stream mid-file,
            # so those closes take the whole-content path with identical
            # detection output
            "streams": {"started": self.streams_started,
                        "finalized": self.streams_finalized,
                        "bytes_streamed": self.bytes_streamed,
                        "fallbacks": dict(self.stream_fallbacks)},
            # metrics-registry lifetime counters travel (like the digest
            # cache's counters do); buffered ring events never checkpoint
            "telemetry": (self.telemetry.registry.checkpoint()
                          if self.telemetry is not None else None),
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`checkpoint` snapshot into this (fresh) engine."""
        version = state.get("version")
        if version != self.CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        self.scoreboard.restore(state["scoreboard"])
        self._proc.clear()
        for pid_text, proc_state in state["processes"].items():
            proc = _ProcessState(self.config)
            proc.entropy.load(proc_state["entropy"])
            proc.deletion.load(proc_state["deletion"])
            proc.funnel.load(proc_state["funnel"])
            self._proc[int(pid_text)] = proc
        self.cache.restore(state["cache"])
        self._whitelist = set(state["whitelist"])
        self.detections = [
            Detection(root_pid=d["root_pid"],
                      process_name=d["process_name"], score=d["score"],
                      threshold=d["threshold"],
                      union_fired=d["union_fired"], flags=set(d["flags"]),
                      timestamp_us=d["timestamp_us"],
                      trigger_op=d["trigger_op"],
                      trigger_path=d["trigger_path"],
                      suspended=d["suspended"], files_lost=d["files_lost"],
                      history_len=d["history_len"])
            for d in state["detections"]]
        self.op_counts = dict(state["op_counts"])
        self.bytes_inspected = int(state["bytes_inspected"])
        # Absent in pre-existing checkpoints: default to zero rather than
        # rejecting the snapshot.
        self.bytes_closed = int(state.get("bytes_closed", 0))
        self.op_wall_us = dict(state.get("op_wall_us", {}))
        streams = state.get("streams", {})
        self.streams_started = int(streams.get("started", 0))
        self.streams_finalized = int(streams.get("finalized", 0))
        self.bytes_streamed = int(streams.get("bytes_streamed", 0))
        self.stream_fallbacks = dict(streams.get("fallbacks", {}))
        self._streams.clear()
        self._stream_nodes.clear()
        metric_state = state.get("telemetry")
        if metric_state and self.telemetry is not None:
            self.telemetry.registry.restore(metric_state)

    # -- introspection helpers (examples, tests, experiments) ----------------

    def score_of(self, pid: int) -> float:
        # No flush: scores update only inside post_operation, where any
        # comparison already materialised its digests synchronously
        # (materialise_baseline flushes).  A pending digest is by
        # construction one no comparison has demanded, so it cannot
        # influence any row — draining the scheduler here would digest
        # bytes no comparison needs.
        return self.scoreboard.row(self._root_pid(pid)).score

    def row_of(self, pid: int):
        # Same reasoning as score_of: pending digests are score-neutral.
        return self.scoreboard.row(self._root_pid(pid),
                                   self._proc_name(self._root_pid(pid)))

    def stream_stats(self) -> dict:
        """Incremental-digest observability: stream lifecycle counters
        plus the per-reason fallback tally (the rate operators watch)."""
        return {
            "enabled": self._stream_writes,
            "started": self.streams_started,
            "finalized": self.streams_finalized,
            "bytes_streamed": self.bytes_streamed,
            "in_flight": len(self._streams),
            "fallbacks": dict(self.stream_fallbacks),
        }

    def store_stats(self) -> Optional[dict]:
        """Attached baseline store's storage/residency view, or ``None``.

        For the mmap backend this is the operator's memory story: how
        many records have been paged in from disk and how many sit in
        the bounded hot-entry LRU right now (``resident`` ≤
        ``hot_capacity``, never the corpus size).
        """
        store = self.cache.baseline_store
        if store is None:
            return None
        stats = store.page_stats()
        stats["entries"] = len(store)
        stats["fingerprint"] = store.fingerprint
        return stats

    def stream_entropy_of(self, handle_id: int) -> Optional[float]:
        """Corrected entropy of everything written through a live handle,
        served from its running histogram — no re-count of the stream."""
        hist = self._write_hists.get(handle_id)
        if hist is None:
            return None
        return corrected_entropy_from_counts(hist[0], hist[1])

    def entropy_state_of(self, pid: int) -> ProcessEntropyState:
        return self._state(pid).entropy

    def funnel_state_of(self, pid: int) -> ProcessFunnelState:
        return self._state(pid).funnel
