"""The traced run: spans around calls into each layer, from outside.

:meth:`Tracer.install` wraps the public functions of each layer at the
names their callers use — methods on their classes, and functions at
the module attribute the caller imported them under (the engine calls
``identify`` as ``repro.core.engine.identify``, the file-state cache
digests through ``repro.core.filestate._sdhash``).  Every wrapped call
records one span (id, name, start, end, parent span) in memory; a
span's self time is its duration minus the time its child spans cover.
Some wrappers also read the counters the program already keeps
(``DigestCache``, ``InspectionScheduler``, ``AnalysisEngine``) before
and after the call, so resolution counts are taken where the work
happens.  Spans are kept only while :attr:`Tracer.recording` is set,
which each timed task (``Meter.task``) does.  :meth:`Tracer.uninstall` restores
every original.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import repro.core.engine as engine_mod
import repro.core.filestate as filestate_mod
import repro.core.indicators.similarity as similarity_mod
import repro.core.schedule as schedule_mod
from repro.core.engine import AnalysisEngine
from repro.core.filestate import FileStateCache
from repro.core.indicators.entropy import ProcessEntropyState
from repro.core.schedule import InspectionScheduler
from repro.core.scoring import Scoreboard
from repro.fs.vfs import VirtualFileSystem
from repro.ingest.shard import MonitorShard
from repro.ingest.watchdog import HeartbeatWatchdog
from repro.sandbox.machine import VirtualMachine
from repro.simhash.sdhash import StreamingDigestState

from harness import VFS_OPS

ENGINE_OPS = ("create", "open", "read", "write", "truncate", "close",
              "rename", "delete")
RESOLUTIONS = ("lru", "store", "stream", "live", "deferred")
INGEST_COUNTERS = ("ingest.restarts", "ingest.replayed",
                   "ingest.queue.high_water", "ingest.sheds",
                   "ingest.breaker_trips", "ingest.ticks")


def _per_layer_names() -> List[tuple]:
    names = []
    for op in VFS_OPS:
        names += [(f"fs.{op}.calls", "count"), (f"fs.{op}.self_ms", "ms")]
    names.append(("engine.pre_op.self_ms", "ms"))
    names += [(f"engine.post_op.{op}.self_ms", "ms") for op in ENGINE_OPS]
    for layer in ("magic.identify", "entropy", "simhash.digest"):
        names += [(f"{layer}.calls", "count"), (f"{layer}.bytes", "bytes"),
                  (f"{layer}.self_ms", "ms")]
    names += [("simhash.compare.calls", "count"),
              ("simhash.compare.self_ms", "ms"),
              ("simhash.stream.update_ms", "ms"),
              ("simhash.stream.finalize_ms", "ms"),
              ("simhash.stream.bytes", "bytes"),
              ("simhash.stream.finalized_ratio", "ratio"),
              ("filestate.inspect.calls", "count"),
              ("filestate.inspect.self_ms", "ms")]
    names += [(f"filestate.resolved.{r}", "count") for r in RESOLUTIONS]
    names += [("filestate.hit_ratio", "ratio"),
              ("filestate.digested_per_closed_byte", "ratio"),
              ("schedule.flush.calls", "count"),
              ("schedule.flush.self_ms", "ms"),
              ("schedule.batch_mean", "records"),
              ("schedule.forced_flushes", "count"),
              ("scoring.apply.calls", "count"),
              ("scoring.apply.self_ms", "ms"),
              ("store.lookups", "count"), ("store.hits", "count"),
              ("store.build_s", "s"),
              ("sandbox.assess.self_ms", "ms"),
              ("sandbox.revert.self_ms", "ms"),
              ("benign.app_ms", "ms"),
              ("ingest.pump.self_ms", "ms"), ("ingest.step.self_ms", "ms"),
              ("ingest.watchdog.self_ms", "ms")]
    names += [(name, "count") for name in INGEST_COUNTERS]
    names += [("trace.overhead", "ratio"), ("trace.coverage", "ratio")]
    return names


#: every per-layer metric, in report order, with its unit; values are
#: per measured pass unless the name says otherwise
PER_LAYER = _per_layer_names()


def _nbytes(index: int) -> Callable:
    return lambda args: len(args[index])


class Tracer:
    """In-memory span recorder plus the counters read at the same calls."""

    def __init__(self) -> None:
        #: span name -> [calls, self ns, bytes]
        self.stats: Dict[str, list] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        #: (span id, name, start ns, end ns, parent span id or -1)
        self.spans: List[tuple] = []
        #: spans are kept only inside timed tasks
        self.recording = False
        self._stack: List[list] = []
        self._next_id = 0
        self._undo: List[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, label, size: Optional[Callable] = None,
             probe: Optional[Callable] = None) -> None:
        """Record a span per call of ``owner.attr``.

        ``label`` is the span name, or a function of the call's
        arguments; ``size(args)`` adds to the span's byte count;
        ``probe(args)`` runs before the call and returns a function run
        after it.
        """
        original = vars(owner)[attr]
        stack, stats, spans = self._stack, self.stats, self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            name = label(args) if callable(label) else label
            after = probe(args) if probe is not None else None
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration - frame[1]
                if size is not None:
                    entry[2] += size(args)
                spans.append((span_id, name, start, end, parent))
                if after is not None:
                    after()

        self._replace(owner, attr, traced, original)

    def watch(self, owner, attr: str, probe: Callable) -> None:
        """Read counters around ``owner.attr`` without recording a span."""
        original = vars(owner)[attr]
        tracer = self

        def watched(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            after = probe(args)
            try:
                return original(*args, **kwargs)
            finally:
                after()

        self._replace(owner, attr, watched, original)

    def _replace(self, owner, attr, wrapper, original) -> None:
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> "Tracer":
        for op in VFS_OPS:
            self.wrap(VirtualFileSystem, op, f"fs.{op}")
        self.wrap(AnalysisEngine, "pre_operation", "engine.pre_op")
        self.wrap(AnalysisEngine, "post_operation",
                  lambda args: "engine.post_op." + args[1].kind.value,
                  probe=self._engine_probe)
        for module in (engine_mod, filestate_mod):
            self.wrap(module, "identify", "magic.identify", size=_nbytes(0))
        self.wrap(ProcessEntropyState, "on_read", "entropy",
                  size=_nbytes(1))
        self.wrap(ProcessEntropyState, "on_write", "entropy",
                  size=_nbytes(1))
        self.wrap(ProcessEntropyState, "on_write_counts", "entropy",
                  size=lambda args: args[2])
        self.wrap(engine_mod, "corrected_entropy_from_counts", "entropy",
                  size=lambda args: args[1])
        self.wrap(filestate_mod, "_sdhash", "simhash.digest",
                  size=_nbytes(0))
        self.wrap(similarity_mod, "sdhash", "simhash.digest",
                  size=_nbytes(0))
        self.wrap(schedule_mod, "digest_many", "simhash.digest",
                  size=lambda args: sum(len(c) for c in args[0]))
        self.wrap(similarity_mod, "compare", "simhash.compare")
        self.wrap(StreamingDigestState, "update", "simhash.stream.update",
                  size=_nbytes(1))
        self.wrap(StreamingDigestState, "finalize",
                  "simhash.stream.finalize")
        self.wrap(FileStateCache, "inspect", "filestate.inspect",
                  probe=self._inspect_probe)
        self.wrap(InspectionScheduler, "flush", "schedule.flush",
                  probe=self._flush_probe)
        self.watch(InspectionScheduler, "enqueue", self._enqueue_probe)
        self.wrap(Scoreboard, "apply", "scoring.apply")
        self.wrap(VirtualMachine, "assess", "sandbox.assess")
        self.wrap(VirtualMachine, "revert", "sandbox.revert")
        self.wrap(VirtualMachine, "run_program", "benign.app")
        self.wrap(MonitorShard, "pump", "ingest.pump")
        self.wrap(MonitorShard, "step", "ingest.step")
        self.wrap(HeartbeatWatchdog, "scan", "ingest.watchdog")
        return self

    # -- counter probes ------------------------------------------------------

    def _engine_probe(self, args):
        engine = args[0]
        before = (engine.bytes_closed, engine.streams_started,
                  engine.streams_finalized)

        def after():
            c = self.counters
            c["bytes_closed"] += engine.bytes_closed - before[0]
            c["streams_started"] += engine.streams_started - before[1]
            c["streams_finalized"] += engine.streams_finalized - before[2]
        return after

    def _inspect_probe(self, args):
        dc = args[0].digest_cache
        before = (dc.hits, dc.store_hits, dc.store_misses, dc.deferred,
                  dc.bytes_streamed, dc.bytes_digested)

        def after():
            hits, store_hits, store_misses, deferred, streamed, digested = (
                dc.hits - before[0], dc.store_hits - before[1],
                dc.store_misses - before[2], dc.deferred - before[3],
                dc.bytes_streamed - before[4], dc.bytes_digested - before[5])
            if hits:
                source = "lru"
            elif store_hits:
                source = "store"
            elif deferred:
                source = "deferred"
            elif streamed:
                source = "stream"
            else:
                source = "live"
            c = self.counters
            c["resolved." + source] += 1
            c["store.lookups"] += store_hits + store_misses
            c["store.hits"] += store_hits
            c["bytes_digested"] += digested
        return after

    def _flush_probe(self, args):
        scheduler = args[0]
        dc = scheduler.cache.digest_cache
        before = (dc.hits, dc.store_hits, dc.store_misses,
                  scheduler.live_digests, scheduler.materialised,
                  scheduler.flushes, dc.bytes_digested)

        def after():
            c = self.counters
            c["resolved.lru"] += dc.hits - before[0]
            c["resolved.store"] += dc.store_hits - before[1]
            c["resolved.live"] += scheduler.live_digests - before[3]
            c["store.lookups"] += (dc.store_hits - before[1]
                                   + dc.store_misses - before[2])
            c["store.hits"] += dc.store_hits - before[1]
            c["schedule.materialised"] += scheduler.materialised - before[4]
            c["schedule.batches"] += scheduler.flushes - before[5]
            c["bytes_digested"] += dc.bytes_digested - before[6]
        return after

    def _enqueue_probe(self, args):
        scheduler = args[0]
        before = scheduler.forced_flushes

        def after():
            self.counters["schedule.forced_flushes"] += \
                scheduler.forced_flushes - before
        return after

    # -- results -------------------------------------------------------------

    def metrics(self, passes: int, traced_s: float, untraced_s: float,
                traced_raw_s: float, store_build_s: float,
                workload_counters: dict) -> Dict:
        """Every :data:`PER_LAYER` metric, per traced pass.

        ``traced_s`` and ``untraced_s`` are task time at the reference
        speed, for the overhead; ``traced_raw_s`` is the same traced time
        as measured, the base the (measured) self times cover.
        """
        per = 1.0 / passes
        out: Dict[str, float] = {}

        def stat(span: str, field: int) -> float:
            entry = self.stats.get(span)
            return entry[field] if entry is not None else 0

        def ms(span: str) -> float:
            return stat(span, 1) / 1e6 * per

        c = self.counters
        for op in VFS_OPS:
            out[f"fs.{op}.calls"] = stat(f"fs.{op}", 0) * per
            out[f"fs.{op}.self_ms"] = ms(f"fs.{op}")
        out["engine.pre_op.self_ms"] = ms("engine.pre_op")
        for op in ENGINE_OPS:
            out[f"engine.post_op.{op}.self_ms"] = ms(f"engine.post_op.{op}")
        for layer in ("magic.identify", "entropy", "simhash.digest"):
            out[f"{layer}.calls"] = stat(layer, 0) * per
            out[f"{layer}.bytes"] = stat(layer, 2) * per
            out[f"{layer}.self_ms"] = ms(layer)
        out["simhash.compare.calls"] = stat("simhash.compare", 0) * per
        out["simhash.compare.self_ms"] = ms("simhash.compare")
        out["simhash.stream.update_ms"] = ms("simhash.stream.update")
        out["simhash.stream.finalize_ms"] = ms("simhash.stream.finalize")
        out["simhash.stream.bytes"] = stat("simhash.stream.update", 2) * per
        out["simhash.stream.finalized_ratio"] = _ratio(
            c["streams_finalized"], c["streams_started"])
        out["filestate.inspect.calls"] = stat("filestate.inspect", 0) * per
        out["filestate.inspect.self_ms"] = ms("filestate.inspect")
        for source in RESOLUTIONS:
            out[f"filestate.resolved.{source}"] = c["resolved." + source] * per
        out["filestate.hit_ratio"] = _ratio(
            c["resolved.lru"] + c["resolved.store"],
            sum(c["resolved." + s] for s in RESOLUTIONS))
        out["filestate.digested_per_closed_byte"] = _ratio(
            c["bytes_digested"], c["bytes_closed"])
        out["schedule.flush.calls"] = stat("schedule.flush", 0) * per
        out["schedule.flush.self_ms"] = ms("schedule.flush")
        out["schedule.batch_mean"] = _ratio(c["schedule.materialised"],
                                            c["schedule.batches"])
        out["schedule.forced_flushes"] = c["schedule.forced_flushes"] * per
        out["scoring.apply.calls"] = stat("scoring.apply", 0) * per
        out["scoring.apply.self_ms"] = ms("scoring.apply")
        out["store.lookups"] = c["store.lookups"] * per
        out["store.hits"] = c["store.hits"] * per
        out["store.build_s"] = store_build_s
        out["sandbox.assess.self_ms"] = ms("sandbox.assess")
        out["sandbox.revert.self_ms"] = ms("sandbox.revert")
        out["benign.app_ms"] = ms("benign.app")
        out["ingest.pump.self_ms"] = ms("ingest.pump")
        out["ingest.step.self_ms"] = ms("ingest.step")
        out["ingest.watchdog.self_ms"] = ms("ingest.watchdog")
        for name in INGEST_COUNTERS:
            out[name] = workload_counters.get(name, 0)
        out["trace.overhead"] = traced_s / untraced_s
        covered = sum(entry[1] for entry in self.stats.values())
        out["trace.coverage"] = covered / 1e9 / traced_raw_s
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span as JSON (one row per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({**meta,
                       "fields": ["id", "name", "start_ns", "end_ns",
                                  "parent"],
                       "spans": self.spans}, handle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
