"""One supervised monitor shard: bulkhead-isolated per-tenant detection.

A :class:`MonitorShard` owns everything one endpoint stream needs — its
own :class:`~repro.sandbox.machine.VirtualMachine`, its own
:class:`~repro.faults.MonitorSupervisor`-managed detector incarnation,
its own bounded queue and circuit breaker — so a fault storm, poison
event, or kill on one tenant cannot perturb another tenant's verdicts
(bulkhead isolation).

Recovery model (the part that makes post-restart verdicts bit-identical
to an unfaulted run):

* the shard takes **quiescent checkpoints**: every ``checkpoint_every``
  applied events it persists the engine state *only once its open-handle
  map is empty*, then re-marks the VFS journal and snapshots its replay
  maps.  Quiescence matters because VFS handles are not journalled — a
  checkpoint taken mid-file would revert the data but leak the handle;
* every successfully applied event since the checkpoint is appended to
  an in-memory **journal tail**;
* on a hard kill (``SIGKILL`` model: no parting checkpoint) or a wedge,
  :meth:`restart` reverts the VFS journal to the checkpoint mark,
  restores a monitor from the checkpoint, and **replays the tail**.  The
  restored engine sees exactly the operation stream the dead incarnation
  saw — same bytes, same order — so scores, union flags, and verdicts
  converge bit-for-bit.  The shard's
  :class:`~repro.faults.FaultInjector` is suspended (not re-armed)
  during replay so already-survived operations are not faulted twice.

Failure taxonomy inside the apply loop:

* :class:`~repro.faults.PoisonedEvent` — permanent; discarded and
  counted, never retried, never enters the tail;
* transient :class:`~repro.fs.FsError` (``is_transient``) — the event
  stays at the queue head and is retried next tick; the breaker counts
  the failure;
* permanent :class:`~repro.fs.FsError` — dropped, mirroring
  ``replay_trace``'s skip semantics;
* :class:`~repro.fs.ProcessSuspended` — the detector delivered its
  verdict mid-stream; the stream is finished and the rest discarded.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..faults.injector import FaultInjector, IngestFaultSource, PoisonedEvent
from ..faults.plan import FaultPlan
from ..faults.supervisor import MonitorSupervisor
from ..fs.errors import FsError, ProcessSuspended, is_transient
from ..fs.paths import WinPath
from ..telemetry.events import FaultInjected, ShardRestarted
from ..trace import TraceRecord
from .breaker import CircuitBreaker
from .queue import Admission, BoundedIngestQueue, EndpointEvent

__all__ = ["MonitorShard"]


class MonitorShard:
    """Supervised, bulkhead-isolated detection for one endpoint stream."""

    def __init__(self, tenant: str, machine, records: List[TraceRecord],
                 config=None, policy=None,
                 queue: Optional[BoundedIngestQueue] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 checkpoint_every: int = 32,
                 baseline_store=None, telemetry=None) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.tenant = tenant
        self.machine = machine
        self.vfs = machine.vfs
        self.telemetry = telemetry
        self.queue = queue if queue is not None else \
            BoundedIngestQueue(tenant=tenant, telemetry=telemetry)
        self.breaker = breaker
        self.checkpoint_every = checkpoint_every
        self.fault_plan = fault_plan
        source = (IngestFaultSource(fault_plan, tenant, len(records))
                  if fault_plan is not None else None)
        self.events: List[EndpointEvent] = self._decorate(records, source)
        self._kills = deque(source.kills) if source is not None else deque()
        # op-level faults (denials, short reads, latency) ride the filter
        # stack; ingest-level faults above never arm the injector
        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None and fault_plan.armed:
            self.injector = FaultInjector(fault_plan, telemetry=telemetry)
        self.supervisor = MonitorSupervisor(
            self.vfs, config, policy, baseline_store=baseline_store,
            telemetry=telemetry)
        # replay maps: original trace pid -> live replay pid, and
        # (replay pid, lowercased path) -> open handle (replay_trace's
        # scheme, snapshotted at each checkpoint)
        self.pid_map: Dict[int, int] = {}
        self.open_handles: Dict[Tuple[int, str], object] = {}
        self._tail: List[EndpointEvent] = []
        self._since_ckpt = 0
        self._ckpt_pid_map: Dict[int, int] = {}
        self._ckpt_suspended: frozenset = frozenset()
        self._stalled_seqs = set()
        self._cursor = 0
        self.alive = False
        self.finished = False
        self.wedged_until = 0
        self.last_beat = 0
        self.applied_total = 0
        self.replayed_total = 0
        self.poisoned = 0
        self.dropped = 0
        self.discarded_after_verdict = 0
        self.transient_failures = 0
        self.kills_suffered = 0
        self.wedges = 0
        self.restarts = 0
        self.checkpoints = 0

    def _decorate(self, records: List[TraceRecord],
                  source: Optional[IngestFaultSource]
                  ) -> List[EndpointEvent]:
        """Wrap raw trace records into the (fault-augmented) stream."""
        events: List[EndpointEvent] = []
        seq = 0
        for index, record in enumerate(records):
            if source is not None:
                for _ in range(source.poison_before.get(index, 0)):
                    events.append(EndpointEvent(self.tenant, seq, record,
                                                poison=True))
                    seq += 1
                stall = source.stall_before.get(index, 0)
            else:
                stall = 0
            events.append(EndpointEvent(self.tenant, seq, record,
                                        stall_ticks=stall))
            seq += 1
        return events

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MonitorShard":
        if self.alive:
            raise RuntimeError("shard already started")
        if self.injector is not None:
            # attached before the monitor so denied operations never
            # reach the engine (identical to the chaos-suite layering)
            self.vfs.filters.attach(self.injector)
        self.supervisor.start()
        self.vfs.snapshot_mark()
        self.supervisor.checkpoint()
        self._ckpt_pid_map = {}
        self._ckpt_suspended = frozenset(self.vfs.processes.suspended_pids())
        self._tail = []
        self._since_ckpt = 0
        self.alive = True
        return self

    def stop(self) -> None:
        """Graceful teardown: flush + detach the monitor and injector."""
        self.supervisor.stop()
        if self.injector is not None:
            self.vfs.filters.detach(self.injector)
            self.injector = None
        self.alive = False

    # -- stream state --------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """Every source event has been offered to the queue."""
        return self._cursor >= len(self.events)

    @property
    def done(self) -> bool:
        """No work left that this shard could ever perform on its own."""
        if not self.alive:
            return False
        return self.finished or (self.exhausted and len(self.queue) == 0)

    @property
    def has_pending_work(self) -> bool:
        return not self.done and not self.finished

    # -- producer side -------------------------------------------------------

    def pump(self, batch: int) -> int:
        """Offer up to ``batch`` source events; stop on backpressure."""
        pumped = 0
        while (pumped < batch and not self.finished
                and self._cursor < len(self.events)):
            admission = self.queue.offer(self.events[self._cursor])
            if admission is Admission.BLOCKED:
                break
            self._cursor += 1
            pumped += 1
        return pumped

    # -- consumer side -------------------------------------------------------

    def step(self, tick: int, budget: int) -> int:
        """Apply up to ``budget`` queued events; heartbeat when healthy."""
        if not self.alive:
            return 0
        if self.wedged_until > tick:
            return 0
        applied = 0
        while applied < budget and len(self.queue) and not self.finished:
            event = self.queue.peek()
            if event.stall_ticks and event.seq not in self._stalled_seqs:
                self._stalled_seqs.add(event.seq)
                self.wedged_until = tick + event.stall_ticks
                self.wedges += 1
                self._emit_fault("queue_stall", event)
                return applied  # wedged: no heartbeat this tick
            if self.breaker is not None and not self.breaker.allow(tick):
                break
            try:
                self._apply(event)
            except PoisonedEvent:
                self.queue.pop()
                self.poisoned += 1
                self._emit_fault("poison_event", event)
                continue
            except ProcessSuspended:
                # verdict delivered mid-apply: the triggering operation
                # completed (suspension fires post-operation), so it is
                # part of the durable tail
                self.queue.pop()
                self._consumed(event)
                applied += 1
                self._finish_stream()
                break
            except FsError as exc:
                if is_transient(exc):
                    self.transient_failures += 1
                    if self.breaker is not None:
                        self.breaker.record_failure(tick)
                    break  # event stays at the head; retry next tick
                self.queue.pop()
                self.dropped += 1
                continue
            self.queue.pop()
            if self.breaker is not None:
                self.breaker.record_success()
            self._consumed(event)
            applied += 1
            if self._kills and self.applied_total >= self._kills[0]:
                self._kills.popleft()
                self.kill(event)
                return applied  # dead: no heartbeat
            self._maybe_checkpoint()
        self.last_beat = tick
        return applied

    def _consumed(self, event: EndpointEvent) -> None:
        self._tail.append(event)
        self._since_ckpt += 1
        self.applied_total += 1

    def _finish_stream(self) -> None:
        self.finished = True
        self.discarded_after_verdict += \
            self.queue.clear() + (len(self.events) - self._cursor)
        self._cursor = len(self.events)

    def _emit_fault(self, fault: str, event: EndpointEvent) -> None:
        if self.telemetry is None:
            return
        t = self.telemetry
        t.faults.inc(fault=fault)
        t.bus.emit(FaultInjected(
            t.bus.clock_us, fault=fault, op_index=event.seq,
            op_kind=event.record.kind, path=event.record.path))

    # -- event application (replay_trace's dispatch, raising) ----------------

    def _replay_pid(self, original: int) -> int:
        if original not in self.pid_map:
            proc = self.vfs.processes.spawn(
                f"{self.tenant}-{original}.exe",
                started_us=self.vfs.clock.now_us)
            self.pid_map[original] = proc.pid
        return self.pid_map[original]

    def _apply(self, event: EndpointEvent) -> None:
        if event.poison:
            raise PoisonedEvent(self.tenant, event.seq)
        record = event.record
        pid = self._replay_pid(record.pid)
        path = WinPath(record.path)
        key = (pid, record.path.lower())
        handles = self.open_handles
        vfs = self.vfs
        if record.kind == "mkdir":
            vfs.mkdir(pid, path, exist_ok=True)
        elif record.kind == "create":
            handles[key] = vfs.open(pid, path, "rw", create=True)
        elif record.kind == "open":
            handles[key] = vfs.open(pid, path, "rw",
                                    truncate=record.truncate)
        elif record.kind == "read":
            handle = handles.get(key)
            if handle is not None:
                vfs.seek(pid, handle, record.offset)
                vfs.read(pid, handle, record.size)
        elif record.kind == "write":
            handle = handles.get(key)
            if handle is not None and record.data is not None:
                vfs.seek(pid, handle, record.offset)
                vfs.write(pid, handle, record.data)
        elif record.kind == "truncate":
            handle = handles.get(key)
            if handle is not None and record.new_size is not None:
                vfs.truncate_handle(pid, handle, record.new_size)
        elif record.kind == "close":
            handle = handles.pop(key, None)
            if handle is not None:
                vfs.close(pid, handle)
        elif record.kind == "rename":
            vfs.rename(pid, path, WinPath(record.dest))
            moved = handles.pop(key, None)
            if moved is not None:
                handles[(pid, record.dest.lower())] = moved
        elif record.kind == "delete":
            vfs.delete(pid, path)

    # -- checkpoint / restart ------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if self._since_ckpt >= self.checkpoint_every and not self.open_handles:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Quiescent checkpoint: engine state + journal mark + replay maps.

        Callers must ensure ``open_handles`` is empty (``_maybe_checkpoint``
        does): handles are not journalled, so a revert to a mid-file mark
        could not rebuild them — whereas a quiescent tail re-opens every
        handle it needs through its own replayed OPEN/CREATE events.
        """
        self.supervisor.checkpoint()
        self.vfs.snapshot_mark()
        self._ckpt_pid_map = dict(self.pid_map)
        self._ckpt_suspended = frozenset(self.vfs.processes.suspended_pids())
        self._tail = []
        self._since_ckpt = 0
        self.checkpoints += 1

    def kill(self, event: Optional[EndpointEvent] = None) -> None:
        """SIGKILL the monitor incarnation: no parting checkpoint."""
        if event is not None:
            self._emit_fault("shard_kill", event)
        self.supervisor.hard_crash()
        self.alive = False
        self.kills_suffered += 1

    def restart(self, tick: int, reason: str = "killed",
                down_ticks: int = 0) -> int:
        """Revert to the checkpoint, restore the monitor, replay the tail.

        Returns the number of tail events replayed.  Works on dead shards
        (watchdog-detected kills) and wedged-but-alive ones (the current
        incarnation is hard-crashed first — its post-checkpoint state is
        reconstructed from the tail anyway).
        """
        self.vfs.revert()  # back to the checkpoint mark; re-marks itself
        if self.supervisor.monitor is not None:
            self.supervisor.hard_crash()
        self.wedged_until = 0
        self.supervisor.restart()
        # Families suspended inside the lost tail are still suspended in
        # the (unjournalled) process table, but the restored engine
        # pre-dates the verdict: resume them and let the replay re-derive
        # the suspension from the same bytes.
        for pid in set(self.vfs.processes.suspended_pids()):
            if pid not in self._ckpt_suspended:
                self.vfs.processes.resume_family(pid)
        self.pid_map = dict(self._ckpt_pid_map)
        self.open_handles = {}
        self.finished = False
        tail, self._tail = self._tail, []
        self._since_ckpt = 0
        if self.injector is not None:
            self.injector.suspend()
        replayed = 0
        try:
            for event in tail:
                try:
                    self._apply(event)
                except ProcessSuspended:
                    self._finish_stream()
                except FsError:
                    pass
                self._tail.append(event)
                self._since_ckpt += 1
                replayed += 1
                self.replayed_total += 1
        finally:
            if self.injector is not None:
                self.injector.resume()
        self.alive = True
        self.last_beat = tick
        self.restarts += 1
        if self.telemetry is not None:
            t = self.telemetry
            t.shard_restarts.inc(tenant=self.tenant)
            t.bus.emit(ShardRestarted(
                t.bus.clock_us, tenant=self.tenant, reason=reason,
                replayed=replayed, recovery_ticks=down_ticks,
                restarts=self.restarts))
        return replayed

    # -- results -------------------------------------------------------------

    def verdict(self) -> Optional[dict]:
        """Time- and pid-independent verdict fingerprint for this tenant.

        Detections and score rows keyed by deterministic replay process
        *names* (pids diverge between faulted and unfaulted runs — extra
        incarnations renumber them), with timestamps excluded: this is
        the object the chaos matrix (``tests/test_ingest.py``) compares
        bit-for-bit between faulted and fault-free runs.  ``None`` while
        the shard is dead (no monitor incarnation to ask).
        """
        monitor = self.supervisor.monitor
        if monitor is None:
            return None
        detections = [
            {
                "process": d.process_name,
                "score": d.score,
                "threshold": d.threshold,
                "union": d.union_fired,
                "flags": sorted(d.flags),
                "trigger": f"{d.trigger_op} {d.trigger_path}",
                "suspended": d.suspended,
            }
            for d in monitor.detections
        ]
        rows = sorted((
            {
                "name": row.name,
                "score": row.score,
                "threshold": row.threshold,
                "union": row.union_fired,
                "flags": sorted(row.flags),
            }
            for row in monitor.score_rows()), key=lambda r: r["name"])
        return {"detections": detections, "processes": rows}

    def stats(self) -> dict:
        return {
            "tenant": self.tenant,
            "alive": self.alive,
            "finished": self.finished,
            "applied": self.applied_total,
            "replayed": self.replayed_total,
            "poisoned": self.poisoned,
            "dropped": self.dropped,
            "discarded_after_verdict": self.discarded_after_verdict,
            "transient_failures": self.transient_failures,
            "kills": self.kills_suffered,
            "wedges": self.wedges,
            "restarts": self.restarts,
            "checkpoints": self.checkpoints,
            "queue": self.queue.stats(),
            "breaker": None if self.breaker is None else self.breaker.stats(),
            "streaming": (None if self.supervisor.monitor is None
                          else self.supervisor.monitor.engine.stream_stats()),
            "supervisor": self.supervisor.stats(),
        }
