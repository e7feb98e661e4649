"""Multi-endpoint ingest sessions: N tenants, one deterministic scheduler.

A CryptoDrop gateway watches many endpoints at once (ROADMAP item 1).
:class:`EndpointSessionManager` models that deployment shape on the
simulator: each *tenant* (endpoint) contributes a captured operation
stream (see :func:`record_endpoint_stream`), and the manager multiplexes
all of them onto supervised :class:`~repro.ingest.MonitorShard` s —
one virtual machine, one detector incarnation, one bounded queue, one
circuit breaker, one telemetry session per tenant, so no tenant's fault
storm can touch another's verdicts.

The scheduler is a deterministic cooperative tick loop: every tick it
(1) pumps up to ``pump_batch`` source events into each tenant's queue
(backpressure-aware, tenants in sorted order), (2) lets each shard apply
up to ``tick_budget`` queued events, and (3) runs the heartbeat
watchdog.  No wall clock, no threads: the same inputs always schedule
identically, which is what lets the chaos matrix
(``tests/test_ingest.py::TestChaosMatrix``) assert bit-identical
verdicts between faulted and fault-free sessions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.config import CryptoDropConfig
from ..faults.plan import FaultPlan
from ..sandbox.machine import VirtualMachine
from ..telemetry import TelemetrySession
from ..trace import TraceRecord, TraceRecorder
from .breaker import CircuitBreaker
from .queue import BoundedIngestQueue, ShedPolicy
from .shard import MonitorShard
from .watchdog import HeartbeatWatchdog

__all__ = ["EndpointSessionManager", "record_endpoint_stream"]

_DEFAULT = object()  # sentinel: "inherit the manager-wide setting"


def record_endpoint_stream(corpus, program, seed: Optional[int] = None,
                           max_events: Optional[int] = None
                           ) -> List[TraceRecord]:
    """Capture one endpoint's replayable operation stream.

    Runs ``program`` on a throwaway machine with only a
    :class:`~repro.trace.TraceRecorder` attached — no detector, so the
    full workload is captured even if it would have been suspended —
    and returns the (optionally truncated) record list that
    :meth:`EndpointSessionManager.add_endpoint` ingests.
    """
    machine = VirtualMachine(corpus)
    recorder = TraceRecorder()
    machine.vfs.filters.attach(recorder)
    try:
        machine.run_program(program, seed=seed)
    finally:
        machine.vfs.filters.detach(recorder)
    records = recorder.records
    return records[:max_events] if max_events is not None else records


class EndpointSessionManager:
    """Sharded, supervised multi-tenant ingest over one shared corpus."""

    def __init__(self, corpus, config: Optional[CryptoDropConfig] = None,
                 policy=None, queue_capacity: int = 64,
                 shed_policy: Optional[ShedPolicy] = None,
                 breaker: bool = True, breaker_failure_threshold: int = 3,
                 breaker_cooldown_ticks: int = 4,
                 watchdog: bool = True, watchdog_miss_threshold: int = 3,
                 checkpoint_every: int = 32, pump_batch: int = 8,
                 tick_budget: int = 8, baseline_store=None,
                 seed: int = 0, max_ticks: int = 1_000_000) -> None:
        self.corpus = corpus
        self.config = config or CryptoDropConfig()
        self.policy = policy
        self.queue_capacity = queue_capacity
        self.shed_policy = shed_policy
        self.breaker_enabled = breaker
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_cooldown_ticks = breaker_cooldown_ticks
        self.watchdog = (HeartbeatWatchdog(watchdog_miss_threshold)
                         if watchdog else None)
        self.checkpoint_every = checkpoint_every
        self.pump_batch = pump_batch
        self.tick_budget = tick_budget
        self.baseline_store = baseline_store
        self.seed = seed
        self.max_ticks = max_ticks
        self.shards: Dict[str, MonitorShard] = {}
        self.sessions: Dict[str, Optional[TelemetrySession]] = {}
        self.ticks = 0
        self._ran = False

    # -- setup ---------------------------------------------------------------

    def add_endpoint(self, tenant: str, records: List[TraceRecord],
                     fault_plan: Optional[FaultPlan] = None,
                     shed_policy=_DEFAULT,
                     queue_capacity: Optional[int] = None) -> MonitorShard:
        """Register one tenant's stream on its own bulkhead-isolated shard."""
        if self._ran:
            raise RuntimeError("session already ran")
        if tenant in self.shards:
            raise ValueError(f"tenant {tenant!r} already registered")
        policy = self.shed_policy if shed_policy is _DEFAULT else shed_policy
        capacity = queue_capacity if queue_capacity is not None \
            else self.queue_capacity
        machine = VirtualMachine(self.corpus,
                                 baseline_store=self.baseline_store)
        session = TelemetrySession.from_config(self.config)
        queue = BoundedIngestQueue(capacity, policy, tenant=tenant,
                                   telemetry=session)
        breaker = CircuitBreaker(
            failure_threshold=self.breaker_failure_threshold,
            cooldown_ticks=self.breaker_cooldown_ticks,
            seed=self.seed, tenant=tenant, telemetry=session,
            enabled=True) if self.breaker_enabled else None
        shard = MonitorShard(
            tenant, machine, records, config=self.config, policy=self.policy,
            queue=queue, breaker=breaker, fault_plan=fault_plan,
            checkpoint_every=self.checkpoint_every,
            baseline_store=self.baseline_store, telemetry=session)
        self.shards[tenant] = shard
        self.sessions[tenant] = session
        return shard

    # -- the scheduler -------------------------------------------------------

    def _ordered(self) -> List[MonitorShard]:
        return [self.shards[t] for t in sorted(self.shards)]

    def run(self) -> dict:
        """Drive every stream to completion (or abandonment); report."""
        if self._ran:
            raise RuntimeError("session already ran")
        self._ran = True
        for shard in self._ordered():
            shard.start()
        tick = 0
        while True:
            pending = [s for s in self._ordered()
                       if not (s.alive and s.done)]
            if not pending:
                break
            if self.watchdog is None and all(not s.alive for s in pending):
                break  # dead with nobody to revive them: abandoned
            tick += 1
            if tick > self.max_ticks:
                raise RuntimeError(
                    f"ingest session exceeded max_ticks={self.max_ticks}")
            for shard in self._ordered():
                shard.pump(self.pump_batch)
            for shard in self._ordered():
                shard.step(tick, self.tick_budget)
            if self.watchdog is not None:
                self.watchdog.scan(tick, self._ordered())
        self.ticks = tick
        return self.report()

    # -- results -------------------------------------------------------------

    @property
    def abandoned(self) -> List[str]:
        """Tenants whose shard is dead with no watchdog to revive it."""
        return [t for t, s in sorted(self.shards.items()) if not s.alive]

    def verdicts(self) -> Dict[str, Optional[dict]]:
        """Per-tenant verdict fingerprints (the identity-check object)."""
        return {t: s.verdict() for t, s in sorted(self.shards.items())}

    def cross_tenant_events(self) -> List[dict]:
        """Tenant-tagged events that leaked onto another tenant's bus.

        Bulkhead isolation means this must always be empty: every
        LoadShed/BreakerTripped/ShardRestarted event carries its tenant,
        and each tenant has a private bus, so any mismatch is a leak.
        """
        leaks: List[dict] = []
        for tenant, session in sorted(self.sessions.items()):
            if session is None:
                continue
            for event in session.bus.events():
                tagged = getattr(event, "tenant", None)
                if tagged is not None and tagged != tenant:
                    leaks.append({"bus": tenant, "event_kind": event.kind,
                                  "tagged_tenant": tagged})
        return leaks

    def stats(self) -> dict:
        return {
            "ticks": self.ticks,
            "watchdog": (None if self.watchdog is None
                         else self.watchdog.stats()),
            "tenants": {t: s.stats()
                        for t, s in sorted(self.shards.items())},
        }

    def report(self) -> dict:
        return {
            "ticks": self.ticks,
            "abandoned": self.abandoned,
            "cross_tenant_leaks": self.cross_tenant_events(),
            "verdicts": self.verdicts(),
            "stats": self.stats(),
        }

    def close(self) -> None:
        """Graceful teardown of every shard (flush + detach)."""
        for shard in self._ordered():
            shard.stop()
