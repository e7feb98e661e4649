"""Resilient multi-endpoint ingest: the chaos matrix.

Every ingest fault kind (poison event, queue stall, shard kill) crossed
with breaker on/off and watchdog on/off, asserting the two invariants
the layer exists for:

* **verdict identity** — post-fault (and post-restart) verdicts are
  bit-identical to an unfaulted reference session, except for the one
  documented loss mode: a killed shard with no watchdog is abandoned;
* **bulkhead isolation** — no tenant-tagged telemetry event ever
  appears on another tenant's bus, and untouched tenants' verdicts are
  unchanged.

Plus unit coverage for the queue/shed/breaker/watchdog pieces, the
graceful-shutdown flush pin (a digest queued just before close must
land in the final state), the transient-error taxonomy, and the
campaign dispatcher's deterministic retry backoff.
"""

from __future__ import annotations

import pytest

from repro.core import CryptoDropMonitor
from repro.core.config import CryptoDropConfig
from repro.corpus import generate
from repro.faults import (FaultPlan, MonitorSupervisor, PoisonedEvent,
                          ingest_chaos, transient_faults)
from repro.fs import VirtualFileSystem, DOCUMENTS
from repro.fs.errors import (FileNotFound, FsError, InvalidHandle,
                             OperationDenied, ProcessSuspended, is_transient)
from repro.ingest import (Admission, BoundedIngestQueue, CircuitBreaker,
                          EndpointEvent, EndpointSessionManager,
                          HeartbeatWatchdog, ShedPolicy,
                          record_endpoint_stream)
from repro.ransomware import working_cohort
from repro.sandbox.parallel import retry_backoff_s
from repro.telemetry import TelemetrySession, ingest_snapshot
from repro.trace import TraceRecord

pytestmark = pytest.mark.chaos

TELEMETRY = CryptoDropConfig(telemetry_enabled=True)


@pytest.fixture(scope="module")
def ingest_corpus():
    # private tiny corpus: each tenant plants its own machine, so the
    # session-scoped 420-file corpus would dominate the matrix runtime
    return generate(4242, 60, 8)


@pytest.fixture(scope="module")
def streams(ingest_corpus):
    cohort = working_cohort(base_seed=0)
    return {
        f"tenant-{i}": record_endpoint_stream(
            ingest_corpus, cohort[i * 7], seed=i, max_events=260)
        for i in range(3)
    }


def run_session(corpus, streams, fault_map=None, breaker=True,
                watchdog=True, **kwargs):
    manager = EndpointSessionManager(
        corpus, config=TELEMETRY, breaker=breaker, watchdog=watchdog,
        checkpoint_every=kwargs.pop("checkpoint_every", 16), **kwargs)
    fault_map = fault_map or {}
    for tenant in sorted(streams):
        manager.add_endpoint(tenant, streams[tenant],
                             fault_plan=fault_map.get(tenant))
    report = manager.run()
    return manager, report


@pytest.fixture(scope="module")
def reference(ingest_corpus, streams):
    """The unfaulted run every chaos cell is compared against."""
    _, report = run_session(ingest_corpus, streams)
    assert not report["abandoned"]
    assert all(v is not None for v in report["verdicts"].values())
    # the streams are ransomware: the reference must actually detect,
    # otherwise identity checks would pass vacuously
    assert all(v["detections"] for v in report["verdicts"].values())
    return report


FAULTS = {
    "poison": lambda: ingest_chaos(seed=5, poison_event_rate=0.08),
    "stall": lambda: ingest_chaos(seed=5, queue_stall_rate=0.04,
                                  queue_stall_ticks=6),
    "kill": lambda: ingest_chaos(seed=5, kill_shard_at_events=(25, 70)),
}


class TestChaosMatrix:
    @pytest.mark.parametrize("breaker", [True, False],
                             ids=["breaker", "no-breaker"])
    @pytest.mark.parametrize("watchdog", [True, False],
                             ids=["watchdog", "no-watchdog"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_verdict_identity_and_isolation(self, ingest_corpus, streams,
                                            reference, fault, breaker,
                                            watchdog):
        faulted_tenant = "tenant-0"
        manager, report = run_session(
            ingest_corpus, streams, {faulted_tenant: FAULTS[fault]()},
            breaker=breaker, watchdog=watchdog)
        # bulkhead isolation holds in every cell
        assert report["cross_tenant_leaks"] == []
        for tenant in streams:
            if tenant == faulted_tenant:
                continue
            assert report["verdicts"][tenant] == \
                reference["verdicts"][tenant], \
                f"unfaulted {tenant} drifted under {fault} on neighbour"
        stats = report["stats"]["tenants"][faulted_tenant]
        if fault == "kill" and not watchdog:
            # the one documented loss mode: dead shard, nobody to revive
            assert report["abandoned"] == [faulted_tenant]
            assert report["verdicts"][faulted_tenant] is None
            assert stats["kills"] >= 1
            return
        assert report["abandoned"] == []
        assert report["verdicts"][faulted_tenant] == \
            reference["verdicts"][faulted_tenant], \
            f"{fault} (breaker={breaker}, watchdog={watchdog}) drifted"
        if fault == "poison":
            assert stats["poisoned"] > 0
        elif fault == "stall":
            assert stats["wedges"] > 0
        elif fault == "kill":
            assert stats["kills"] >= 1
            assert stats["restarts"] >= 1
            assert stats["replayed"] > 0
            session = manager.sessions[faulted_tenant]
            restarts = session.bus.events("shard_restarted")
            assert len(restarts) == stats["restarts"]
            assert all(e.tenant == faulted_tenant for e in restarts)

    @pytest.mark.parametrize("breaker", [True, False],
                             ids=["breaker", "no-breaker"])
    def test_transient_denial_storm(self, ingest_corpus, streams,
                                    reference, breaker):
        plan = transient_faults(seed=9, deny_rate=0.6, max_denials=30)
        manager, report = run_session(ingest_corpus, streams,
                                      {"tenant-1": plan}, breaker=breaker)
        assert report["cross_tenant_leaks"] == []
        assert report["verdicts"] == reference["verdicts"]
        stats = report["stats"]["tenants"]["tenant-1"]
        assert stats["transient_failures"] > 0
        if breaker:
            session = manager.sessions["tenant-1"]
            trips = stats["breaker"]["trips"]
            assert len(session.bus.events("breaker_tripped")) == trips
            assert session.registry.get(
                "cryptodrop_breaker_trips_total").value(
                    tenant="tenant-1") == trips
        else:
            assert stats["breaker"] is None

    def test_combined_storm_all_tenants(self, ingest_corpus, streams,
                                        reference):
        fault_map = {
            "tenant-0": ingest_chaos(seed=13, kill_shard_at_events=(40,)),
            "tenant-1": ingest_chaos(seed=13, poison_event_rate=0.05,
                                     queue_stall_rate=0.02),
            "tenant-2": transient_faults(seed=13, deny_rate=0.2,
                                         max_denials=25),
        }
        _, report = run_session(ingest_corpus, streams, fault_map)
        assert report["cross_tenant_leaks"] == []
        assert report["abandoned"] == []
        assert report["verdicts"] == reference["verdicts"]


class TestLoadShedding:
    def test_shed_observable_and_bounded(self, ingest_corpus, streams,
                                         reference):
        manager = EndpointSessionManager(
            ingest_corpus, config=TELEMETRY, queue_capacity=16,
            pump_batch=16, tick_budget=2)
        manager.add_endpoint("tenant-0", streams["tenant-0"],
                             shed_policy=ShedPolicy(watermark=8,
                                                    sample_every=4))
        manager.add_endpoint("tenant-1", streams["tenant-1"])
        report = manager.run()
        assert report["cross_tenant_leaks"] == []
        queue = report["stats"]["tenants"]["tenant-0"]["queue"]
        assert queue["shed"] > 0
        # every shed decision is observable: event per shed + counter
        session = manager.sessions["tenant-0"]
        assert len(session.bus.events("load_shed")) == queue["shed"]
        assert session.registry.get("cryptodrop_load_shed_total").value(
            tenant="tenant-0") == queue["shed"]
        # the no-shed-policy neighbour only ever felt backpressure, and
        # its verdict is unchanged by the overload
        neighbour = report["stats"]["tenants"]["tenant-1"]["queue"]
        assert neighbour["shed"] == 0
        assert neighbour["blocked"] > 0
        assert report["verdicts"]["tenant-1"] == \
            reference["verdicts"]["tenant-1"]

    def test_backpressure_alone_preserves_verdicts(self, ingest_corpus,
                                                   streams, reference):
        _, report = run_session(ingest_corpus, streams, queue_capacity=4,
                                pump_batch=16)
        blocked = sum(t["queue"]["blocked"]
                      for t in report["stats"]["tenants"].values())
        assert blocked > 0
        assert report["verdicts"] == reference["verdicts"]


def _record(kind="read", path="C:\\x.txt", **kw):
    return TraceRecord(kind=kind, pid=1, path=path, **kw)


def _event(seq, kind="read", poison=False):
    return EndpointEvent("t", seq, _record(kind), poison=poison)


class TestBoundedIngestQueue:
    def test_blocks_at_capacity(self):
        queue = BoundedIngestQueue(capacity=2)
        assert queue.offer(_event(0)) is Admission.ACCEPTED
        assert queue.offer(_event(1)) is Admission.ACCEPTED
        assert queue.offer(_event(2)) is Admission.BLOCKED
        assert queue.stats()["blocked"] == 1
        queue.pop()
        assert queue.offer(_event(2)) is Admission.ACCEPTED

    def test_shed_keeps_every_nth_sheddable(self):
        queue = BoundedIngestQueue(
            capacity=64, shed_policy=ShedPolicy(watermark=1, sample_every=3))
        queue.offer(_event(0))  # below watermark
        outcomes = [queue.offer(_event(i)) for i in range(1, 10)]
        # counter-based: every 3rd sheddable offer is kept
        assert outcomes == [Admission.SHED, Admission.SHED,
                            Admission.ACCEPTED] * 3

    def test_never_sheds_mutations_or_poison(self):
        queue = BoundedIngestQueue(
            capacity=64, shed_policy=ShedPolicy(watermark=1, sample_every=2))
        queue.offer(_event(0))
        assert queue.offer(_event(1, kind="write")) is Admission.ACCEPTED
        assert queue.offer(_event(2, kind="close")) is Admission.ACCEPTED
        # poison must reach the shard to be counted as a discarded fault
        assert queue.offer(_event(3, poison=True)) is Admission.ACCEPTED

    def test_rejects_watermark_above_capacity(self):
        with pytest.raises(ValueError):
            BoundedIngestQueue(capacity=8,
                               shed_policy=ShedPolicy(watermark=9))


class TestCircuitBreaker:
    def test_trips_after_threshold_and_backs_off_exponentially(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_ticks=4,
                                 jitter=0.0)
        tick = 0
        assert not breaker.record_failure(tick)
        assert not breaker.record_failure(tick)
        assert breaker.record_failure(tick)  # third consecutive: trips
        assert breaker.stats()["state"] == "open"
        assert breaker.reopen_at == 4
        assert not breaker.allow(3)
        assert breaker.allow(4)  # half-open probe
        assert breaker.stats()["state"] == "half_open"
        assert breaker.record_failure(4)  # probe fails: re-trip, doubled
        assert breaker.reopen_at == 4 + 8
        assert breaker.allow(12)
        breaker.record_success()  # probe succeeds: closed, streak reset
        assert breaker.stats()["state"] == "closed"
        for _ in range(3):
            breaker.record_failure(20)
        assert breaker.reopen_at == 20 + 4  # back to the base cooldown

    def test_cooldown_capped(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ticks=4,
                                 max_cooldown_ticks=16, jitter=0.0)
        tick = 0
        for _ in range(6):
            breaker.record_failure(tick)
            tick = breaker.reopen_at
            breaker.allow(tick)
        assert breaker.reopen_at - tick <= 16

    def test_jitter_is_deterministic_per_tenant(self):
        def trip_point(tenant):
            b = CircuitBreaker(failure_threshold=1, seed=7, tenant=tenant)
            b.record_failure(0)
            return b.reopen_at
        assert trip_point("a") == trip_point("a")

    def test_disabled_counts_but_never_blocks(self):
        breaker = CircuitBreaker(failure_threshold=1, enabled=False)
        for tick in range(5):
            breaker.record_failure(tick)
            assert breaker.allow(tick)
        assert breaker.trips == 0
        assert breaker.failures_total == 5
        assert breaker.stats()["state"] == "closed"


class TestWatchdogUnit:
    class _FlatlinedShard:
        def __init__(self):
            self.alive = False
            self.finished = False
            self.done = False
            self.last_beat = 0
            self.restarted_with = None

        def restart(self, tick, reason="", down_ticks=0):
            self.restarted_with = (tick, reason, down_ticks)
            self.alive = True

    def test_restarts_after_missed_beats(self):
        shard = self._FlatlinedShard()
        watchdog = HeartbeatWatchdog(miss_threshold=3)
        assert watchdog.scan(2, [shard]) == 0
        assert watchdog.scan(3, [shard]) == 1
        assert shard.restarted_with == (3, "killed", 3)
        assert watchdog.stats()["recovery_ticks"] == [3]

    def test_ignores_finished_shards(self):
        shard = self._FlatlinedShard()
        shard.finished = True
        assert HeartbeatWatchdog(miss_threshold=1).scan(100, [shard]) == 0


class TestIngestFaultPlan:
    def test_ingest_faults_do_not_arm_op_injector(self):
        plan = ingest_chaos(seed=1, poison_event_rate=0.5,
                            queue_stall_rate=0.5,
                            kill_shard_at_events=(10,))
        assert plan.armed_ingest
        assert not plan.armed

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, poison_event_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, queue_stall_rate=0.1, queue_stall_ticks=0)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, kill_shard_at_events=(0,))


class TestTransientTaxonomy:
    def test_classification(self):
        assert is_transient(OperationDenied("op", "locked"))
        assert not is_transient(FsError("x"))
        assert not is_transient(FileNotFound("x"))
        assert not is_transient(InvalidHandle("x"))
        assert not is_transient(PoisonedEvent("t", 3))
        assert not is_transient(ProcessSuspended(1, "scored"))
        assert not is_transient(RuntimeError("x"))


class TestGracefulShutdownFlush:
    def _machine_with_pending(self):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        pid = vfs.processes.spawn("writer.exe").pid
        return vfs, pid

    def test_close_drains_digest_queued_just_before_shutdown(self):
        vfs, pid = self._machine_with_pending()
        with CryptoDropMonitor(vfs) as monitor:
            path = DOCUMENTS / "pending.txt"
            handle = vfs.open(pid, path, "rw", create=True)
            vfs.write(pid, handle, b"verdict-relevant bytes " * 64)
            vfs.close(pid, handle)
            scheduler = monitor.engine.scheduler
            assert len(scheduler) > 0  # digest really was deferred
        # context exit routed through close(): flushed, not dropped
        stats = scheduler.stats()
        assert stats["pending"] == 0
        assert stats["closes"] == 1
        assert stats["materialised"] >= 1
        assert not monitor.attached

    def test_supervisor_stop_flushes_like_close(self):
        vfs, pid = self._machine_with_pending()
        supervisor = MonitorSupervisor(vfs)
        monitor = supervisor.start()
        path = DOCUMENTS / "pending.txt"
        handle = vfs.open(pid, path, "rw", create=True)
        vfs.write(pid, handle, b"payload " * 128)
        vfs.close(pid, handle)
        scheduler = monitor.engine.scheduler
        assert len(scheduler) > 0
        supervisor.stop()
        assert scheduler.stats()["pending"] == 0
        assert scheduler.stats()["closes"] == 1

    def test_close_is_idempotent(self):
        vfs, _ = self._machine_with_pending()
        monitor = CryptoDropMonitor(vfs).attach()
        monitor.close()
        monitor.close()
        assert not monitor.attached


class TestRetryBackoff:
    def test_deterministic(self):
        assert retry_backoff_s(3, 2) == retry_backoff_s(3, 2)

    def test_exponential_until_cap(self):
        delays = [retry_backoff_s(0, attempt) for attempt in range(1, 8)]
        # base curve is exponential; jitter only stretches upward <= 25%
        for attempt, delay in enumerate(delays, start=1):
            base = min(4.0, 0.25 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.25
        assert max(delays) <= 4.0 * 1.25

    def test_jitter_varies_by_sample(self):
        assert len({retry_backoff_s(i, 1) for i in range(16)}) > 1


class TestIngestMetricsSnapshot:
    def test_gauges_mirror_manager_stats(self, ingest_corpus, streams):
        manager, report = run_session(
            ingest_corpus, streams,
            {"tenant-0": ingest_chaos(seed=5, kill_shard_at_events=(25,))})
        registry = ingest_snapshot(manager)
        stats = report["stats"]["tenants"]["tenant-0"]
        assert registry.get("cryptodrop_ingest_events_applied").value(
            tenant="tenant-0") == stats["applied"]
        assert registry.get("cryptodrop_ingest_shard_restarts").value(
            tenant="tenant-0") == stats["restarts"]
        assert registry.get("cryptodrop_ingest_ticks").value() == \
            report["ticks"]
