"""ingest_chaos: one multi-tenant ingest session under a fault storm.

Tenants mix attack streams (recorded from monitored live runs, as in
attack_replay) and benign application streams (recorded monitor-free
with ``record_endpoint_stream``).  Every session runs the same tenants
under BENCH_6's fault mix — shard kills, poison events, queue stalls and
transient denials, one kind per tenant in rotation — with the circuit
breaker and heartbeat watchdog on.  One session (``manager.run()``) is
one task; building its shards is not timed.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.benign import all_apps
from repro.core.config import CryptoDropConfig
from repro.corpus.builder import generate
from repro.corpus.spec import default_spec
from repro.faults.plan import ingest_chaos, transient_faults
from repro.ingest import EndpointSessionManager, record_endpoint_stream
from repro.ransomware import working_cohort
from repro.sandbox import VirtualMachine

from harness import attach_vfs_meter
from streams import record_attack


def _attack_profiles(n: int) -> list:
    """The first sample of each of the ``n`` largest (family, class)
    strata of the working cohort.

    The attack tenants are the same for every seed: with a handful of
    tenants, a seeded draw of samples moved a session's cost by a third
    from seed to seed.  The seed still draws the benign app runs and the
    fault plans.
    """
    strata: dict = {}
    for sample in working_cohort(base_seed=0):
        profile = sample.profile
        strata.setdefault((profile.family, profile.behavior_class),
                          []).append(profile)
    largest = sorted(strata.values(), key=lambda members: -len(members))
    return [members[0] for members in largest[:n]]


def _fault_plan(kind: int, seed: int):
    if kind == 0:
        return ingest_chaos(seed=seed, kill_shard_at_events=(25,))
    if kind == 1:
        return ingest_chaos(seed=seed, poison_event_rate=0.04)
    if kind == 2:
        return ingest_chaos(seed=seed, queue_stall_rate=0.02)
    return transient_faults(seed=seed, deny_rate=0.15, short_read_rate=0.0,
                            latency_spike_rate=0.0, max_denials=20)


class IngestChaos:
    name = "ingest_chaos"
    attack_tenants = 12
    #: an AV-style reader, a browser cache writer, a document viewer and
    #: a media player, each run with ``benign_rounds`` app seeds
    benign_apps = ("AvastSvc.exe", "chrome.exe", "DOCVIEW.EXE",
                   "Spotify.exe")
    benign_rounds = 3
    max_events = 200
    n_files, n_dirs = 240, 20
    #: the corpus is the same for every seed, as in attack_replay: which
    #: of its files are large sets the slowest closes, and a seeded corpus
    #: moved close_us.tail by a quarter from seed to seed
    corpus_seed = 1000
    min_passes = 5
    #: ``.tail`` percentiles: the highest ladder step with ten samples
    #: beyond it in one session (~550 closes, ~650 writes); a 10 s run
    #: holds about a dozen sessions, too few for any step above p50 to
    #: have ten beyond it, so here task_ms.tail equals task_ms.p50
    tails = {"task": 50.0, "close": 95.0, "write": 95.0}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = CryptoDropConfig()
        self.store_build_s = 0.0

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        # no read-only files: an endpoint stream records no open mode and a
        # shard reopens every file read-write, so on a read-only file it
        # would drop the reads the live run made and could miss a sample
        # the live run stopped
        self.corpus = generate(seed=self.corpus_seed,
                               n_files=self.n_files, n_dirs=self.n_dirs,
                               spec=replace(default_spec(),
                                            read_only_fraction=0.0),
                               use_cache=False)
        machine = VirtualMachine(self.corpus)
        machine.snapshot()
        #: tenant -> the verdict its stream should get: the live run's
        #: verdict on an attack stream (the ingest path must reach it too),
        #: never flagged for a benign one
        self.streams, self.labels = {}, {}
        for i, profile in enumerate(_attack_profiles(self.attack_tenants)):
            recording = record_attack(machine, profile, self.config)
            tenant = f"a{i}-{profile.family}"
            # uncapped: the stream already ends where the detector stopped
            # the sample, and a cut could hide the detection
            self.streams[tenant] = recording.records
            self.labels[tenant] = recording.detected
        # a fixed set of applications that need no planted assets (so they
        # replay faithfully on a bare corpus machine) keeps the tenant mix,
        # and so the cost of a session, the same for every seed
        apps = [app for _ in range(self.benign_rounds)
                for app in all_apps(rng.randrange(1 << 16))
                if app.name in self.benign_apps]
        for i, app in enumerate(apps):
            tenant = f"b{i}-{app.name}"
            self.streams[tenant] = record_endpoint_stream(
                self.corpus, app, seed=app.seed, max_events=self.max_events)
            self.labels[tenant] = False
        self.plans = {tenant: _fault_plan(i % 4, rng.randrange(1 << 16))
                      for i, tenant in enumerate(sorted(self.streams))}
        reference = self._session(faults=False)
        reference.run()
        self.reference = reference.verdicts()
        reference.close()

    def _session(self, faults: bool = True) -> EndpointSessionManager:
        manager = EndpointSessionManager(self.corpus, config=self.config)
        for tenant in sorted(self.streams):
            manager.add_endpoint(tenant, self.streams[tenant],
                                 fault_plan=self.plans[tenant] if faults
                                 else None)
        return manager

    def begin(self, meter) -> None:
        pass

    def end(self) -> None:
        pass

    def run_pass(self, meter, check: bool) -> None:
        manager = self._session()
        for shard in manager.shards.values():
            attach_vfs_meter(shard.vfs, meter)
        with meter.task():
            manager.run()
        verdicts = manager.verdicts()
        abandoned = set(manager.abandoned)
        leaks = manager.cross_tenant_events()
        stats = manager.stats()
        manager.close()
        applied = 0
        for tenant, verdict in verdicts.items():
            meter.attempted += 1
            meter.failed += (tenant in abandoned
                             or verdict != self.reference[tenant])
            detected = bool(verdict and verdict["detections"])
            meter.verdicts_ok += detected == self.labels[tenant]
            applied += stats["tenants"][tenant]["applied"]
        meter.failed += len(leaks)
        meter.note("applied", applied)
        tenants = stats["tenants"].values()
        meter.note("session", {
            "ingest.restarts": stats["watchdog"]["restarts"],
            "ingest.ticks": stats["ticks"],
            "ingest.replayed": sum(t["replayed"] for t in tenants),
            "ingest.sheds": sum(t["queue"]["shed"] for t in tenants),
            "ingest.breaker_trips": sum(t["breaker"]["trips"]
                                        for t in tenants),
            "ingest.queue.high_water": max(t["queue"]["high_watermark_seen"]
                                           for t in tenants)})

    def layer_counters(self, meter) -> dict:
        """Per-session means of the session's own counters."""
        sessions = meter.extra.get("session", [])
        n = max(1, len(sessions))
        counters = {name: sum(c[name] for c in sessions) / n
                    for name in ("ingest.restarts", "ingest.replayed",
                                 "ingest.sheds", "ingest.breaker_trips",
                                 "ingest.ticks")}
        counters["ingest.queue.high_water"] = max(
            (c["ingest.queue.high_water"] for c in sessions), default=0)
        return counters

    def report(self, meter, timed_s: float) -> list:
        return [
            ("ingest_events_per_s", sum(meter.extra["applied"]) / timed_s,
             "events/s"),
            ("tenants", len(self.streams), "tenants"),
            ("events_per_session", meter.extra["applied"][0], "events"),
        ]
