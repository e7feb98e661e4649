"""The telemetry subsystem (ISSUE 4): bus, metrics, exporters, timeline,
and its integration contracts — timeline agrees with the detection
record, engine checkpoints carry metric counters but never events, trace
replay reproduces the event sequence, campaigns merge snapshots."""

import json

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.ransomware import cohort_by_family, instantiate
from repro.sandbox import VirtualMachine, run_campaign
from repro.sandbox.runner import run_sample
from repro.telemetry import (EVENT_TYPES, BaselineResolved, Counter,
                             EventBus, Gauge, Histogram, IndicatorFired,
                             JsonlWriter, MetricsRegistry,
                             ProcessSuspended, ScoreDelta, TelemetrySession,
                             UnionBoost, build_timeline, event_from_dict,
                             indicator_totals, merge_telemetry_dicts,
                             read_jsonl, render_prometheus,
                             validate_exposition, write_jsonl)
from repro.trace import TraceRecorder, replay_trace


def telemetry_config(**overrides) -> CryptoDropConfig:
    return CryptoDropConfig(telemetry_enabled=True, **overrides)


def teslacrypt_sample():
    return instantiate(cohort_by_family()["teslacrypt"][0].profile)


@pytest.fixture(scope="module")
def detected_run(small_corpus):
    """One TeslaCrypt run with telemetry on: monitor, outcome, damage."""
    machine = VirtualMachine(small_corpus)
    machine.snapshot()
    monitor = CryptoDropMonitor(machine.vfs, telemetry_config()).attach()
    outcome = machine.run_program(teslacrypt_sample())
    damage = machine.assess()
    monitor.detach()
    machine.revert()
    return monitor, outcome, damage


# ---------------------------------------------------------------------------
# event bus
# ---------------------------------------------------------------------------

class TestEventBus:
    def test_ring_is_bounded_and_counts_drops(self):
        bus = EventBus(capacity=3)
        for i in range(5):
            bus.emit(IndicatorFired(float(i), indicator=f"e{i}"))
        assert len(bus) == 3
        assert bus.emitted == 5
        assert bus.dropped == 2
        # newest events survive
        assert [e.indicator for e in bus.events()] == ["e2", "e3", "e4"]

    def test_subscribers_see_every_event_despite_evictions(self):
        bus = EventBus(capacity=2)
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        for i in range(4):
            bus.emit(IndicatorFired(float(i)))
        assert len(seen) == 4
        unsubscribe()
        bus.emit(IndicatorFired(9.0))
        assert len(seen) == 4

    def test_kind_filter_and_counts(self):
        bus = EventBus()
        bus.emit(IndicatorFired(1.0))
        bus.emit(ScoreDelta(2.0))
        bus.emit(IndicatorFired(3.0))
        assert len(bus.events("indicator_fired")) == 2
        assert bus.counts_by_kind() == {"indicator_fired": 2,
                                        "score_delta": 1}

    def test_clear_keeps_lifetime_counters(self):
        bus = EventBus()
        bus.emit(IndicatorFired(1.0))
        bus.clear()
        assert len(bus) == 0 and bus.emitted == 1

    def test_every_event_kind_round_trips_through_dict(self):
        for kind, cls in EVENT_TYPES.items():
            event = cls(timestamp_us=12.5)
            encoded = event.as_dict()
            assert encoded["kind"] == kind
            json.dumps(encoded)
            assert event_from_dict(encoded) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"kind": "telepathy"})


class TestDisabledPath:
    def test_session_none_unless_config_enables(self):
        assert TelemetrySession.from_config(CryptoDropConfig()) is None
        assert TelemetrySession.from_config(telemetry_config()) is not None

    def test_disabled_monitor_carries_no_session(self, vfs):
        monitor = CryptoDropMonitor(vfs)
        assert monitor.telemetry is None
        assert monitor.telemetry_export() is None
        with pytest.raises(RuntimeError):
            monitor.timeline()

    def test_detection_identical_with_and_without(self, machine):
        results = {}
        for label, config in (("off", CryptoDropConfig()),
                              ("on", telemetry_config())):
            results[label] = run_sample(machine, teslacrypt_sample(), config)
        off, on = results["off"], results["on"]
        assert (off.detected, off.files_lost, off.score, off.union_fired) \
            == (on.detected, on.files_lost, on.score, on.union_fired)
        assert off.telemetry is None
        assert on.telemetry is not None

    #: a tiny digest LRU and (through the ``stream_threshold`` fixture)
    #: streams from the first byte, so a detection also reaches the
    #: eviction, stream and batch-flush emit sites
    BUSY = dict(digest_cache_entries=2)

    @pytest.fixture
    def instrument_calls(self, monkeypatch):
        """Names of every instrument call and event construction."""
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for cls, method in ((Counter, "inc"), (Gauge, "set"),
                            (Histogram, "observe"), (EventBus, "emit")):
            monkeypatch.setattr(cls, method, counting(
                f"{cls.__name__}.{method}", getattr(cls, method)))
        for cls in EVENT_TYPES.values():
            monkeypatch.setattr(cls, "__init__",
                                counting(cls.__name__, cls.__init__))
        return calls

    def test_disabled_engine_makes_no_instrument_calls(self, machine,
                                                       instrument_calls,
                                                       stream_threshold):
        off = CryptoDropConfig(**self.BUSY)
        run_sample(machine, teslacrypt_sample(), off)
        assert instrument_calls == []
        on = run_sample(machine, teslacrypt_sample(),
                        telemetry_config(**self.BUSY))
        assert {"IndicatorFired", "StreamDigestFinalized", "CacheEvicted",
                "Counter.inc", "Histogram.observe"} <= set(instrument_calls)
        assert on.telemetry["counts_by_kind"]["stream_digest_finalized"] > 0
        assert on.telemetry["bus"]["emitted"] == len(
            [name for name in instrument_calls if name == "EventBus.emit"])

    def test_stats_identical_with_and_without(self, machine,
                                              stream_threshold):
        # telemetry observes the engine; it never changes what it counts
        stats = []
        for config in (CryptoDropConfig(**self.BUSY),
                       telemetry_config(**self.BUSY)):
            perf = dict(run_sample(machine, teslacrypt_sample(), config).perf)
            perf.pop("op_wall_us")   # measured time, not a counter
            stats.append(perf)
        assert stats[0]["digest_cache"]["evictions"] > 0
        assert stats[0]["streaming"]["finalized"] > 0
        assert stats[0] == stats[1]


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits", "h")
        hits.inc(indicator="entropy")
        hits.inc(2.0, indicator="entropy")
        hits.inc(indicator="similarity")
        assert hits.value(indicator="entropy") == 3.0
        assert hits.total() == 4.0

    def test_gauge_sets_instead_of_accumulating(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("occupancy")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value() == 2.0

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", (1, 10, 100))
        for value in (0.5, 5, 50, 500):
            h.observe(value)
        series = dict(h.series())[()]
        assert series.bucket_counts == [1, 1, 1, 1]
        assert series.count == 4
        assert series.sum == 555.5

    def test_type_and_bounds_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        registry.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", (1, 3))

    def test_checkpoint_restore_fixed_point(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3.0, kind="a")
        registry.histogram("h", (1, 10)).observe(4.0, op="close")
        snapshot = registry.checkpoint()
        json.dumps(snapshot)
        restored = MetricsRegistry()
        restored.restore(snapshot)
        assert restored.checkpoint() == snapshot

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            registry.counter("c").inc(2.0)
            registry.histogram("h", (1,)).observe(0.5)
        a.merge(b.checkpoint())
        assert a.get("c").total() == 4.0
        assert a.get("h").total_count() == 2


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        events = [IndicatorFired(1.0, root_pid=7, indicator="entropy",
                                 points=2.5, path="C:\\x"),
                  ProcessSuspended(2.0, root_pid=7, score=200.0)]
        path = tmp_path / "events.jsonl"
        assert write_jsonl(events, path) == 2
        assert read_jsonl(path) == events

    def test_jsonl_writer_as_subscriber(self, tmp_path):
        bus = EventBus(capacity=1)   # ring evicts, file must not
        path = tmp_path / "stream.jsonl"
        with JsonlWriter(path) as sink:
            bus.subscribe(sink)
            for i in range(3):
                bus.emit(ScoreDelta(float(i), score_after=float(i)))
        assert sink.written == 3
        assert [e.timestamp_us for e in read_jsonl(path)] == [0.0, 1.0, 2.0]

    def test_prometheus_renders_valid_exposition(self, detected_run):
        monitor, _outcome, _damage = detected_run
        text = monitor.telemetry.render_prometheus()
        assert validate_exposition(text) == []
        assert "cryptodrop_indicator_hits_total" in text
        assert 'le="+Inf"' in text

    def test_exposition_validator_catches_breakage(self):
        assert validate_exposition("orphan_metric 1\n")
        assert validate_exposition("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 5\n"
                                   "h_bucket{le=\"+Inf\"} 3\n")


# ---------------------------------------------------------------------------
# integration: timeline vs detection record
# ---------------------------------------------------------------------------

class TestTimelineIntegration:
    def test_timeline_matches_detection(self, detected_run):
        monitor, _outcome, damage = detected_run
        detection = monitor.detections[0]
        timeline = monitor.timeline()
        assert timeline.detected
        assert timeline.root_pid == detection.root_pid
        assert timeline.suspension.score == detection.score
        assert timeline.suspension.threshold == detection.threshold
        assert timeline.union_fired == detection.union_fired
        assert timeline.final_score == detection.score
        # the acceptance-criteria triple: same files lost, score, union
        # (the runner fills Detection.files_lost post-assessment; this
        # fixture runs the machine directly, so feed both the same way)
        timeline.files_lost = damage.files_lost
        detection.files_lost = damage.files_lost
        assert timeline.files_lost == detection.files_lost

    def test_timeline_trajectory_matches_scoreboard(self, detected_run):
        monitor, _outcome, _damage = detected_run
        timeline = monitor.timeline()
        row = monitor.engine.row_of(timeline.root_pid)
        assert [e.score_after for e in timeline.entries] \
            == [e.score_after for e in row.history]
        assert timeline.indicator_totals() == indicator_totals(row.history)

    def test_events_survive_export_round_trip(self, detected_run):
        monitor, _outcome, _damage = detected_run
        export = monitor.telemetry_export()
        json.dumps(export)
        rebuilt = build_timeline(event_from_dict(e)
                                 for e in export["events"])
        assert rebuilt.final_score == monitor.timeline().final_score
        assert rebuilt.detected

    def test_run_sample_snapshot_matches_detection(self, machine):
        result = run_sample(machine, teslacrypt_sample(), telemetry_config())
        assert result.detected
        timeline = build_timeline(event_from_dict(e)
                                  for e in result.telemetry["events"])
        assert timeline.detected
        assert timeline.final_score == result.score
        assert timeline.union_fired == result.union_fired
        # the files-lost histogram was fed post-assessment
        lost = result.telemetry["metrics"]["cryptodrop_detection_files_lost"]
        (_labels, series), = lost["state"]
        assert series["count"] == 1
        assert series["sum"] == result.files_lost

    def test_baseline_resolution_events_present(self, detected_run):
        monitor, _outcome, _damage = detected_run
        sources = {e.source for e in monitor.telemetry.bus.events()
                   if isinstance(e, BaselineResolved)}
        assert sources   # at least one resolution path exercised
        assert sources <= {"lru", "store", "live", "deferred"}


class TestIndicatorTotals:
    def test_from_tuple_trajectory(self):
        trajectory = [(1.0, 2.5, "entropy"), (2.0, 7.5, "type_change"),
                      (3.0, 10.0, "entropy")]
        assert indicator_totals(trajectory) == {"entropy": 5.0,
                                                "type_change": 5.0}

    def test_legacy_two_tuples_skipped_but_anchor_scores(self):
        assert indicator_totals([(1.0, 10.0), (2.0, 14.0, "entropy")]) \
            == {"entropy": 4.0}

    def test_from_attr_entries(self):
        events = [ScoreDelta(1.0, indicator="entropy", points=2.5),
                  UnionBoost(2.0, bonus=40.0)]
        totals = indicator_totals(
            [events[0],
             type("E", (), {"indicator": "union", "points": 40.0})()])
        assert totals == {"entropy": 2.5, "union": 40.0}


# ---------------------------------------------------------------------------
# checkpoint: counters travel, events never
# ---------------------------------------------------------------------------

class TestCheckpoint:
    def test_metric_counters_travel_events_do_not(self, machine):
        monitor = CryptoDropMonitor(machine.vfs, telemetry_config()).attach()
        machine.run_program(teslacrypt_sample())
        monitor.detach()
        state = monitor.checkpoint()
        json.dumps(state)
        assert state["telemetry"] is not None
        assert "events" not in json.dumps(state["telemetry"])
        hits = monitor.telemetry.indicator_hits.total()
        assert hits > 0

        restored = CryptoDropMonitor.from_checkpoint(
            machine.vfs, state, telemetry_config())
        assert restored.telemetry.indicator_hits.total() == hits
        # events are run-local: the restored bus starts empty
        assert len(restored.telemetry.bus) == 0
        # fixed point: checkpointing the restored monitor is identical
        assert restored.checkpoint()["telemetry"] == state["telemetry"]
        machine.revert()

    def test_disabled_checkpoint_has_no_telemetry_state(self, vfs):
        monitor = CryptoDropMonitor(vfs)
        state = monitor.checkpoint()
        assert state["telemetry"] is None
        # and restoring a telemetry-bearing state into a disabled monitor
        # is a no-op, not a crash
        state["telemetry"] = {"cryptodrop_indicator_hits_total": {
            "type": "counter", "help": "", "state": [[[], 3.0]]}}
        restored = CryptoDropMonitor.from_checkpoint(vfs, state)
        assert restored.telemetry is None


# ---------------------------------------------------------------------------
# trace interop
# ---------------------------------------------------------------------------

def event_shape(event):
    """Everything except timestamps and process identity — replay spawns
    fresh ``replay-<pid>.exe`` processes, so pids and names differ by
    construction; everything the detector decided must not."""
    out = event.as_dict()
    out.pop("timestamp_us")
    out.pop("root_pid", None)
    out.pop("process_name", None)
    return out


class TestTraceInterop:
    def test_replay_reproduces_event_sequence(self, small_corpus):
        machine = VirtualMachine(small_corpus)
        machine.snapshot()
        recorder = TraceRecorder()
        machine.vfs.filters.attach(recorder)
        monitor = CryptoDropMonitor(machine.vfs, telemetry_config()).attach()
        machine.run_program(teslacrypt_sample())
        monitor.detach()
        machine.vfs.filters.detach(recorder)
        machine.revert()
        live = [event_shape(e) for e in monitor.telemetry.bus.events()]

        sink = TelemetrySession()
        replayed_monitor, _machine = replay_trace(
            recorder.records, small_corpus, telemetry=sink)
        assert replayed_monitor.telemetry is sink
        replayed = [event_shape(e) for e in sink.bus.events()]
        assert replayed == live

    def test_replay_honours_config_without_explicit_sink(self, small_corpus):
        machine = VirtualMachine(small_corpus)
        machine.snapshot()
        recorder = TraceRecorder()
        machine.vfs.filters.attach(recorder)
        monitor = CryptoDropMonitor(machine.vfs).attach()
        machine.run_program(teslacrypt_sample())
        monitor.detach()
        machine.vfs.filters.detach(recorder)
        machine.revert()

        replayed_monitor, _machine = replay_trace(
            recorder.records, small_corpus, config=telemetry_config())
        assert replayed_monitor.telemetry is not None
        assert replayed_monitor.timeline().detected


# ---------------------------------------------------------------------------
# campaign aggregation
# ---------------------------------------------------------------------------

class TestCampaignAggregation:
    @pytest.fixture(scope="class")
    def campaign(self, small_corpus):
        profiles = [s.profile for s in cohort_by_family()["teslacrypt"][:2]]
        profiles += [s.profile
                     for s in cohort_by_family()["cryptodefense"][:1]]
        return run_campaign([instantiate(p) for p in profiles],
                            small_corpus, telemetry_config())

    def test_per_sample_snapshots_ride_results(self, campaign):
        assert all(r.telemetry is not None for r in campaign.results)
        assert campaign.telemetry is not None   # parent session (store)
        assert campaign.telemetry["counts_by_kind"].get("store_built") == 1

    def test_merged_stats_add_up(self, campaign):
        merged = campaign.telemetry_stats()
        assert merged["samples"] == len(campaign.results) + 1
        per_sample = sum(r.telemetry["bus"]["emitted"]
                         for r in campaign.results)
        assert merged["bus"]["emitted"] \
            == per_sample + campaign.telemetry["bus"]["emitted"]
        suspensions = merged["metrics"]["cryptodrop_suspensions_total"]
        assert sum(v for _k, v in suspensions["state"]) \
            == sum(1 for r in campaign.results if r.detected)
        json.dumps(merged)

    def test_merge_ignores_missing_snapshots(self, campaign):
        merged = merge_telemetry_dicts(
            [None, campaign.results[0].telemetry, {}])
        assert merged["samples"] == 1

    def test_merged_registry_renders_valid_exposition(self, campaign):
        from repro.telemetry import merge_metric_states
        merged = campaign.telemetry_stats()
        registry = merge_metric_states([merged["metrics"]])
        assert validate_exposition(render_prometheus(registry)) == []
