"""Full-data traces: capture, archive, offline re-detection."""

import pytest

from repro.baselines import no_union
from repro.core import CryptoDropMonitor
from repro.fs import DOCUMENTS, WinPath
from repro.ingest.shard import MonitorShard
from repro.ransomware import cohort_by_family, instantiate
from repro.sandbox import VirtualMachine
from repro.trace import (TraceRecord, TraceRecorder, replay_trace,
                         trace_from_json, trace_to_json)


@pytest.fixture(scope="module")
def captured(small_corpus):
    """A TeslaCrypt incident captured with full-data tracing, live
    detector attached (the trace ends where suspension ended the run)."""
    machine = VirtualMachine(small_corpus)
    machine.snapshot()
    recorder = TraceRecorder()
    machine.vfs.filters.attach(recorder)
    monitor = CryptoDropMonitor(machine.vfs).attach()
    sample = instantiate(cohort_by_family()["teslacrypt"][0].profile)
    machine.run_program(sample)
    live_detections = list(monitor.detections)
    live_damage = machine.assess()
    monitor.detach()
    machine.vfs.filters.detach(recorder)
    machine.revert()
    return recorder.records, live_detections, live_damage


class TestCaptureAndReplay:
    def test_trace_captures_payloads(self, captured):
        records, _live, _damage = captured
        writes = [r for r in records if r.kind == "write"]
        assert writes and all(r.data is not None for r in writes)

    def test_replay_reproduces_the_detection(self, captured, small_corpus):
        records, live, _damage = captured
        monitor, machine = replay_trace(records, small_corpus)
        assert monitor.detected
        replayed = monitor.detections[0]
        assert replayed.score == live[0].score
        assert replayed.union_fired == live[0].union_fired

    def test_replay_reproduces_the_damage(self, captured, small_corpus):
        records, _live, live_damage = captured
        _monitor, machine = replay_trace(records, small_corpus)
        assert machine.assess().files_lost == live_damage.files_lost

    def test_truncated_trace_stops_short_under_weaker_config(
            self, captured, small_corpus):
        """The captured trace ends where the live detector suspended the
        process; replaying that prefix under a *weaker* configuration
        (union disabled) accumulates the same points but never reaches
        the plain 200 threshold — faithfully showing what that config
        would have seen at the same point in the attack."""
        records, live, _damage = captured
        monitor, _machine = replay_trace(records, small_corpus,
                                         config=no_union())
        row = monitor.score_rows()[0]
        assert not monitor.detected
        # exactly the live score minus the union bonus it never got
        from repro.core import default_config
        assert row.score == live[0].score - default_config().union_bonus
        assert not row.union_fired

    def test_full_incident_replay_under_alternative_config(
            self, small_corpus):
        """Capturing an *unmonitored* incident (the full attack) lets any
        configuration be evaluated offline — union-less CryptoDrop still
        convicts, just later."""
        import dataclasses
        machine = VirtualMachine(small_corpus)
        machine.snapshot()
        recorder = TraceRecorder()
        machine.vfs.filters.attach(recorder)
        profile = dataclasses.replace(
            cohort_by_family()["teslacrypt"][0].profile, max_files=40)
        machine.run_program(instantiate(profile))
        machine.vfs.filters.detach(recorder)
        machine.revert()

        monitor, _machine = replay_trace(recorder.records, small_corpus,
                                         config=no_union())
        assert monitor.detected
        assert not monitor.detections[0].union_fired

    def test_replay_under_lower_threshold_detects_earlier(self, captured,
                                                          small_corpus):
        from repro.core import default_config
        records, live, _damage = captured
        monitor, machine = replay_trace(
            records, small_corpus,
            config=default_config(non_union_threshold=100.0,
                                  union_threshold=90.0))
        assert monitor.detected
        assert machine.assess().files_lost < 10


class TestSerialisation:
    def test_json_roundtrip(self, captured):
        records, _live, _damage = captured
        payload = trace_to_json(records)
        restored = trace_from_json(payload)
        assert restored == records

    def test_roundtripped_trace_still_replays(self, captured, small_corpus):
        records, live, _damage = captured
        restored = trace_from_json(trace_to_json(records))
        monitor, _machine = replay_trace(restored, small_corpus)
        assert monitor.detected
        assert monitor.detections[0].score == live[0].score


class TestOneDispatch:
    """``replay_trace`` and an ingest shard apply records through the one
    dispatch, ``apply_record``: a hand-built trace holding every record
    kind leaves the same file tree both ways."""

    DRAFTS = str(DOCUMENTS / "Drafts")
    TEXT = b"".join(b"line %04d of the draft\n" % i for i in range(100))

    def _records(self):
        d = self.DRAFTS
        return [
            TraceRecord("mkdir", 7, d),
            TraceRecord("create", 7, d + r"\a.txt"),
            TraceRecord("write", 7, d + r"\a.txt", data=b"first" * 400),
            TraceRecord("close", 7, d + r"\a.txt"),
            TraceRecord("open", 7, d + r"\A.TXT", truncate=True),
            TraceRecord("write", 7, d + r"\a.txt", data=self.TEXT),
            TraceRecord("read", 7, d + r"\a.txt", offset=10, size=100),
            TraceRecord("write", 7, d + r"\a.txt", data=b"PATCH",
                        offset=200),
            TraceRecord("truncate", 7, d + r"\a.txt", new_size=1500),
            # the open handle follows the rename
            TraceRecord("rename", 7, d + r"\a.txt", dest=d + r"\b.txt"),
            TraceRecord("write", 7, d + r"\b.txt", data=b"after the move",
                        offset=1500),
            TraceRecord("close", 7, d + r"\b.txt"),
            TraceRecord("create", 9, d + r"\c.txt"),
            TraceRecord("write", 9, d + r"\c.txt", data=b"short-lived"),
            TraceRecord("close", 9, d + r"\c.txt"),
            TraceRecord("delete", 9, d + r"\c.txt"),
            # no open handle: skipped
            TraceRecord("write", 9, d + r"\b.txt", data=b"lost", offset=0),
        ]

    @staticmethod
    def _tree(vfs):
        return {str(path).lower(): node.read_bytes()
                for path, node in vfs.peek_walk_files(WinPath("C:\\"))}

    def test_replay_and_shard_leave_the_same_tree(self, small_corpus):
        records = self._records()
        _monitor, machine = replay_trace(records, small_corpus)
        replayed = self._tree(machine.vfs)

        shard = MonitorShard("t0", VirtualMachine(small_corpus), records)
        shard.start()
        tick = 0
        while not shard.done:
            shard.pump(4)
            shard.step(tick, 4)
            tick += 1
        ingested = self._tree(shard.vfs)
        assert shard.stats()["applied"] == len(records)
        assert shard.dropped == 0
        shard.stop()

        assert ingested == replayed
        pristine = self._tree(VirtualMachine(small_corpus).vfs)
        added = {path: data for path, data in replayed.items()
                 if pristine.get(path) != data}
        patched = self.TEXT[:200] + b"PATCH" + self.TEXT[205:1500]
        assert added == {
            (self.DRAFTS + r"\b.txt").lower(): patched + b"after the move"}
        assert set(pristine) <= set(replayed)
