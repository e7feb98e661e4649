"""Streaming incremental digests.

The contract under test, layer by layer:

* :class:`StreamingDigestState` must produce **bit-identical** digests to
  whole-buffer :func:`sdhash` for *every* chunking of the same bytes —
  including chunks smaller than one ``WINDOW``, anchors whose context
  straddles chunk boundaries, and the ``None`` gates (size / feature
  floors).
* The engine must stream append-only write patterns and fall back to the
  whole-content close path (counted per reason) on anything else:
  overwrites, seeks, truncates, handle interleaving, length mismatches.
* Detection output and checkpoints with streams must equal the eager
  reference's (``tests/reference.py``, which never streams), in plain
  runs and under an injected-fault chaos campaign.
"""

import random

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.core.filestate import DigestCache
from repro.corpus.wordlists import paragraphs
from repro.crypto import chacha20_xor
from repro.faults import FaultInjector, transient_faults
from repro.fs import DOCUMENTS, ProcessSuspended, TEMP, VirtualFileSystem
from repro.ransomware import instantiate, working_cohort
from repro.sandbox import run_sample
from repro.simhash import sdhash
from repro.simhash.sdhash import (MIN_DIGEST_BYTES, WINDOW,
                                  StreamingDigestState, _STREAM_TAIL)
from repro.telemetry import StreamDigestFinalized, event_from_dict

from tests.reference import (detection_output, eager_reference,
                             sdhash_scalar, verdict_checkpoint)

KEY, NONCE = bytes(32), bytes(12)


def _text(seed, n=6000):
    return paragraphs(random.Random(seed), n).encode()


def _chunked(content, size):
    return [content[i:i + size] for i in range(0, len(content), size)]


def _random_chunks(content, seed):
    rng = random.Random(seed)
    out, i = [], 0
    while i < len(content):
        step = rng.randrange(1, 4096)
        out.append(content[i:i + step])
        i += step
    return out


def _stream(chunks, min_stream_bytes=0):
    state = StreamingDigestState(min_stream_bytes=min_stream_bytes)
    for chunk in chunks:
        state.update(chunk)
    return state


def _assert_same(got, ref):
    if ref is None:
        assert got is None
        return
    assert got is not None
    assert got.hexdigest() == ref.hexdigest()
    assert got.n_features == ref.n_features
    assert got.source_len == ref.source_len
    assert len(got) == len(ref)


class TestBitIdentity:
    # chunkings that exercise every boundary class: sub-window chunks
    # (anchors + their 8-byte rolling context straddle chunk joins),
    # exactly-one-window, one-past-the-carried-tail, page-ish, ragged
    CHUNKS = [7, 63, WINDOW, WINDOW + 1, _STREAM_TAIL, _STREAM_TAIL + 1,
              1024, 4096]

    def _contents(self):
        rng = random.Random(5)
        return [
            rng.randbytes(MIN_DIGEST_BYTES),       # exactly at the floor
            rng.randbytes(30_000),                 # anchor-dense
            _text(1, 9000),                        # realistic document
            bytes(4096),                           # zeros: typed, gated
            _text(2, 40_000) + rng.randbytes(2000),
        ]

    def test_matrix_matches_whole_buffer(self):
        for content in self._contents():
            ref = sdhash(content)
            for size in self.CHUNKS:
                got = _stream(_chunked(content, size)).finalize()
                _assert_same(got, ref)
            got = _stream(_random_chunks(content, 23)).finalize()
            _assert_same(got, ref)
            got = _stream([content]).finalize()  # whole buffer at once
            _assert_same(got, ref)

    def test_single_byte_chunks(self):
        # the worst chunking there is: every anchor context, window and
        # popularity neighbourhood straddles a chunk boundary
        content = _text(3, 700)
        ref = sdhash(content)
        _assert_same(_stream(_chunked(content, 1)).finalize(), ref)

    def test_matches_scalar_reference(self):
        content = _text(4, 8000)
        got = _stream(_chunked(content, 100)).finalize()
        ref = sdhash_scalar(content)
        _assert_same(got, ref)

    def test_none_gates_match(self):
        rng = random.Random(9)
        for content in (b"", b"short", rng.randbytes(WINDOW - 1),
                        rng.randbytes(MIN_DIGEST_BYTES - 1), bytes(2048),
                        b"ab" * 40):
            got = _stream(_chunked(content, 5)).finalize()
            _assert_same(got, sdhash(content))

    def test_empty_chunks_are_no_ops(self):
        content = _text(6, 3000)
        state = StreamingDigestState()
        for chunk in _chunked(content, 512):
            state.update(b"")
            state.update(chunk)
        state.update(b"")
        _assert_same(state.finalize(), sdhash(content))

    def test_key_matches_digest_cache_key(self):
        content = _text(7, 2000)
        state = _stream(_chunked(content, 333))
        assert state.key() == DigestCache.key(content)

    def test_finalize_twice_raises(self):
        state = _stream([b"x" * 1000])
        state.finalize()
        with pytest.raises(RuntimeError):
            state.finalize()


class TestBufferedMode:
    def test_threshold_crossing_preserves_identity(self):
        content = _text(8, 20_000)
        ref = sdhash(content)
        for threshold in (1, 100, 5000, len(content), len(content) + 1,
                          10 ** 9):
            state = _stream(_chunked(content, 777),
                            min_stream_bytes=threshold)
            assert state.streaming == (threshold <= len(content))
            _assert_same(state.finalize(), ref)

    def test_buffered_until_threshold(self):
        state = StreamingDigestState(min_stream_bytes=1000)
        state.update(b"a" * 999)
        assert not state.streaming
        state.update(b"b")  # crosses: replays the buffered refs
        assert state.streaming
        assert state.total == 1000

    def test_key_only_keeps_no_chunks(self):
        content = _text(9, 20_000)
        state = _stream(_chunked(content, 777), min_stream_bytes=None)
        assert not state.streaming
        assert state.chunks_consumed == 0
        assert state.total == len(content)
        assert state.key() == DigestCache.key(content)
        with pytest.raises(RuntimeError):
            state.finalize()


@pytest.fixture
def env():
    def make(**overrides):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        vfs._ensure_dirs(TEMP)
        for i in range(12):
            vfs.peek_write(DOCUMENTS / f"doc{i}.txt", _text(i))
        overrides.setdefault("stream_digest_min_bytes", 0)
        config = CryptoDropConfig(telemetry_enabled=True, **overrides)
        monitor = CryptoDropMonitor(vfs, config=config).attach()
        pid = vfs.processes.spawn("sample.exe").pid
        return vfs, monitor, pid
    return make


def _encrypt_in_place(vfs, pid, path):
    handle = vfs.open(pid, path, "rw")
    data = vfs.read(pid, handle)
    vfs.seek(pid, handle, 0)
    vfs.write(pid, handle, chacha20_xor(KEY, NONCE, data))
    vfs.close(pid, handle)


def _run_encryptor(vfs, monitor, pid):
    try:
        for i in range(12):
            _encrypt_in_place(vfs, pid, DOCUMENTS / f"doc{i}.txt")
    except ProcessSuspended:
        pass


def _plant(vfs, path, seed=99):
    """Put a previous version at ``path``: a rewrite of it compares, so
    its handle streams (a file its writer creates has no baseline)."""
    vfs.peek_write(path, _text(seed))


def _append_file(vfs, pid, path, chunks):
    handle = vfs.open(pid, path, "w", create=True, truncate=True)
    for chunk in chunks:
        vfs.write(pid, handle, chunk)
    vfs.close(pid, handle)


class TestEngineStreaming:
    def test_append_only_writes_stream_the_close(self, env):
        vfs, monitor, pid = env()
        content = _text(50, 30_000)
        _append_file(vfs, pid, DOCUMENTS / "fresh.txt",
                     _chunked(content, 4096))
        # re-open and rewrite the whole file at offset 0: still a valid
        # stream (the write mirrors the final content exactly)
        _encrypt_in_place(vfs, pid, DOCUMENTS / "fresh.txt")
        stats = monitor.engine.stream_stats()
        assert stats["enabled"]
        assert stats["started"] >= 2
        assert stats["finalized"] >= 1
        assert stats["bytes_streamed"] >= len(content)
        assert stats["in_flight"] == 0
        assert monitor.stats()["streaming"] == stats
        dc = monitor.engine.cache.digest_cache
        assert dc.stats()["bytes_streamed"] >= len(content)

    def test_streamed_digest_matches_whole_file(self, env):
        vfs, monitor, pid = env()
        content = _text(51, 20_000)
        _plant(vfs, DOCUMENTS / "streamed.bin")
        _append_file(vfs, pid, DOCUMENTS / "streamed.bin",
                     _chunked(content, 1000))
        node_id = vfs.peek_stat(DOCUMENTS / "streamed.bin").node_id
        record = monitor.engine.cache.get(node_id)
        assert record is not None and record.base_digest is not None
        assert record.base_digest.hexdigest() == sdhash(content).hexdigest()

    def test_nonsequential_write_falls_back(self, env):
        vfs, monitor, pid = env()
        handle = vfs.open(pid, DOCUMENTS / "seeky.txt", "w", create=True)
        vfs.write(pid, handle, b"a" * 1000)
        vfs.seek(pid, handle, 0)
        vfs.write(pid, handle, b"b" * 10)
        vfs.close(pid, handle)
        stats = monitor.engine.stream_stats()
        assert stats["fallbacks"].get("nonsequential", 0) >= 1
        assert stats["finalized"] == 0

    def test_truncate_falls_back(self, env):
        vfs, monitor, pid = env()
        handle = vfs.open(pid, DOCUMENTS / "trunc.txt", "w", create=True)
        vfs.write(pid, handle, b"c" * 1000)
        vfs.truncate_handle(pid, handle, 100)
        vfs.close(pid, handle)
        stats = monitor.engine.stream_stats()
        assert stats["fallbacks"].get("truncate", 0) >= 1

    def test_reopen_with_truncate_drops_other_handles_stream(self, env):
        vfs, monitor, pid = env()
        h1 = vfs.open(pid, DOCUMENTS / "reopen.txt", "w", create=True)
        vfs.write(pid, h1, b"d" * 2000)
        vfs.open(pid, DOCUMENTS / "reopen.txt", "w", truncate=True)
        stats = monitor.engine.stream_stats()
        assert stats["fallbacks"].get("truncate", 0) >= 1
        assert stats["in_flight"] == 0

    def test_handle_interleave_falls_back(self, env):
        vfs, monitor, pid = env()
        h1 = vfs.open(pid, DOCUMENTS / "shared.txt", "w", create=True)
        vfs.write(pid, h1, b"e" * 1500)
        h2 = vfs.open(pid, DOCUMENTS / "shared.txt", "rw")
        vfs.seek(pid, h2, 1500)
        vfs.write(pid, h2, b"f" * 10)
        stats = monitor.engine.stream_stats()
        assert stats["fallbacks"].get("handle_interleave", 0) >= 1
        vfs.close(pid, h2)
        vfs.close(pid, h1)

    def test_partial_overwrite_is_a_length_mismatch(self, env):
        vfs, monitor, pid = env()
        # doc0 holds ~6000 bytes; an offset-0 write of 100 starts a
        # stream that never sees the surviving tail
        handle = vfs.open(pid, DOCUMENTS / "doc0.txt", "rw")
        vfs.write(pid, handle, b"g" * 100)
        vfs.close(pid, handle)
        stats = monitor.engine.stream_stats()
        assert stats["fallbacks"].get("length_mismatch", 0) >= 1
        assert stats["finalized"] == 0

    def test_buffered_below_threshold_is_not_a_fallback(self, env):
        vfs, monitor, pid = env(stream_digest_min_bytes=1 << 20)
        _append_file(vfs, pid, DOCUMENTS / "small.txt",
                     _chunked(_text(52, 5000), 512))
        stats = monitor.engine.stream_stats()
        assert stats["started"] >= 1
        # never crossed the threshold: no numpy work was done, the close
        # takes the whole-content path without counting a fallback
        assert stats["finalized"] == 0
        assert stats["fallbacks"] == {}


class TestStreamedCloseWork:
    """What a streamed close saves, counted rather than timed: every
    whole-buffer digest the engine can take (``inspect``'s live sdhash
    and the scheduler's ``digest_many`` flush) is recorded by size."""

    SIZE, CHUNK = 512 * 1024, 64 * 1024
    #: the planted previous version, a different size from the rewrite
    BASELINE = _text(61, SIZE // 4)

    @pytest.fixture
    def whole_digests(self, monkeypatch):
        import repro.core.filestate as filestate
        import repro.core.schedule as schedule
        sizes = []
        real_sdhash, real_many = filestate._sdhash, schedule.digest_many

        def counting_sdhash(content):
            sizes.append(len(content))
            return real_sdhash(content)

        def counting_many(contents, **kwargs):
            sizes.extend(len(content) for content in contents)
            return real_many(contents, **kwargs)

        monkeypatch.setattr(filestate, "_sdhash", counting_sdhash)
        monkeypatch.setattr(schedule, "digest_many", counting_many)
        return sizes

    def _write(self, front_to_back):
        """A planted file rewritten in chunks through a truncating open,
        closed and flushed; the LRU is off so no key hit can stand in for
        the digest under test."""
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        config = CryptoDropConfig(stream_digest_min_bytes=0,
                                  digest_cache_entries=0,
                                  max_inspect_bytes=2 * self.SIZE)
        monitor = CryptoDropMonitor(vfs, config).attach()
        pid = vfs.processes.spawn("writer.exe").pid
        content = _text(60, self.SIZE)
        path = DOCUMENTS / "archive.dat"
        vfs.peek_write(path, self.BASELINE)
        handle = vfs.open(pid, path, "w", truncate=True)
        offsets = range(0, len(content), self.CHUNK)
        for offset in (offsets if front_to_back else reversed(offsets)):
            vfs.seek(pid, handle, offset)
            vfs.write(pid, handle, content[offset:offset + self.CHUNK])
        vfs.close(pid, handle)
        monitor.flush_inspections()
        record = monitor.engine.cache.get(vfs.peek_stat(path).node_id)
        return content, monitor.engine.stream_stats(), record

    def test_streamed_close_calls_no_whole_buffer_sdhash(self, whole_digests):
        content, stats, record = self._write(front_to_back=True)
        # the one whole-buffer digest is the baseline the comparison reads
        assert whole_digests == [len(self.BASELINE)]
        assert stats["finalized"] == 1
        assert stats["bytes_streamed"] == len(content)
        assert record.base_digest.hexdigest() == sdhash(content).hexdigest()
        # the same bytes written back to front are no stream: the close
        # pays for one more whole-buffer digest, the content's
        del whole_digests[:]
        content, stats, _ = self._write(front_to_back=False)
        assert whole_digests == [len(self.BASELINE), len(content)]
        assert stats["finalized"] == 0

    def test_append_only_stream_ends_with_no_fallbacks(self):
        _, stats, _ = self._write(front_to_back=True)
        assert stats["fallbacks"] == {}
        assert stats["started"] == stats["finalized"] == 1
        assert stats["in_flight"] == 0


class TestDigestOnlyWhatIsCompared:
    """Only a handle whose close compares runs the digest pipeline; every
    sole-writer sequential handle keeps its running content key, which
    its close reuses, so no written byte is hashed twice."""

    @pytest.fixture
    def work(self, monkeypatch):
        """Calls into the numpy stream pipeline and bytes hashed by
        ``DigestCache.key``."""
        calls = {"consume": 0, "key_bytes": []}
        consume, key = StreamingDigestState._consume, DigestCache.key

        def counting_consume(state, chunk):
            calls["consume"] += 1
            return consume(state, chunk)

        def counting_key(content):
            calls["key_bytes"].append(len(content))
            return key(content)

        monkeypatch.setattr(StreamingDigestState, "_consume",
                            counting_consume)
        monkeypatch.setattr(DigestCache, "key", staticmethod(counting_key))
        return calls

    def test_new_file_defers_with_its_running_key(self, env, work):
        vfs, monitor, pid = env(stream_digest_min_bytes=8 * 1024)
        content = _text(55, 40_000)
        path = DOCUMENTS / "export.txt"
        handle = vfs.open(pid, path, "w", create=True, truncate=True)
        for chunk in _chunked(content, 4096):
            vfs.write(pid, handle, chunk)
        del work["key_bytes"][:]
        vfs.close(pid, handle)
        # no close compares a new file, so its handle did no numpy work
        # and its close hashed nothing
        assert work == {"consume": 0, "key_bytes": []}
        stats = monitor.engine.stream_stats()
        assert stats["finalized"] == 0 and stats["fallbacks"] == {}
        record = monitor.engine.cache.get(vfs.peek_stat(path).node_id)
        assert record.pending_content == content
        assert record.base_digest is None
        assert record.pending_key == DigestCache.key(content)
        monitor.flush_inspections()
        assert record.base_digest.hexdigest() == sdhash(content).hexdigest()

    def test_comparing_close_below_threshold_reuses_running_key(
            self, env, work):
        vfs, monitor, pid = env(stream_digest_min_bytes=1 << 20)
        content = _text(56, 20_000)
        path = DOCUMENTS / "doc3.txt"
        # the truncating open captures the previous version's key
        handle = vfs.open(pid, path, "w", truncate=True)
        del work["key_bytes"][:]
        for chunk in _chunked(content, 4096):
            vfs.write(pid, handle, chunk)
        vfs.close(pid, handle)
        # buffered below the threshold: the close digests the whole
        # content, keyed by the stream's running hash alone
        assert work == {"consume": 0, "key_bytes": []}
        record = monitor.engine.cache.get(vfs.peek_stat(path).node_id)
        assert record.base_digest.hexdigest() == sdhash(content).hexdigest()
        found = monitor.engine.cache.digest_cache.get(
            DigestCache.key(content))
        assert found is not None and found.digest is record.base_digest


class TestStreamingIdentity:
    """Streamed runs against the eager reference ("off": it never
    streams).  Streams never checkpoint, but their lifetime counters do."""

    def test_detection_output_identical_streaming_on_off(self, env):
        vfs, monitor, pid = env()
        _run_encryptor(vfs, monitor, pid)
        assert monitor.engine.stream_stats()["finalized"] >= 1
        streamed = detection_output(monitor, pid)
        with eager_reference():
            vfs, monitor, pid = env()
            _run_encryptor(vfs, monitor, pid)
        assert detection_output(monitor, pid) == streamed

    def test_checkpoints_identical_streaming_on_off(self, env):
        vfs, monitor, pid = env()
        _run_encryptor(vfs, monitor, pid)
        streamed = verdict_checkpoint(monitor)
        with eager_reference():
            vfs, monitor, pid = env()
            _run_encryptor(vfs, monitor, pid)
        assert verdict_checkpoint(monitor) == streamed

    @pytest.mark.chaos
    def test_chaos_campaign_verdicts_identical_streaming_on_off(
            self, machine):
        def verdict(result):
            return (result.sample_name, result.detected, result.suspended,
                    result.files_lost, result.score, result.threshold,
                    result.union_fired, sorted(result.flags), result.error,
                    result.completed)

        subset = [s.profile for s in working_cohort()
                  if s.profile.family in ("xorist", "teslacrypt")][:4]
        plan = transient_faults(seed=41, deny_rate=0.05,
                                short_read_rate=0.05,
                                latency_spike_rate=0.02)
        config = CryptoDropConfig(stream_digest_min_bytes=0)

        def sweep():
            injector = FaultInjector(plan)
            machine.vfs.filters.attach(injector)
            try:
                results = [run_sample(machine, instantiate(p), config)
                           for p in subset]
            finally:
                machine.vfs.filters.detach(injector)
            assert injector.stats()["ops_seen"] > 0
            return [verdict(r) for r in results]

        streamed = sweep()
        with eager_reference():
            assert sweep() == streamed

    def test_stream_counters_survive_checkpoint(self, env):
        vfs, monitor, pid = env()
        _plant(vfs, DOCUMENTS / "persist.txt")
        _append_file(vfs, pid, DOCUMENTS / "persist.txt",
                     _chunked(_text(53, 10_000), 1024))
        before = monitor.engine.stream_stats()
        assert before["finalized"] >= 1
        restored = CryptoDropMonitor.from_checkpoint(
            VirtualFileSystem(), monitor.checkpoint(),
            config=CryptoDropConfig(telemetry_enabled=True,
                                    stream_digest_min_bytes=0))
        after = restored.engine.stream_stats()
        for key in ("started", "finalized", "bytes_streamed", "fallbacks"):
            assert after[key] == before[key]
        assert after["in_flight"] == 0


class TestSchedulerWatermark:
    def test_cap_forces_flush(self, env):
        vfs, monitor, pid = env(scheduler_pending_bytes_cap=1000)
        scheduler = monitor.engine.scheduler
        assert scheduler.pending_bytes_cap == 1000
        _run_encryptor(vfs, monitor, pid)
        stats = scheduler.stats()
        assert stats["forced_flushes"] >= 1
        assert stats["pending_bytes"] <= 1000

    def test_pending_bytes_tracks_gauge(self, env):
        vfs, monitor, pid = env()
        scheduler = monitor.engine.scheduler
        content = vfs.peek_read(DOCUMENTS / "doc1.txt")
        handle = vfs.open(pid, DOCUMENTS / "doc1.txt", "rw")
        vfs.write(pid, handle, b"x")
        assert scheduler.pending_bytes == len(content)
        gauge = monitor.telemetry_export()["metrics"][
            "cryptodrop_scheduler_pending_bytes"]["state"]
        assert gauge[0][1] == float(len(content))
        monitor.flush_inspections()
        assert scheduler.pending_bytes == 0
        gauge = monitor.telemetry_export()["metrics"][
            "cryptodrop_scheduler_pending_bytes"]["state"]
        assert gauge[0][1] == 0.0
        vfs.close(pid, handle)

    def test_discard_releases_pending_bytes(self, env):
        vfs, monitor, pid = env()
        scheduler = monitor.engine.scheduler
        dc = monitor.engine.cache.digest_cache
        # the delete's pre-op capture defers (and enqueues) the baseline;
        # the node then leaves the cache and its slot is discarded
        vfs.delete(pid, DOCUMENTS / "doc2.txt")
        assert dc.deferred == 1
        assert scheduler.pending_bytes == 0 and len(scheduler) == 0
        gauge = monitor.telemetry_export()["metrics"][
            "cryptodrop_scheduler_pending_bytes"]["state"]
        assert gauge[0][1] == 0.0

    def test_zero_cap_never_forces(self, env):
        vfs, monitor, pid = env()  # default test config: cap from config
        _run_encryptor(vfs, monitor, pid)
        # the default 64 MiB cap is far above what 12 docs can pend
        assert monitor.engine.scheduler.stats()["forced_flushes"] == 0


class TestStreamingTelemetry:
    def test_streamed_close_emits_event_and_counters(self, env):
        vfs, monitor, pid = env()
        content = _text(54, 15_000)
        _plant(vfs, DOCUMENTS / "telem.txt")
        _append_file(vfs, pid, DOCUMENTS / "telem.txt",
                     _chunked(content, 2048))
        events = monitor.telemetry.bus.events("stream_digest_finalized")
        assert events, "streamed close must emit StreamDigestFinalized"
        event = events[-1]
        assert event.size == len(content)
        assert event.chunks == len(_chunked(content, 2048))
        assert event.features > 0
        assert event.path.endswith("telem.txt")
        metrics = monitor.telemetry_export()["metrics"]
        streamed = metrics[
            "cryptodrop_incremental_digest_bytes_total"]["state"]
        assert streamed and streamed[0][1] >= float(len(content))

    def test_fallback_counter_labelled_by_reason(self, env):
        vfs, monitor, pid = env()
        handle = vfs.open(pid, DOCUMENTS / "fb.txt", "w", create=True)
        vfs.write(pid, handle, b"h" * 800)
        vfs.seek(pid, handle, 0)
        vfs.write(pid, handle, b"i")
        vfs.close(pid, handle)
        metrics = monitor.telemetry_export()["metrics"]
        state = metrics["cryptodrop_stream_digest_fallback_total"]["state"]
        reasons = {dict(map(tuple, labels)).get("reason"): value
                   for labels, value in state}
        assert reasons.get("nonsequential", 0) >= 1

    def test_event_roundtrips_through_dict(self):
        event = StreamDigestFinalized(12.5, path="x.txt", size=9,
                                      features=3, chunks=2)
        assert event_from_dict(event.as_dict()) == event

    def test_ingest_shard_reports_stream_stats(self, machine):
        from repro.ingest import MonitorShard
        shard = MonitorShard("tenant-x", machine, [],
                             config=CryptoDropConfig(telemetry_enabled=True))
        assert shard.stats()["streaming"] is None  # not started yet
        shard.start()
        try:
            streaming = shard.stats()["streaming"]
            assert streaming is not None and streaming["enabled"]
        finally:
            shard.stop()
