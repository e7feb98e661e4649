"""Batched digest kernel + deferred inspection scheduler.

* :func:`digest_many` must produce byte-identical digests (and so
  integer scores) to the per-file vectorised and scalar implementations
  over ragged batches — empty inputs, sub-window blobs,
  boundary sizes, multi-group spans.
* The :class:`InspectionScheduler` must really route deferred captures
  through the batched kernel, flush on demand, and account its pending
  bytes exactly — and the batched engine's detection output and
  checkpoints must equal the eager reference's (``tests/reference.py``,
  which has no scheduler; random op sequences against it are
  ``tests/test_differential.py``).
* The incremental write-entropy path (running per-handle histograms fed
  through ``corrected_entropy_from_counts``) must equal re-counting the
  full stream, and the batched store build must equal the serial one.
"""

import importlib
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.core.filestate import DigestCache, FileStateCache
from repro.corpus.baselines import BaselineStore
from repro.corpus.wordlists import paragraphs
from repro.crypto import chacha20_xor
from repro.entropy import (WeightedEntropyMean, corrected_entropies_from_histograms,
                           corrected_entropy, corrected_entropy_from_counts,
                           histograms_many)
from repro.fs import DOCUMENTS, ProcessSuspended, TEMP, VirtualFileSystem
from repro.simhash import digest_many, sdhash
from repro.simhash.sdhash import (MIN_DIGEST_BYTES, WINDOW,
                                  StreamingDigestState, _anchor_positions)

from tests.reference import (build_store_serial, detection_output,
                             eager_reference, sdhash_scalar,
                             verdict_checkpoint)
from tests.test_sdhash_golden import INPUTS as GOLDEN_INPUTS

KEY, NONCE = bytes(32), bytes(12)


def _text(seed, n=6000):
    return paragraphs(random.Random(seed), n).encode()


def _ragged_batch():
    rng = random.Random(7)
    return [
        b"",                                   # empty
        b"short",                              # far below the digest floor
        rng.randbytes(WINDOW - 1),             # shorter than one window
        rng.randbytes(MIN_DIGEST_BYTES - 1),   # one byte under the floor
        rng.randbytes(MIN_DIGEST_BYTES),       # exactly at the floor
        bytes(2048),                           # zeros: typed, no features
        _text(1, 700),
        _text(2, 9000),
        rng.randbytes(4096),
        _text(3, 40_000),
        _text(2, 9000),                        # duplicate content
        b"ab" * 40,
    ]


class TestDigestMany:
    def test_empty_batch(self):
        assert digest_many([]) == []

    def test_bit_identical_to_per_file_paths(self):
        batch = _ragged_batch()
        results = digest_many(batch)
        assert len(results) == len(batch)
        for blob, got in zip(batch, results):
            vec = sdhash(blob)
            ref = sdhash_scalar(blob)
            if ref is None:
                assert vec is None and got is None
                continue
            assert got.hexdigest() == vec.hexdigest() == ref.hexdigest()
            assert got.n_features == ref.n_features
            assert len(got) == len(ref)
            assert got.source_len == ref.source_len

    def test_span_grouping_preserves_identity(self, monkeypatch):
        # force several concatenation groups so the group-boundary
        # bookkeeping (offsets, anchor filtering, popularity gaps) runs
        # the package re-exports the sdhash *function* under the same
        # name, so fetch the module itself
        mod = importlib.import_module("repro.simhash.sdhash")
        monkeypatch.setattr(mod, "_BATCH_SPAN_BYTES", 10_000)
        batch = _ragged_batch()
        for blob, got in zip(batch, mod.digest_many(batch)):
            ref = sdhash(blob)
            if ref is None:
                assert got is None
            else:
                assert got.hexdigest() == ref.hexdigest()

    def test_random_ragged_batches(self):
        rng = random.Random(11)
        for _ in range(5):
            batch = [rng.randbytes(rng.randrange(0, 3000))
                     + _text(rng.randrange(50), rng.randrange(0, 3000))
                     for _ in range(rng.randrange(1, 12))]
            for blob, got in zip(batch, digest_many(batch)):
                ref = sdhash(blob)
                if ref is None:
                    assert got is None
                else:
                    assert got.hexdigest() == ref.hexdigest()


class TestKernelMemory:
    """The kernel's transient memory stays a small multiple of its input:
    window rows are gathered one block at a time and a batch pass spans
    at most ``_BATCH_SPAN_BYTES``."""

    @staticmethod
    def _text(seed, size):
        rng = random.Random(seed)
        pool = [_text(seed * 1000 + i, 4000) for i in range(32)]
        parts, total = [], 0
        while total < size:
            parts.append(rng.choice(pool))
            total += len(parts[-1])
        return b"".join(parts)[:size]

    @staticmethod
    def _peak(fn, arg):
        """Peak bytes traced while ``fn(arg)`` runs, above what was
        already allocated."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(arg)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    def test_sdhash_peak_under_four_times_its_input(self):
        content = self._text(1, 4 << 20)
        assert self._peak(sdhash, content) < 4 * len(content)

    def test_digest_many_peak_under_24_mib_for_8_mib(self):
        blobs = [self._text(2 + i, 2 << 20) for i in range(4)]
        assert self._peak(digest_many, blobs) < 24 << 20

    def test_a_save_digest_lent_its_new_version_peaks_under_3_25x(self):
        """The old-version digest of a streamed save (3.8 MiB, one 4 KiB
        block in twenty rewritten) with the new version's
        ``WindowReference``: the reference's chunk table and SHA-1 rows
        are built inside the call, as on a close."""
        rng = random.Random(4)
        old = self._text(4, 3_984_588)
        filler = self._text(5, len(old))
        new = b"".join(
            (filler if rng.random() < 0.05 else old)[at:at + 4096]
            for at in range(0, len(old), 4096))
        state = StreamingDigestState()
        for at in range(0, len(new), 64 << 10):
            state.update(new[at:at + (64 << 10)])
        reference = state.window_reference(new)
        peak = self._peak(
            lambda blob: digest_many([blob], reference=reference), old)
        assert reference.reused > 4 * reference.computed
        assert peak < 3.25 * len(old)


class _TermLookups:
    """Stands in for ``numpy`` inside ``repro.simhash.sdhash`` and counts
    the histogram cells folded through the entropy term table (the
    kernel's only ``np.take``)."""

    def __init__(self):
        self.cells = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, table, counts, *args, **kwargs):
        self.cells += counts.size
        return np.take(table, counts, *args, **kwargs)


class TestEntropyWork:
    """The window-entropy pass histograms only the byte range a digest's
    windows can reach: ASCII text fills at most 120 bins per window,
    ciphertext all 256, bytes from one end group 8, and each blob of a
    batch its own range.  A work count, not a timing."""

    @staticmethod
    def _cells_per_window(monkeypatch, content):
        spy = _TermLookups()
        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("repro.simhash.sdhash"),
                          "np", spy)
            sdhash(content)
        windows = _anchor_positions(np.frombuffer(content, np.uint8)).size
        return spy.cells / windows

    def test_text_fills_at_most_120_bins_per_window(self, monkeypatch):
        for size in (4096, 11_000, 65_536, 300_000):
            content = GOLDEN_INPUTS[f"text/{size}"]
            assert self._cells_per_window(monkeypatch, content) <= 120, size

    def test_ciphertext_fills_all_256_bins_per_window(self, monkeypatch):
        content = GOLDEN_INPUTS["cipher/300000"]
        assert self._cells_per_window(monkeypatch, content) == 256

    def test_a_mixed_batch_fills_each_blobs_own_range(self, monkeypatch):
        # one binary blob must not widen the text blobs' windows to 256
        blobs = [GOLDEN_INPUTS["text/300000"], GOLDEN_INPUTS["cipher/300000"],
                 GOLDEN_INPUTS["text/65536"]]
        own = 0
        for blob in blobs:
            buf = np.frombuffer(blob, np.uint8)
            width = ((int(buf.max()) | 7) + 1) - (int(buf.min()) & ~7)
            own += _anchor_positions(buf).size * width
        spy = _TermLookups()
        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("repro.simhash.sdhash"),
                          "np", spy)
            digests = digest_many(blobs)
        assert spy.cells == own
        assert [d.hexdigest() for d in digests] == \
            [sdhash(blob).hexdigest() for blob in blobs]

    def test_an_end_group_fills_eight_bins_per_window(self, monkeypatch):
        # one extreme byte value is not the whole range
        rng = np.random.default_rng(19)
        for lo in (0, 248):
            content = rng.integers(lo, lo + 8, 20_000, np.uint8).tobytes()
            assert self._cells_per_window(monkeypatch, content) == 8, lo


@pytest.fixture
def env():
    def make(**overrides):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        vfs._ensure_dirs(TEMP)
        for i in range(12):
            vfs.peek_write(DOCUMENTS / f"doc{i}.txt", _text(i))
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


class TestSchedulerIdentity:
    """The scheduler is the engine's only digest path, and it runs.  The
    "off" side of each comparison is the eager reference."""

    def test_detection_output_identical_batch_on_off(self, env):
        vfs, monitor, pid = env()
        _run_encryptor(vfs, monitor, pid)
        batched = detection_output(monitor, pid)
        assert batched["detections"]
        with eager_reference():
            vfs, monitor, pid = env()
            _run_encryptor(vfs, monitor, pid)
        assert detection_output(monitor, pid) == batched

    def test_eager_path_identical_too(self, env):
        # a one-byte watermark flushes every capture as it is enqueued:
        # the production path at its most eager
        vfs, monitor, pid = env(scheduler_pending_bytes_cap=1)
        _run_encryptor(vfs, monitor, pid)
        assert monitor.stats()["scheduler"]["forced_flushes"] >= 1
        eager = detection_output(monitor, pid)
        with eager_reference():
            vfs, monitor, pid = env()
            _run_encryptor(vfs, monitor, pid)
        assert detection_output(monitor, pid) == eager

    def test_checkpoints_identical_batch_on_off(self, env):
        vfs, monitor, pid = env()
        _run_encryptor(vfs, monitor, pid)
        batched = verdict_checkpoint(monitor)
        with eager_reference():
            vfs, monitor, pid = env()
            _run_encryptor(vfs, monitor, pid)
        assert verdict_checkpoint(monitor) == batched

    def test_batched_run_actually_flushes(self, env):
        vfs, monitor, pid = env()
        _run_encryptor(vfs, monitor, pid)
        stats = monitor.stats()["scheduler"]
        assert stats["flushes"] >= 1
        assert stats["materialised"] >= 1
        assert stats["max_batch"] >= 1


class TestSchedulerMechanics:
    def test_captures_enqueue_and_score_read_never_flushes(self, env):
        vfs, monitor, pid = env()
        scheduler = monitor.engine.scheduler
        # first write captures a baseline; with lazy digests on and no
        # comparison yet, the capture defers and enqueues
        handle = vfs.open(pid, DOCUMENTS / "doc0.txt", "rw")
        vfs.write(pid, handle, b"x")
        assert len(scheduler) >= 1
        # a pending digest is score-neutral by construction, so score
        # reads must not drain the scheduler (that would digest bytes
        # the lazy reference path never touches)
        monitor.score_of(pid)
        assert len(scheduler) >= 1
        assert monitor.flush_inspections() >= 1
        assert len(scheduler) == 0
        vfs.close(pid, handle)

    def test_deleted_pending_bytes_never_digested(self, env):
        vfs, monitor, pid = env()
        scheduler = monitor.engine.scheduler
        dc = monitor.engine.cache.digest_cache
        handle = vfs.open(pid, DOCUMENTS / "doc1.txt", "rw")
        vfs.write(pid, handle, b"y")
        vfs.close(pid, handle)
        vfs.delete(pid, DOCUMENTS / "doc1.txt")
        before = dc.bytes_digested
        assert monitor.flush_inspections() == 0 or True  # nothing orphaned
        monitor.checkpoint()
        # doc1's pending versions died with the node: nothing about them
        # was digested by the flush
        assert scheduler.stats()["pending"] == 0
        assert dc.bytes_digested == before

    def test_flush_emits_telemetry(self, env):
        vfs, monitor, pid = env()
        handle = vfs.open(pid, DOCUMENTS / "doc2.txt", "rw")
        vfs.write(pid, handle, b"z")
        drained = monitor.flush_inspections()
        vfs.close(pid, handle)
        assert drained >= 1
        kinds = [e.kind for e in monitor.telemetry.bus.events()]
        assert "digest_batch_flushed" in kinds
        metrics = monitor.telemetry_export()["metrics"]
        batches = metrics["cryptodrop_digest_batches_total"]["state"]
        assert batches and batches[0][1] >= 1.0
        assert "cryptodrop_digest_batch_size" in metrics

    def test_pending_key_threaded_to_lru(self, env):
        vfs, monitor, pid = env()
        content = vfs.peek_read(DOCUMENTS / "doc3.txt")
        handle = vfs.open(pid, DOCUMENTS / "doc3.txt", "rw")
        vfs.write(pid, handle, b"k")
        record = monitor.engine.cache.get(
            vfs.peek_stat(DOCUMENTS / "doc3.txt").node_id)
        assert record.pending_content == content
        assert record.pending_key == DigestCache.key(content)
        monitor.flush_inspections()
        assert record.pending_key is None
        found = monitor.engine.cache.digest_cache.get(
            DigestCache.key(content))
        assert found is not None and found.digested
        vfs.close(pid, handle)

    def test_move_over_releases_the_moved_slot(self, env):
        # Class-C move-over: a new file, closed (its digest deferred), is
        # renamed over a document whose baseline is already digested.  The
        # moved node's record is replaced by the linked one, and its
        # pending slot must go with it.
        vfs, monitor, pid = env()
        scheduler = monitor.engine.scheduler
        victim = DOCUMENTS / "doc7.txt"
        _encrypt_in_place(vfs, pid, victim)      # victim baseline digested
        assert scheduler.pending_bytes == 0
        staged = DOCUMENTS / "doc7.txt.new"
        handle = vfs.open(pid, staged, "w", create=True)
        vfs.write(pid, handle, _text(70, 4000)[:3139])
        vfs.close(pid, handle)
        assert scheduler.pending_bytes == 3139
        vfs.rename(pid, staged, victim)
        record = monitor.engine.cache.get(vfs.peek_stat(victim).node_id)
        assert record.pending_content is None
        assert scheduler.pending_bytes == 0 and len(scheduler) == 0
        gauge = monitor.telemetry_export()["metrics"][
            "cryptodrop_scheduler_pending_bytes"]["state"]
        assert gauge[0][1] == 0.0
        # nothing orphaned is left for the next flush to resolve
        assert monitor.flush_inspections() == 0

    def test_comparison_materialises_only_its_own_baseline(self, env):
        vfs, monitor, pid = env()
        scheduler = monitor.engine.scheduler
        # a new file's close defers its digest: nothing compares it
        content = _text(80, 9000)
        fresh = DOCUMENTS / "fresh.txt"
        handle = vfs.open(pid, fresh, "w", create=True)
        vfs.write(pid, handle, content)
        vfs.close(pid, handle)
        record = monitor.engine.cache.get(vfs.peek_stat(fresh).node_id)
        assert record.pending_content == content
        pending, pending_bytes = len(scheduler), scheduler.pending_bytes
        # rewriting a document compares: its baseline alone drains
        _encrypt_in_place(vfs, pid, DOCUMENTS / "doc5.txt")
        assert scheduler.materialised == 1
        assert record.pending_content == content and record.base_digest is None
        assert len(scheduler) == pending
        assert scheduler.pending_bytes == pending_bytes
        # a later flush digests it
        assert monitor.flush_inspections() == 1
        assert record.base_digest.hexdigest() == sdhash(content).hexdigest()

    def test_cap_drains_only_the_oldest_until_under_it(self, env,
                                                       monkeypatch):
        import repro.core.schedule as schedule
        batches = []
        real_many = schedule.digest_many

        def recording_many(contents, **kwargs):
            batches.append(list(contents))
            return real_many(contents, **kwargs)

        monkeypatch.setattr(schedule, "digest_many", recording_many)
        size = 20_000
        files = [_text(90 + i, size)[:size] for i in range(6)]
        # new files, which never digest as they stream: each close defers
        vfs, monitor, pid = env(scheduler_pending_bytes_cap=3 * size)
        scheduler = monitor.engine.scheduler
        for i, content in enumerate(files):
            before = len(batches)
            handle = vfs.open(pid, DOCUMENTS / f"new{i}.txt", "w",
                              create=True)
            for offset in range(0, size, 4096):
                vfs.write(pid, handle, content[offset:offset + 4096])
            vfs.close(pid, handle)
            digested = [blob for batch in batches[before:] for blob in batch]
            # from the fourth file on, each close drains the oldest one
            assert digested == (files[i - 3:i - 2] if i >= 3 else [])
            assert scheduler.pending_bytes <= scheduler.pending_bytes_cap
        assert scheduler.forced_flushes == 3
        monitor.flush_inspections()
        for i, content in enumerate(files):
            record = monitor.engine.cache.get(
                vfs.peek_stat(DOCUMENTS / f"new{i}.txt").node_id)
            assert record.base_digest.hexdigest() == \
                sdhash(content).hexdigest()

    def test_restore_clears_pending(self, env):
        vfs, monitor, pid = env()
        handle = vfs.open(pid, DOCUMENTS / "doc4.txt", "rw")
        vfs.write(pid, handle, b"r")
        vfs.close(pid, handle)
        state = monitor.checkpoint()
        assert len(monitor.engine.scheduler) == 0  # checkpoint flushed
        restored = CryptoDropMonitor.from_checkpoint(
            VirtualFileSystem(), state,
            config=CryptoDropConfig(telemetry_enabled=True))
        assert len(restored.engine.scheduler) == 0

    def test_flush_mirrors_inspect_counters(self):
        # storeless, LRU off: every flushed record must count one miss
        # and digest live, exactly as scalar inspect() would
        cache = FileStateCache(digest_cache_entries=0)
        scheduler = cache.scheduler
        blobs = [_text(20), _text(21), _text(20)]
        for i, blob in enumerate(blobs):
            cache.ensure_baseline(100 + i, DOCUMENTS / f"f{i}.txt", blob)
        assert len(scheduler) == 3
        drained = scheduler.flush()
        assert drained == 3
        dc = cache.digest_cache
        assert dc.misses == 6          # 3 deferred captures + 3 flushes
        assert dc.bytes_digested == sum(len(b) for b in blobs)
        for i, blob in enumerate(blobs):
            record = cache.get(100 + i)
            assert record.base_digest.hexdigest() == \
                sdhash(blob).hexdigest()


class TestIncrementalEntropy:
    BLOBS = [b"", b"\x00", bytes(256), random.Random(0).randbytes(2048),
             _text(5), chacha20_xor(KEY, NONCE, _text(6))]

    def test_counts_variant_bit_identical(self):
        for blob in self.BLOBS:
            counts = np.bincount(np.frombuffer(blob, np.uint8),
                                 minlength=256)
            assert corrected_entropy_from_counts(counts, len(blob)) == \
                corrected_entropy(blob)

    def test_histograms_many_bit_identical(self):
        hists = histograms_many(self.BLOBS)
        for i, blob in enumerate(self.BLOBS):
            ref = np.bincount(np.frombuffer(blob, np.uint8), minlength=256)
            assert (hists[i] == ref).all()
        ents = corrected_entropies_from_histograms(
            hists, [len(b) for b in self.BLOBS])
        for i, blob in enumerate(self.BLOBS):
            assert ents[i] == corrected_entropy(blob)

    def test_update_from_counts_matches_update(self):
        for corrected in (True, False):
            a = WeightedEntropyMean(corrected=corrected)
            b = WeightedEntropyMean(corrected=corrected)
            for blob in self.BLOBS:
                counts = np.bincount(np.frombuffer(blob, np.uint8),
                                     minlength=256)
                assert a.update(blob) == b.update_from_counts(counts,
                                                              len(blob))
            assert a.state() == b.state()

    def test_weighted_mean_identical_through_engine(self, env):
        # the per-op entropy deltas the engine folds must match feeding
        # the raw payloads straight into a reference mean
        vfs, monitor, pid = env()
        payloads = [chacha20_xor(KEY, NONCE, _text(i, 3000))
                    for i in range(3)]
        handle = vfs.open(pid, DOCUMENTS / "doc6.txt", "rw")
        for payload in payloads:
            vfs.write(pid, handle, payload)
        vfs.close(pid, handle)
        ref = WeightedEntropyMean(corrected=True)
        for payload in payloads:
            ref.update(payload)
        state = monitor.engine.entropy_state_of(pid)
        assert state.p_write.value == ref.value


class TestStoreBuildBatched:
    def _corpus(self, n=60):
        rng = random.Random(9)
        contents = {}
        for i in range(n):
            blob = (paragraphs(rng, rng.randrange(400, 2000)).encode()
                    if i % 3 else rng.randbytes(rng.randrange(100, 4000)))
            contents[f"/docs/f{i}"] = blob
        contents["/docs/dup"] = contents["/docs/f3"]
        return SimpleNamespace(contents=contents, seed=9)

    @staticmethod
    def _assert_stores_equal(a, b):
        assert a.fingerprint == b.fingerprint
        assert len(a) == len(b)
        assert a.total_bytes == b.total_bytes
        for key, x in a._entries.items():
            y = b._entries[key]
            assert (x.file_type, x.size, x.entropy, x.digested) == \
                (y.file_type, y.size, y.entropy, y.digested)
            assert (x.digest.hexdigest() if x.digest else None) == \
                (y.digest.hexdigest() if y.digest else None)

    def test_batched_build_identical_to_serial(self):
        corpus = self._corpus()
        self._assert_stores_equal(build_store_serial(corpus),
                                  BaselineStore.build(corpus))

    def test_batched_respects_inspect_ceiling(self):
        corpus = self._corpus()
        serial = build_store_serial(corpus, max_inspect_bytes=1024)
        batched = BaselineStore.build(corpus, max_inspect_bytes=1024)
        self._assert_stores_equal(serial, batched)
        assert any(not e.digested for e in batched._entries.values())

    def test_sharded_parallel_build_identical(self):
        from repro.sandbox.parallel import build_store_parallel
        corpus = self._corpus()
        ref = BaselineStore.build(corpus)
        self._assert_stores_equal(ref, build_store_parallel(corpus,
                                                            workers=2))
        # single-worker fallback degrades to the in-process build
        self._assert_stores_equal(ref, build_store_parallel(corpus,
                                                            workers=1))
