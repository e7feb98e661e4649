"""ISSUE 9 — persistent baseline store (``repro.store``).

Backend parity is the contract under test: a store saved to disk and
reopened through the mmap backend must be indistinguishable — entry for
entry, verdict for verdict, fingerprint for fingerprint — from the dict
store it came from, on ragged corpora (empty files, oversize blobs,
duplicate content) as well as the standard one.  Plus the format's
failure modes: truncated and corrupt files are rejected with actionable
errors, never misread, and the fsck pass catches what lookups would
trust.
"""

import os
import random
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.core.filestate import FileStateCache
from repro.corpus import BaselineStore, content_key, generate
from repro.corpus.wordlists import paragraphs
from repro.ransomware import instantiate
from repro.ransomware.factory import working_cohort
from repro.sandbox import VirtualMachine, run_campaign, store_for_config
from repro.sandbox.parallel import build_store_parallel
from repro.store import (MmapBackend, StoreFormatError, fsck_store,
                         merge_store_files)
from repro.store import writer as store_writer
from repro.store.format import HEADER_SIZE
from repro.telemetry import (TelemetrySession, engine_snapshot,
                             render_prometheus, validate_exposition)


@pytest.fixture(scope="module")
def corpus():
    return generate(seed=83, n_files=60, n_dirs=6, use_cache=False)


@pytest.fixture(scope="module")
def dict_store(corpus):
    return BaselineStore.build(corpus)


@pytest.fixture(scope="module")
def store_path(corpus, dict_store, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "corpus.cdbs"
    dict_store.save(path)
    return str(path)


@pytest.fixture()
def mmap_store(store_path):
    store = BaselineStore.open(store_path)
    yield store
    store.close()


def _entries_equal(a, b) -> bool:
    """Structural equality (SdDigest has no __eq__ of its own)."""
    if (a.digest is None) != (b.digest is None):
        return False
    if a.digest is not None and a.digest.to_state() != b.digest.to_state():
        return False
    return (a.file_type == b.file_type and str(a.ctph) == str(b.ctph)
            and a.size == b.size and a.entropy == b.entropy
            and a.digested == b.digested)


def _campaign_fingerprint(campaign):
    return [(r.sample_name, r.detected, r.files_lost, round(r.score, 6),
             r.union_fired, sorted(r.flags)) for r in campaign.results]


class TestRoundTrip:
    def test_every_entry_identical(self, dict_store, mmap_store):
        assert len(mmap_store) == len(dict_store)
        for key, entry in dict_store._entries.items():
            assert _entries_equal(entry, mmap_store.get(key)), key.hex()

    def test_identity_travels(self, dict_store, mmap_store, corpus):
        assert mmap_store.fingerprint == dict_store.fingerprint
        assert mmap_store.seed == corpus.seed
        assert mmap_store.total_bytes == dict_store.total_bytes
        assert mmap_store.describe()["storage"] == "mmap"
        assert dict_store.describe()["storage"] == "dict"

    def test_open_reads_nothing_but_the_header(self, mmap_store):
        stats = mmap_store.page_stats()
        assert stats["page_ins"] == 0
        assert stats["resident"] == 0

    def test_miss_returns_none(self, mmap_store):
        assert mmap_store.get(b"\x00" * 16) is None
        assert mmap_store.lookup_content(b"never in any corpus") is None
        assert b"\xff" * 16 not in mmap_store

    def test_fsck_clean(self, store_path, dict_store):
        report = fsck_store(store_path)
        assert report["ok"], report["problems"]
        assert report["records_checked"] == len(dict_store)


class TestRaggedCorpora:
    """Empty, oversize and duplicate blobs round-trip like any other."""

    @pytest.fixture(scope="class")
    def ragged_pair(self, corpus, tmp_path_factory):
        contents = dict(corpus.contents)
        contents["empty.txt"] = b""
        contents["huge.bin"] = os.urandom(64) * 1024      # 64 KiB
        contents["dup_a.txt"] = b"identical bytes either way"
        contents["dup_b.txt"] = b"identical bytes either way"

        class Ragged:
            seed = corpus.seed
        ragged = Ragged()
        ragged.contents = contents
        dict_store = BaselineStore.build(ragged, max_inspect_bytes=32 * 1024)
        path = tmp_path_factory.mktemp("ragged") / "ragged.cdbs"
        dict_store.save(path)
        disk = BaselineStore.open(path)
        return contents, dict_store, disk

    def test_parity_including_edge_entries(self, ragged_pair):
        _, dict_store, disk = ragged_pair
        assert len(disk) == len(dict_store)
        for key, entry in dict_store._entries.items():
            assert _entries_equal(entry, disk.get(key))

    def test_empty_file_entry(self, ragged_pair):
        _, _, disk = ragged_pair
        entry = disk.lookup_content(b"")
        assert entry is not None and entry.size == 0

    def test_oversize_entry_undigested(self, ragged_pair):
        contents, dict_store, disk = ragged_pair
        entry = disk.lookup_content(contents["huge.bin"])
        assert entry is not None and entry.size == 64 * 1024
        assert not entry.digested and entry.digest is None
        paired = dict_store.lookup_content(contents["huge.bin"])
        assert _entries_equal(entry, paired)

    def test_duplicate_content_dedups(self, ragged_pair):
        _, dict_store, disk = ragged_pair
        key = content_key(b"identical bytes either way")
        assert disk.get(key) is not None
        # two paths, one entry
        assert len(disk) == len(dict_store._entries)


class TestHotEntryLru:
    def test_lru_bounds_residency(self, store_path, dict_store):
        store = BaselineStore.open(store_path, hot_entries=8)
        for key in list(dict_store._entries)[:32]:
            store.get(key)
        stats = store.page_stats()
        assert stats["page_ins"] == 32
        assert stats["resident"] == 8 <= stats["hot_capacity"]
        store.close()

    def test_repeat_lookups_hit_hot_cache(self, store_path, dict_store):
        store = BaselineStore.open(store_path)
        key = next(iter(dict_store._entries))
        first = store.get(key)
        assert store.get(key) is first
        stats = store.page_stats()
        assert stats["page_ins"] == 1 and stats["hot_hits"] == 1
        store.close()

    def test_page_ins_surface_on_telemetry(self, store_path, dict_store):
        store = BaselineStore.open(store_path)
        session = TelemetrySession()
        store.bind_telemetry(session)
        store.get(next(iter(dict_store._entries)))
        assert session.store_page_ins.total() == 1
        assert len(session.bus.events("store_page_in")) == 1
        store.close()


class TestResolutionChain:
    def test_inspect_resolves_from_disk_without_digesting(
            self, corpus, mmap_store):
        cache = FileStateCache(baseline_store=mmap_store)
        content = corpus.contents[corpus.files[0].rel_path]
        result = cache.inspect(content)
        assert result.digested and result.digest is not None
        assert cache.digest_cache.store_hits == 1
        assert cache.digest_cache.bytes_digested == 0
        # a pristine sweep over the whole reopened corpus pages every
        # entry in from disk and still digests nothing
        sweep = FileStateCache(baseline_store=mmap_store)
        for blob in corpus.contents.values():
            sweep.inspect(blob)
        assert sweep.digest_cache.store_hits == len(corpus.contents)
        assert sweep.digest_cache.bytes_digested == 0
        assert mmap_store.page_stats()["page_ins"] == len(mmap_store)

    def test_incompatible_disk_store_rejected(self, mmap_store):
        with pytest.raises(ValueError, match="similarity"):
            FileStateCache(backend="ctph", baseline_store=mmap_store)

    def test_seed_mismatch_fails_fast(self, mmap_store):
        other = generate(seed=84, n_files=8, n_dirs=2, use_cache=False)
        with pytest.raises(ValueError, match="seed"):
            VirtualMachine(other, baseline_store=mmap_store)
        assert not mmap_store.compatible_with(
            "sdhash", 4 * 1024 * 1024, True, seed=other.seed)
        assert mmap_store.compatible_with(
            "sdhash", 4 * 1024 * 1024, True, seed=mmap_store.seed)


class TestCampaignIdentity:
    @pytest.fixture(scope="class")
    def cohort(self):
        profiles = []
        by_class = {}
        for sample in working_cohort():
            by_class.setdefault(sample.profile.behavior_class,
                                []).append(sample.profile)
        for cls in ("A", "B", "C"):
            profiles.extend(by_class[cls][:2])
        return profiles

    def test_verdicts_identical_across_backends(self, corpus, cohort):
        dict_leg = run_campaign([instantiate(p) for p in cohort], corpus,
                                CryptoDropConfig(store_backend="dict"))
        mmap_leg = run_campaign([instantiate(p) for p in cohort], corpus,
                                CryptoDropConfig(store_backend="mmap"))
        assert _campaign_fingerprint(dict_leg) == \
            _campaign_fingerprint(mmap_leg)
        assert dict_leg.perf["baseline_store"]["storage"] == "dict"
        assert mmap_leg.perf["baseline_store"]["storage"] == "mmap"
        assert mmap_leg.perf["baseline_store"]["fingerprint"] == \
            dict_leg.perf["baseline_store"]["fingerprint"]
        assert mmap_leg.perf_stats()["digest_cache"]["store_hits"] > 0

    def test_store_for_config_threads_the_knobs(self, corpus):
        config = CryptoDropConfig(store_backend="mmap", store_hot_entries=64)
        store = store_for_config(corpus, config)
        assert store.storage == "mmap"
        assert store.page_stats()["hot_capacity"] == 64
        # memoised per knob set
        assert store_for_config(corpus, config) is store

    def test_unknown_storage_rejected(self, corpus):
        with pytest.raises(ValueError, match="storage"):
            corpus.baseline_store(storage="carrier-pigeon")


class TestEngineSnapshot:
    """``engine_snapshot`` scrapes exactly what ``stats()`` reports, plus
    the attached store's page-ins."""

    def test_gauges_mirror_stats(self, corpus, mmap_store):
        machine = VirtualMachine(corpus, baseline_store=mmap_store)
        monitor = CryptoDropMonitor(
            machine.vfs, CryptoDropConfig(stream_digest_min_bytes=0),
            baseline_store=mmap_store).attach()
        vfs, docs = machine.vfs, machine.docs_root
        pid = vfs.processes.spawn("editor.exe").pid
        for row in corpus.files[:4]:
            path = docs.joinpath(*(row.rel_dir + (row.name,)))
            handle = vfs.open(pid, path, "rw")
            data = vfs.read(pid, handle)
            vfs.seek(pid, handle, 0)
            vfs.write(pid, handle, data)
            vfs.close(pid, handle)
        # append-only rewrite of a planted log: a finalized stream; its
        # copy hits the LRU
        content = paragraphs(random.Random(5), 20_000).encode()
        for seed, name in enumerate(("export.log", "copy.log"), 6):
            vfs.peek_write(docs / name,
                           paragraphs(random.Random(seed), 8_000).encode())
            handle = vfs.open(pid, docs / name, "w", truncate=True)
            for start in range(0, len(content), 4096):
                vfs.write(pid, handle, content[start:start + 4096])
            vfs.close(pid, handle)
        # seek back mid-write: a stream fallback
        handle = vfs.open(pid, docs / "seeky.txt", "w", create=True)
        vfs.write(pid, handle, b"a" * 3000)
        vfs.seek(pid, handle, 0)
        vfs.write(pid, handle, b"b" * 10)
        vfs.close(pid, handle)

        text = render_prometheus(engine_snapshot(monitor))
        assert validate_exposition(text) == []
        stats = monitor.stats()
        monitor.detach()
        cache, streaming = stats["digest_cache"], stats["streaming"]
        assert streaming["finalized"] >= 1
        assert streaming["fallbacks"] == {"nonsequential": 1}
        assert cache["hits"] >= 1
        page_ins = mmap_store.page_stats()["page_ins"]
        assert page_ins > 0
        scraped = {name: float(value) for name, value in
                   (line.rsplit(" ", 1) for line in text.splitlines()
                    if not line.startswith("#"))}
        mirrored = {
            'cryptodrop_digest_cache{event="hits"}': cache["hits"],
            'cryptodrop_digest_cache{event="misses"}': cache["misses"],
            'cryptodrop_bytes{path="digested"}': cache["bytes_digested"],
            'cryptodrop_bytes{path="closed"}': stats["bytes_closed"],
            'cryptodrop_bytes{path="inspected"}': stats["bytes_inspected"],
            'cryptodrop_bytes{path="streamed"}':
                streaming["bytes_streamed"],
            'cryptodrop_stream_digests{event="started"}':
                streaming["started"],
            'cryptodrop_stream_digests{event="finalized"}':
                streaming["finalized"],
            'cryptodrop_stream_digest_fallbacks{reason="nonsequential"}':
                streaming["fallbacks"]["nonsequential"],
            'cryptodrop_stream_baseline_windows{source="reused"}':
                streaming["baseline_windows_reused"],
            'cryptodrop_stream_baseline_windows{source="computed"}':
                streaming["baseline_windows_computed"],
            "cryptodrop_scheduler_pending_bytes":
                stats["scheduler"]["pending_bytes"],
            "cryptodrop_store_page_ins": page_ins,
        }
        assert {name: scraped.get(name) for name in mirrored} == mirrored


class TestCheckpointRestore:
    def test_restore_against_reopened_store_file(self, corpus, store_path,
                                                 dict_store):
        machine = VirtualMachine(corpus, baseline_store=dict_store)
        from repro.core import CryptoDropMonitor
        monitor = CryptoDropMonitor(machine.vfs,
                                    baseline_store=dict_store).attach()
        pid = machine.vfs.processes.spawn("editor.exe").pid
        row = corpus.files[0]
        path = machine.docs_root.joinpath(*(row.rel_dir + (row.name,)))
        handle = machine.vfs.open(pid, path, "rw")
        machine.vfs.write(pid, handle,
                          machine.vfs.read(pid, handle))
        machine.vfs.close(pid, handle)
        state = monitor.engine.cache.checkpoint()
        monitor.detach()
        assert state["baseline_store"]["storage"] == "dict"

        reopened = BaselineStore.open(store_path)
        fresh = FileStateCache(baseline_store=reopened)
        fresh.restore(state)  # same fingerprint, different storage: fine
        assert fresh.checkpoint()["baseline_store"]["fingerprint"] == \
            state["baseline_store"]["fingerprint"]
        reopened.close()

    def test_restore_rejects_wrong_corpus_store(self, corpus, store_path,
                                                tmp_path):
        other = generate(seed=85, n_files=8, n_dirs=2, use_cache=False)
        other_store = BaselineStore.build(other)
        other_path = tmp_path / "other.cdbs"
        other_store.save(other_path)
        cache = FileStateCache(baseline_store=BaselineStore.open(store_path))
        state = cache.checkpoint()
        mismatched = FileStateCache(
            baseline_store=BaselineStore.open(other_path))
        with pytest.raises(ValueError, match="fingerprint|store"):
            mismatched.restore(state)


class TestCorruptionRejection:
    def test_not_a_store(self, tmp_path):
        path = tmp_path / "noise.cdbs"
        path.write_bytes(b"PK\x03\x04 this is a zip, not a store" * 10)
        with pytest.raises(StoreFormatError, match="magic"):
            BaselineStore.open(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.cdbs"
        path.write_bytes(b"")
        with pytest.raises(StoreFormatError, match="empty|short"):
            BaselineStore.open(path)

    def test_truncated_header(self, tmp_path, store_path):
        path = tmp_path / "trunc_header.cdbs"
        path.write_bytes(open(store_path, "rb").read(HEADER_SIZE // 2))
        with pytest.raises(StoreFormatError, match="short|truncated"):
            BaselineStore.open(path)

    def test_truncated_body(self, tmp_path, store_path):
        blob = open(store_path, "rb").read()
        path = tmp_path / "trunc_body.cdbs"
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(StoreFormatError, match="truncated"):
            BaselineStore.open(path)

    def test_header_bitrot(self, tmp_path, store_path):
        blob = bytearray(open(store_path, "rb").read())
        blob[10] ^= 0xFF
        path = tmp_path / "bitrot.cdbs"
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreFormatError, match="CRC|corrupt"):
            BaselineStore.open(path)

    def test_record_bitrot_caught_by_fsck(self, tmp_path, store_path):
        blob = bytearray(open(store_path, "rb").read())
        # flip one payload byte mid-record-log; lookups don't checksum
        # (hot path), fsck must
        blob[HEADER_SIZE + 200] ^= 0xFF
        path = tmp_path / "record_rot.cdbs"
        path.write_bytes(bytes(blob))
        report = fsck_store(path)
        assert not report["ok"]
        assert any("CRC" in p or "corrupt" in p for p in report["problems"])

    def test_unsupported_version(self, tmp_path, store_path):
        import zlib as _zlib
        blob = bytearray(open(store_path, "rb").read())
        struct.pack_into("<H", blob, 4, 99)           # version field
        crc = _zlib.crc32(bytes(blob[:HEADER_SIZE - 4]) + b"\x00" * 4)
        struct.pack_into("<I", blob, HEADER_SIZE - 4, crc)
        path = tmp_path / "future.cdbs"
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreFormatError, match="version"):
            BaselineStore.open(path)


class TestShardedBuild:
    def test_sharded_disk_build_matches_in_memory(self, corpus, dict_store,
                                                  tmp_path):
        path = tmp_path / "sharded.cdbs"
        store = build_store_parallel(corpus, workers=3, path=str(path))
        assert store.storage == "mmap"
        assert store.fingerprint == dict_store.fingerprint
        assert len(store) == len(dict_store)
        assert store.total_bytes == dict_store.total_bytes
        for key, entry in dict_store._entries.items():
            assert _entries_equal(entry, store.get(key))
        assert fsck_store(path)["ok"]
        assert not list(tmp_path.glob("*.shard*")), "shards must be cleaned"
        store.close()

    def test_degenerate_single_worker_disk_build(self, corpus, dict_store,
                                                 tmp_path):
        path = tmp_path / "serial.cdbs"
        store = build_store_parallel(corpus, workers=1, path=str(path))
        assert store.storage == "mmap"
        assert store.fingerprint == dict_store.fingerprint
        store.close()

    def test_merge_refuses_mixed_parameters(self, corpus, tmp_path):
        a = BaselineStore.build(corpus)
        b = BaselineStore.build(corpus, max_inspect_bytes=1024)
        pa, pb = tmp_path / "a.cdbs", tmp_path / "b.cdbs"
        a.save(pa)
        b.save(pb)
        with pytest.raises(StoreFormatError, match="parameters"):
            merge_store_files([str(pa), str(pb)], tmp_path / "out.cdbs")

    def test_merge_refuses_overlapping_keys(self, corpus, tmp_path):
        store = BaselineStore.build(corpus)
        pa, pb = tmp_path / "a.cdbs", tmp_path / "b.cdbs"
        store.save(pa)
        store.save(pb)
        with pytest.raises(StoreFormatError, match="share|partition"):
            merge_store_files([str(pa), str(pb)], tmp_path / "out.cdbs")


class TestCrashSafeRebuild:
    """A store is rebuilt under a temporary name and renamed over its
    path only when complete: a failed save keeps the previous file byte
    for byte, and a reader that has it mapped keeps reading it."""

    @pytest.mark.parametrize("records", [0, 1, 7])
    def test_failed_save_keeps_the_previous_store(self, corpus, dict_store,
                                                  tmp_path, monkeypatch,
                                                  records):
        path = tmp_path / "corpus.cdbs"
        dict_store.save(path)
        before = path.read_bytes()
        rebuilt = BaselineStore.build(corpus, max_inspect_bytes=1024)
        pack_record = store_writer.pack_record
        packed = []

        def pack_then_fail(entry, type_index):
            if len(packed) == records:
                raise OSError("disk full")
            packed.append(entry)
            return pack_record(entry, type_index)

        monkeypatch.setattr(store_writer, "pack_record", pack_then_fail)
        with pytest.raises(OSError, match="disk full"):
            rebuilt.save(path)
        assert len(packed) == records
        assert path.read_bytes() == before
        assert fsck_store(str(path))["ok"]
        assert os.listdir(tmp_path) == ["corpus.cdbs"], "temp file left"

    def test_open_reader_survives_a_rebuild_at_its_path(self, tmp_path):
        # run in a child: a rebuild that truncated the mapped file would
        # kill the reader with SIGBUS, which must fail this test, not
        # kill pytest
        script = textwrap.dedent("""
            import sys
            from repro.corpus import BaselineStore, generate

            def fields(entry):
                digest = entry.digest and entry.digest.hexdigest()
                return (entry.file_type, entry.size, entry.entropy,
                        entry.digested, digest)

            path = sys.argv[1]
            old = BaselineStore.build(generate(seed=83, n_files=40,
                                               n_dirs=4, use_cache=False))
            new = BaselineStore.build(generate(seed=84, n_files=40,
                                               n_dirs=4, use_cache=False))
            old.save(path)
            reader = BaselineStore.open(path, hot_entries=0)
            new.save(path)
            keys = list(old._impl.keys())
            for key in keys:
                assert fields(reader.get(key)) == fields(old.get(key))
            reader.close()
            fresh = BaselineStore.open(path)
            assert fresh.fingerprint == new.fingerprint
            assert all(fresh.get(key) is None for key in keys
                       if key not in new)
            fresh.close()
            print("served", len(keys))
        """)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "live.cdbs")],
            env=env, capture_output=True, text=True, timeout=240)
        assert result.returncode == 0, (result.returncode, result.stderr)
        assert result.stdout.startswith("served ")


class TestCtphBackend:
    def test_ctph_round_trip(self, corpus, tmp_path):
        dict_store = BaselineStore.build(corpus, backend="ctph",
                                         batched=False)
        path = tmp_path / "ctph.cdbs"
        dict_store.save(path)
        disk = BaselineStore.open(path)
        assert disk.backend == "ctph"
        assert disk.fingerprint == dict_store.fingerprint
        for key, entry in dict_store._entries.items():
            assert _entries_equal(entry, disk.get(key))
        assert fsck_store(path)["ok"]
        disk.close()
