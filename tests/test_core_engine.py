"""The analysis engine, end to end against hand-rolled workloads."""

import random

import pytest

from repro.core import (AllowPolicy, CryptoDropConfig, CryptoDropMonitor)
from repro.corpus.content import make_docx, make_pdf
from repro.corpus.wordlists import paragraphs
from repro.crypto import chacha20_xor
from repro.fs import (DOCUMENTS, ProcessSuspended, TEMP, VirtualFileSystem)

KEY, NONCE = bytes(32), bytes(12)


def _text(seed, n=9000):
    return paragraphs(random.Random(seed), n).encode()


@pytest.fixture
def env():
    """A filesystem with a dozen protected documents and a monitor."""
    vfs = VirtualFileSystem()
    vfs._ensure_dirs(DOCUMENTS / "work")
    vfs._ensure_dirs(TEMP)
    rng = random.Random(99)
    for i in range(16):
        vfs.peek_write(DOCUMENTS / f"notes{i}.txt", _text(i))
    for i in range(4):
        vfs.peek_write(DOCUMENTS / "work" / f"plan{i}.pdf",
                       make_pdf(rng, 9000))
    monitor = CryptoDropMonitor(vfs).attach()
    pid = vfs.processes.spawn("workload.exe").pid
    return vfs, monitor, pid


def _encrypt_in_place(vfs, pid, path):
    handle = vfs.open(pid, path, "rw")
    data = vfs.read(pid, handle)
    vfs.seek(pid, handle, 0)
    vfs.write(pid, handle, chacha20_xor(KEY, NONCE, data))
    vfs.close(pid, handle)


class TestClassADetection:
    def test_bulk_encryption_suspends(self, env):
        vfs, monitor, pid = env
        with pytest.raises(ProcessSuspended):
            for i in range(16):
                _encrypt_in_place(vfs, pid, DOCUMENTS / f"notes{i}.txt")
        assert monitor.detected
        detection = monitor.detections[0]
        assert detection.suspended
        assert detection.score >= detection.threshold

    def test_union_fires_on_class_a(self, env):
        vfs, monitor, pid = env
        with pytest.raises(ProcessSuspended):
            for i in range(16):
                _encrypt_in_place(vfs, pid, DOCUMENTS / f"notes{i}.txt")
        row = monitor.engine.row_of(pid)
        assert row.union_fired
        assert row.flags == {"entropy", "type_change", "similarity"}

    def test_single_file_edit_is_silent(self, env):
        vfs, monitor, pid = env
        path = DOCUMENTS / "notes0.txt"
        data = vfs.read_file(pid, path)
        vfs.write_file(pid, path, data + b"\nPS: appended a line")
        assert not monitor.detected
        assert monitor.score_of(pid) == 0.0


class TestClassBTracking:
    def test_temp_staging_does_not_evade(self, env):
        """Files moved out of Documents stay tracked by node id."""
        vfs, monitor, pid = env
        with pytest.raises(ProcessSuspended):
            for i in range(16):
                src = DOCUMENTS / f"notes{i}.txt"
                stage = TEMP / f"s{i}.tmp"
                vfs.rename(pid, src, stage)
                _encrypt_in_place(vfs, pid, stage)
                vfs.rename(pid, stage, DOCUMENTS / f"{i:08x}.ctbl")
        assert monitor.detected
        assert monitor.engine.row_of(pid).union_fired

    @pytest.mark.parametrize("move_parent", [False, True])
    def test_parent_directory_move_mid_write_still_compares(self,
                                                            move_parent):
        """A handle whose parent directory is renamed while it is open
        closes under the new path, and its close is inspected as if
        nothing had moved."""
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS / "Sub")
        path = DOCUMENTS / "Sub" / "doc.txt"
        vfs.peek_write(path, _text(7, 6000))
        monitor = CryptoDropMonitor(vfs).attach()
        pid = vfs.processes.spawn("mover.exe").pid
        handle = vfs.open(pid, path, "rw")
        data = vfs.read(pid, handle)
        if move_parent:
            vfs.rename(pid, DOCUMENTS / "Sub", DOCUMENTS / "Sub2")
        vfs.seek(pid, handle, 0)
        vfs.write(pid, handle, chacha20_xor(KEY, NONCE, data))
        vfs.close(pid, handle)
        row = monitor.engine.row_of(pid)
        assert row.flags == {"entropy", "similarity", "type_change"}
        assert monitor.score_of(pid) == 53.5
        assert monitor.engine.bytes_closed == len(data)


class TestClassCTracking:
    def test_move_over_links_and_detects(self, env):
        vfs, monitor, pid = env
        with pytest.raises(ProcessSuspended):
            for i in range(16):
                victim = DOCUMENTS / f"notes{i}.txt"
                data = vfs.read_file(pid, victim)
                out = DOCUMENTS / f"notes{i}.txt.enc"
                vfs.write_file(pid, out, chacha20_xor(KEY, NONCE, data))
                vfs.rename(pid, out, victim)
        assert monitor.engine.row_of(pid).union_fired

    def test_delete_disposal_caught_without_union(self, env):
        """§V-B2's 22 evaders: no union, but entropy + deletion convict."""
        vfs, monitor, pid = env
        config = monitor.config
        try:
            # CryptoDefense-style small-chunk writer
            for i in range(16):
                victim = DOCUMENTS / f"notes{i}.txt"
                data = vfs.read_file(pid, victim, chunk_size=2048)
                vfs.write_file(pid, DOCUMENTS / f"notes{i}.enc",
                               chacha20_xor(KEY, NONCE, data),
                               chunk_size=1024)
                vfs.delete(pid, victim)
        except ProcessSuspended:
            pass
        assert monitor.detected
        assert not monitor.engine.row_of(pid).union_fired


class TestScopeAndPolicy:
    def test_unprotected_io_ignored(self, env):
        vfs, monitor, pid = env
        rng = random.Random(5)
        for i in range(30):
            vfs.write_file(pid, TEMP / f"cache{i}.bin", rng.randbytes(20000))
        assert monitor.score_of(pid) == 0.0
        assert not monitor.detected

    def test_allow_policy_whitelists(self, env):
        vfs, monitor, pid = env
        monitor.engine.policy = AllowPolicy()
        # run the full attack: detections recorded, nothing suspended
        for i in range(16):
            _encrypt_in_place(vfs, pid, DOCUMENTS / f"notes{i}.txt")
        assert monitor.detected
        assert not monitor.detections[0].suspended
        assert len(monitor.detections) == 1     # asked once, then whitelisted

    def test_detection_carries_context(self, env):
        vfs, monitor, pid = env
        with pytest.raises(ProcessSuspended):
            for i in range(16):
                _encrypt_in_place(vfs, pid, DOCUMENTS / f"notes{i}.txt")
        det = monitor.detections[0]
        assert det.process_name == "workload.exe"
        assert det.trigger_path.startswith("C:\\Users")
        assert det.history_len > 0

    def test_family_scoring_covers_children(self, env):
        vfs, monitor, pid = env
        child = vfs.processes.spawn("drone.exe", parent_pid=pid).pid
        with pytest.raises(ProcessSuspended):
            for i in range(16):
                _encrypt_in_place(vfs, child, DOCUMENTS / f"notes{i}.txt")
        # the parent is suspended along with the child
        with pytest.raises(ProcessSuspended):
            vfs.read_file(pid, DOCUMENTS / "work" / "plan0.pdf")

    def test_detach_stops_monitoring(self, env):
        vfs, monitor, pid = env
        monitor.detach()
        for i in range(16):
            _encrypt_in_place(vfs, pid, DOCUMENTS / f"notes{i}.txt")
        assert not monitor.detected

    def test_context_manager(self):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        with CryptoDropMonitor(vfs) as monitor:
            assert monitor.attached
        assert not monitor.attached


class TestEngineInternals:
    def test_lazy_baseline_skips_readonly_opens(self, env):
        vfs, monitor, pid = env
        for i in range(16):
            vfs.read_file(pid, DOCUMENTS / f"notes{i}.txt")
        assert len(monitor.engine.cache) == 0

    def test_baseline_captured_before_truncate(self, env):
        vfs, monitor, pid = env
        path = DOCUMENTS / "notes0.txt"
        handle = vfs.open(pid, path, "w", truncate=True)
        vfs.close(pid, handle)
        record = monitor.engine.cache.get(vfs.peek_stat(path).node_id)
        assert record is not None
        assert record.base_type.name == "txt"   # pre-truncation content

    def test_stats_reporting(self, env):
        vfs, monitor, pid = env
        vfs.write_file(pid, DOCUMENTS / "notes0.txt", b"new" * 400)
        stats = monitor.stats()
        assert stats["ops_seen"]["write"] >= 1
        assert stats["tracked_files"] >= 1

    def test_shadow_copy_deletion_invisible(self, env):
        """§III: VSS tampering does not touch user data — no score."""
        from repro.fs import ShadowCopyService
        vfs, monitor, pid = env
        service = ShadowCopyService(vfs)
        service.create(pid, DOCUMENTS)
        service.delete_all(pid)
        assert monitor.score_of(pid) == 0.0

    def test_scores_per_family_config_off(self):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        vfs.peek_write(DOCUMENTS / "f.txt", _text(1))
        config = CryptoDropConfig(score_process_families=False)
        monitor = CryptoDropMonitor(vfs, config).attach()
        parent = vfs.processes.spawn("a.exe").pid
        child = vfs.processes.spawn("b.exe", parent_pid=parent).pid
        vfs.write_file(child, DOCUMENTS / "f.txt",
                       random.Random(0).randbytes(9000))
        rows = {r.root_pid for r in monitor.score_rows() if r.score > 0}
        assert rows == {child}


class TestForensicExport:
    def test_export_report_is_json_serialisable(self, env):
        import json
        vfs, monitor, pid = env
        with pytest.raises(ProcessSuspended):
            for i in range(16):
                _encrypt_in_place(vfs, pid, DOCUMENTS / f"notes{i}.txt")
        report = monitor.export_report()
        encoded = json.dumps(report)
        decoded = json.loads(encoded)
        assert decoded["detections"][0]["process"] == "workload.exe"
        assert decoded["detections"][0]["suspended"] is True
        assert decoded["processes"][0]["events"]
        assert decoded["config"]["non_union_threshold"] == 200.0

    def test_clean_session_report(self):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        with CryptoDropMonitor(vfs) as monitor:
            report = monitor.export_report()
        assert report["detections"] == []
        assert report["stats"]["detections"] == 0


class TestMultiRootProtection:
    def test_second_protected_root(self):
        """CryptoDrop can watch any set of directories, not just
        My Documents (§IV-A 'protected directories')."""
        from repro.fs import WinPath
        desktop = WinPath(r"C:\Users\victim\Desktop")
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        vfs._ensure_dirs(desktop)
        for i in range(16):
            vfs.peek_write(desktop / f"note{i}.txt", _text(i))
        config = CryptoDropConfig(protected_roots=(DOCUMENTS, desktop))
        monitor = CryptoDropMonitor(vfs, config).attach()
        pid = vfs.processes.spawn("evil.exe").pid
        with pytest.raises(ProcessSuspended):
            for i in range(16):
                _encrypt_in_place(vfs, pid, desktop / f"note{i}.txt")
        assert monitor.detected
