"""Virtual filesystem semantics."""

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.fs import (AccessDenied, DOCUMENTS, DirectoryNotEmpty,
                      FileAttributes, FileExists, FileNotFound,
                      HandleClosed, InvalidHandle, IsADirectory,
                      NotADirectory, WinPath)


class TestCreateOpenClose:
    def test_create_and_read_back(self, vfs, pid):
        path = DOCUMENTS / "a.txt"
        vfs.write_file(pid, path, b"hello")
        assert vfs.read_file(pid, path) == b"hello"

    def test_open_missing_raises(self, vfs, pid):
        with pytest.raises(FileNotFound):
            vfs.open(pid, DOCUMENTS / "nope.txt", "r")

    def test_open_create_makes_empty_file(self, vfs, pid):
        handle = vfs.open(pid, DOCUMENTS / "new.bin", "w", create=True)
        vfs.close(pid, handle)
        assert vfs.read_file(pid, DOCUMENTS / "new.bin") == b""

    def test_create_in_missing_dir_raises(self, vfs, pid):
        with pytest.raises(FileNotFound):
            vfs.open(pid, DOCUMENTS / "no_dir" / "f.txt", "w", create=True)

    def test_open_directory_raises(self, vfs, pid):
        with pytest.raises(IsADirectory):
            vfs.open(pid, DOCUMENTS, "r")

    def test_double_close_raises(self, vfs, pid):
        handle = vfs.open(pid, DOCUMENTS / "f", "w", create=True)
        vfs.close(pid, handle)
        with pytest.raises(HandleClosed):
            vfs.close(pid, handle)

    def test_foreign_handle_rejected(self, vfs, pid):
        other = vfs.processes.spawn("other.exe").pid
        handle = vfs.open(pid, DOCUMENTS / "f", "w", create=True)
        with pytest.raises(InvalidHandle):
            vfs.write(other, handle, b"x")

    def test_case_insensitive_lookup(self, vfs, pid):
        vfs.write_file(pid, DOCUMENTS / "Report.TXT", b"x")
        assert vfs.read_file(pid, DOCUMENTS / "report.txt") == b"x"

    def test_bad_mode_rejected(self, vfs, pid):
        with pytest.raises(ValueError):
            vfs.open(pid, DOCUMENTS / "f", "z", create=True)


class TestReadWrite:
    def test_positional_reads(self, vfs, pid):
        path = DOCUMENTS / "data.bin"
        vfs.write_file(pid, path, bytes(range(100)))
        handle = vfs.open(pid, path, "r")
        assert vfs.read(pid, handle, 10) == bytes(range(10))
        assert vfs.read(pid, handle, 10) == bytes(range(10, 20))
        vfs.seek(pid, handle, 90)
        assert vfs.read(pid, handle) == bytes(range(90, 100))
        vfs.close(pid, handle)

    def test_read_past_eof_returns_empty(self, vfs, pid):
        path = DOCUMENTS / "tiny"
        vfs.write_file(pid, path, b"ab")
        handle = vfs.open(pid, path, "r")
        vfs.seek(pid, handle, 5)
        assert vfs.read(pid, handle, 4) == b""
        vfs.close(pid, handle)

    def test_overwrite_in_place(self, vfs, pid):
        path = DOCUMENTS / "f"
        vfs.write_file(pid, path, b"AAAABBBB")
        handle = vfs.open(pid, path, "rw")
        vfs.seek(pid, handle, 4)
        vfs.write(pid, handle, b"CC")
        vfs.close(pid, handle)
        assert vfs.read_file(pid, path) == b"AAAACCBB"

    def test_sparse_write_zero_fills(self, vfs, pid):
        path = DOCUMENTS / "sparse"
        handle = vfs.open(pid, path, "w", create=True)
        vfs.seek(pid, handle, 4)
        vfs.write(pid, handle, b"XY")
        vfs.close(pid, handle)
        assert vfs.read_file(pid, path) == b"\x00\x00\x00\x00XY"

    def test_append_mode(self, vfs, pid):
        path = DOCUMENTS / "log.txt"
        vfs.write_file(pid, path, b"one\n")
        handle = vfs.open(pid, path, "a")
        vfs.write(pid, handle, b"two\n")
        vfs.close(pid, handle)
        assert vfs.read_file(pid, path) == b"one\ntwo\n"

    def test_write_on_readonly_handle_raises(self, vfs, pid):
        path = DOCUMENTS / "f"
        vfs.write_file(pid, path, b"x")
        handle = vfs.open(pid, path, "r")
        with pytest.raises(AccessDenied):
            vfs.write(pid, handle, b"y")
        vfs.close(pid, handle)

    def test_truncate_via_open(self, vfs, pid):
        path = DOCUMENTS / "f"
        vfs.write_file(pid, path, b"longcontent")
        handle = vfs.open(pid, path, "w", truncate=True)
        vfs.close(pid, handle)
        assert vfs.read_file(pid, path) == b""

    def test_truncate_handle(self, vfs, pid):
        path = DOCUMENTS / "f"
        vfs.write_file(pid, path, b"0123456789")
        handle = vfs.open(pid, path, "rw")
        vfs.truncate_handle(pid, handle, 4)
        vfs.close(pid, handle)
        assert vfs.read_file(pid, path) == b"0123"

    def test_chunked_roundtrip(self, vfs, pid):
        payload = bytes(range(256)) * 40
        path = DOCUMENTS / "big.bin"
        vfs.write_file(pid, path, payload, chunk_size=1000)
        assert vfs.read_file(pid, path, chunk_size=777) == payload


class TestReadOnlyAttribute:
    def test_write_open_denied(self, vfs, pid):
        path = DOCUMENTS / "locked.txt"
        vfs.write_file(pid, path, b"keep me")
        vfs.set_attributes(pid, path, read_only=True)
        with pytest.raises(AccessDenied):
            vfs.open(pid, path, "rw")

    def test_delete_denied(self, vfs, pid):
        path = DOCUMENTS / "locked.txt"
        vfs.write_file(pid, path, b"keep me")
        vfs.set_attributes(pid, path, read_only=True)
        with pytest.raises(AccessDenied):
            vfs.delete(pid, path)

    def test_read_still_allowed(self, vfs, pid):
        path = DOCUMENTS / "locked.txt"
        vfs.write_file(pid, path, b"keep me")
        vfs.set_attributes(pid, path, read_only=True)
        assert vfs.read_file(pid, path) == b"keep me"

    def test_rename_of_readonly_allowed(self, vfs, pid):
        # Windows permits renaming read-only files
        path = DOCUMENTS / "locked.txt"
        vfs.write_file(pid, path, b"x")
        vfs.set_attributes(pid, path, read_only=True)
        vfs.rename(pid, path, DOCUMENTS / "moved.txt")
        assert vfs.exists(DOCUMENTS / "moved.txt")

    def test_clobbering_readonly_denied(self, vfs, pid):
        target = DOCUMENTS / "locked.txt"
        vfs.write_file(pid, target, b"x")
        vfs.set_attributes(pid, target, read_only=True)
        vfs.write_file(pid, DOCUMENTS / "src.txt", b"y")
        with pytest.raises(AccessDenied):
            vfs.rename(pid, DOCUMENTS / "src.txt", target)


class TestRename:
    def test_simple_rename(self, vfs, pid):
        vfs.write_file(pid, DOCUMENTS / "a", b"1")
        vfs.rename(pid, DOCUMENTS / "a", DOCUMENTS / "b")
        assert not vfs.exists(DOCUMENTS / "a")
        assert vfs.read_file(pid, DOCUMENTS / "b") == b"1"

    def test_rename_preserves_node_id(self, vfs, pid):
        path = DOCUMENTS / "a"
        vfs.write_file(pid, path, b"1")
        node_id = vfs.peek_stat(path).node_id
        vfs.rename(pid, path, DOCUMENTS / "b")
        assert vfs.peek_stat(DOCUMENTS / "b").node_id == node_id

    def test_rename_clobbers_existing(self, vfs, pid):
        vfs.write_file(pid, DOCUMENTS / "a", b"new")
        vfs.write_file(pid, DOCUMENTS / "b", b"old")
        vfs.rename(pid, DOCUMENTS / "a", DOCUMENTS / "b")
        assert vfs.read_file(pid, DOCUMENTS / "b") == b"new"

    def test_rename_no_overwrite_flag(self, vfs, pid):
        vfs.write_file(pid, DOCUMENTS / "a", b"1")
        vfs.write_file(pid, DOCUMENTS / "b", b"2")
        with pytest.raises(FileExists):
            vfs.rename(pid, DOCUMENTS / "a", DOCUMENTS / "b",
                       overwrite=False)

    def test_rename_across_directories(self, vfs, pid):
        vfs.mkdir(pid, DOCUMENTS / "sub")
        vfs.write_file(pid, DOCUMENTS / "a", b"1")
        vfs.rename(pid, DOCUMENTS / "a", DOCUMENTS / "sub" / "a")
        assert vfs.read_file(pid, DOCUMENTS / "sub" / "a") == b"1"

    def test_rename_updates_open_handle_path(self, vfs, pid):
        path = DOCUMENTS / "a"
        vfs.write_file(pid, path, b"1")
        handle = vfs.open(pid, path, "r")
        vfs.rename(pid, path, DOCUMENTS / "b")
        assert handle.path == DOCUMENTS / "b"
        vfs.close(pid, handle)

    def test_rename_directory_updates_open_handle_paths_under_it(self, vfs,
                                                                 pid):
        vfs.mkdir(pid, DOCUMENTS / "Sub")
        vfs.mkdir(pid, DOCUMENTS / "Sub" / "Deep")
        vfs.write_file(pid, DOCUMENTS / "Sub" / "Deep" / "a", b"1")
        vfs.write_file(pid, DOCUMENTS / "Subway", b"2")
        inner = vfs.open(pid, DOCUMENTS / "Sub" / "Deep" / "a", "r")
        beside = vfs.open(pid, DOCUMENTS / "Subway", "r")
        vfs.rename(pid, DOCUMENTS / "sub", DOCUMENTS / "Sub2")
        assert inner.path == DOCUMENTS / "Sub2" / "Deep" / "a"
        assert beside.path == DOCUMENTS / "Subway"
        assert vfs.read(pid, inner) == b"1"
        vfs.close(pid, inner)
        vfs.close(pid, beside)

    def test_rename_missing_raises(self, vfs, pid):
        with pytest.raises(FileNotFound):
            vfs.rename(pid, DOCUMENTS / "ghost", DOCUMENTS / "x")

    def test_rename_directory(self, vfs, pid):
        vfs.mkdir(pid, DOCUMENTS / "old")
        vfs.write_file(pid, DOCUMENTS / "old" / "f", b"1")
        vfs.rename(pid, DOCUMENTS / "old", DOCUMENTS / "new")
        assert vfs.read_file(pid, DOCUMENTS / "new" / "f") == b"1"


class TestDeleteAndDirs:
    def test_delete_file(self, vfs, pid):
        vfs.write_file(pid, DOCUMENTS / "a", b"1")
        vfs.delete(pid, DOCUMENTS / "a")
        assert not vfs.exists(DOCUMENTS / "a")

    def test_delete_missing_raises(self, vfs, pid):
        with pytest.raises(FileNotFound):
            vfs.delete(pid, DOCUMENTS / "ghost")

    def test_delete_nonempty_dir_raises(self, vfs, pid):
        vfs.mkdir(pid, DOCUMENTS / "d")
        vfs.write_file(pid, DOCUMENTS / "d" / "f", b"1")
        with pytest.raises(DirectoryNotEmpty):
            vfs.delete(pid, DOCUMENTS / "d")

    def test_delete_empty_dir(self, vfs, pid):
        vfs.mkdir(pid, DOCUMENTS / "d")
        vfs.delete(pid, DOCUMENTS / "d")
        assert not vfs.exists(DOCUMENTS / "d")

    def test_mkdir_parents(self, vfs, pid):
        vfs.mkdir(pid, DOCUMENTS / "a" / "b" / "c", parents=True)
        assert vfs.is_dir(DOCUMENTS / "a" / "b" / "c")

    def test_mkdir_existing_raises(self, vfs, pid):
        vfs.mkdir(pid, DOCUMENTS / "d")
        with pytest.raises(FileExists):
            vfs.mkdir(pid, DOCUMENTS / "d")

    def test_mkdir_exist_ok(self, vfs, pid):
        vfs.mkdir(pid, DOCUMENTS / "d")
        vfs.mkdir(pid, DOCUMENTS / "d", exist_ok=True)

    def test_listdir_sorted_and_case_preserving(self, vfs, pid):
        vfs.write_file(pid, DOCUMENTS / "Beta.txt", b"")
        vfs.write_file(pid, DOCUMENTS / "alpha.txt", b"")
        assert vfs.listdir(pid, DOCUMENTS) == ["alpha.txt", "Beta.txt"]

    def test_listdir_on_file_raises(self, vfs, pid):
        vfs.write_file(pid, DOCUMENTS / "f", b"")
        with pytest.raises(NotADirectory):
            vfs.listdir(pid, DOCUMENTS / "f")

    def test_walk_visits_everything(self, vfs, pid):
        vfs.mkdir(pid, DOCUMENTS / "x" / "y", parents=True)
        vfs.write_file(pid, DOCUMENTS / "x" / "f1", b"")
        vfs.write_file(pid, DOCUMENTS / "x" / "y" / "f2", b"")
        seen_files = []
        for dirpath, _dirs, files in vfs.walk(pid, DOCUMENTS):
            seen_files.extend(str(dirpath / f) for f in files)
        assert any(p.endswith("f1") for p in seen_files)
        assert any(p.endswith("f2") for p in seen_files)

    def test_stat_reports_size_and_kind(self, vfs, pid):
        vfs.write_file(pid, DOCUMENTS / "f", b"12345")
        st = vfs.stat(pid, DOCUMENTS / "f")
        assert st.size == 5 and not st.is_dir
        assert vfs.stat(pid, DOCUMENTS).is_dir


class TestClockAdvances:
    def test_operations_advance_time(self, vfs, pid):
        before = vfs.clock.now_us
        vfs.write_file(pid, DOCUMENTS / "f", b"data")
        assert vfs.clock.now_us > before

    def test_modified_timestamp_updates(self, vfs, pid):
        path = DOCUMENTS / "f"
        vfs.write_file(pid, path, b"1")
        first = vfs.peek_stat(path).modified_us
        vfs.write_file(pid, path, b"2")
        assert vfs.peek_stat(path).modified_us > first


class TestOneCopyPerVersion:
    """A version's bytes are one object however many readers take it: a
    close, a baseline capture, the journal's pre-image and a revert.
    Object identities count the copies without timing them."""

    TEXT = b"The quarterly report is attached for review.\n" * 40

    def test_peek_read_of_an_unchanged_file_is_one_object(self, vfs, pid):
        path = DOCUMENTS / "a.txt"
        vfs.write_file(pid, path, self.TEXT)
        first = vfs.peek_read(path)
        assert vfs.peek_read(path) is first
        assert vfs.peek_node(path).read_bytes() is first

    def test_a_closed_version_is_the_pending_capture(self, vfs, pid):
        monitor = CryptoDropMonitor(vfs, CryptoDropConfig()).attach()
        path = DOCUMENTS / "export.txt"
        handle = vfs.open(pid, path, "w", create=True)
        vfs.write(pid, handle, self.TEXT)
        vfs.close(pid, handle)
        record = monitor.engine.cache.get(vfs.peek_stat(path).node_id)
        assert record.pending_content is not None
        assert record.pending_content is vfs.peek_read(path)

    def _overwrite_captured(self, vfs, pid):
        """Plant a file, mark, and overwrite it under a monitor; returns
        the node id and the bytes the monitor's baseline capture took."""
        monitor = CryptoDropMonitor(vfs, CryptoDropConfig()).attach()
        path = DOCUMENTS / "report.txt"
        node_id = vfs.peek_write(path, self.TEXT)
        vfs.snapshot_mark()
        handle = vfs.open(pid, path, "w", truncate=True)
        captured = monitor.engine.cache.get(node_id).pending_content
        assert captured == self.TEXT
        vfs.write(pid, handle, self.TEXT.upper())
        vfs.close(pid, handle)
        return node_id, captured

    def test_the_journal_pre_image_is_the_capture(self, vfs, pid):
        node_id, captured = self._overwrite_captured(vfs, pid)
        assert vfs._journal.pre_images[node_id][0] is captured

    def test_revert_restores_the_captured_object(self, vfs, pid):
        _, captured = self._overwrite_captured(vfs, pid)
        vfs.revert()
        assert vfs.peek_read(DOCUMENTS / "report.txt") is captured
