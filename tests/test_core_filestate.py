"""Per-file baseline tracking: moves, links, lifecycle, checkpoints."""

import json
import random

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.core.filestate import FileStateCache
from repro.corpus.wordlists import paragraphs
from repro.fs import DOCUMENTS, VirtualFileSystem, WinPath
from repro.simhash import CtphSignature, SdDigest

DOC = WinPath(r"C:\Users\victim\Documents\report.pdf")
TEMP = WinPath(r"C:\Users\victim\AppData\Local\Temp\stage.tmp")


def _content(seed, n=9000):
    return paragraphs(random.Random(seed), n).encode()


@pytest.fixture
def cache():
    return FileStateCache()


class TestBaselineCapture:
    def test_ensure_captures_type_and_digest(self, cache):
        record = cache.ensure_baseline(1, DOC, _content(1))
        assert record.has_baseline
        assert record.base_type.name == "txt"
        # the capture defers its digest until a comparison asks for it
        assert record.base_digest is None
        cache.materialise_baseline(record)
        assert record.base_digest is not None

    def test_second_ensure_keeps_original_baseline(self, cache):
        cache.ensure_baseline(1, DOC, _content(1))
        record = cache.ensure_baseline(1, DOC, b"changed content" * 100)
        assert record.base_size == len(_content(1))

    def test_refresh_replaces_baseline(self, cache):
        cache.ensure_baseline(1, DOC, _content(1))
        record = cache.refresh_baseline(1, DOC, _content(2))
        assert record.base_size == len(_content(2))

    def test_track_new_is_born_empty(self, cache):
        record = cache.track_new(5, DOC)
        assert record.born_empty and record.has_baseline
        assert record.base_digest is None

    def test_small_content_has_no_digest(self, cache):
        record = cache.ensure_baseline(1, DOC, b"x" * 100)
        cache.materialise_baseline(record)
        assert record.has_baseline and record.base_digest is None

    def test_oversize_content_skips_digest(self):
        cache = FileStateCache(max_inspect_bytes=1000)
        record = cache.ensure_baseline(1, DOC, _content(1, 5000))
        assert record.base_digest is None
        assert record.base_type is not None    # type still identified

    def test_contains_and_len(self, cache):
        cache.ensure_baseline(1, DOC, _content(1))
        assert 1 in cache and len(cache) == 1


class TestMoves:
    def test_plain_rename_rekeys_path(self, cache):
        cache.ensure_baseline(1, DOC, _content(1))
        record = cache.on_rename(1, TEMP, None)
        assert record is not None
        assert record.path == TEMP
        assert record.base_size == len(_content(1))   # baseline survives

    def test_class_b_roundtrip_keeps_identity(self, cache):
        """Docs -> temp -> docs under a new name: same node, same baseline."""
        cache.ensure_baseline(1, DOC, _content(1))
        cache.on_rename(1, TEMP, None)
        back = DOC.with_name("report.pdf.ctbl")
        record = cache.on_rename(1, back, None)
        assert record.path == back
        assert record.has_baseline

    def test_move_over_links_clobbered_baseline(self, cache):
        """§V-B2: new file moved onto a tracked file inherits its
        baseline, so the incoming ciphertext is compared to the victim."""
        cache.ensure_baseline(10, DOC, _content(1))        # the victim
        cache.track_new(20, TEMP)                          # the ciphertext
        record = cache.on_rename(20, DOC, clobbered_node_id=10)
        assert record.node_id == 20
        assert record.has_baseline and not record.born_empty
        assert record.base_size == len(_content(1))
        assert 10 not in cache                              # old row gone

    def test_move_over_untracked_dest_no_link(self, cache):
        cache.track_new(20, TEMP)
        record = cache.on_rename(20, DOC, clobbered_node_id=99)
        assert record is not None and record.born_empty

    def test_move_over_born_empty_dest_no_link(self, cache):
        # clobbering a file the writer itself created must not launder a
        # baseline into existence
        cache.track_new(10, DOC)
        cache.track_new(20, TEMP)
        record = cache.on_rename(20, DOC, clobbered_node_id=10)
        assert record.born_empty

    def test_rename_untracked_node_returns_none(self, cache):
        assert cache.on_rename(77, DOC, None) is None

    def test_rename_none_node(self, cache):
        assert cache.on_rename(None, DOC, None) is None


class TestDeletion:
    def test_delete_evicts(self, cache):
        cache.ensure_baseline(1, DOC, _content(1))
        removed = cache.on_delete(1)
        assert removed is not None
        assert 1 not in cache

    def test_delete_unknown_none(self, cache):
        assert cache.on_delete(123) is None
        assert cache.on_delete(None) is None


class TestCheckpointBackend:
    """A checkpoint holds the digests of the backend it was taken under,
    and only a cache of that backend takes it back."""

    @staticmethod
    def _edited(backend):
        """A monitor after an editor appended to five tracked files."""
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        for i in range(5):
            vfs.peek_write(DOCUMENTS / f"doc{i}.txt", _content(i))
        config = CryptoDropConfig(similarity_backend=backend)
        monitor = CryptoDropMonitor(vfs, config).attach()
        pid = vfs.processes.spawn("editor.exe").pid
        for i in range(5):
            handle = vfs.open(pid, DOCUMENTS / f"doc{i}.txt", "rw")
            vfs.write(pid, handle, vfs.read(pid, handle) + b" more text")
            vfs.close(pid, handle)
        return vfs, monitor

    @pytest.mark.parametrize("taken, restored", [("sdhash", "ctph"),
                                                 ("ctph", "sdhash")])
    def test_restore_refuses_the_other_backend(self, taken, restored):
        vfs, monitor = self._edited(taken)
        state = monitor.checkpoint()
        monitor.detach()
        assert len(state["cache"]["entries"]) == 5
        with pytest.raises(ValueError, match="ctph|sdhash"):
            CryptoDropMonitor.from_checkpoint(
                vfs, state, CryptoDropConfig(similarity_backend=restored))

    @pytest.mark.parametrize("backend, digest_cls",
                             [("sdhash", SdDigest), ("ctph", CtphSignature)])
    def test_checkpoint_round_trips_through_json(self, backend, digest_cls):
        vfs, monitor = self._edited(backend)
        state = monitor.checkpoint()
        monitor.detach()
        wire = json.loads(json.dumps(state))
        restored = CryptoDropMonitor.from_checkpoint(
            vfs, wire, CryptoDropConfig(similarity_backend=backend))
        # a fixed point: the restored monitor checkpoints what it read
        assert restored.checkpoint() == wire == state
        records = list(restored.engine.cache._by_node.values())
        assert len(records) == 5
        assert all(isinstance(r.base_digest, digest_cls) for r in records)
