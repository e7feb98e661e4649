"""Per-file baseline tracking: moves, links, lifecycle."""

import random

import pytest

from repro.core.filestate import FileStateCache
from repro.corpus.wordlists import paragraphs
from repro.fs import WinPath

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
