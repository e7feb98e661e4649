"""The five indicators, in isolation."""

import random

import pytest

from repro.core import (ProcessDeletionState, ProcessEntropyState,
                        ProcessFunnelState, similarity_collapsed,
                        similarity_score, type_changed)
from repro.core.filestate import FileStateCache
from repro.corpus.wordlists import paragraphs
from repro.fs import WinPath
from repro.magic import EMPTY, FILE_TYPES, FileType, identify


def _text(seed, n=12000):
    return paragraphs(random.Random(seed), n).encode()


class TestEntropyIndicator:
    def test_no_delta_before_first_read(self):
        state = ProcessEntropyState()
        assert state.on_write(random.Random(0).randbytes(4096)) is None

    def test_no_delta_before_first_write(self):
        state = ProcessEntropyState()
        state.on_read(_text(1))
        assert state.delta() is None

    def test_ransomware_pattern_triggers(self):
        state = ProcessEntropyState()
        state.on_read(_text(2))                                # ~4.4 bits
        delta = state.on_write(random.Random(2).randbytes(8192))  # ~8 bits
        assert delta is not None and delta >= 0.1

    def test_symmetric_io_does_not_trigger(self):
        state = ProcessEntropyState()
        rng = random.Random(3)
        state.on_read(rng.randbytes(8192))
        assert state.on_write(rng.randbytes(8192)) is None

    def test_delta_clamped_at_zero(self):
        state = ProcessEntropyState()
        state.on_read(random.Random(4).randbytes(8192))
        state.on_write(_text(4))
        assert state.delta() == 0.0

    def test_empty_ops_ignored(self):
        state = ProcessEntropyState()
        state.on_read(b"")
        assert state.on_write(b"") is None
        assert state.delta() is None

    def test_ransom_notes_cannot_hide_the_delta(self):
        """§IV-C1: low-entropy note drops are weight-starved."""
        state = ProcessEntropyState()
        state.on_read(_text(5))
        state.on_write(random.Random(5).randbytes(30000))
        for _ in range(30):
            state.on_write(b"SEND BITCOIN TO RECOVER YOUR FILES\n" * 8)
        assert state.current_trigger() is not None

    def test_paper_threshold_value(self):
        assert ProcessEntropyState().delta_threshold == 0.1


class TestTypeChangeIndicator:
    def test_same_type_no_change(self):
        assert not type_changed(FILE_TYPES["pdf"], FILE_TYPES["pdf"])

    def test_pdf_to_data_changes(self):
        from repro.magic import DATA
        assert type_changed(FILE_TYPES["pdf"], DATA)

    def test_cross_format_changes(self):
        assert type_changed(FILE_TYPES["txt"], FILE_TYPES["exe"])

    def test_empty_before_ignored(self):
        assert not type_changed(EMPTY, FILE_TYPES["pdf"])

    def test_empty_after_ignored(self):
        assert not type_changed(FILE_TYPES["pdf"], EMPTY)

    def test_restored_empty_ignored(self):
        # a checkpoint restore rebuilds the type: equal to EMPTY, not it
        restored = FileType(EMPTY.name, EMPTY.description, EMPTY.category,
                            EMPTY.is_high_entropy)
        assert restored is not EMPTY
        assert not type_changed(restored, FILE_TYPES["txt"])

    def test_none_ignored(self):
        assert not type_changed(None, FILE_TYPES["pdf"])
        assert not type_changed(FILE_TYPES["pdf"], None)

    def test_real_encryption_changes_type(self):
        from repro.corpus.content import make_pdf
        data = make_pdf(random.Random(6), 8000)
        cipher = random.Random(6).randbytes(len(data))
        assert type_changed(identify(data), identify(cipher))


class TestSimilarityIndicator:
    def _record(self, data, backend="sdhash"):
        cache = FileStateCache(backend=backend)
        record = cache.ensure_baseline(1, WinPath(r"C:\d\f"), data)
        cache.materialise_baseline(record)
        return record

    def test_encryption_collapses(self):
        data = _text(7)
        record = self._record(data)
        score = similarity_score(record, random.Random(7).randbytes(len(data)))
        assert similarity_collapsed(score)

    def test_append_does_not_collapse(self):
        data = _text(8)
        record = self._record(data)
        score = similarity_score(record, data + b" appended paragraph")
        assert score > 50
        assert not similarity_collapsed(score)

    def test_small_file_scores_none(self):
        record = self._record(b"tiny" * 20)
        assert similarity_score(record, random.Random(1).randbytes(80)) is None
        assert not similarity_collapsed(None)

    def test_born_empty_scores_none(self):
        cache = FileStateCache()
        record = cache.track_new(1, WinPath(r"C:\d\new"))
        assert similarity_score(record, _text(9)) is None

    def test_ctph_backend(self):
        data = _text(10)
        record = self._record(data, backend="ctph")
        score = similarity_score(record, random.Random(10).randbytes(len(data)),
                                 backend="ctph")
        assert similarity_collapsed(score)

    def test_deferred_baseline_rejected(self):
        cache = FileStateCache()
        record = cache.ensure_baseline(1, WinPath(r"C:\d\f"), _text(12))
        with pytest.raises(ValueError, match="deferred"):
            similarity_score(record, _text(12))

    def test_unknown_backend_rejected(self):
        record = self._record(_text(11))
        with pytest.raises(ValueError):
            similarity_score(record, b"x" * 1000, backend="fuzzy")


class TestDeletionIndicator:
    def test_allowance_absorbs_temp_churn(self):
        state = ProcessDeletionState(allowance=4)
        assert [state.on_delete() for _ in range(4)] == [False] * 4

    def test_scores_beyond_allowance(self):
        state = ProcessDeletionState(allowance=4)
        for _ in range(4):
            state.on_delete()
        assert state.on_delete() is True
        assert state.count == 5

    def test_zero_allowance(self):
        state = ProcessDeletionState(allowance=0)
        assert state.on_delete() is True


class TestFunnelingIndicator:
    def test_below_spread_never_scores(self):
        state = ProcessFunnelState(spread_threshold=5)
        assert not any(state.on_read_type(t)
                       for t in ("pdf", "docx", "txt", "jpg"))

    def test_scores_at_spread(self):
        state = ProcessFunnelState(spread_threshold=5)
        types = ["pdf", "docx", "txt", "jpg", "xlsx"]
        hits = [state.on_read_type(t) for t in types]
        assert hits == [False] * 4 + [True]

    def test_each_widening_scores_once(self):
        state = ProcessFunnelState(spread_threshold=2)
        state.on_read_type("a")
        assert state.on_read_type("b")
        assert not state.on_read_type("b")     # repeat type: no new spread
        assert state.on_read_type("c")

    def test_writes_narrow_the_spread(self):
        state = ProcessFunnelState(spread_threshold=3)
        for t in ("a", "b"):
            state.on_read_type(t)
        state.on_write_type("x")
        state.on_write_type("y")
        assert not state.on_read_type("c")     # spread 3-2=1 < 3
        assert state.spread == 1

    def test_word_processor_profile_is_quiet(self):
        """§III-D: reads pictures + audio, writes one document type."""
        state = ProcessFunnelState(spread_threshold=5)
        state.on_write_type("docx")
        hits = [state.on_read_type(t) for t in ("jpg", "png", "wav", "docx")]
        assert not any(hits)
