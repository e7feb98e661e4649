"""A streamed save digests its old version with the stream's entropies.

The contract under test, layer by layer:

* :func:`digest_many` with a :class:`WindowReference` must give the old
  version's digest bit for bit — ``sdhash(old)`` and the scalar reference
  ``sdhash_scalar(old)`` — whatever the two versions hold and however
  the new one was written: text, ciphertext, mixed content, zero runs
  and short repeated patterns, edited in place or unrelated.
* The reuse is skipped work, so it is counted, not timed: a
  bulk_append-shaped save computes at most a quarter of its old
  version's windows, SHA-1s at most a quarter of its features, anchors
  at most a quarter of its bytes and computes at most 2.5 windows per
  window its edits touched; shuffled blocks keep the reuse chunk
  matching found, an unrelated reference saves nothing, and no
  comparison cuts more chunks than its length allows.
* A stream keeps at most 1 byte per streamed byte of windows, and none
  once its close, a fallback or a checkpoint restore has dropped it.
* Through :class:`CryptoDropMonitor`, a large in-place save materialises
  the same baseline digest and counts the windows it reused.
"""

import gc
import hashlib
import importlib
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.core.filestate import DigestCache
from repro.corpus.wordlists import paragraph
from repro.fs import DOCUMENTS, VirtualFileSystem
from repro.simhash import digest_many, sdhash
from repro.simhash.sdhash import (StreamingDigestState, WindowReference,
                                  _anchor_positions, _chunk_bounds,
                                  _cut_candidates, _MIN_CHUNK)
from repro.telemetry import engine_snapshot, render_prometheus

from tests.reference import sdhash_scalar

#: the module, not the ``repro.simhash.sdhash`` function
sdhash_mod = importlib.import_module("repro.simhash.sdhash")
CHUNK = 64 << 10


def _pool(seed):
    rng = random.Random(seed)
    return [(paragraph(rng) + "\n\n").encode() for _ in range(400)]


def _text(rng, pool, size):
    """bulk_append's generator: paragraphs drawn from a pool."""
    parts, total = [], 0
    while total < size:
        parts.append(rng.choice(pool))
        total += len(parts[-1])
    return b"".join(parts)[:size]


def _edit(rng, pool, original):
    """bulk_append's save: about one 4 KiB block in twenty replaced."""
    blocks = [original[i:i + 4096] for i in range(0, len(original), 4096)]
    for i in range(len(blocks)):
        if rng.random() < 0.05:
            blocks[i] = _text(rng, pool, len(blocks[i]))
    return b"".join(blocks)


def _stream(data, sizes=(CHUNK,)):
    """A stream fed ``data`` in writes of ``sizes``, the last size
    repeated."""
    state = StreamingDigestState()
    at, i = 0, 0
    while at < len(data):
        step = sizes[min(i, len(sizes) - 1)]
        state.update(data[at:at + step])
        at += step
        i += 1
    return state


def _same(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.hexdigest() == want.hexdigest()
    assert got.n_features == want.n_features
    assert got.counts == want.counts
    assert got.source_len == want.source_len


# -- hypothesis: bit for bit whatever the versions and the writes -------------

POOL = _pool(3)


@st.composite
def _old_version(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    # drawn from the seed, so most versions hold many chunks
    size = rng.randrange(80, 4096) if rng.random() < 0.25 else \
        rng.randrange(4096, 120_000)
    kind = draw(st.sampled_from(["text", "cipher", "mixed", "zeros",
                                 "pattern"]))
    text = _text(rng, POOL, size)
    if kind == "text":
        return text
    if kind == "cipher":
        return rng.randbytes(size)
    if kind == "mixed":
        cut = rng.randrange(size)
        return text[:cut] + rng.randbytes(size - cut)
    if kind == "zeros":
        # text broken by long zero runs
        out = bytearray(text)
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(size)
            out[at:at + rng.randrange(512, 8192)] = bytes(
                min(size - at, 8192))
        return bytes(out[:size])
    unit = rng.randbytes(rng.randrange(1, 24))
    return (unit * (size // len(unit) + 1))[:size]


@st.composite
def _edits(draw, old):
    """The new version: ``old`` under random replace, insert, delete,
    append and truncate edits — or, sometimes, unrelated bytes."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.integers(0, 9)) == 0:
        return _text(rng, POOL, len(old))
    new = bytearray(old)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "append",
                                   "truncate"]))
        at = rng.randrange(len(new) + 1)
        n = rng.randrange(1, 3000)
        if op == "replace":
            new[at:at + n] = rng.randbytes(min(n, len(new) - at))
        elif op == "insert":
            new[at:at] = _text(rng, POOL, n)
        elif op == "delete":
            del new[at:at + n]
        elif op == "append":
            new += _text(rng, POOL, n)
        else:
            del new[at:]
    return bytes(new)


@st.composite
def _save(draw):
    old = draw(_old_version())
    new = draw(_edits(old))
    sizes = draw(st.lists(st.integers(1, 9000), max_size=8))
    return old, new, sizes + [draw(st.integers(4096, 70_000))]


@settings(max_examples=150, deadline=None)
@given(save=_save())
def test_old_version_digest_with_the_stream_is_bit_for_bit(save):
    old, new, sizes = save
    made = []
    real = _chunk_bounds

    def counting_bounds(size, cuts):
        bounds = real(size, cuts)
        made.append((size, bounds.size - 2))
        return bounds

    state = _stream(new, sizes)
    assert state.retained_bytes <= state.total
    reference = state.window_reference(new)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdhash_mod, "_chunk_bounds", counting_bounds)
        got = digest_many([old], reference=reference)[0]
    want = sdhash(old)
    _same(got, want)
    _same(sdhash_scalar(old), want)
    if len(old) >= 512:
        windows = _anchor_positions(np.frombuffer(old, np.uint8)).size
        assert reference.reused + reference.computed == windows
    # interior boundaries lie _MIN_CHUNK apart from 0 on
    for length, interior in made:
        assert interior <= length // _MIN_CHUNK


def _chunk_bounds_loop(size, cuts):
    """The boundary rule one ``searchsorted`` per chunk: the reference
    the vectorised ``_chunk_bounds`` must equal."""
    bounds = [0]
    while True:
        i = int(cuts.searchsorted(bounds[-1] + _MIN_CHUNK))
        if i == cuts.size:
            break
        bounds.append(int(cuts[i]))
    bounds.append(size)
    return bounds


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chunk_bounds_are_the_loops(data):
    """Sparse candidates (text), clusters closer than ``_MIN_CHUNK``
    and dense runs (a zero run cuts at every offset), in both dtypes
    the callers pass."""
    size = data.draw(st.integers(1, 40_000))
    cuts = set(data.draw(st.lists(st.integers(0, size - 1), max_size=60)))
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, size - 1))
        step = data.draw(st.integers(1, 700))
        cuts.update(range(at, min(size, at + data.draw(
            st.integers(1, 6000))), step))
    for dtype in (np.int64, np.uint32):
        ordered = np.array(sorted(cuts), dtype=dtype)
        assert _chunk_bounds(size, ordered).tolist() == \
            _chunk_bounds_loop(size, ordered)


def test_reference_holds_every_anchored_window_of_its_version():
    rng = random.Random(4)
    data = _text(rng, POOL, 300_000)
    sizes = (1, 70, 1, 4096, 65_536, 13, 65_536)
    reference = _stream(data, sizes).window_reference(data)
    buf = np.frombuffer(data, np.uint8)
    starts = _anchor_positions(buf)
    assert reference.starts.tolist() == starts.tolist()
    assert reference.entropies.tobytes() == \
        sdhash_mod._window_entropies(buf, starts).tobytes()
    # the SHA-1s: every feature the stream decided, each its window's
    rows = reference.sha1_rows()
    lent = np.flatnonzero(rows >= 0)
    assert rows[lent].tolist() == list(range(len(reference.sha1s) // 20))
    held = sdhash(data).n_features - lent.size
    assert 0 <= held <= sdhash_mod.POPULARITY_SPAN
    for at, row in zip(reference.starts[lent].tolist(), rows[lent].tolist()):
        assert hashlib.sha1(data[at:at + 64]).digest() == \
            reference.sha1s[20 * row:20 * row + 20]


# -- work counts --------------------------------------------------------------


class TestReuseWork:
    """The windows the old version's digest computes and the features it
    hashes, counted."""

    SIZE = 1 << 20

    def _pair(self, seed):
        rng = random.Random(seed)
        pool = _pool(seed)
        old = _text(rng, pool, self.SIZE)
        return rng, pool, old

    @pytest.fixture
    def hashed(self, monkeypatch):
        """The number of windows each ``_sha1s`` call hashes."""
        calls = []
        real = sdhash_mod._sha1s

        def counting(windows):
            calls.append(len(windows))
            return real(windows)

        monkeypatch.setattr(sdhash_mod, "_sha1s", counting)
        return calls

    def test_a_bulk_append_save_computes_at_most_a_quarter(self, hashed):
        rng, pool, old = self._pair(7)
        new = _edit(rng, pool, old)
        reference = _stream(new).window_reference(new)
        hashed.clear()  # the stream's own
        got = digest_many([old], reference=reference)[0]
        _same(got, sdhash(old))
        total = reference.reused + reference.computed
        assert total == _anchor_positions(np.frombuffer(old, np.uint8)).size
        assert reference.computed <= 0.25 * total
        assert 0 < hashed[0] <= 0.25 * got.n_features

    def test_an_unrelated_reference_computes_nearly_every_window(self,
                                                                 hashed):
        rng, pool, old = self._pair(8)
        other = _text(rng, pool, self.SIZE)
        reference = _stream(other).window_reference(other)
        hashed.clear()
        got = digest_many([old], reference=reference)[0]
        _same(got, sdhash(old))
        total = reference.reused + reference.computed
        assert reference.computed >= 0.99 * total
        assert hashed[0] >= 0.99 * got.n_features

    @pytest.fixture
    def scanned(self, monkeypatch):
        """The bytes each ``_anchor_starts`` call scans."""
        calls = []
        real = sdhash_mod._anchor_starts

        def counting(buf):
            calls.append(buf.size)
            return real(buf)

        monkeypatch.setattr(sdhash_mod, "_anchor_starts", counting)
        return calls

    @staticmethod
    def _touched(old, new):
        """The anchored windows of ``old`` whose 8 context bytes or 64
        bytes hold a byte ``new`` (as long) changed."""
        buf = np.frombuffer(old, np.uint8)
        starts = _anchor_positions(buf)
        changed = np.zeros(buf.size + 1, dtype=np.int64)
        np.cumsum(buf != np.frombuffer(new, np.uint8), out=changed[1:])
        return int(np.count_nonzero(changed[starts + 64]
                                    - changed[starts - 8]))

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_a_save_anchors_at_most_a_quarter_of_its_old_bytes(self, seed,
                                                               scanned):
        """The walk reads the windows of the runs the two versions share
        from the reference; only the gaps are scanned (5-9% here; every
        byte before the walk)."""
        rng, pool, old = self._pair(seed)
        new = _edit(rng, pool, old)
        reference = _stream(new).window_reference(new)
        scanned.clear()  # the stream's own
        got = digest_many([old], reference=reference)[0]
        assert 0 < sum(scanned) <= 0.25 * len(old)
        _same(got, sdhash(old))

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_a_save_computes_little_beyond_the_windows_it_touched(self,
                                                                  seed):
        """Runs widened over the bytes a missed chunk still shares leave
        1.1-1.4 computed windows per touched one here; chunk matching
        alone computed 3.15-3.40."""
        rng, pool, old = self._pair(seed)
        new = _edit(rng, pool, old)
        reference = _stream(new).window_reference(new)
        _same(digest_many([old], reference=reference)[0], sdhash(old))
        touched = self._touched(old, new)
        assert 0 < touched <= reference.computed <= 2.5 * touched

    #: windows the chunk matching that preceded the walk reused on
    #: ``test_moved_blocks_keep_their_reuse``'s input (of 125,134): the
    #: walk must find at least as many (it finds 73,218)
    MOVED_FLOOR = 34_430

    def test_moved_blocks_keep_their_reuse(self):
        """A 2 MiB save whose 8 KiB blocks are shuffled: the in-order
        walk loses its way at every block, so key matching finds the
        moved blocks and the walk resumes there."""
        rng, pool, _ = self._pair(7)
        old = _text(rng, pool, 2 << 20)
        blocks = [old[at:at + 8192] for at in range(0, len(old), 8192)]
        rng.shuffle(blocks)
        new = b"".join(blocks)
        reference = _stream(new).window_reference(new)
        _same(digest_many([old], reference=reference)[0], sdhash(old))
        assert reference.reused >= self.MOVED_FLOOR

    def test_a_zero_run_stream_stops_retaining(self):
        zeros = bytes(4 << 20)
        state = StreamingDigestState()
        for at in range(0, len(zeros), CHUNK):
            state.update(zeros[at:at + CHUNK])
            assert state.retained_bytes == 0
        reference = state.window_reference(zeros)
        assert reference.starts.size == reference.entropies.size == 0
        _same(digest_many([zeros], reference=reference)[0], sdhash(zeros))
        assert reference.reused == 0

    def test_a_zero_run_cuts_no_more_chunks_than_its_length_allows(self):
        zeros = np.zeros(4 << 20, dtype=np.uint8)
        starts = _anchor_positions(zeros)
        # every offset anchors, and every anchor is a candidate
        assert starts.size == zeros.size - 8 - 64 + 1
        cuts = _cut_candidates(zeros, starts)
        assert cuts.size == starts.size
        bounds = _chunk_bounds(zeros.size, cuts)
        assert bounds[0] == 0 and bounds[-1] == zeros.size
        assert bounds.size - 2 <= zeros.size // _MIN_CHUNK
        assert np.diff(bounds[:-1]).min() >= _MIN_CHUNK


# -- retained memory ----------------------------------------------------------


class TestRetainedMemory:
    @pytest.mark.parametrize("kind", ["text", "cipher", "zeros", "mixed"])
    def test_at_most_one_byte_per_streamed_byte(self, kind):
        rng = random.Random(11)
        text = _text(rng, POOL, 1 << 20)
        data = {"text": text, "cipher": rng.randbytes(1 << 20),
                "zeros": bytes(1 << 20),
                "mixed": text[:1 << 19] + bytes(1 << 19)}[kind]
        state = StreamingDigestState()
        for at in range(0, len(data), 4096):
            state.update(data[at:at + 4096])
            assert state.retained_bytes <= state.total
        if kind in ("text", "cipher"):
            assert state.retained_bytes > 0.5 * state.total
        state.finalize()
        assert state.retained_bytes == 0

    @pytest.fixture
    def streams(self, monkeypatch, stream_threshold):
        """Weak references to every stream the engine starts, each
        running the pipeline from its first byte."""
        made = []

        class Watched(StreamingDigestState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(engine_mod, "StreamingDigestState", Watched)
        return made

    @staticmethod
    def _monitor():
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        monitor = CryptoDropMonitor(vfs, CryptoDropConfig()).attach()
        pid = vfs.processes.spawn("editor.exe").pid
        rng = random.Random(12)
        path = DOCUMENTS / "report.txt"
        vfs.peek_write(path, _text(rng, POOL, 200_000))
        return vfs, monitor, pid, path, _text(rng, POOL, 200_000)

    @staticmethod
    def _live(streams):
        gc.collect()
        return [ref() for ref in streams if ref() is not None]

    def test_gone_after_close(self, streams):
        vfs, monitor, pid, path, content = self._monitor()
        handle = vfs.open(pid, path, "w", truncate=True)
        vfs.write(pid, handle, content[:CHUNK])
        state = self._live(streams)[0]
        assert state.retained_bytes > 0
        del state
        vfs.write(pid, handle, content[CHUNK:])
        vfs.close(pid, handle)
        assert monitor.stats()["streaming"]["finalized"] == 1
        assert self._live(streams) == []

    def test_gone_after_a_dropped_stream(self, streams):
        vfs, monitor, pid, path, content = self._monitor()
        handle = vfs.open(pid, path, "w", truncate=True)
        vfs.write(pid, handle, content[:CHUNK])
        assert self._live(streams)[0].retained_bytes > 0
        vfs.seek(pid, handle, 0)
        vfs.write(pid, handle, content[:100])
        assert monitor.stats()["streaming"]["fallbacks"] == {
            "nonsequential": 1}
        assert self._live(streams) == []
        vfs.close(pid, handle)

    def test_gone_after_a_checkpoint_restore(self, streams):
        vfs, monitor, pid, path, content = self._monitor()
        handle = vfs.open(pid, path, "w", truncate=True)
        vfs.write(pid, handle, content[:CHUNK])
        assert self._live(streams)[0].retained_bytes > 0
        monitor.engine.restore(monitor.engine.checkpoint())
        assert monitor.stats()["streaming"]["in_flight"] == 0
        assert self._live(streams) == []
        vfs.close(pid, handle)


# -- through the engine -------------------------------------------------------


class TestEngineReuse:
    """A 1.5 MiB in-place save with the default configuration: the
    stream keeps only its key up to ``STREAM_DIGEST_MIN_BYTES``, then
    starts from the node's bytes and streams."""

    @pytest.fixture(scope="class")
    def saved(self):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        monitor = CryptoDropMonitor(
            vfs, CryptoDropConfig(telemetry_enabled=True)).attach()
        pid = vfs.processes.spawn("exporter.exe").pid
        rng = random.Random(23)
        pool = _pool(23)
        old = _text(rng, pool, 3 << 19)
        new = _edit(rng, pool, old)
        path = DOCUMENTS / "report.txt"
        vfs.peek_write(path, old)
        handle = vfs.open(pid, path, "r")
        while vfs.read(pid, handle, CHUNK):
            pass
        vfs.close(pid, handle)
        handle = vfs.open(pid, path, "w", truncate=True)
        for at in range(0, len(new), CHUNK):
            vfs.write(pid, handle, new[at:at + CHUNK])
        vfs.close(pid, handle)
        return monitor, old, new

    def test_the_materialised_baseline_is_a_fresh_sdhash(self, saved):
        monitor, old, new = saved
        found = monitor.engine.cache.digest_cache.get(DigestCache.key(old))
        assert found is not None
        _same(found.digest, sdhash(old))
        assert monitor.stats()["scheduler"]["live_digests"] == 1

    def test_the_counter_shows_reuse(self, saved):
        monitor, old, _ = saved
        streaming = monitor.stats()["streaming"]
        assert streaming["finalized"] == 1
        reused = streaming["baseline_windows_reused"]
        computed = streaming["baseline_windows_computed"]
        assert reused + computed == _anchor_positions(
            np.frombuffer(old, np.uint8)).size
        assert computed <= 0.25 * (reused + computed)

    def test_the_counter_travels_in_checkpoints(self, saved):
        monitor, _, _ = saved
        before = monitor.stats()["streaming"]
        restored = CryptoDropMonitor.from_checkpoint(
            VirtualFileSystem(), monitor.checkpoint())
        after = restored.stats()["streaming"]
        for key in ("baseline_windows_reused", "baseline_windows_computed"):
            assert after[key] == before[key] > 0

    def test_engine_snapshot_mirrors_it(self, saved):
        monitor, _, _ = saved
        streaming = monitor.stats()["streaming"]
        text = render_prometheus(engine_snapshot(monitor))
        for source in ("reused", "computed"):
            line = ('cryptodrop_stream_baseline_windows{source="%s"} %d'
                    % (source, streaming[f"baseline_windows_{source}"]))
            assert line in text.splitlines()


def test_chunks_found_side_by_side_stay_apart():
    """An old version made of two of the reference's chunks that are not
    neighbours there: key matching finds both, back to back, and each
    must stay its own run, at its own offset in the reference."""
    new = _text(random.Random(31), POOL, 96_000)
    reference = _stream(new).window_reference(new)
    mine = np.frombuffer(new, np.uint8)
    bounds = _chunk_bounds(mine.size,
                           _cut_candidates(mine, reference.starts)).tolist()
    assert len(bounds) > 8
    old = b"".join(new[bounds[j]:bounds[j + 1]] for j in (2, 5, 3))
    runs = sdhash_mod._Walk(reference, old,
                            np.frombuffer(old, np.uint8)).walk()
    assert len(runs) >= 2
    for o, r, n in runs:
        assert old[o:o + n] == new[r:r + n]
    _same(digest_many([old], reference=reference)[0], sdhash(old))


@pytest.fixture(scope="module")
def save_blobs():
    """A save's old and new version, unrelated text, ciphertext and a
    blob too small to digest."""
    rng, pool = random.Random(21), _pool(21)
    old = _text(rng, pool, 300_000)
    new = _edit(rng, pool, old)
    return {"old": old, "cipher": rng.randbytes(20_000), "new": new,
            "tiny": b"tiny", "unrelated": _text(rng, pool, 50_000)}


@pytest.mark.parametrize("name", ["old", "new", "unrelated", "cipher",
                                  "tiny"])
def test_a_reference_lent_to_one_blob_digests_it_alone(save_blobs, name):
    """The new version's windows, lent to each blob on its own."""
    blob, new = save_blobs[name], save_blobs["new"]
    reference = _stream(new).window_reference(new)
    _same(digest_many([blob], reference=reference)[0], sdhash(blob))
    assert reference.reused + reference.computed == (
        _anchor_positions(np.frombuffer(blob, np.uint8)).size
        if len(blob) >= 512 else 0)
    if name == "new":
        # the new version lends itself every window
        assert reference.reused >= reference.starts.size


def test_a_reference_lent_to_two_blobs_raises(save_blobs):
    """A reference is lent to one digestable blob; a blob too small to
    digest does not count."""
    old, new = save_blobs["old"], save_blobs["new"]
    reference = _stream(new).window_reference(new)
    _same(digest_many([b"tiny", old], reference=reference)[1], sdhash(old))
    with pytest.raises(ValueError, match="one blob"):
        digest_many([old, new], reference=reference)


def test_a_reference_is_what_a_stream_lends():
    """The stream hands its windows over once."""
    data = _text(random.Random(5), POOL, 100_000)
    state = _stream(data)
    assert state.retained_bytes > 0
    reference = state.window_reference(data)
    assert isinstance(reference, WindowReference)
    assert reference.starts.dtype == np.uint32
    assert state.retained_bytes == 0
    assert state.window_reference(data).starts.size == 0
    _same(state.finalize(), sdhash(data))


# -- the recorded selection ---------------------------------------------------


class TestRecordedSelection:
    """The stream records the index of each window it selects as it
    decides it; the old version's digest scatters that record instead of
    running the popularity rule over the reference's windows again."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of ``_popular`` and of ``WindowReference.sha1_rows``."""
        counts = {"popular": 0, "sha1_rows": 0}
        popular, sha1_rows = sdhash_mod._popular, WindowReference.sha1_rows

        def counting_popular(line):
            counts["popular"] += 1
            return popular(line)

        def counting_rows(reference):
            counts["sha1_rows"] += 1
            return sha1_rows(reference)

        monkeypatch.setattr(sdhash_mod, "_popular", counting_popular)
        monkeypatch.setattr(WindowReference, "sha1_rows", counting_rows)
        return counts

    def test_a_save_runs_the_popularity_rule_once(self, calls):
        rng, pool = random.Random(7), _pool(7)
        old = _text(rng, pool, 1 << 20)
        new = _edit(rng, pool, old)
        reference = _stream(new).window_reference(new)
        calls.update(popular=0, sha1_rows=0)  # the stream's own
        got = digest_many([old], reference=reference)[0]
        assert calls == {"popular": 1, "sha1_rows": 1}
        assert reference.reused > 3 * reference.computed
        _same(got, sdhash(old))

    def test_an_unshared_reference_builds_no_row_array(self, calls):
        rng = random.Random(9)
        old = _text(rng, POOL, 1 << 20)
        other = rng.randbytes(1 << 20)
        reference = _stream(other).window_reference(other)
        calls.update(popular=0, sha1_rows=0)
        got = digest_many([old], reference=reference)[0]
        assert calls == {"popular": 1, "sha1_rows": 0}
        assert reference.reused == 0
        _same(got, sdhash(old))

    def test_the_record_is_counted_in_retained_bytes(self):
        data = _text(random.Random(12), POOL, 300_000)
        state = _stream(data)
        retained = state.retained_bytes
        reference = state.window_reference(data)
        selected = reference.selected
        assert selected.dtype == np.int32
        assert selected.size == len(reference.sha1s) // 20 > 0
        assert retained == 12 * reference.starts.size + 4 * selected.size

    def test_a_stream_that_dropped_its_windows_hands_over_an_empty_record(
            self):
        """Text, whose selected windows the stream records, then a zero
        run, which makes it drop them all."""
        data = _text(random.Random(13), POOL, 1 << 19) + bytes(1 << 19)
        state = _stream(data)
        reference = state.window_reference(data)
        assert reference.starts.size == reference.selected.size == 0
        assert reference.selected.dtype == np.int32
        assert reference.sha1_rows().size == 0
        _same(state.finalize(), sdhash(data))
