"""A streamed save digests its old version with the stream's entropies.

The contract under test, layer by layer:

* :func:`digest_many` with a :class:`WindowReference` must give the old
  version's digest bit for bit — ``sdhash(old)`` and the scalar reference
  ``sdhash_scalar(old)`` — whatever the two versions hold and however
  the new one was written: text, ciphertext, mixed content, zero runs
  and short repeated patterns, edited in place or unrelated.
* The reuse is skipped work, so it is counted, not timed: a
  bulk_append-shaped save computes at most a quarter of its old
  version's windows, an unrelated reference saves nothing, and no
  comparison cuts more chunks than its length allows.
* A stream keeps at most 1 byte per streamed byte of windows, and none
  once its close, a fallback or a checkpoint restore has dropped it.
* Through :class:`CryptoDropMonitor`, a large in-place save materialises
  the same baseline digest and counts the windows it reused.
"""

import gc
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


# -- work counts --------------------------------------------------------------


class TestReuseWork:
    """The windows the old version's digest computes, counted."""

    SIZE = 1 << 20

    def _pair(self, seed):
        rng = random.Random(seed)
        pool = _pool(seed)
        old = _text(rng, pool, self.SIZE)
        return rng, pool, old

    def test_a_bulk_append_save_computes_at_most_a_quarter(self):
        rng, pool, old = self._pair(7)
        new = _edit(rng, pool, old)
        reference = _stream(new).window_reference(new)
        got = digest_many([old], reference=reference)[0]
        _same(got, sdhash(old))
        total = reference.reused + reference.computed
        assert total == _anchor_positions(np.frombuffer(old, np.uint8)).size
        assert reference.computed <= 0.25 * total

    def test_an_unrelated_reference_computes_nearly_every_window(self):
        rng, pool, old = self._pair(8)
        other = _text(rng, pool, self.SIZE)
        reference = _stream(other).window_reference(other)
        _same(digest_many([old], reference=reference)[0], sdhash(old))
        total = reference.reused + reference.computed
        assert reference.computed >= 0.99 * total

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
    def streams(self, monkeypatch):
        """Weak references to every stream the engine starts."""
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
        config = CryptoDropConfig(stream_digest_min_bytes=0)
        monitor = CryptoDropMonitor(vfs, config).attach()
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
    stream buffers to ``stream_digest_min_bytes``, then streams."""

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
