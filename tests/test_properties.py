"""Property-based tests on the load-bearing invariants.

The most valuable one is the filesystem model check: arbitrary operation
sequences against the VFS must agree with a trivial dict-based oracle,
and a snapshot/revert around any sequence must restore the oracle state
— the campaign harness leans on that for 492 revert cycles.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ProcessEntropyState
from repro.corpus.wordlists import paragraphs
from repro.crypto import chacha20_xor
from repro.entropy import shannon_entropy
from repro.fs import DOCUMENTS, FsError, VirtualFileSystem
from repro.simhash import compare_bytes


def _text(seed, n):
    return paragraphs(random.Random(seed), n).encode()


_NAMES = ("alpha.txt", "Beta.bin", "gamma.dat", "DELTA.tmp", "note.md")
#: small and degenerate payloads, plus text and ciphertext above sdhash's
#: 512-byte floor so similarity, entropy and type change all get a say
_PAYLOADS = (b"", b"x", b"hello world", bytes(range(200)), b"Z" * 5000,
             _text(1, 900), _text(2, 4000),
             chacha20_xor(bytes(32), bytes(12), _text(2, 4000)),
             random.Random(3).randbytes(2048))
_CHUNKS = (61, 512, 1500)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(_NAMES),
                  st.sampled_from(_PAYLOADS)),
        st.tuples(st.just("chunked"), st.sampled_from(_NAMES),
                  st.tuples(st.sampled_from(_PAYLOADS),
                            st.sampled_from(_CHUNKS))),
        st.tuples(st.just("append"), st.sampled_from(_NAMES),
                  st.sampled_from(_PAYLOADS)),
        st.tuples(st.just("read"), st.sampled_from(_NAMES), st.none()),
        st.tuples(st.just("delete"), st.sampled_from(_NAMES), st.none()),
        st.tuples(st.just("rename"), st.sampled_from(_NAMES),
                  st.sampled_from(_NAMES)),
        st.tuples(st.just("truncate"), st.sampled_from(_NAMES), st.none()),
    ),
    min_size=1, max_size=30)


def _apply(vfs, pid, oracle, op):
    """Apply one op to both the VFS and the dict oracle."""
    kind, name, arg = op
    path = DOCUMENTS / name
    try:
        if kind == "write":
            vfs.write_file(pid, path, arg)
            oracle[name.lower()] = arg
        elif kind == "chunked":
            payload, chunk_size = arg
            vfs.write_file(pid, path, payload, chunk_size=chunk_size)
            oracle[name.lower()] = payload
        elif kind == "read":
            vfs.read_file(pid, path)
        elif kind == "append":
            handle = vfs.open(pid, path, "a", create=True)
            try:
                vfs.write(pid, handle, arg)
            finally:
                vfs.close(pid, handle)
            oracle[name.lower()] = oracle.get(name.lower(), b"") + arg
        elif kind == "delete":
            vfs.delete(pid, path)
            del oracle[name.lower()]
        elif kind == "rename":
            if name.lower() == arg.lower():
                return
            vfs.rename(pid, path, DOCUMENTS / arg)
            oracle[arg.lower()] = oracle.pop(name.lower())
        elif kind == "truncate":
            handle = vfs.open(pid, path, "rw")
            try:
                vfs.truncate_handle(pid, handle, 1)
            finally:
                vfs.close(pid, handle)
            oracle[name.lower()] = oracle[name.lower()][:1]
    except FsError:
        # oracle performs the same existence checks implicitly via KeyError
        pass
    except KeyError:
        pass


def _vfs_state(vfs):
    return {path.name.lower(): bytes(node.data)
            for path, node in vfs.peek_walk_files(DOCUMENTS)}


class TestVfsModelCheck:
    @settings(max_examples=60, deadline=None)
    @given(_ops)
    def test_vfs_agrees_with_oracle(self, ops):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        pid = vfs.processes.spawn("model.exe").pid
        oracle: dict = {}
        for op in ops:
            kind, name, arg = op
            # keep oracle/KeyError semantics aligned with FS errors
            if kind in ("delete", "truncate", "rename") \
                    and name.lower() not in oracle:
                try:
                    _apply(vfs, pid, oracle, op)
                except Exception:
                    pass
                continue
            _apply(vfs, pid, oracle, op)
        assert _vfs_state(vfs) == oracle

    @settings(max_examples=60, deadline=None)
    @given(_ops, _ops)
    def test_revert_restores_exact_state(self, setup_ops, attack_ops):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        pid = vfs.processes.spawn("model.exe").pid
        oracle: dict = {}
        for op in setup_ops:
            _apply(vfs, pid, oracle, op)
        before = _vfs_state(vfs)
        vfs.snapshot_mark()
        scratch: dict = dict(oracle)
        for op in attack_ops:
            _apply(vfs, pid, scratch, op)
        vfs.revert()
        assert _vfs_state(vfs) == before


class TestDetectorInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=3000), min_size=1,
                    max_size=8),
           st.lists(st.binary(min_size=1, max_size=3000), min_size=1,
                    max_size=8))
    def test_entropy_delta_bounded(self, reads, writes):
        state = ProcessEntropyState()
        for chunk in reads:
            state.on_read(chunk)
        for chunk in writes:
            state.on_write(chunk)
        delta = state.delta()
        if delta is not None:
            assert 0.0 <= delta <= 8.0

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    @given(st.integers(0, 100000))
    def test_encryption_always_looks_like_data(self, seed):
        """Any ciphertext: unidentifiable type + near-random digest."""
        from repro.magic import identify
        rng = random.Random(seed)
        cipher = rng.randbytes(rng.randint(2048, 8192))
        assert identify(cipher).name == "data"
        assert shannon_entropy(cipher) > 7.5

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1024, max_size=6000),
           st.integers(0, 3000))
    def test_similarity_reflexive_under_prefix(self, data, cut):
        """A file and a strict extension of it stay related."""
        extended = data + data[:cut]
        score = compare_bytes(data, extended)
        if score is not None:
            assert score >= 40
