"""The engine against the eager reference (``tests/reference.py``).

A digest is a pure function of bytes, so *when* and *how* the engine
computes one — a deferred capture, an ``InspectionScheduler`` batch, a
digest-LRU or baseline-store hit, a streamed append — must never change
a verdict.  Every test here runs the same input twice: on the production
engine, and with :class:`~tests.reference.EagerFileStateCache` swapped in
(every version typed and digested per file, on the spot).  It asserts
identical detections, score histories and checkpointed baselines.

This module drives hypothesis op sequences (with an optional checkpoint
→ restore cut in the production run) and a store-backed campaign.  After
every op the sequence driver also checks that the scheduler's
``pending_bytes`` equals the bytes tracked records hold in
``pending_content``.  The other legs against the same reference keep
their old homes: the batched encryptor in
``test_digest_batch::TestSchedulerIdentity``, the streamed encryptor and
a chaos campaign in ``test_streaming_digest::TestStreamingIdentity``, and
a store-less campaign in ``test_baseline_store::TestLazyCloseDigests``.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.corpus import generate
from repro.corpus.wordlists import paragraphs
from repro.fs import DOCUMENTS, ProcessSuspended, VirtualFileSystem
from repro.ransomware import instantiate
from repro.sandbox import run_campaign

from tests.reference import eager_reference, verdict_checkpoint
from tests.test_baseline_store import _fingerprint, _profiles
from tests.test_properties import _apply, _ops


def _text(seed, n=6000):
    return paragraphs(random.Random(seed), n).encode()


def _outcome(monitor):
    """Detections, score histories and the checkpoint, bookkeeping out."""
    state = verdict_checkpoint(monitor)
    report = monitor.export_report()
    return {"detections": report["detections"],
            "histories": report["processes"], "checkpoint": state}


def _assert_pending_accounted(engine):
    held = sum(len(record.pending_content)
               for record in engine.cache._by_node.values()
               if record.pending_content is not None)
    assert engine.scheduler.pending_bytes == held


#: documents present before the monitor attaches, so sequences capture,
#: compare, link and clobber real baselines
_SEEDED = {"alpha.txt": _text(11, 3000), "gamma.dat": _text(12, 6000),
           "note.md": _text(13, 1200)}


def _drive(ops, config, cut=None):
    vfs = VirtualFileSystem()
    vfs._ensure_dirs(DOCUMENTS)
    for name, content in _SEEDED.items():
        vfs.peek_write(DOCUMENTS / name, content)
    oracle = {name.lower(): content for name, content in _SEEDED.items()}
    monitor = CryptoDropMonitor(vfs, config).attach()
    pid = vfs.processes.spawn("model.exe").pid
    for index, op in enumerate(ops):
        try:
            _apply(vfs, pid, oracle, op)
        except ProcessSuspended:
            pass
        _assert_pending_accounted(monitor.engine)
        if index == cut:
            state = json.loads(json.dumps(monitor.checkpoint()))
            monitor.detach()
            monitor = CryptoDropMonitor.from_checkpoint(
                vfs, state, config).attach()
    return _outcome(monitor)


class TestOpSequences:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_ops, cut=st.one_of(st.none(), st.integers(0, 29)),
           pending_cap=st.sampled_from([0, 4096]),
           lru=st.sampled_from([0, 2, 256]))
    # Class-C move-over of a pending capture onto a digested baseline: the
    # moved node's replaced record must not leave its scheduler slot behind
    @example(ops=[("append", "gamma.dat", b""),
                  ("rename", "alpha.txt", "gamma.dat")],
             cut=None, pending_cap=0, lru=256)
    # a checkpoint cut while a tracked file is empty: the restored "empty"
    # baseline type must still be ignored by the type-change indicator
    @example(ops=[("write", "alpha.txt", b""), ("write", "alpha.txt", b"x")],
             cut=0, pending_cap=0, lru=0)
    def test_engine_matches_reference(self, ops, cut, pending_cap, lru):
        config = CryptoDropConfig(stream_digest_min_bytes=0,
                                  scheduler_pending_bytes_cap=pending_cap,
                                  digest_cache_entries=lru)
        production = _drive(ops, config, cut)
        with eager_reference():
            reference = _drive(ops, config)
        assert production == reference


@pytest.fixture(scope="module")
def corpus():
    return generate(seed=41, n_files=12, n_dirs=3, use_cache=False)


class TestCampaigns:
    def test_store_backed_campaign_matches_reference(self, corpus):
        profiles = _profiles()
        production = run_campaign([instantiate(p) for p in profiles],
                                  corpus)
        assert production.perf_stats()["digest_cache"]["store_hits"] > 0
        with eager_reference():
            reference = run_campaign([instantiate(p) for p in profiles],
                                     corpus)
        assert _fingerprint(production) == _fingerprint(reference)
