"""Hot-path benchmark harness → ``BENCH_8.json``.

Times the engine's performance-critical paths directly (no pytest
overhead) and writes a machine-comparable JSON report:

* ``hot_paths`` — best-of-N seconds per call for each named path.  These
  are the regression-gated numbers: ``check_regression.py`` fails the
  build when any of them slows down more than 25% against the committed
  baseline.
* ``speedups`` — vectorised-vs-scalar ratios for the sdhash digest and
  the batched all-pairs compare, cached-vs-uncached for the close-heavy
  engine campaign, store-vs-BENCH_2-era-path for the campaign
  throughput sweep (the ISSUE-3 headline: shared BaselineStore +
  deferred close digests versus the eager reference cache of
  ``tests/reference.py``, which digests every version on the spot with
  no store or LRU), and the ISSUE-5
  batch-kernel ratios: ``digest_many`` versus a per-file digest loop on
  a small-document batch, and the batched store build versus the serial
  reference loop.
* ``counters`` — the perfstats snapshot of the close-heavy campaign,
  including the single-digest invariant (bytes digested ≤ bytes closed).
* ``campaign`` — throughput and merged engine counters for the
  store-backed campaign sweep, plus the one-time store build cost.
* ``telemetry_overhead`` — the ISSUE-4 guardrail: the close-heavy
  workload run as interleaved baseline/off/on triples, each leg
  best-of-N.  The disabled path must stay within noise of the (equally
  telemetry-free) baseline leg (<2%, gated in
  ``tests/test_bench_smoke.py``), engine counters must be identical
  either way, and a small detection campaign must produce bit-identical
  results with telemetry on.
* ``streaming_digest`` — the ISSUE-7 section: a large file (256 MiB at
  full scale) written chunk by chunk and closed, once front to back (an
  append-only stream) and once back to front (seek, then write: not a
  stream).  The streamed close finalises its sdhash from the incremental
  per-handle stream in O(tail); the whole leg digests the full content.
  Both legs time the close plus the scheduler flush, so a deferred
  digest is not timed as free.  Gates: the digests are bit-identical, a
  storeless campaign with every stream active matches the eager
  reference, and at full scale the streamed close is ≥5× faster
  (``streaming_close_speedup_ge_5``).
* ``store_persistence`` — the ISSUE-9 section: the single-file on-disk
  baseline store (``repro.store``).  A scaling sweep builds a ``.cdbs``
  at 10k and 100k entries (1M with ``--big``; ~1k in smoke) via the
  sharded parallel builder, then measures what persistence exists for:
  reopening is O(header) (gated ≤50 ms and ≥100× faster than
  rebuilding at full scale), a pristine re-inspection sweep over the
  reopened store digests zero bytes, paged-in residency stays bounded
  by the hot-entry cap, and every file passes the structural fsck.  A
  dict-vs-mmap campaign pair asserts bit-identical verdicts — the
  backend is storage, never semantics.
* ``ingest_resilience`` — the ISSUE-6 section: a multi-endpoint ingest
  session (64 tenants at full scale) run fault-free, then again under a
  combined fault storm (shard kills, poison events, queue stalls,
  transient denials) with breaker + watchdog on, then under overload
  with load shedding.  Gates: sustained throughput under faults ≥ 70%
  of fault-free, post-restart verdicts bit-identical to the unfaulted
  reference, zero cross-tenant event leakage, and every shed decision
  observable as telemetry (with non-shed tenants unchanged).

Run via ``make bench`` (full scale) or with ``--smoke`` for a seconds-long
structural pass (used by the tier-1 smoke test; smoke numbers are not
comparable to a full-scale baseline and the ≥3× throughput gate only
applies at full scale).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# the eager reference cache lives with the tests, outside the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.filestate import FileStateCache
from repro.corpus.baselines import BaselineStore, content_key
from repro.corpus.builder import generate
from repro.corpus.spec import default_spec
from repro.corpus.wordlists import paragraphs
from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.faults import ingest_chaos, transient_faults
from repro.fs import DOCUMENTS, VirtualFileSystem
from repro.ingest import (EndpointSessionManager, ShedPolicy,
                          record_endpoint_stream)
from repro.perfstats import collect
from repro.ransomware import instantiate
from repro.ransomware.factory import working_cohort
from repro.sandbox import (VirtualMachine, run_campaign,
                           run_campaign_parallel, store_for_config)
from repro.sandbox.parallel import build_store_parallel
from repro.simhash.sdhash import (compare, compare_scalar, digest_many,
                                  sdhash, sdhash_scalar)
from repro.store import fsck_store
from tests.reference import eager_reference

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_8.json"
SCHEMA_VERSION = 8

#: minimum store-vs-eager-reference campaign speedup gated at full scale
CAMPAIGN_SPEEDUP_FLOOR = 3.0
#: minimum digest_many-vs-per-file speedup on a 32-document batch
DIGEST_MANY_SPEEDUP_FLOOR = 2.0
#: minimum batched-vs-serial store build speedup on a small-doc corpus
STORE_BUILD_SPEEDUP_FLOOR = 3.0
#: minimum faulted-vs-fault-free ingest throughput gated at full scale
INGEST_THROUGHPUT_FLOOR = 0.70
#: minimum streamed-vs-whole-file close speedup gated at full scale
STREAMING_CLOSE_SPEEDUP_FLOOR = 5.0
#: maximum store reopen time gated at full scale (header + mmap only)
STORE_OPEN_CEILING_S = 0.050
#: minimum open-vs-rebuild ratio for the largest store at full scale
STORE_OPEN_VS_REBUILD_FLOOR = 100.0


def _text(seed: int, approx_bytes: int) -> bytes:
    data = paragraphs(random.Random(seed), approx_bytes).encode()
    while len(data) < approx_bytes:
        data += paragraphs(random.Random(seed + len(data)),
                           approx_bytes).encode()
    return data[:approx_bytes]


def _best_seconds(fn, repeats: int) -> float:
    """Best-of-N wall time.  The minimum is the noise-robust estimator
    for regression gating: scheduler preemption and cache pollution only
    ever add time, so the fastest observed run is the closest to the
    code's true cost."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _fast_vs_slow(fast_fn, slow_fn, fast_repeats: int,
                  slow_repeats: int) -> tuple:
    """Time a fast path against its slow reference, interleaved.

    Returns ``(fast_min_seconds, speedup)``.  The speedup is the max of
    the best *paired-round* ratio (the legs of a round run back-to-back,
    so a contention burst hits both rather than eating one side of the
    ratio) and the ratio of per-leg minima (each leg's quietest moment,
    which need not be the same round).  Noise has to penalise the fast
    leg in every paired round *and* at the global minima to understate
    the speedup, while a genuinely broken fast path drags every estimate
    down — the same two-estimator scheme as ``telemetry_overhead``,
    mirrored for a lower-bound gate.
    """
    fast_times, slow_times, paired = [], [], []
    for i in range(max(fast_repeats, slow_repeats)):
        started = time.perf_counter()
        fast_fn()
        t_fast = time.perf_counter() - started
        fast_times.append(t_fast)
        if i < slow_repeats:
            started = time.perf_counter()
            slow_fn()
            t_slow = time.perf_counter() - started
            slow_times.append(t_slow)
            paired.append(t_slow / t_fast)
    fast_min = min(fast_times)
    speedup = max(max(paired), min(slow_times) / fast_min)
    return fast_min, speedup


def _digest_with_filters(min_filters: int):
    """Text content large enough to span ``min_filters`` Bloom filters."""
    size = min_filters * 24 * 1024
    while True:
        digest = sdhash(_text(7, size))
        if digest is not None and len(digest) >= min_filters:
            return digest
        size *= 2


def close_heavy_campaign(n_files: int, rewrites: int, payload: int,
                         digest_cache_entries: int = 256,
                         telemetry: bool = False):
    """Rewrite-then-close the same documents repeatedly.

    Steady state is exactly the workload the digest cache exists for:
    every close re-inspects content the engine has digested before.
    Returns ``(elapsed_seconds, PerfStats, telemetry_export_or_None)``.
    """
    vfs = VirtualFileSystem()
    vfs._ensure_dirs(DOCUMENTS)
    paths = []
    for i in range(n_files):
        path = DOCUMENTS / f"doc{i}.txt"
        vfs.peek_write(path, _text(i, payload))
        paths.append(path)
    config = CryptoDropConfig(digest_cache_entries=digest_cache_entries,
                              telemetry_enabled=telemetry)
    monitor = CryptoDropMonitor(vfs, config).attach()
    pid = vfs.processes.spawn("editor.exe").pid
    started = time.perf_counter()
    for _ in range(rewrites):
        for path in paths:
            handle = vfs.open(pid, path, "rw")
            data = vfs.read(pid, handle)
            vfs.seek(pid, handle, 0)
            vfs.write(pid, handle, data)
            vfs.close(pid, handle)
    elapsed = time.perf_counter() - started
    stats = collect(monitor)
    export = monitor.telemetry_export()
    monitor.detach()
    return elapsed, stats, export


# -- campaign throughput (ISSUE 3) ----------------------------------------


def _bench_corpus(n_files: int, n_dirs: int):
    """A large-file corpus for the throughput sweep.

    Every document is pushed above the samples' pure-Python cipher
    cutoff, so the workload cost is dominated by the detector's digest
    path — the thing the BaselineStore exists to amortise — rather than
    by toy-cipher arithmetic on small payloads.
    """
    spec = default_spec()
    big = dataclasses.replace(
        spec, types=[dataclasses.replace(t, median_bytes=327680,
                                         min_bytes=262144,
                                         max_bytes=524288)
                     for t in spec.types])
    return generate(seed=977, n_files=n_files, n_dirs=n_dirs, spec=big)


def _bench_cohort(total: int):
    """A deterministic class-C/delete cohort of ``total`` samples.

    Class C with delete disposal (read original → write ciphertext to a
    new file → delete original) is the paper's third behaviour class,
    and it is the shape where the store + deferred digests pay most:
    pristine reads resolve from the store, and the ciphertext drops are
    write-once files whose digests are never needed — so the BENCH_2-era
    path's per-file digest pair is eliminated outright, not just
    halved.  The 25 working (C, delete) profiles are cycled to fill the
    cohort; each slot is freshly instantiated by the caller so repeated
    profiles don't share sample state across runs.
    """
    deleters = [s.profile for s in working_cohort(base_seed=0)
                if s.profile.behavior_class == "C"
                and s.profile.class_c_disposal == "delete"]
    return [deleters[i % len(deleters)] for i in range(total)]


def _result_fingerprint(campaign) -> list:
    """The detection outcome of every sample, order-sensitive."""
    return [(r.sample_name, r.detected, r.files_lost, round(r.score, 6),
             r.union_fired, sorted(r.flags)) for r in campaign.results]


def campaign_throughput(n_files: int, n_dirs: int, cohort: int,
                        rounds: int) -> dict:
    """Store-backed campaign vs the BENCH_2-era path, plus the parallel
    executor as an identity cross-check.

    The BENCH_2-era leg runs on the eager reference cache: no baseline
    store, no digest LRU, every captured and closed version digested on
    the spot.  Detection results must be bit-identical across all three
    legs.
    """
    corpus = _bench_corpus(n_files, n_dirs)
    profiles = _bench_cohort(cohort)
    config = CryptoDropConfig()

    def fresh():
        return [instantiate(p) for p in profiles]

    build_started = time.perf_counter()
    store = store_for_config(corpus, config)
    store_build_s = time.perf_counter() - build_started

    legs = {}

    def bench2_leg():
        with eager_reference():
            legs["bench2"] = run_campaign(fresh(), corpus, config,
                                          use_baseline_store=False)
        return legs["bench2"]

    def store_leg():
        legs["store"] = run_campaign(fresh(), corpus, config,
                                     use_baseline_store=True)
        return legs["store"]

    bench2_s = _best_seconds(bench2_leg, rounds)
    store_s = _best_seconds(store_leg, rounds)
    legs["parallel"] = run_campaign_parallel(
        fresh(), corpus, config, workers=2, use_baseline_store=True)

    fingerprints = {name: _result_fingerprint(result)
                    for name, result in legs.items()}
    identical = (fingerprints["bench2"] == fingerprints["store"]
                 == fingerprints["parallel"])

    perf = legs["store"].perf_stats()
    return {
        "seconds_store": store_s,
        "seconds_bench2_path": bench2_s,
        "speedup": bench2_s / store_s,
        "samples": cohort,
        "corpus_files": len(corpus.files),
        "store_build_seconds": round(store_build_s, 6),
        "store_entries": len(store),
        "results_identical": identical,
        "samples_per_second": round(cohort / store_s, 3),
        "store_hits": perf["digest_cache"]["store_hits"],
        "store_misses": perf["digest_cache"]["store_misses"],
        "deferred_digests": perf["deferred_digests"],
        "bytes_digested": perf["bytes_digested"],
        "workers_parallel_leg": legs["parallel"].perf["workers"],
    }


def telemetry_overhead(campaign: dict, rounds: int,
                       identity: dict) -> dict:
    """The ISSUE-4 guardrail: same close-heavy workload, telemetry off vs
    on, with a baseline leg interleaved in every round so machine-load
    drift hits all three legs equally; each leg taken best-of-N.

    The baseline leg is the regression-gated ``close_heavy_campaign``
    hot path itself (equally telemetry-free), measured *here* rather
    than reused from ``hot_paths`` so the disabled-vs-baseline ratio is
    load-drift-free — the <2% gate in ``tests/test_bench_smoke.py``
    must hold even mid-suite on a busy machine.

    The gated ratios take the min of two estimators: the best
    *per-round* ratio (within a round the legs run back-to-back, so
    shared machine load cancels) and the ratio of per-leg best-of-N
    times (each leg's quietest moment, which need not be the same
    round).  A genuine systematic overhead — say, a removed null
    guard — inflates every round's ratio *and* the leg mins, so both
    estimators catch it; a contention spike has to penalise the
    disabled leg in every single round and across the global mins to
    produce a false failure.

    Beyond the timing ratio, two identity checks: the engine's perf
    counters (wall times excluded — they are timing) must match exactly
    between the legs, and a small detection campaign run off-then-on
    must produce bit-identical results.
    """
    baseline_times, off_times, on_times = [], [], []
    off_ratios, on_ratios = [], []
    off_stats = on_stats = events = None
    for _ in range(rounds):
        t_base = close_heavy_campaign(**campaign)[0]
        t_off, s_off, _export = close_heavy_campaign(**campaign)
        t_on, s_on, export = close_heavy_campaign(**campaign,
                                                  telemetry=True)
        baseline_times.append(t_base)
        off_times.append(t_off)
        on_times.append(t_on)
        off_ratios.append(t_off / t_base)
        on_ratios.append(t_on / t_off)
        off_stats, on_stats, events = s_off, s_on, export
    seconds_baseline = min(baseline_times)
    seconds_disabled = min(off_times)
    seconds_enabled = min(on_times)

    def counter_view(stats) -> dict:
        view = stats.as_dict()
        view.pop("op_wall_us")   # measured time, not a counter
        return view

    corpus = _bench_corpus(identity["n_files"], identity["n_dirs"])
    profiles = _bench_cohort(identity["cohort"])
    runs = {}
    for label, enabled in (("off", False), ("on", True)):
        config = CryptoDropConfig(telemetry_enabled=enabled)
        runs[label] = run_campaign([instantiate(p) for p in profiles],
                                   corpus, config)
    return {
        "seconds_baseline": round(seconds_baseline, 6),
        "seconds_disabled": round(seconds_disabled, 6),
        "seconds_enabled": round(seconds_enabled, 6),
        "disabled_vs_baseline": round(
            min(min(off_ratios), seconds_disabled / seconds_baseline), 4),
        "enabled_vs_disabled": round(
            min(min(on_ratios), seconds_enabled / seconds_disabled), 4),
        "events_captured": events["bus"]["emitted"],
        "counters_identical": counter_view(off_stats)
                              == counter_view(on_stats),
        "campaign_results_identical": (_result_fingerprint(runs["off"])
                                       == _result_fingerprint(runs["on"])),
    }


def untouched_corpus_digest_bytes(n_files: int, n_dirs: int,
                                  rewrites: int = 2) -> int:
    """Bytes digested by a store-backed monitor over rewrite-same traffic.

    Every open→read→rewrite-identical→close cycle on a pristine corpus
    file should resolve both its baseline capture and its close
    inspection from the BaselineStore, so this returns 0 when the store
    path works.
    """
    corpus = _bench_corpus(n_files, n_dirs)
    config = CryptoDropConfig()
    store = store_for_config(corpus, config)
    machine = VirtualMachine(corpus, baseline_store=store)
    monitor = CryptoDropMonitor(machine.vfs, config,
                                baseline_store=store).attach()
    pid = machine.vfs.processes.spawn("editor.exe").pid
    paths = [machine.docs_root.joinpath(*(row.rel_dir + (row.name,)))
             for row in corpus.files]
    for _ in range(rewrites):
        for path in paths:
            handle = machine.vfs.open(pid, path, "rw")
            data = machine.vfs.read(pid, handle)
            machine.vfs.seek(pid, handle, 0)
            machine.vfs.write(pid, handle, data)
            machine.vfs.close(pid, handle)
    stats = collect(monitor)
    monitor.detach()
    return stats.bytes_digested


# -- batched digest kernel + scheduler (ISSUE 5) ---------------------------


def _small_docs(n_docs: int, seed_base: int) -> list:
    """600–1200 byte text documents — the small-file tail of the paper's
    corpus (§V-A measures a median document under 10 KB), which is where
    per-file dispatch overhead dominates the digest arithmetic and the
    batched kernel pays most."""
    return [_text(seed_base + i, 600 + (i * 37) % 601)
            for i in range(n_docs)]


def digest_many_section(n_docs: int, repeats: int,
                        scalar_repeats: int) -> tuple:
    """``digest_many`` vs a per-file ``sdhash`` loop over one batch.

    Returns ``(seconds, speedup, identical)`` — the identity leg checks
    every batched digest against its per-file hexdigest before any
    timing is trusted.
    """
    docs = _small_docs(n_docs, seed_base=100)
    per_file = [sdhash(d) for d in docs]
    batched = digest_many(docs)
    identical = len(batched) == len(per_file) and all(
        (a is None and b is None)
        or (a is not None and b is not None
            and a.hexdigest() == b.hexdigest())
        for a, b in zip(batched, per_file))
    seconds, speedup = _fast_vs_slow(
        lambda: digest_many(docs),
        lambda: [sdhash(d) for d in docs],
        repeats, scalar_repeats)
    return seconds, speedup, identical


def store_build_section(n_docs: int, repeats: int,
                        scalar_repeats: int) -> dict:
    """Batched vs serial :meth:`BaselineStore.build` on small documents.

    The serial reference loop pays identify + digest + entropy dispatch
    per file; the batched build runs one ``digest_many`` pass and shared
    histogram scatters.  Entries must be bit-identical (fingerprint,
    digests, entropies) before the timing ratio counts.
    """
    contents = {f"docs/note{i}.txt": doc
                for i, doc in enumerate(_small_docs(n_docs, seed_base=500))}
    corpus = SimpleNamespace(contents=contents, seed=977)
    serial = BaselineStore.build(corpus, batched=False)
    batched = BaselineStore.build(corpus, batched=True)
    identical = (serial.fingerprint == batched.fingerprint
                 and serial.total_bytes == batched.total_bytes
                 and all(
                     a.entropy == b.entropy and a.file_type == b.file_type
                     and (a.digest.hexdigest() if a.digest else None)
                         == (b.digest.hexdigest() if b.digest else None)
                     for a, b in ((serial._entries[k], batched._entries[k])
                                  for k in serial._entries)))
    seconds, speedup = _fast_vs_slow(
        lambda: BaselineStore.build(corpus, batched=True),
        lambda: BaselineStore.build(corpus, batched=False),
        repeats, scalar_repeats)
    return {
        "documents": n_docs,
        "entries": len(batched),
        "seconds_batched": round(seconds, 6),
        "speedup": speedup,
        "entries_identical": identical,
    }


def reference_identity(identity: dict, **overrides) -> bool:
    """A storeless campaign's detection output must equal the eager
    reference cache's on the same cohort and config.

    Storeless on purpose: with a corpus store attached, captures resolve
    from the store and never defer, so the storeless configuration is
    the one that actually routes deferred captures through the
    scheduler's batched flushes.
    """
    corpus = _bench_corpus(identity["n_files"], identity["n_dirs"])
    profiles = _bench_cohort(identity["cohort"])
    config = CryptoDropConfig(**overrides)

    def campaign():
        return run_campaign([instantiate(p) for p in profiles], corpus,
                            config, use_baseline_store=False)

    engine = campaign()
    with eager_reference():
        reference = campaign()
    return _result_fingerprint(engine) == _result_fingerprint(reference)


# -- streaming incremental digests (ISSUE 7) -------------------------------


def streaming_digest_section(file_bytes: int, chunk_bytes: int,
                             rounds: int) -> dict:
    """One large file, written chunk by chunk and closed: front to back
    (an append-only stream) vs back to front (seek, then write — the
    handle's only offset-0 write is its last, so no stream spans the
    file).

    What the close pays is the thing under test, so the legs pin down
    everything else: each times the close *plus* the scheduler flush (a
    deferred close digest would otherwise be timed as free), a disabled
    digest LRU (the legs write identical bytes every round, and a key
    hit would skip the digest being measured), and ``max_inspect_bytes``
    raised above the file size (the default 4 MiB cap would refuse to
    digest the file at all — and would drop the stream as
    ``oversize``).  Legs run interleaved per round, same two-estimator
    ratio as ``_fast_vs_slow``.

    Text content on purpose: high-entropy random bytes would fire the
    write-entropy indicator and suspend the writer mid-benchmark.
    """
    base = _text(41, chunk_bytes)
    n_chunks = file_bytes // chunk_bytes
    chunks = [base] * n_chunks

    def leg(streaming: bool) -> dict:
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        config = CryptoDropConfig(digest_cache_entries=0,
                                  max_inspect_bytes=file_bytes * 2)
        monitor = CryptoDropMonitor(vfs, config).attach()
        pid = vfs.processes.spawn("writer.exe").pid
        path = DOCUMENTS / "archive.dat"
        handle = vfs.open(pid, path, "w", create=True)
        order = (range(n_chunks) if streaming
                 else range(n_chunks - 1, -1, -1))
        started = time.perf_counter()
        for index in order:
            vfs.seek(pid, handle, index * chunk_bytes)
            vfs.write(pid, handle, chunks[index])
        write_s = time.perf_counter() - started
        started = time.perf_counter()
        vfs.close(pid, handle)
        monitor.flush_inspections()
        close_s = time.perf_counter() - started
        record = monitor.engine.cache.get(vfs.peek_stat(path).node_id)
        digest = (record.base_digest.hexdigest()
                  if record is not None and record.base_digest is not None
                  else None)
        streams = monitor.engine.stream_stats()
        cache = monitor.engine.cache.digest_cache.stats()
        monitor.detach()
        return {"write_s": write_s, "close_s": close_s, "digest": digest,
                "streams": streams, "cache": cache}

    streamed_close, whole_close, paired = [], [], []
    streamed_write = whole_write = None
    streamed = whole = None
    for _ in range(rounds):
        streamed = leg(True)
        whole = leg(False)
        streamed_close.append(streamed["close_s"])
        whole_close.append(whole["close_s"])
        paired.append(whole["close_s"] / streamed["close_s"])
        streamed_write = min(streamed["write_s"], streamed_write
                             or streamed["write_s"])
        whole_write = min(whole["write_s"], whole_write
                          or whole["write_s"])
    close_streamed = min(streamed_close)
    close_whole = min(whole_close)
    speedup = max(max(paired), close_whole / close_streamed)
    stream_stats = streamed["streams"]
    return {
        "file_bytes": file_bytes,
        "chunk_bytes": chunk_bytes,
        "chunks": n_chunks,
        "seconds_close_streamed": round(close_streamed, 6),
        "seconds_close_whole": round(close_whole, 6),
        "close_speedup": round(speedup, 2),
        "seconds_writes_streamed": round(streamed_write, 6),
        "seconds_writes_whole": round(whole_write, 6),
        "streams_finalized": stream_stats["finalized"],
        "stream_fallbacks": stream_stats["fallbacks"],
        # every content byte reached the digest incrementally: the close
        # itself digested O(tail), not O(file)
        "bytes_streamed": stream_stats["bytes_streamed"],
        "bytes_digested_per_close": streamed["cache"]["bytes_digested"],
        "incremental_bytes_per_close": (
            stream_stats["bytes_streamed"]
            // max(1, stream_stats["finalized"])),
        "digests_identical": (streamed["digest"] is not None
                              and streamed["digest"] == whole["digest"]),
    }


# -- persistent baseline store (ISSUE 9) -----------------------------------


def _synthetic_store_corpus(n_files: int, seed: int, doc_bytes: int):
    """``n_files`` small unique text documents, cheap enough to mint by
    the hundred thousand — the store scaling sweep sizes by entry count,
    and small blobs keep even the ``--big`` million-entry build inside
    the memory budget."""
    base = _text(seed, max(doc_bytes * 2, 4096))
    half = max(1, doc_bytes // 2)
    contents = {}
    for i in range(n_files):
        prefix = f"document {i:07d}\n".encode()
        contents[f"d{i:07d}.txt"] = prefix + base[:half + (i * 37) % half]
    return SimpleNamespace(contents=contents, seed=seed)


def store_scaling_leg(n_files: int, doc_bytes: int, open_repeats: int,
                      sweep_lookups: int, hot_entries: int,
                      workers: int, tmp_dir: str) -> dict:
    """One ``.cdbs`` at ``n_files`` entries: sharded parallel build,
    then the three things persistence exists for — reopening is
    O(header), residency stays bounded while lookups page in on demand,
    and a pristine re-inspection sweep digests nothing."""
    corpus = _synthetic_store_corpus(n_files, seed=601 + n_files,
                                     doc_bytes=doc_bytes)
    path = str(Path(tmp_dir) / f"store_{n_files}.cdbs")
    started = time.perf_counter()
    store = build_store_parallel(corpus, workers=workers, path=path)
    build_s = time.perf_counter() - started
    entries = len(store)
    file_bytes = os.path.getsize(path)
    store.close()

    open_s = _best_seconds(lambda: BaselineStore.open(path).close(),
                           open_repeats)

    store = BaselineStore.open(path, hot_entries=hot_entries)
    cache = FileStateCache(baseline_store=store)
    blobs = list(corpus.contents.values())
    step = max(1, len(blobs) // sweep_lookups)
    sample = blobs[::step][:sweep_lookups]
    started = time.perf_counter()
    for blob in sample:
        cache.inspect(blob)
    sweep_s = time.perf_counter() - started
    paging = store.page_stats()
    sweep_bytes_digested = cache.digest_cache.bytes_digested
    sweep_store_hits = cache.digest_cache.store_hits
    store.close()
    structural = fsck_store(path, check_records=False)
    os.unlink(path)
    return {
        "files": n_files,
        "entries": entries,
        "file_bytes": file_bytes,
        "build_seconds": round(build_s, 6),
        "open_seconds": round(open_s, 6),
        "open_vs_rebuild": round(build_s / open_s, 1),
        "lookups": len(sample),
        "lookups_per_second": round(len(sample) / sweep_s, 1),
        "sweep_bytes_digested": sweep_bytes_digested,
        "sweep_store_hits": sweep_store_hits,
        "page_ins": paging["page_ins"],
        "resident": paging["resident"],
        "hot_entries": hot_entries,
        "resident_bounded": paging["resident"] <= hot_entries,
        "fsck_ok": structural["ok"],
    }


def store_backend_identity(identity: dict) -> dict:
    """Dict vs mmap backend over the same campaign: verdicts must be
    bit-identical and the fingerprints must agree — the backend is
    storage, never semantics — and the mmap leg must actually have
    served baselines from disk."""
    corpus = _bench_corpus(identity["n_files"], identity["n_dirs"])
    profiles = _bench_cohort(identity["cohort"])
    legs = {}
    for storage in ("dict", "mmap"):
        config = CryptoDropConfig(store_backend=storage)
        legs[storage] = run_campaign([instantiate(p) for p in profiles],
                                     corpus, config)
    described = {name: leg.perf["baseline_store"]
                 for name, leg in legs.items()}
    return {
        "results_identical": (_result_fingerprint(legs["dict"])
                              == _result_fingerprint(legs["mmap"])),
        "fingerprint_identical": (described["dict"]["fingerprint"]
                                  == described["mmap"]["fingerprint"]),
        "storage_legs": [described["dict"]["storage"],
                         described["mmap"]["storage"]],
        # whether campaign lookups *hit* depends on the cohort's attack
        # shapes (class-C deleters mostly write fresh ciphertext files);
        # the scaling sweep pins hits == lookups on pristine content
        "mmap_store_hits":
            legs["mmap"].perf_stats()["digest_cache"]["store_hits"],
        "mmap_store_misses":
            legs["mmap"].perf_stats()["digest_cache"]["store_misses"],
    }


def store_persistence_section(sizes, identity: dict, open_repeats: int,
                              sweep_lookups: int, hot_entries: int,
                              workers: int) -> dict:
    """ISSUE-9 section: the on-disk store across entry-count scales,
    plus the dict-vs-mmap identity pair.  The headline numbers (and the
    full-scale gates) come from the largest store in the sweep."""
    tmp_dir = tempfile.mkdtemp(prefix="cryptodrop-bench-store-")
    try:
        scaling = [store_scaling_leg(n, doc_bytes, open_repeats,
                                     sweep_lookups, hot_entries,
                                     workers, tmp_dir)
                   for n, doc_bytes in sizes]
    finally:
        try:
            os.rmdir(tmp_dir)
        except OSError:
            pass
    section = store_backend_identity(identity)
    largest = scaling[-1]
    section.update({
        "scaling": scaling,
        "open_seconds": largest["open_seconds"],
        "open_vs_rebuild": largest["open_vs_rebuild"],
        "largest_files": largest["files"],
    })
    return section


def _ingest_streams(corpus, endpoints: int, stream_events: int) -> dict:
    """Record one endpoint event stream per tenant, cycling the cohort.

    Recording is monitor-free (pure VFS tracing), so this is cheap even
    at 64 endpoints; ``stream_events`` caps replayed work per tenant.
    """
    profiles = [s.profile for s in working_cohort(base_seed=0)]
    streams = {}
    for i in range(endpoints):
        sample = instantiate(profiles[(i * 7) % len(profiles)])
        streams[f"ep{i:03d}"] = record_endpoint_stream(
            corpus, sample, seed=i, max_events=stream_events)
    return streams


def ingest_resilience(endpoints: int, stream_events: int,
                      n_files: int, n_dirs: int, rounds: int) -> dict:
    """ISSUE-6 section: multi-endpoint ingest under a fault storm.

    Three legs over identical recorded streams:

    * **fault-free** — the reference: its verdict fingerprints and wall
      time are what the other legs are held to;
    * **faulted** — tenants round-robin across shard kills, poison
      events, queue stalls, and transient denials, with the breaker and
      watchdog on.  Restart-and-replay must reproduce the reference
      verdicts bit-for-bit, and sustained throughput (reference events /
      faulted wall time) must stay ≥ 70% of fault-free at full scale;
    * **overload** — tiny queues with a shed policy on every other
      tenant.  Every shed decision must surface as a ``LoadShed`` bus
      event, and tenants *without* a shed policy (pure backpressure)
      must still match the reference verdicts exactly.

    Cross-tenant isolation is asserted on every leg.
    """
    corpus = generate(seed=1721, n_files=n_files, n_dirs=n_dirs)
    streams = _ingest_streams(corpus, endpoints, stream_events)
    tenants = sorted(streams)
    config = CryptoDropConfig(telemetry_enabled=True)

    def session(fault_map=None, shed_tenants=(), **manager_kw):
        manager = EndpointSessionManager(corpus, config=config,
                                         **manager_kw)
        shed_policy = ShedPolicy(watermark=8, sample_every=4)
        for tenant in tenants:
            plan = (fault_map or {}).get(tenant)
            if tenant in shed_tenants:
                manager.add_endpoint(tenant, streams[tenant],
                                     fault_plan=plan,
                                     shed_policy=shed_policy)
            else:
                manager.add_endpoint(tenant, streams[tenant],
                                     fault_plan=plan)
        started = time.perf_counter()
        manager.run()
        return manager, time.perf_counter() - started

    def best_leg(**kw):
        best, manager = None, None
        for _ in range(rounds):
            manager, seconds = session(**kw)
            best = seconds if best is None else min(best, seconds)
        return manager, best

    reference, seconds_fault_free = best_leg()
    ref_verdicts = reference.verdicts()
    ref_leaks = reference.cross_tenant_events()
    events_applied = sum(s["applied"]
                         for s in reference.stats()["tenants"].values())
    reference.close()

    fault_map = {}
    for i, tenant in enumerate(tenants):
        kind = i % 4
        if kind == 0:
            fault_map[tenant] = ingest_chaos(
                seed=31 + i, kill_shard_at_events=(25,))
        elif kind == 1:
            fault_map[tenant] = ingest_chaos(
                seed=31 + i, poison_event_rate=0.04)
        elif kind == 2:
            fault_map[tenant] = ingest_chaos(
                seed=31 + i, queue_stall_rate=0.02)
        else:
            fault_map[tenant] = transient_faults(
                seed=31 + i, deny_rate=0.15, short_read_rate=0.0,
                latency_spike_rate=0.0, max_denials=20)

    faulted, seconds_faulted = best_leg(fault_map=fault_map)
    faulted_stats = faulted.stats()
    faulted_verdicts = faulted.verdicts()
    faulted_leaks = faulted.cross_tenant_events()
    watchdog_stats = faulted_stats["watchdog"] or {}
    recovery_ticks = watchdog_stats.get("recovery_ticks", [])
    shard_kills = sum(s["kills"]
                      for s in faulted_stats["tenants"].values())
    faulted.close()

    shed_tenants = frozenset(tenants[::2])
    overload, _ = best_leg(shed_tenants=shed_tenants,
                           queue_capacity=16, pump_batch=16,
                           tick_budget=2)
    overload_stats = overload.stats()["tenants"]
    sheds = sum(s["queue"]["shed"] for s in overload_stats.values())
    shed_events = 0
    shed_observable = sheds > 0
    for tenant in tenants:
        session = overload.sessions.get(tenant)
        bus_sheds = (len(session.bus.events(kind="load_shed"))
                     if session is not None else 0)
        shed_events += bus_sheds
        if bus_sheds != overload_stats[tenant]["queue"]["shed"]:
            shed_observable = False
    overload_verdicts = overload.verdicts()
    nonshed_unchanged = all(
        overload_verdicts[t] == ref_verdicts[t]
        for t in tenants if t not in shed_tenants)
    overload_leaks = overload.cross_tenant_events()
    overload.close()

    eps_fault_free = events_applied / seconds_fault_free
    eps_faulted = events_applied / seconds_faulted
    return {
        "endpoints": endpoints,
        "stream_events": stream_events,
        "events_applied": events_applied,
        "seconds_fault_free": round(seconds_fault_free, 6),
        "seconds_faulted": round(seconds_faulted, 6),
        "events_per_second_fault_free": round(eps_fault_free, 1),
        "events_per_second_faulted": round(eps_faulted, 1),
        "throughput_ratio": round(eps_faulted / eps_fault_free, 4),
        "restarts": watchdog_stats.get("restarts", 0),
        "recovery_ticks_max": max(recovery_ticks, default=0),
        "shard_kills": shard_kills,
        "sheds": sheds,
        "shed_events_observed": shed_events,
        "verdicts_identical": faulted_verdicts == ref_verdicts,
        "no_cross_tenant_leaks": not (ref_leaks or faulted_leaks
                                      or overload_leaks),
        "shed_observable": shed_observable,
        "nonshed_unchanged": nonshed_unchanged,
    }


def run(smoke: bool = False, big: bool = False) -> dict:
    if smoke:
        digest_payload = 32 * 1024
        repeats, scalar_repeats = 3, 2
        n_filters = 8
        campaign = dict(n_files=6, rewrites=3, payload=24 * 1024)
        throughput = dict(n_files=8, n_dirs=4, cohort=6, rounds=1)
        overhead_rounds = 4
        identity = dict(n_files=6, n_dirs=3, cohort=4)
        batch_docs, store_docs = 16, 128
        batch_repeats, batch_scalar_repeats = 3, 2
        ingest = dict(endpoints=8, stream_events=200,
                      n_files=24, n_dirs=5, rounds=1)
        streaming = dict(file_bytes=8 << 20, chunk_bytes=256 * 1024,
                         rounds=2)
        store_persist = dict(sizes=[(1000, 900)], open_repeats=3,
                             sweep_lookups=400, hot_entries=256, workers=2)
    else:
        digest_payload = 128 * 1024
        repeats, scalar_repeats = 9, 3
        n_filters = 32
        campaign = dict(n_files=24, rewrites=6, payload=48 * 1024)
        throughput = dict(n_files=36, n_dirs=10, cohort=50, rounds=3)
        overhead_rounds = 5
        identity = dict(n_files=12, n_dirs=6, cohort=10)
        batch_docs, store_docs = 32, 1024
        batch_repeats, batch_scalar_repeats = 9, 4
        ingest = dict(endpoints=64, stream_events=600,
                      n_files=40, n_dirs=8, rounds=2)
        streaming = dict(file_bytes=256 << 20, chunk_bytes=1 << 20,
                         rounds=3)
        store_persist = dict(sizes=[(10_000, 900), (100_000, 900)],
                             open_repeats=7, sweep_lookups=4000,
                             hot_entries=1024, workers=2)
    if big:
        # the million-entry tier: ~240-byte documents keep the content
        # set (and each fork's shard build) inside the memory budget
        store_persist["sizes"] = list(store_persist["sizes"]) \
            + [(1_000_000, 240)]

    payload = _text(3, digest_payload)
    hot_paths = {}
    speedups = {}

    (hot_paths["sdhash_digest"],
     speedups["sdhash_vectorised_vs_scalar"]) = _fast_vs_slow(
        lambda: sdhash(payload), lambda: sdhash_scalar(payload),
        repeats, scalar_repeats)

    big_a = _digest_with_filters(n_filters)
    big_b = _digest_with_filters(n_filters)
    (hot_paths["compare_batched"],
     speedups["compare_batched_vs_scalar"]) = _fast_vs_slow(
        lambda: compare(big_a, big_b),
        lambda: compare_scalar(big_a, big_b),
        repeats, scalar_repeats)

    # cached/uncached legs run interleaved (same reasoning as
    # telemetry_overhead): a contention burst hits both legs of a round
    # rather than eating one side of the ratio
    campaign_rounds = 2 if smoke else 3
    cached_runs, uncached_times, cache_ratios = [], [], []
    for _ in range(campaign_rounds):
        cached_runs.append(close_heavy_campaign(**campaign))
        uncached_times.append(
            close_heavy_campaign(**campaign, digest_cache_entries=0)[0])
        cache_ratios.append(uncached_times[-1] / cached_runs[-1][0])
    stats = cached_runs[0][1]
    cached_s = min(r[0] for r in cached_runs)
    uncached_s = min(uncached_times)
    hot_paths["close_heavy_campaign"] = cached_s
    speedups["close_path_cached_vs_uncached"] = max(
        max(cache_ratios), uncached_s / cached_s)

    (hot_paths["digest_many_batch"],
     speedups["digest_many_vs_per_file"],
     digest_many_identical) = digest_many_section(
        batch_docs, batch_repeats, batch_scalar_repeats)

    store_build = store_build_section(store_docs, batch_repeats,
                                      batch_scalar_repeats)
    hot_paths["store_build_batched"] = store_build["seconds_batched"]
    speedups["store_build_batched_vs_serial"] = store_build["speedup"]

    sweep = campaign_throughput(**throughput)
    hot_paths["campaign_throughput"] = sweep["seconds_store"]
    speedups["campaign_store_vs_bench2_path"] = sweep["speedup"]
    untouched_bytes = untouched_corpus_digest_bytes(
        n_files=throughput["n_files"] // 2, n_dirs=throughput["n_dirs"])

    overhead = telemetry_overhead(campaign, overhead_rounds, identity)
    batch_identical = reference_identity(identity)

    stream_section = streaming_digest_section(**streaming)
    hot_paths["streaming_close"] = stream_section["seconds_close_streamed"]
    speedups["streaming_close_vs_whole_file"] = \
        stream_section["close_speedup"]
    streaming_identical = reference_identity(identity,
                                             stream_digest_min_bytes=0)

    persistence = store_persistence_section(identity=identity,
                                            **store_persist)
    hot_paths["store_open"] = persistence["open_seconds"]
    speedups["store_open_vs_rebuild"] = persistence["open_vs_rebuild"]

    resilience = ingest_resilience(**ingest)
    hot_paths["ingest_session"] = resilience["seconds_fault_free"]
    speedups["ingest_faulted_vs_fault_free"] = \
        resilience["throughput_ratio"]

    counters = stats.as_dict()
    invariants = {
        # single-digest close path: steady-state closes never digest
        # more than they close
        "bytes_digested_le_bytes_closed": counters["single_digest_holds"],
        "digest_cache_hits_positive": counters["digest_cache"]["hits"] > 0,
        # ISSUE 3: detection outcomes are independent of store/deferral/
        # parallelism, and a store-backed monitor digests nothing for
        # untouched corpus content
        "campaign_results_identical": sweep["results_identical"],
        "store_untouched_bytes_digested_zero": untouched_bytes == 0,
        # ISSUE 4: telemetry may cost time when enabled, but must never
        # change what the detector counts or decides
        "telemetry_counters_identical": overhead["counters_identical"],
        "telemetry_results_identical":
            overhead["campaign_results_identical"],
        # ISSUE 5: the batched kernel and the deferred-inspection
        # scheduler are pure plumbing — every digest bit-identical to the
        # per-file path, every store entry bit-identical to the serial
        # build, and detection output equal to the eager reference
        "digest_many_identical": digest_many_identical,
        "store_build_identical": store_build["entries_identical"],
        "batch_results_identical": batch_identical,
        # ISSUE 7: the incremental stream is the same digest by another
        # route — bit-identical digests, a streaming campaign equal to the
        # eager reference, and the append-only close never fell back
        "streaming_digest_identical": stream_section["digests_identical"],
        "streaming_results_identical": streaming_identical,
        "streaming_no_fallbacks": not stream_section["stream_fallbacks"],
        # ISSUE 9: the persistent store is the same store by another
        # route — dict and mmap backends produce bit-identical verdicts
        # from identical fingerprints, pristine rerun sweeps digest
        # nothing, residency stays under the hot-entry cap, and every
        # file written by the sweep fscks clean
        "store_backend_results_identical": persistence["results_identical"],
        "store_fingerprint_identical": persistence["fingerprint_identical"],
        "store_rerun_bytes_digested_zero": all(
            leg["sweep_bytes_digested"] == 0
            for leg in persistence["scaling"]),
        "store_resident_bounded": all(leg["resident_bounded"]
                                      for leg in persistence["scaling"]),
        "store_fsck_clean": all(leg["fsck_ok"]
                                for leg in persistence["scaling"]),
        # ISSUE 6: faults, restarts, and load shedding must never change
        # what the detector decides for an unaffected tenant, leak events
        # across tenants, or drop records invisibly
        "ingest_verdicts_identical": resilience["verdicts_identical"],
        "ingest_no_cross_tenant_events":
            resilience["no_cross_tenant_leaks"],
        "ingest_shed_observable": resilience["shed_observable"],
        "ingest_nonshed_unchanged": resilience["nonshed_unchanged"],
    }
    if not smoke:
        invariants["campaign_speedup_ge_3"] = (
            sweep["speedup"] >= CAMPAIGN_SPEEDUP_FLOOR)
        invariants["digest_many_speedup_ge_2"] = (
            speedups["digest_many_vs_per_file"]
            >= DIGEST_MANY_SPEEDUP_FLOOR)
        invariants["store_build_speedup_ge_3"] = (
            speedups["store_build_batched_vs_serial"]
            >= STORE_BUILD_SPEEDUP_FLOOR)
        invariants["ingest_throughput_ratio_ge_0p7"] = (
            resilience["throughput_ratio"] >= INGEST_THROUGHPUT_FLOOR)
        invariants["streaming_close_speedup_ge_5"] = (
            stream_section["close_speedup"]
            >= STREAMING_CLOSE_SPEEDUP_FLOOR)
        invariants["store_open_le_50ms"] = (
            persistence["open_seconds"] <= STORE_OPEN_CEILING_S)
        invariants["store_open_vs_rebuild_ge_100"] = (
            persistence["open_vs_rebuild"]
            >= STORE_OPEN_VS_REBUILD_FLOOR)
    return {
        "schema": SCHEMA_VERSION,
        "scale": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "hot_paths": {name: {"seconds": round(s, 6)}
                      for name, s in hot_paths.items()},
        "speedups": {name: round(ratio, 2)
                     for name, ratio in speedups.items()},
        "counters": counters,
        "campaign": {k: v for k, v in sweep.items()
                     if k not in ("seconds_store",)},
        "store_build": {k: (round(v, 2) if k == "speedup" else v)
                        for k, v in store_build.items()},
        "digest_batch_documents": batch_docs,
        "streaming_digest": stream_section,
        "store_persistence": persistence,
        "telemetry_overhead": overhead,
        "ingest_resilience": resilience,
        "invariants": invariants,
        "filters_compared": len(big_a),
    }


def validate_report(report: dict) -> list:
    """Structural schema check; returns a list of problems (empty = ok).

    Guards the report shape the regression gate and the docs rely on,
    without pinning machine-dependent numbers.
    """
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    need(report.get("schema") == SCHEMA_VERSION,
         f"schema != {SCHEMA_VERSION}")
    need(report.get("scale") in ("smoke", "full"), "bad scale")
    hot_paths = report.get("hot_paths", {})
    for name in ("sdhash_digest", "compare_batched", "close_heavy_campaign",
                 "campaign_throughput", "digest_many_batch",
                 "store_build_batched", "ingest_session",
                 "streaming_close", "store_open"):
        entry = hot_paths.get(name)
        need(isinstance(entry, dict)
             and isinstance(entry.get("seconds"), (int, float))
             and entry.get("seconds", -1) > 0,
             f"hot_paths[{name}] missing or non-positive")
    need(isinstance(report.get("speedups"), dict), "speedups missing")
    speedups = report.get("speedups", {})
    for name in ("sdhash_vectorised_vs_scalar", "compare_batched_vs_scalar",
                 "close_path_cached_vs_uncached",
                 "campaign_store_vs_bench2_path",
                 "digest_many_vs_per_file",
                 "store_build_batched_vs_serial",
                 "streaming_close_vs_whole_file",
                 "store_open_vs_rebuild"):
        need(isinstance(speedups.get(name), (int, float)),
             f"speedups[{name}] missing")
    stream_section = report.get("streaming_digest", {})
    for name in ("file_bytes", "chunk_bytes", "chunks",
                 "seconds_close_streamed", "seconds_close_whole",
                 "close_speedup", "seconds_writes_streamed",
                 "seconds_writes_whole", "streams_finalized",
                 "bytes_streamed", "bytes_digested_per_close",
                 "incremental_bytes_per_close", "digests_identical"):
        need(name in stream_section, f"streaming_digest[{name}] missing")
    store_build = report.get("store_build", {})
    for name in ("documents", "entries", "seconds_batched", "speedup",
                 "entries_identical"):
        need(name in store_build, f"store_build[{name}] missing")
    persistence = report.get("store_persistence", {})
    for name in ("open_seconds", "open_vs_rebuild", "largest_files",
                 "results_identical", "fingerprint_identical",
                 "mmap_store_hits", "storage_legs", "scaling"):
        need(name in persistence, f"store_persistence[{name}] missing")
    scaling = persistence.get("scaling") or []
    need(len(scaling) >= 1, "store_persistence[scaling] empty")
    for leg in scaling:
        for name in ("files", "entries", "file_bytes", "build_seconds",
                     "open_seconds", "open_vs_rebuild", "lookups",
                     "lookups_per_second", "sweep_bytes_digested",
                     "sweep_store_hits", "page_ins", "resident",
                     "hot_entries", "resident_bounded", "fsck_ok"):
            need(name in leg,
                 f"store_persistence scaling[{name}] missing")
    campaign = report.get("campaign", {})
    for name in ("seconds_bench2_path", "speedup", "samples",
                 "corpus_files", "store_build_seconds", "store_entries",
                 "results_identical", "samples_per_second", "store_hits",
                 "store_misses", "deferred_digests", "bytes_digested"):
        need(name in campaign, f"campaign[{name}] missing")
    overhead = report.get("telemetry_overhead", {})
    for name in ("seconds_baseline", "seconds_disabled", "seconds_enabled",
                 "enabled_vs_disabled", "disabled_vs_baseline"):
        need(isinstance(overhead.get(name), (int, float))
             and overhead.get(name, -1) > 0,
             f"telemetry_overhead[{name}] missing or non-positive")
    need(isinstance(overhead.get("events_captured"), int)
         and overhead.get("events_captured", 0) > 0,
         "telemetry_overhead[events_captured] missing or zero")
    resilience = report.get("ingest_resilience", {})
    for name in ("endpoints", "stream_events", "events_applied",
                 "seconds_fault_free", "seconds_faulted",
                 "throughput_ratio", "restarts", "recovery_ticks_max",
                 "shard_kills", "sheds", "shed_events_observed"):
        need(isinstance(resilience.get(name), (int, float)),
             f"ingest_resilience[{name}] missing")
    invariants = report.get("invariants", {})
    for name in ("bytes_digested_le_bytes_closed",
                 "digest_cache_hits_positive",
                 "campaign_results_identical",
                 "store_untouched_bytes_digested_zero",
                 "telemetry_counters_identical",
                 "telemetry_results_identical",
                 "ingest_verdicts_identical",
                 "ingest_no_cross_tenant_events",
                 "ingest_shed_observable",
                 "ingest_nonshed_unchanged",
                 "streaming_digest_identical",
                 "streaming_results_identical",
                 "streaming_no_fallbacks",
                 "store_backend_results_identical",
                 "store_fingerprint_identical",
                 "store_rerun_bytes_digested_zero",
                 "store_resident_bounded",
                 "store_fsck_clean"):
        need(isinstance(invariants.get(name), bool),
             f"invariants[{name}] missing")
    if report.get("scale") == "full":
        need(isinstance(invariants.get("campaign_speedup_ge_3"), bool),
             "invariants[campaign_speedup_ge_3] missing at full scale")
        need(isinstance(invariants.get("ingest_throughput_ratio_ge_0p7"),
                        bool),
             "invariants[ingest_throughput_ratio_ge_0p7] missing at "
             "full scale")
        need(isinstance(invariants.get("streaming_close_speedup_ge_5"),
                        bool),
             "invariants[streaming_close_speedup_ge_5] missing at "
             "full scale")
        need(isinstance(invariants.get("store_open_le_50ms"), bool),
             "invariants[store_open_le_50ms] missing at full scale")
        need(isinstance(invariants.get("store_open_vs_rebuild_ge_100"),
                        bool),
             "invariants[store_open_vs_rebuild_ge_100] missing at "
             "full scale")
    need(isinstance(report.get("counters"), dict), "counters missing")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long structural pass (not comparable "
                             "to a full-scale baseline)")
    parser.add_argument("--big", action="store_true",
                        help="add the million-entry tier to the store "
                             "persistence sweep (minutes of build time)")
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke, big=args.big)
    problems = validate_report(report)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {args.output}")
    for name, entry in sorted(report["hot_paths"].items()):
        print(f"  {name:28s} {entry['seconds'] * 1000:9.3f} ms")
    for name, ratio in sorted(report["speedups"].items()):
        print(f"  {name:36s} {ratio:6.2f}x")
    sweep = report["campaign"]
    print(f"  campaign: {sweep['samples']} samples, "
          f"{sweep['samples_per_second']:.2f}/s, "
          f"store build {sweep['store_build_seconds'] * 1000:.1f} ms")
    overhead = report["telemetry_overhead"]
    print(f"  telemetry: disabled {overhead['disabled_vs_baseline']:.4f}x "
          f"baseline, enabled {overhead['enabled_vs_disabled']:.2f}x "
          f"disabled, {overhead['events_captured']} events")
    stream_section = report["streaming_digest"]
    print(f"  streaming: {stream_section['file_bytes'] >> 20} MiB close "
          f"{stream_section['seconds_close_streamed'] * 1000:.1f} ms "
          f"streamed vs {stream_section['seconds_close_whole'] * 1000:.1f}"
          f" ms whole ({stream_section['close_speedup']:.1f}x)")
    persistence = report["store_persistence"]
    largest = persistence["scaling"][-1]
    print(f"  store: {largest['files']} files reopen "
          f"{largest['open_seconds'] * 1000:.2f} ms "
          f"({largest['open_vs_rebuild']:.0f}x vs rebuild), "
          f"{largest['lookups_per_second']:.0f} lookups/s, "
          f"{largest['resident']}/{largest['hot_entries']} resident")
    resilience = report["ingest_resilience"]
    print(f"  ingest: {resilience['endpoints']} endpoints, "
          f"faulted/fault-free ratio {resilience['throughput_ratio']:.2f}, "
          f"{resilience['restarts']} restarts, "
          f"{resilience['sheds']} sheds observed")
    ok = all(report["invariants"].values()) and not problems
    for problem in problems:
        print(f"  schema problem: {problem}")
    print(f"  invariants: {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
