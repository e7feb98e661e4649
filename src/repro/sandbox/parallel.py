"""High-throughput parallel campaign execution.

The full 492-sample sweep is embarrassingly parallel: every sample runs
against its own reverted machine with a fresh detector, so results are
independent of scheduling.  :func:`run_campaign_parallel` fans the cohort
out over worker processes, each owning one long-lived
:class:`~repro.sandbox.machine.VirtualMachine` (corpus planted once,
journal-reverted between samples), and reassembles a
:class:`~repro.sandbox.campaign.CampaignResult` in the original sample
order — bit-identical to the serial runner's.

Throughput model:

* **Shared baseline index** — the corpus
  :class:`~repro.corpus.baselines.BaselineStore` is built once in the
  parent and inherited by every worker through fork (zero-copy), so no
  worker ever re-digests pristine corpus content.  This also removed the
  per-worker memory argument behind the old hard cap of 8 workers; the
  worker count now comes from ``config.campaign_workers`` (0 = one per
  CPU).
* **Chunked dispatch with streamed results** — samples are submitted in
  adaptive chunks (≈4 chunks per worker, so stragglers still balance)
  instead of one task per sample, cutting per-task IPC; each finished
  chunk's results stream back and are journalled on arrival.
* **Crash resilience** — a worker death loses at most one in-flight
  chunk; its samples are requeued individually (the pool respawns dead
  workers and re-runs the initializer) with bounded retries, and a
  sample that exhausts its retries or its wall-clock budget becomes an
  errored :class:`~repro.sandbox.runner.SampleResult` instead of
  aborting the sweep.  On the success path the pool is drained and
  closed cleanly — ``terminate()`` is reserved for the error path, so
  in-flight journal appends are never cut off mid-write.

Requires a ``fork``-capable platform (Linux/macOS): corpus and store are
shared with workers through fork inheritance rather than pickling ~85 MB
per worker.  On platforms without ``fork`` the function transparently
falls back to the serial runner.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import CryptoDropConfig
from ..corpus.baselines import BaselineStore, content_key
from ..corpus.builder import GeneratedCorpus, generate
from ..ransomware import instantiate
from ..telemetry import TelemetrySession
from .campaign import CampaignResult, store_for_config
from .journal import CampaignJournal, coerce_journal
from .machine import VirtualMachine
from .runner import SampleResult, errored_result, run_sample

__all__ = ["build_store_parallel", "retry_backoff_s",
           "run_campaign_parallel"]

#: host-seconds a sample may spend queued+running before it is requeued
DEFAULT_SAMPLE_TIMEOUT = 300.0
#: how often the dispatcher rescans outstanding work
_POLL_INTERVAL_S = 0.02
#: chunks submitted per worker when the chunk size is adaptive — small
#: enough that a slow chunk cannot serialise the tail of the sweep
_CHUNKS_PER_WORKER = 4
#: retry backoff: first requeue waits this long, doubling per attempt …
_RETRY_BACKOFF_BASE_S = 0.25
#: … up to this cap, …
_RETRY_BACKOFF_CAP_S = 4.0
#: … stretched by up to this fraction of deterministic per-sample jitter
#: so a mass timeout (dead worker) does not resubmit in one burst
_RETRY_JITTER = 0.25


def retry_backoff_s(index: int, attempt: int) -> float:
    """Delay before requeueing sample ``index`` for retry ``attempt``.

    Exponential in the attempt number with seeded jitter: a wedged
    worker's whole chunk times out at once, and immediate requeue used
    to slam every orphaned sample back onto the pool in the same poll
    cycle.  Jitter comes from ``random.Random(f"{index}:{attempt}")``,
    a pure function of the retry identity, so reruns back off
    identically (the determinism contract the chaos suite pins).
    """
    base = min(_RETRY_BACKOFF_CAP_S,
               _RETRY_BACKOFF_BASE_S * (2 ** (attempt - 1)))
    return base * (1.0 + _RETRY_JITTER
                   * random.Random(f"{index}:{attempt}").random())

# Module globals used to hand state to forked workers without pickling.
_PARENT_CORPUS: Optional[GeneratedCorpus] = None
_PARENT_STORE = None
_WORKER_MACHINE: Optional[VirtualMachine] = None
# Fork handoff for the sharded store build (keys + blobs, read-only).
_SHARD_KEYS: Optional[List[bytes]] = None
_SHARD_BLOBS: Optional[List[bytes]] = None


def _build_shard(args) -> Tuple[Dict[bytes, object], int]:
    """One worker's slice of a sharded store build (batched kernel)."""
    lo, hi, max_inspect_bytes, digests_enabled = args
    return BaselineStore._build_entries_batched(
        _SHARD_KEYS[lo:hi], _SHARD_BLOBS[lo:hi],
        max_inspect_bytes, digests_enabled)


def _build_shard_file(args) -> str:
    """One worker's slice, written straight to a shard store file.

    The shard file is a complete, valid store over its key subset, so
    the parent merges index blocks and record regions
    (:func:`repro.store.writer.merge_store_files`) without ever holding
    any shard's entries in memory — the disk-build path for corpora
    whose digests should never all be resident at once.
    """
    from ..store.writer import StoreWriter
    (lo, hi, shard_path, seed, backend, max_inspect_bytes,
     digests_enabled) = args
    started = time.perf_counter()
    keys = _SHARD_KEYS[lo:hi]
    entries, total = BaselineStore._build_entries_batched(
        keys, _SHARD_BLOBS[lo:hi], max_inspect_bytes, digests_enabled)
    writer = StoreWriter(shard_path, seed=seed, backend=backend,
                         max_inspect_bytes=max_inspect_bytes,
                         digests_enabled=digests_enabled)
    try:
        for key in keys:
            writer.add(key, entries[key])
        return writer.finish(total_bytes=total,
                             build_seconds=time.perf_counter() - started)
    except BaseException:
        writer.abort()
        raise


def build_store_parallel(corpus, backend: str = "sdhash",
                         max_inspect_bytes: int = 4 * 1024 * 1024,
                         digests_enabled: bool = True,
                         workers: Optional[int] = None,
                         config: Optional[CryptoDropConfig] = None,
                         path=None, hot_entries: int = 4096
                         ) -> BaselineStore:
    """:meth:`BaselineStore.build` sharded across worker processes.

    The distinct content blobs are split into one contiguous shard per
    worker; each forked worker runs the batched digest kernel over its
    shard and pickles the finished entries back.  Entries are pure
    functions of content, so the merged store is bit-identical to a
    single-process build (same fingerprint, same digests).

    With ``path`` set, the build lands on disk instead: each worker
    writes its shard as a complete store file, the parent merge-sorts
    the shard indexes into one final store at ``path``
    (:func:`~repro.store.writer.merge_store_files` — the full entry
    dict is never materialised in any process), and the result comes
    back opened via :meth:`BaselineStore.open` with a ``hot_entries``
    LRU.  Same fingerprint, same lookups as the in-memory build.

    Worker count resolves like the parallel campaign's (explicit argument
    > ``config.campaign_workers`` > one per CPU).  With one worker, a
    non-sdhash backend, or no ``fork`` support, this degrades to the
    ordinary in-process build (written out and reopened when ``path`` is
    set) — on a single-CPU host the batching itself carries the speedup
    and sharding would only add fork overhead.
    """
    global _SHARD_KEYS, _SHARD_BLOBS
    workers = _resolve_workers(workers, config)
    if (workers <= 1 or backend != "sdhash"
            or "fork" not in multiprocessing.get_all_start_methods()):
        store = BaselineStore.build(corpus, backend, max_inspect_bytes,
                                    digests_enabled)
        if path is None:
            return store
        store.save(path)
        return BaselineStore.open(path, hot_entries=hot_entries)
    started = time.perf_counter()
    keys: List[bytes] = []
    blobs: List[bytes] = []
    seen = set()
    for content in corpus.contents.values():
        key = content_key(content)
        if key in seen:
            continue
        seen.add(key)
        keys.append(key)
        blobs.append(content)
    if _SHARD_KEYS is not None:
        raise RuntimeError(
            "build_store_parallel is already active in this process (the "
            "shard handoff uses module globals, like the parallel "
            "campaign's corpus) — build stores sequentially.")
    _SHARD_KEYS = keys
    _SHARD_BLOBS = blobs
    try:
        bound = max(1, (len(blobs) + workers - 1) // workers)
        ctx = multiprocessing.get_context("fork")
        if path is not None:
            shard_files = [(lo, min(len(blobs), lo + bound),
                            f"{path}.shard{i}", corpus.seed, backend,
                            max_inspect_bytes, digests_enabled)
                           for i, lo in enumerate(
                               range(0, len(blobs), bound))]
            with ctx.Pool(processes=min(workers, len(shard_files))) as pool:
                shard_paths = pool.map(_build_shard_file, shard_files)
            try:
                from ..store.writer import merge_store_files
                merge_store_files(shard_paths, path,
                                  build_seconds=time.perf_counter()
                                  - started)
            finally:
                for shard_path in shard_paths:
                    if os.path.exists(shard_path):
                        os.unlink(shard_path)
            return BaselineStore.open(path, hot_entries=hot_entries)
        shards = [(lo, min(len(blobs), lo + bound),
                   max_inspect_bytes, digests_enabled)
                  for lo in range(0, len(blobs), bound)]
        with ctx.Pool(processes=min(workers, len(shards))) as pool:
            parts = pool.map(_build_shard, shards)
    finally:
        _SHARD_KEYS = None
        _SHARD_BLOBS = None
    entries: Dict[bytes, object] = {}
    total = 0
    for part_entries, part_total in parts:
        entries.update(part_entries)
        total += part_total
    return BaselineStore(corpus.seed, backend, max_inspect_bytes,
                         digests_enabled, entries, total_bytes=total,
                         build_seconds=time.perf_counter() - started)


def _init_worker() -> None:
    global _WORKER_MACHINE
    machine = VirtualMachine(_PARENT_CORPUS, baseline_store=_PARENT_STORE)
    machine.snapshot()
    _WORKER_MACHINE = machine


def _run_one(args) -> SampleResult:
    """Run a single sample on this worker's machine (chunk building block)."""
    profile, config, record_ops = args
    sample = instantiate(profile)
    return run_sample(_WORKER_MACHINE, sample, config, record_ops)


def _run_chunk(args) -> List[Tuple[int, SampleResult]]:
    """Run a batch of samples; one bad sample never poisons its chunk."""
    indices, profiles, config, record_ops = args
    out: List[Tuple[int, SampleResult]] = []
    for index, profile in zip(indices, profiles):
        try:
            result = _run_one((profile, config, record_ops))
        except Exception as exc:  # noqa: BLE001 - chunk survival
            result = errored_result(profile, f"{type(exc).__name__}: {exc}")
        out.append((index, result))
    return out


def _resolve_workers(workers: Optional[int],
                     config: Optional[CryptoDropConfig]) -> int:
    """Explicit argument > ``config.campaign_workers`` > one per CPU."""
    if workers is not None:
        return max(1, workers)
    configured = (config or CryptoDropConfig()).campaign_workers
    if configured > 0:
        return configured
    return os.cpu_count() or 1


def run_campaign_parallel(samples: Sequence,
                          corpus: Optional[GeneratedCorpus] = None,
                          config: Optional[CryptoDropConfig] = None,
                          record_ops: bool = False,
                          workers: Optional[int] = None,
                          journal=None,
                          sample_timeout: Optional[float] = DEFAULT_SAMPLE_TIMEOUT,
                          max_retries: int = 2,
                          chunk_size: Optional[int] = None,
                          use_baseline_store: bool = True) -> CampaignResult:
    """Run a cohort across worker processes; same results as serial.

    ``workers`` defaults to ``config.campaign_workers`` (0 = CPU count).
    With one worker, or without ``fork``, the call degrades to the
    ordinary serial campaign.

    ``sample_timeout`` is the host-wall-clock budget per sample (None
    disables it — a dead worker then goes undetected, so leave it on);
    ``max_retries`` bounds how often a lost/timed-out sample is requeued
    before it is recorded as errored.  ``chunk_size`` overrides the
    adaptive batch size (``None`` = cohort split into roughly
    ``4 × workers`` chunks).
    """
    global _PARENT_CORPUS, _PARENT_STORE, _WORKER_MACHINE
    corpus = corpus or generate()
    journal = coerce_journal(journal)
    workers = _resolve_workers(workers, config)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        from .campaign import run_campaign
        return run_campaign(samples, corpus, config, record_ops,
                            journal=journal,
                            use_baseline_store=use_baseline_store)

    profiles = [sample.profile for sample in samples]
    completed: Dict[int, SampleResult] = {}
    if journal is not None:
        cached = journal.load()
        for index, profile in enumerate(profiles):
            hit = cached.get(CampaignJournal.key_for(profile))
            if hit is not None:
                completed[index] = hit

    if _PARENT_CORPUS is not None:
        raise RuntimeError(
            "run_campaign_parallel is already active in this process: the "
            "corpus is handed to forked workers through the module global "
            "_PARENT_CORPUS (fork inheritance, not pickling), so nested or "
            "concurrent parallel campaigns would silently share the wrong "
            "corpus.  Run campaigns sequentially, or use workers=1 for the "
            "serial path.")
    # Parent-side session: captures the store build.  Per-sample
    # telemetry snapshots are produced inside each worker's monitor and
    # ride home on the pickled SampleResult like perf counters do.
    session = TelemetrySession.from_config(config or CryptoDropConfig())
    store = store_for_config(corpus, config, telemetry=session) \
        if use_baseline_store else None
    _PARENT_CORPUS = corpus
    _PARENT_STORE = store
    started = time.perf_counter()
    try:
        ctx = multiprocessing.get_context("fork")
        pool = ctx.Pool(processes=workers, initializer=_init_worker)
        try:
            results, abandoned, backoffs = _dispatch(
                pool, profiles, completed, config, record_ops, journal,
                sample_timeout, max_retries, workers, chunk_size)
            completed.update(results)
        except BaseException:
            # Error/interrupt path only: in-flight work is unrecoverable
            # anyway, kill it rather than wait.
            pool.terminate()
            pool.join()
            raise
        else:
            if abandoned:
                # At least one dispatch was written off to a dead or
                # wedged worker; its orphaned task would keep the pool's
                # bookkeeping alive forever, so a clean close would hang.
                # Every collected result is already journalled — kill
                # what's left.
                pool.terminate()
            else:
                # Success path: every result has been received — close
                # lets workers finish their teardown (flushing anything
                # buffered) instead of dying mid-write under terminate().
                pool.close()
            pool.join()
    finally:
        # Hygiene: the parent never owns a worker machine, and the corpus
        # global must not leak into unrelated forks after teardown.
        _PARENT_CORPUS = None
        _PARENT_STORE = None
        _WORKER_MACHINE = None
    elapsed = time.perf_counter() - started
    campaign = CampaignResult()
    campaign.results.extend(completed[i] for i in range(len(profiles)))
    campaign.perf = {
        "wall_seconds": elapsed,
        "samples_per_second": (len(profiles) / elapsed if elapsed > 0
                               else 0.0),
        "workers": workers,
        "baseline_store": None if store is None else store.describe(),
        "retry_backoffs": backoffs,
    }
    if session is not None:
        if backoffs:
            session.retry_backoff.inc(backoffs)
        campaign.telemetry = session.export()
    return campaign


def _dispatch(pool, profiles: Sequence, already_done: Dict[int, SampleResult],
              config, record_ops: bool, journal: Optional[CampaignJournal],
              sample_timeout: Optional[float], max_retries: int,
              workers: int, chunk_size: Optional[int]
              ) -> Tuple[Dict[int, SampleResult], int, int]:
    """Chunked submission, streamed results, requeue-on-loss.

    Fresh work goes out in adaptive chunks; a chunk lost to a dead or
    wedged worker is requeued as single-sample tasks (attempt counts
    carry over), so one poisoned sample re-isolates itself instead of
    dragging its chunk-mates through every retry.  Requeues wait out an
    exponential, deterministically jittered backoff
    (:func:`retry_backoff_s`) before resubmission, so a mass timeout
    cannot stampede the freshly respawned workers.

    Returns the collected results, the number of dispatches that were
    abandoned past their deadline — their orphaned pool tasks can never
    complete, which the caller must know before trying a clean
    ``close()`` — and the number of backoff-delayed resubmissions.
    """
    todo = [i for i in range(len(profiles)) if i not in already_done]
    if chunk_size is None:
        chunk_size = max(1, len(todo) // (workers * _CHUNKS_PER_WORKER))
    results: Dict[int, SampleResult] = {}
    abandoned = 0
    backoffs = 0
    #: handle -> (indices, deadline, attempt)
    pending: Dict[object, Tuple[List[int], Optional[float], int]] = {}
    #: backoff holding pen: (ready_at_monotonic, index, attempt)
    delayed: List[Tuple[float, int, int]] = []

    def submit(indices: List[int], attempt: int) -> None:
        handle = pool.apply_async(
            _run_chunk, ((indices, [profiles[i] for i in indices],
                          config, record_ops),))
        deadline = (time.monotonic() + sample_timeout * len(indices)
                    if sample_timeout is not None else None)
        pending[handle] = (indices, deadline, attempt)

    for start in range(0, len(todo), chunk_size):
        submit(todo[start:start + chunk_size], attempt=1)

    while pending or delayed:
        progressed = False
        now = time.monotonic()
        if delayed:
            still_waiting: List[Tuple[float, int, int]] = []
            for ready_at, index, attempt in delayed:
                if now >= ready_at:
                    submit([index], attempt)
                    progressed = True
                else:
                    still_waiting.append((ready_at, index, attempt))
            delayed = still_waiting
        for handle in list(pending):
            indices, deadline, attempt = pending[handle]
            if handle.ready():
                del pending[handle]
                progressed = True
                try:
                    chunk_results = handle.get()
                except Exception as exc:  # noqa: BLE001 - pool-level failure
                    chunk_results = [
                        (i, errored_result(profiles[i],
                                           f"{type(exc).__name__}: {exc}"))
                        for i in indices]
                for index, result in chunk_results:
                    results[index] = result
                    if journal is not None:
                        journal.record(result)
            elif deadline is not None and now > deadline:
                # Lost to a dead worker, or wedged past its wall-clock
                # budget.  The pool has already respawned any dead worker
                # (rerunning _init_worker); requeue the chunk's samples
                # individually so a healthy machine picks them up and a
                # single bad sample cannot re-poison a whole chunk.
                del pending[handle]
                progressed = True
                abandoned += 1
                if attempt <= max_retries:
                    for index in indices:
                        delayed.append((now + retry_backoff_s(index, attempt),
                                        index, attempt + 1))
                        backoffs += 1
                else:
                    for index in indices:
                        # Deliberately not journalled: a resume should
                        # retry a timed-out sample rather than pin its
                        # failure.
                        results[index] = errored_result(
                            profiles[index],
                            f"TimeoutError: no result after {attempt} "
                            f"attempts of {sample_timeout:g}s")
        if not progressed:
            time.sleep(_POLL_INTERVAL_S)
    return results, abandoned, backoffs
