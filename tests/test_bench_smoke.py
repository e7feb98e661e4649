"""Seconds-scale smoke pass over the benchmark workloads.

Runs each workload behind a speed gate at a size that finishes in
seconds: the sdhash and compare kernels, the close-heavy rewrite loop,
the store-backed campaign sweep, the batched digest kernels, telemetry
off against on, a large streamed close, the on-disk store sweep and a
faulted multi-tenant ingest session.  It checks what must hold at any
size: identical verdicts and digests across routes, the work counts,
and the wins each fast path already shows at this size.  The full-scale
ratios are held by the same-process A/B gates in
``benchmarks/bench_ab.py``; whole-workload speed is perfbench's.
"""

import dataclasses
import os
import random
import time
from types import SimpleNamespace

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.core.filestate import FileStateCache
from repro.corpus.baselines import BaselineStore
from repro.corpus.builder import generate
from repro.corpus.spec import default_spec
from repro.corpus.wordlists import paragraphs
from repro.faults import ingest_chaos, transient_faults
from repro.fs import DOCUMENTS, VirtualFileSystem
from repro.ingest import (EndpointSessionManager, ShedPolicy,
                          record_endpoint_stream)
from repro.ransomware import instantiate
from repro.ransomware.factory import working_cohort
from repro.sandbox import (VirtualMachine, run_campaign,
                           run_campaign_parallel, store_for_config)
from repro.sandbox.parallel import build_store_parallel
from repro.simhash.sdhash import compare, digest_many, sdhash
from repro.store import fsck_store
from tests.reference import (build_store_serial, compare_scalar,
                             eager_reference, sdhash_scalar)

pytestmark = pytest.mark.benchmarks

#: the close-heavy rewrite loop every close-path section runs
CLOSE_HEAVY = dict(n_files=6, rewrites=3, payload=24 * 1024)
#: corpus and cohort of the detection-identity campaigns
IDENTITY = dict(n_files=6, n_dirs=3, cohort=4)


def _text(seed: int, approx_bytes: int) -> bytes:
    data = paragraphs(random.Random(seed), approx_bytes).encode()
    while len(data) < approx_bytes:
        data += paragraphs(random.Random(seed + len(data)),
                           approx_bytes).encode()
    return data[:approx_bytes]


def _best_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _speedup(fast_fn, slow_fn, fast_repeats: int,
             slow_repeats: int) -> float:
    """Speedup of ``fast_fn`` over ``slow_fn``, legs interleaved: the
    larger of the best paired-round ratio and the ratio of the per-leg
    minima, so noise has to slow the fast leg in every round and at its
    minimum to understate it."""
    fast_times, slow_times, paired = [], [], []
    for i in range(max(fast_repeats, slow_repeats)):
        started = time.perf_counter()
        fast_fn()
        fast_times.append(time.perf_counter() - started)
        if i < slow_repeats:
            started = time.perf_counter()
            slow_fn()
            slow_times.append(time.perf_counter() - started)
            paired.append(slow_times[-1] / fast_times[-1])
    return round(max(max(paired), min(slow_times) / min(fast_times)), 2)


def _small_docs(n_docs: int, seed_base: int) -> list:
    """600-1200 byte documents: the small-file tail of the paper's
    corpus, where per-file dispatch costs more than the arithmetic."""
    return [_text(seed_base + i, 600 + (i * 37) % 601)
            for i in range(n_docs)]


def close_heavy_campaign(n_files: int, rewrites: int, payload: int,
                         digest_cache_entries: int = 256,
                         telemetry: bool = False):
    """Rewrite-then-close the same documents repeatedly.  Returns
    ``(elapsed_seconds, monitor.stats(), telemetry_export_or_None)``."""
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
    stats = monitor.stats()
    export = monitor.telemetry_export()
    monitor.detach()
    return elapsed, stats, export


def _bench_corpus(n_files: int, n_dirs: int):
    """Every document pushed above the samples' pure-Python cipher
    cutoff, so a campaign's cost is the detector's digest path."""
    spec = default_spec()
    big = dataclasses.replace(
        spec, types=[dataclasses.replace(t, median_bytes=327680,
                                         min_bytes=262144,
                                         max_bytes=524288)
                     for t in spec.types])
    return generate(seed=977, n_files=n_files, n_dirs=n_dirs, spec=big)


def _bench_cohort(total: int):
    """``total`` Class-C/delete profiles, cycled: pristine reads resolve
    from the store and the ciphertext drops are write-once files whose
    digests are never needed."""
    deleters = [s.profile for s in working_cohort(base_seed=0)
                if s.profile.behavior_class == "C"
                and s.profile.class_c_disposal == "delete"]
    return [deleters[i % len(deleters)] for i in range(total)]


def _result_fingerprint(campaign) -> list:
    """The detection outcome of every sample, order-sensitive."""
    return [(r.sample_name, r.detected, r.files_lost, round(r.score, 6),
             r.union_fired, sorted(r.flags)) for r in campaign.results]


def _identity_campaign(config, **kwargs):
    corpus = _bench_corpus(IDENTITY["n_files"], IDENTITY["n_dirs"])
    profiles = _bench_cohort(IDENTITY["cohort"])
    return run_campaign([instantiate(p) for p in profiles], corpus,
                        config, **kwargs)


def _matches_eager_reference(**overrides) -> bool:
    """A storeless campaign (the configuration that routes deferred
    captures through the scheduler's batched flushes) against the eager
    reference cache on the same cohort and config."""
    config = CryptoDropConfig(**overrides)
    engine = _identity_campaign(config, use_baseline_store=False)
    with eager_reference():
        reference = _identity_campaign(config, use_baseline_store=False)
    return _result_fingerprint(engine) == _result_fingerprint(reference)


@pytest.fixture(scope="module")
def close_path():
    """Cache-on and cache-off close-heavy legs, interleaved per round."""
    cached_runs, uncached_times, ratios = [], [], []
    for _ in range(2):
        cached_runs.append(close_heavy_campaign(**CLOSE_HEAVY))
        uncached_times.append(close_heavy_campaign(
            **CLOSE_HEAVY, digest_cache_entries=0)[0])
        ratios.append(uncached_times[-1] / cached_runs[-1][0])
    cached_s = min(run[0] for run in cached_runs)
    return {"counters": cached_runs[0][1],
            "speedup": round(max(max(ratios), min(uncached_times)
                                 / cached_s), 2)}


@pytest.fixture(scope="module")
def campaign_sweep():
    """The store-backed campaign against the eager reference (no store,
    no LRU, every version digested on the spot) and the parallel
    executor."""
    corpus = _bench_corpus(n_files=8, n_dirs=4)
    profiles = _bench_cohort(6)
    config = CryptoDropConfig()

    def fresh():
        return [instantiate(p) for p in profiles]

    started = time.perf_counter()
    store = store_for_config(corpus, config)
    store_build_s = time.perf_counter() - started
    legs = {}

    def eager_leg():
        with eager_reference():
            legs["eager"] = run_campaign(fresh(), corpus, config,
                                         use_baseline_store=False)

    def store_leg():
        legs["store"] = run_campaign(fresh(), corpus, config,
                                     use_baseline_store=True)

    eager_s = _best_seconds(eager_leg, 1)
    store_s = _best_seconds(store_leg, 1)
    legs["parallel"] = run_campaign_parallel(
        fresh(), corpus, config, workers=2, use_baseline_store=True)
    fingerprints = {name: _result_fingerprint(result)
                    for name, result in legs.items()}
    perf = legs["store"].perf_stats()
    return {
        "speedup": eager_s / store_s,
        "samples": len(profiles),
        "store_build_seconds": store_build_s,
        "store_entries": len(store),
        "results_identical": (fingerprints["eager"] == fingerprints["store"]
                              == fingerprints["parallel"]),
        "store_hits": perf["digest_cache"]["store_hits"],
        "store_misses": perf["digest_cache"]["store_misses"],
    }


@pytest.fixture(scope="module")
def telemetry_overhead():
    """The close-heavy loop with telemetry off and on.  What the disabled
    path costs is timed by ``make bench-ab``
    (``benchmarks/bench_ab.py::test_telemetry_off_lt_1p02_of_baseline``)."""
    _, off_stats, _ = close_heavy_campaign(**CLOSE_HEAVY)
    _, on_stats, export = close_heavy_campaign(**CLOSE_HEAVY, telemetry=True)

    def counter_view(stats) -> dict:
        view = dict(stats)
        view.pop("op_wall_us")   # measured time, not a counter
        return view

    runs = {label: _identity_campaign(
                CryptoDropConfig(telemetry_enabled=enabled))
            for label, enabled in (("off", False), ("on", True))}
    return {
        "events_captured": export["bus"]["emitted"],
        "counters_identical": counter_view(off_stats)
                              == counter_view(on_stats),
        "campaign_results_identical": (_result_fingerprint(runs["off"])
                                       == _result_fingerprint(runs["on"])),
    }


@pytest.fixture(scope="module")
def streaming_digest():
    """An 8 MiB file written in 256 KiB chunks over a planted document
    through a truncating open and closed, front to back (an append-only
    stream) and back to front (seek, then write: no stream spans the
    file).  Each leg times the close plus the scheduler flush, with the
    digest LRU off (the legs write identical bytes) and the inspect cap
    above the file size."""
    file_bytes, chunk_bytes = 8 << 20, 256 * 1024
    n_chunks = file_bytes // chunk_bytes
    chunk = _text(41, chunk_bytes)

    def leg(streaming: bool) -> dict:
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        config = CryptoDropConfig(digest_cache_entries=0,
                                  max_inspect_bytes=file_bytes * 2)
        monitor = CryptoDropMonitor(vfs, config).attach()
        pid = vfs.processes.spawn("writer.exe").pid
        path = DOCUMENTS / "archive.dat"
        vfs.peek_write(path, _text(42, 16 * 1024))
        handle = vfs.open(pid, path, "w", truncate=True)
        order = (range(n_chunks) if streaming
                 else range(n_chunks - 1, -1, -1))
        for index in order:
            vfs.seek(pid, handle, index * chunk_bytes)
            vfs.write(pid, handle, chunk)
        started = time.perf_counter()
        vfs.close(pid, handle)
        monitor.flush_inspections()
        close_s = time.perf_counter() - started
        record = monitor.engine.cache.get(vfs.peek_stat(path).node_id)
        digest = (record.base_digest.hexdigest()
                  if record is not None and record.base_digest is not None
                  else None)
        streams = monitor.engine.stream_stats()
        monitor.detach()
        return {"close_s": close_s, "digest": digest, "streams": streams}

    streamed_close, whole_close, paired = [], [], []
    for _ in range(2):
        streamed = leg(True)
        whole = leg(False)
        streamed_close.append(streamed["close_s"])
        whole_close.append(whole["close_s"])
        paired.append(whole["close_s"] / streamed["close_s"])
    streams = streamed["streams"]
    return {
        "file_bytes": file_bytes,
        "close_speedup": round(max(
            max(paired), min(whole_close) / min(streamed_close)), 2),
        "streams_finalized": streams["finalized"],
        "stream_fallbacks": streams["fallbacks"],
        "bytes_streamed": streams["bytes_streamed"],
        "digests_identical": (streamed["digest"] is not None
                              and streamed["digest"] == whole["digest"]),
    }


def _synthetic_store_corpus(n_files: int, seed: int, doc_bytes: int):
    """``n_files`` small unique text documents."""
    base = _text(seed, max(doc_bytes * 2, 4096))
    half = max(1, doc_bytes // 2)
    contents = {}
    for i in range(n_files):
        prefix = f"document {i:07d}\n".encode()
        contents[f"d{i:07d}.txt"] = prefix + base[:half + (i * 37) % half]
    return SimpleNamespace(contents=contents, seed=seed)


def _store_scaling_leg(n_files: int, doc_bytes: int, tmp_dir) -> dict:
    """One ``.cdbs`` at ``n_files`` entries: sharded parallel build, then
    a reopen, a pristine re-inspection sweep over a bounded hot set, and
    a structural fsck."""
    hot_entries, sweep_lookups = 256, 400
    corpus = _synthetic_store_corpus(n_files, seed=601 + n_files,
                                     doc_bytes=doc_bytes)
    path = str(tmp_dir / f"store_{n_files}.cdbs")
    started = time.perf_counter()
    store = build_store_parallel(corpus, workers=2, path=path)
    build_s = time.perf_counter() - started
    store.close()
    open_s = _best_seconds(lambda: BaselineStore.open(path).close(), 3)

    store = BaselineStore.open(path, hot_entries=hot_entries)
    cache = FileStateCache(baseline_store=store)
    blobs = list(corpus.contents.values())
    step = max(1, len(blobs) // sweep_lookups)
    sample = blobs[::step][:sweep_lookups]
    for blob in sample:
        cache.inspect(blob)
    paging = store.page_stats()
    sweep_bytes_digested = cache.digest_cache.bytes_digested
    sweep_store_hits = cache.digest_cache.store_hits
    store.close()
    structural = fsck_store(path, check_records=False)
    os.unlink(path)
    return {
        "files": n_files,
        "build_seconds": build_s,
        "open_seconds": open_s,
        "open_vs_rebuild": round(build_s / open_s, 1),
        "lookups": len(sample),
        "sweep_bytes_digested": sweep_bytes_digested,
        "sweep_store_hits": sweep_store_hits,
        "page_ins": paging["page_ins"],
        "resident": paging["resident"],
        "hot_entries": hot_entries,
        "fsck_ok": structural["ok"],
    }


@pytest.fixture(scope="module")
def store_persistence(tmp_path_factory):
    """A ~1k-entry on-disk store sweep, plus the same campaign over the
    dict and mmap backends."""
    scaling = [_store_scaling_leg(1000, 900,
                                  tmp_path_factory.mktemp("store"))]
    legs = {storage: _identity_campaign(
                CryptoDropConfig(store_backend=storage))
            for storage in ("dict", "mmap")}
    described = {name: leg.perf["baseline_store"]
                 for name, leg in legs.items()}
    mmap_cache = legs["mmap"].perf_stats()["digest_cache"]
    return {
        "results_identical": (_result_fingerprint(legs["dict"])
                              == _result_fingerprint(legs["mmap"])),
        "fingerprint_identical": (described["dict"]["fingerprint"]
                                  == described["mmap"]["fingerprint"]),
        "storage_legs": [described["dict"]["storage"],
                         described["mmap"]["storage"]],
        "mmap_store_hits": mmap_cache["store_hits"],
        "mmap_store_misses": mmap_cache["store_misses"],
        "scaling": scaling,
        "open_vs_rebuild": scaling[-1]["open_vs_rebuild"],
    }


@pytest.fixture(scope="module")
def ingest_resilience():
    """An 8-tenant ingest session over identical recorded streams, run
    fault-free, under a fault storm (shard kills, poison events, queue
    stalls, transient denials; breaker and watchdog on), and overloaded
    with a shed policy on every other tenant."""
    corpus = generate(seed=1721, n_files=24, n_dirs=5)
    profiles = [s.profile for s in working_cohort(base_seed=0)]
    streams = {f"ep{i:03d}": record_endpoint_stream(
                   corpus, instantiate(profiles[(i * 7) % len(profiles)]),
                   seed=i, max_events=200)
               for i in range(8)}
    tenants = sorted(streams)
    config = CryptoDropConfig(telemetry_enabled=True)

    def session(fault_map=None, shed_tenants=(), **manager_kw):
        manager = EndpointSessionManager(corpus, config=config,
                                         **manager_kw)
        shed_policy = ShedPolicy(watermark=8, sample_every=4)
        for tenant in tenants:
            kwargs = {"fault_plan": (fault_map or {}).get(tenant)}
            if tenant in shed_tenants:
                kwargs["shed_policy"] = shed_policy
            manager.add_endpoint(tenant, streams[tenant], **kwargs)
        started = time.perf_counter()
        manager.run()
        return manager, time.perf_counter() - started

    reference, seconds_fault_free = session()
    ref_verdicts = reference.verdicts()
    ref_leaks = reference.cross_tenant_events()
    events_applied = sum(s["applied"]
                         for s in reference.stats()["tenants"].values())
    reference.close()

    fault_map = {}
    for i, tenant in enumerate(tenants):
        fault_map[tenant] = (
            ingest_chaos(seed=31 + i, kill_shard_at_events=(25,)),
            ingest_chaos(seed=31 + i, poison_event_rate=0.04),
            ingest_chaos(seed=31 + i, queue_stall_rate=0.02),
            transient_faults(seed=31 + i, deny_rate=0.15,
                             short_read_rate=0.0, latency_spike_rate=0.0,
                             max_denials=20),
        )[i % 4]
    faulted, seconds_faulted = session(fault_map=fault_map)
    faulted_stats = faulted.stats()
    faulted_verdicts = faulted.verdicts()
    faulted_leaks = faulted.cross_tenant_events()
    watchdog_stats = faulted_stats["watchdog"] or {}
    shard_kills = sum(s["kills"] for s in faulted_stats["tenants"].values())
    faulted.close()

    shed_tenants = frozenset(tenants[::2])
    overload, _ = session(shed_tenants=shed_tenants, queue_capacity=16,
                          pump_batch=16, tick_budget=2)
    overload_stats = overload.stats()["tenants"]
    sheds = sum(s["queue"]["shed"] for s in overload_stats.values())
    shed_events = 0
    shed_observable = sheds > 0
    for tenant in tenants:
        tenant_session = overload.sessions.get(tenant)
        bus_sheds = (len(tenant_session.bus.events(kind="load_shed"))
                     if tenant_session is not None else 0)
        shed_events += bus_sheds
        if bus_sheds != overload_stats[tenant]["queue"]["shed"]:
            shed_observable = False
    overload_verdicts = overload.verdicts()
    nonshed_unchanged = all(overload_verdicts[t] == ref_verdicts[t]
                            for t in tenants if t not in shed_tenants)
    overload_leaks = overload.cross_tenant_events()
    overload.close()
    return {
        "events_applied": events_applied,
        # same events applied in both legs, so throughput is inverse time
        "throughput_ratio": round(seconds_fault_free / seconds_faulted,
                                  4),
        "restarts": watchdog_stats.get("restarts", 0),
        "shard_kills": shard_kills,
        "sheds": sheds,
        "shed_events_observed": shed_events,
        "verdicts_identical": faulted_verdicts == ref_verdicts,
        "no_cross_tenant_leaks": not (ref_leaks or faulted_leaks
                                      or overload_leaks),
        "shed_observable": shed_observable,
        "nonshed_unchanged": nonshed_unchanged,
    }


class TestReportShape:
    def test_counters_present(self, close_path):
        counters = close_path["counters"]
        assert counters["bytes_closed"] > 0
        assert counters["digest_cache"]["hits"] > 0
        assert counters["ops_seen"]["close"] > 0
        assert counters["op_wall_us"]["close"] > 0


class TestInvariantsAndSpeedups:
    def test_single_digest_invariant(self, close_path):
        counters = close_path["counters"]
        assert counters["digest_cache"]["bytes_digested"] <= \
            counters["bytes_closed"]

    def test_close_path_speedup(self, close_path):
        # ≥2x on close-heavy campaigns (cache on vs off)
        assert close_path["speedup"] >= 2.0

    def test_compare_speedup(self):
        # fewer filters than the ≥5x/32-filter bar of the A/B gate; even
        # so the batched path must already win
        size = 8 * 24 * 1024
        while True:
            big_a = sdhash(_text(7, size))
            if big_a is not None and len(big_a) >= 8:
                break
            size *= 2
        big_b = sdhash(_text(7, size))
        speedup = _speedup(lambda: compare(big_a, big_b),
                           lambda: compare_scalar(big_a, big_b), 3, 2)
        assert speedup >= 2.0

    def test_digest_vectorisation_wins(self):
        payload = _text(3, 32 * 1024)
        speedup = _speedup(lambda: sdhash(payload),
                           lambda: sdhash_scalar(payload), 3, 2)
        assert speedup >= 1.5

    def test_campaign_results_identical_across_modes(self, campaign_sweep):
        # store-backed, eager-reference and parallel runs agree
        # bit-for-bit on detection outcomes
        assert campaign_sweep["results_identical"]

    def test_store_leaves_untouched_corpus_undigested(self):
        # every open→read→rewrite-identical→close cycle on a pristine
        # corpus file resolves its capture and its close inspection from
        # the store
        corpus = _bench_corpus(n_files=4, n_dirs=4)
        config = CryptoDropConfig()
        store = store_for_config(corpus, config)
        machine = VirtualMachine(corpus, baseline_store=store)
        monitor = CryptoDropMonitor(machine.vfs, config,
                                    baseline_store=store).attach()
        vfs = machine.vfs
        pid = vfs.processes.spawn("editor.exe").pid
        for _ in range(2):
            for row in corpus.files:
                path = machine.docs_root.joinpath(*(row.rel_dir
                                                    + (row.name,)))
                handle = vfs.open(pid, path, "rw")
                data = vfs.read(pid, handle)
                vfs.seek(pid, handle, 0)
                vfs.write(pid, handle, data)
                vfs.close(pid, handle)
        stats = monitor.stats()
        monitor.detach()
        assert stats["digest_cache"]["bytes_digested"] == 0

    def test_digest_many_beats_per_file(self):
        # ≥2x on a 32-doc batch is the A/B gate; even a 16-doc batch
        # must already win
        docs = _small_docs(16, seed_base=100)
        per_file = [sdhash(d) for d in docs]
        batched = digest_many(docs)
        assert len(batched) == len(per_file)
        assert all((a is None and b is None)
                   or (a is not None and b is not None
                       and a.hexdigest() == b.hexdigest())
                   for a, b in zip(batched, per_file))
        speedup = _speedup(lambda: digest_many(docs),
                           lambda: [sdhash(d) for d in docs], 3, 2)
        assert speedup > 1.0

    def test_store_build_batched_beats_serial(self):
        # ≥3x at 1,024 docs is the A/B gate; here a win plus
        # entry-for-entry identity with the serial reference
        contents = {f"docs/note{i}.txt": doc for i, doc in
                    enumerate(_small_docs(128, seed_base=500))}
        corpus = SimpleNamespace(contents=contents, seed=977)
        serial = build_store_serial(corpus)
        batched = BaselineStore.build(corpus)
        assert serial.fingerprint == batched.fingerprint
        assert serial.total_bytes == batched.total_bytes
        for key, a in serial._entries.items():
            b = batched._entries[key]
            assert a.entropy == b.entropy and a.file_type == b.file_type
            assert (a.digest.hexdigest() if a.digest else None) == \
                (b.digest.hexdigest() if b.digest else None)
        assert len(batched) > 0
        speedup = _speedup(lambda: BaselineStore.build(corpus),
                           lambda: build_store_serial(corpus), 3, 2)
        assert speedup > 1.0

    def test_batched_campaign_results_identical(self):
        # scheduler-deferred digesting must not perturb a single verdict
        assert _matches_eager_reference()

    def test_campaign_section_counters(self, campaign_sweep):
        sweep = campaign_sweep
        assert sweep["samples"] > 0
        assert sweep["store_entries"] > 0
        # the store sits in the resolution path for every first-touch
        # inspection; whether lookups hit depends on the cohort's attack
        # shapes, so only that it was consulted is pinned here
        assert sweep["store_hits"] + sweep["store_misses"] > 0
        # legs of ~25 ms make the ratio scheduler noise; the A/B gates
        # and perfbench judge the speed
        assert sweep["speedup"] > 0
        assert sweep["store_build_seconds"] > 0


class TestTelemetryOverhead:
    def test_enabled_path_captures_events(self, telemetry_overhead):
        assert telemetry_overhead["events_captured"] > 0

    def test_counters_identical_either_way(self, telemetry_overhead):
        # telemetry observes the engine; it must never perturb what the
        # engine counts
        assert telemetry_overhead["counters_identical"]

    def test_detection_results_identical_either_way(self,
                                                    telemetry_overhead):
        assert telemetry_overhead["campaign_results_identical"]


class TestStreamingDigestSection:
    def test_streamed_digest_identical_to_whole_file(self,
                                                     streaming_digest):
        # the incremental stream is the same digest by another route,
        # bit for bit
        assert streaming_digest["digests_identical"]

    def test_append_only_stream_never_fell_back(self, streaming_digest):
        assert not streaming_digest["stream_fallbacks"]
        assert streaming_digest["streams_finalized"] >= 1
        assert streaming_digest["bytes_streamed"] >= \
            streaming_digest["file_bytes"]

    def test_campaign_results_identical_streaming_on_off(
            self, stream_threshold):
        assert _matches_eager_reference()

    def test_streamed_close_wins(self, streaming_digest):
        # an 8 MiB file must already beat the whole-file digest clearly
        assert streaming_digest["close_speedup"] > 2.0


class TestStorePersistence:
    def test_backend_verdicts_identical(self, store_persistence):
        # the mmap backend is storage, never semantics — dict and disk
        # legs agree bit-for-bit
        assert store_persistence["results_identical"]
        assert store_persistence["fingerprint_identical"]
        assert store_persistence["storage_legs"] == ["dict", "mmap"]

    def test_mmap_leg_consulted_the_store(self, store_persistence):
        # whether campaign lookups hit depends on the cohort's attack
        # shapes; the sweep below pins hits == lookups on pristine content
        section = store_persistence
        assert section["mmap_store_hits"] + section["mmap_store_misses"] > 0

    def test_pristine_rerun_digests_nothing(self, store_persistence):
        for leg in store_persistence["scaling"]:
            assert leg["sweep_bytes_digested"] == 0
            assert leg["sweep_store_hits"] == leg["lookups"]
            assert leg["page_ins"] > 0

    def test_residency_bounded_and_files_clean(self, store_persistence):
        for leg in store_persistence["scaling"]:
            assert leg["resident"] <= leg["hot_entries"]
            assert leg["fsck_ok"]

    def test_reopen_beats_rebuild(self, store_persistence):
        # even the ~1k-entry store must reopen clearly faster than it
        # built
        assert store_persistence["open_vs_rebuild"] > 1.0
        for leg in store_persistence["scaling"]:
            assert leg["open_seconds"] < leg["build_seconds"]


class TestIngestResilience:
    def test_verdicts_survive_the_fault_storm(self, ingest_resilience):
        # kills, poisons, stalls and transient denials change nothing
        # about what the detector decides once the watchdog has replayed
        # the lost tail
        assert ingest_resilience["verdicts_identical"]

    def test_no_cross_tenant_leakage(self, ingest_resilience):
        assert ingest_resilience["no_cross_tenant_leaks"]

    def test_every_shed_is_observable(self, ingest_resilience):
        # degraded mode must be loud: each dropped record surfaces as a
        # LoadShed bus event and a per-tenant counter increment
        assert ingest_resilience["shed_observable"]
        assert ingest_resilience["sheds"] > 0
        assert ingest_resilience["shed_events_observed"] == \
            ingest_resilience["sheds"]

    def test_nonshed_tenants_unchanged_under_overload(self,
                                                      ingest_resilience):
        assert ingest_resilience["nonshed_unchanged"]

    def test_faults_actually_fired(self, ingest_resilience):
        assert ingest_resilience["shard_kills"] > 0
        assert ingest_resilience["restarts"] > 0
        assert ingest_resilience["events_applied"] > 0

    def test_throughput_ratio_positive(self, ingest_resilience):
        # the ≥0.70 bar is the A/B gate at 64 endpoints; legs this short
        # cannot pin a ratio against scheduler noise
        assert ingest_resilience["throughput_ratio"] > 0
