"""ISSUE 3 — shared corpus BaselineStore + high-throughput campaigns.

Covers the precomputed baseline index end to end: store construction and
dedup, first-touch baseline resolution with zero digesting, live-digest
fallback for mutated content, bit-identical detection across
store/store-less/serial/parallel execution, the lazy close-digest path
against the eager reference (``tests/reference.py``), checkpoint identity
(store referenced by descriptor, never embedded), and the worker-count /
perf-aggregation plumbing around the campaign executor.
"""

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.core.filestate import FileStateCache
from repro.corpus import BaselineStore, content_key, generate
from repro.ransomware import instantiate
from repro.ransomware.factory import working_cohort
from repro.sandbox import (VirtualMachine, run_campaign,
                           run_campaign_parallel, store_for_config)
from repro.sandbox.parallel import _resolve_workers
from repro.simhash.sdhash import compare as sdhash_compare

from tests.reference import eager_reference


@pytest.fixture(scope="module")
def corpus():
    return generate(seed=41, n_files=12, n_dirs=3, use_cache=False)


@pytest.fixture(scope="module")
def store(corpus):
    return corpus.baseline_store()


def _some_content(corpus):
    return corpus.contents[corpus.files[0].rel_path]


def _profiles(n=6):
    by_class = {}
    for sample in working_cohort():
        by_class.setdefault(sample.profile.behavior_class,
                            []).append(sample.profile)
    picked = []
    for cls in ("A", "B", "C"):
        picked.extend(by_class[cls][:n // 3])
    return picked[:n]


def _fingerprint(campaign):
    return [(r.sample_name, r.detected, r.files_lost, round(r.score, 6),
             r.union_fired, sorted(r.flags)) for r in campaign.results]


class TestStoreBuild:
    def test_entries_deduped_by_content(self, corpus, store):
        unique = {content_key(data) for data in corpus.contents.values()}
        assert len(store) == len(unique) <= len(corpus.files)

    def test_lookup_resolves_pristine_content(self, corpus, store):
        entry = store.lookup_content(_some_content(corpus))
        assert entry is not None
        assert entry.file_type is not None
        assert entry.size == len(_some_content(corpus))
        assert entry.digested and not entry.deferred
        assert store.entropy_of(_some_content(corpus)) is not None

    def test_unknown_content_misses(self, store):
        assert store.lookup_content(b"not in any corpus") is None

    def test_fingerprint_stable_and_param_sensitive(self, corpus, store):
        again = BaselineStore.build(corpus)
        assert again.fingerprint == store.fingerprint
        ctph = BaselineStore.build(corpus, backend="ctph")
        assert ctph.fingerprint != store.fingerprint

    def test_describe_and_compatibility(self, corpus, store):
        info = store.describe()
        assert info["seed"] == corpus.seed
        assert info["entries"] == len(store)
        assert info["fingerprint"] == store.fingerprint
        assert store.compatible_with("sdhash", 4 * 1024 * 1024, True)
        assert not store.compatible_with("ctph", 4 * 1024 * 1024, True)

    def test_corpus_memoises_store_per_params(self, corpus):
        assert corpus.baseline_store() is corpus.baseline_store()
        assert corpus.baseline_store() is not \
            corpus.baseline_store(backend="ctph")

    def test_store_for_config_maps_detector_params(self, corpus):
        config = CryptoDropConfig(similarity_backend="ctph")
        assert store_for_config(corpus, config).backend == "ctph"


class TestStoreResolution:
    def test_pristine_content_never_digested(self, corpus, store):
        cache = FileStateCache(baseline_store=store)
        result = cache.inspect(_some_content(corpus))
        assert result.digested and result.digest is not None
        assert cache.digest_cache.store_hits == 1
        assert cache.digest_cache.bytes_digested == 0

    def test_mutated_content_falls_back_to_live_digest(self, corpus, store):
        cache = FileStateCache(baseline_store=store)
        mutated = _some_content(corpus) + b"!"
        result = cache.inspect(mutated)
        assert result.digested and result.digest is not None
        assert cache.digest_cache.store_misses == 1
        assert cache.digest_cache.bytes_digested == len(mutated)

    def test_store_resolution_matches_live_inspection(self, corpus, store):
        with_store = FileStateCache(baseline_store=store)
        without = FileStateCache()
        content = _some_content(corpus)
        a = with_store.inspect(content)
        b = without.inspect(content)
        assert a.file_type.name == b.file_type.name
        assert a.size == b.size
        assert sdhash_compare(a.digest, b.digest) == 100

    def test_incompatible_store_rejected(self, store):
        with pytest.raises(ValueError, match="similarity"):
            FileStateCache(backend="ctph", baseline_store=store)


class TestCampaignEquality:
    @pytest.fixture(scope="class")
    def legs(self, corpus):
        profiles = _profiles()
        return {
            "storeless": run_campaign([instantiate(p) for p in profiles],
                                      corpus, use_baseline_store=False),
            "store": run_campaign([instantiate(p) for p in profiles],
                                  corpus),
            "parallel": run_campaign_parallel(
                [instantiate(p) for p in profiles], corpus, workers=2),
        }

    def test_detection_identical_across_modes(self, legs):
        assert _fingerprint(legs["storeless"]) == \
            _fingerprint(legs["store"]) == _fingerprint(legs["parallel"])

    def test_store_leg_used_the_store(self, legs):
        perf = legs["store"].perf_stats()
        assert perf["digest_cache"]["store_hits"] > 0
        assert perf["baseline_store"] is not None
        assert perf["bytes_digested"] < \
            legs["storeless"].perf_stats()["bytes_digested"]

    def test_campaign_perf_aggregates_samples(self, legs):
        perf = legs["store"].perf_stats()
        assert perf["samples"] == len(legs["store"].results)
        assert perf["wall_seconds"] > 0
        assert perf["samples_per_second"] > 0
        assert perf["workers"] == 1
        assert legs["parallel"].perf["workers"] == 2

    def test_mutating_samples_do_not_poison_the_store(self, corpus):
        # the store survives samples rewriting corpus files: mutated
        # versions live-digest (store miss), and after revert the next
        # sample resolves pristine baselines from the store again
        profiles = _profiles()
        first = run_campaign([instantiate(p) for p in profiles], corpus)
        second = run_campaign([instantiate(p) for p in profiles], corpus)
        assert _fingerprint(first) == _fingerprint(second)
        assert second.perf_stats()["digest_cache"]["store_hits"] > 0


class TestLazyCloseDigests:
    def test_lazy_and_eager_score_identically(self, corpus):
        # lazy: the engine's deferred captures; eager: the reference
        profiles = _profiles()
        lazy = run_campaign([instantiate(p) for p in profiles], corpus,
                            use_baseline_store=False)
        with eager_reference():
            eager = run_campaign([instantiate(p) for p in profiles], corpus,
                                 use_baseline_store=False)
        assert _fingerprint(lazy) == _fingerprint(eager)
        assert lazy.perf_stats()["deferred_digests"] > 0
        # deferral skips the digests no comparison needs
        assert lazy.perf_stats()["bytes_digested"] <= \
            eager.perf_stats()["bytes_digested"]


class TestCheckpointIdentity:
    def _monitor(self, corpus, store):
        machine = VirtualMachine(corpus, baseline_store=store)
        monitor = CryptoDropMonitor(machine.vfs,
                                    baseline_store=store).attach()
        pid = machine.vfs.processes.spawn("editor.exe").pid
        row = corpus.files[0]
        path = machine.docs_root.joinpath(*(row.rel_dir + (row.name,)))
        handle = machine.vfs.open(pid, path, "rw")
        data = machine.vfs.read(pid, handle)
        machine.vfs.seek(pid, handle, 0)
        machine.vfs.write(pid, handle, data)
        machine.vfs.close(pid, handle)
        return machine, monitor

    def test_checkpoint_references_store_by_descriptor(self, corpus, store):
        _machine, monitor = self._monitor(corpus, store)
        state = monitor.engine.checkpoint()
        descriptor = state["cache"]["baseline_store"]
        assert descriptor["fingerprint"] == store.fingerprint
        assert descriptor["seed"] == corpus.seed
        # entries are never embedded, only the identity travels
        assert set(descriptor) == {"seed", "backend", "max_inspect_bytes",
                                   "digests_enabled", "entries", "storage",
                                   "fingerprint"}
        monitor.detach()

    def test_checkpoint_materialises_pending_digests(self, corpus, store):
        _machine, monitor = self._monitor(corpus, store)
        cache = monitor.engine.cache
        state = cache.checkpoint()
        assert all(r.pending_content is None
                   for r in cache._by_node.values())
        fresh = FileStateCache(baseline_store=store)
        fresh.restore(state)
        assert fresh.checkpoint()["entries"] == state["entries"]
        monitor.detach()

    def test_restore_rejects_fingerprint_mismatch(self, corpus, store):
        _machine, monitor = self._monitor(corpus, store)
        state = monitor.engine.cache.checkpoint()
        monitor.detach()
        other = BaselineStore.build(corpus, backend="ctph")
        mismatched = FileStateCache(backend="ctph", baseline_store=other)
        with pytest.raises(ValueError, match="fingerprint|store"):
            mismatched.restore(state)


class TestWorkerResolution:
    def test_explicit_argument_wins(self):
        config = CryptoDropConfig(campaign_workers=4)
        assert _resolve_workers(3, config) == 3

    def test_config_knob_used_when_unspecified(self):
        assert _resolve_workers(None, CryptoDropConfig(campaign_workers=5)) \
            == 5

    def test_zero_config_means_cpu_count(self):
        import os
        assert _resolve_workers(None, CryptoDropConfig()) == \
            (os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert _resolve_workers(0, None) == 1
