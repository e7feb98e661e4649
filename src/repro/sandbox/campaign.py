"""Campaign orchestration — run a cohort, aggregate Table-I-style stats.

A *campaign* runs a list of samples against one corpus with per-sample
revert, exactly as the paper's 22-day VirusTotal sweep did (§V-A), and
aggregates the per-family medians, the files-lost distribution (Fig. 3),
and the union-indication accounting (§V-B2).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.config import CryptoDropConfig
from ..corpus.builder import GeneratedCorpus, generate
from ..telemetry import TelemetrySession, merge_telemetry_dicts
from .machine import VirtualMachine
from .runner import SampleResult, run_sample

__all__ = ["CampaignResult", "run_campaign", "cull_haul",
           "store_for_config"]


def store_for_config(corpus: GeneratedCorpus,
                     config: Optional[CryptoDropConfig],
                     telemetry=None):
    """The corpus's (cached) BaselineStore matching a detector config.

    ``config.store_backend`` picks the storage: ``"dict"`` (resident,
    default) or ``"mmap"`` (single-file on-disk store, lazy page-in,
    ``config.store_hot_entries`` LRU) — verdicts are bit-identical
    either way.  With a telemetry session attached, the resolved store
    announces itself (``StoreBuilt`` for dict, ``StoreOpened`` for
    mmap) — once per campaign, from the parent process, before any
    monitor exists.
    """
    config = config or CryptoDropConfig()
    resolve_started = time.perf_counter()
    store = corpus.baseline_store(
        backend=config.similarity_backend,
        max_inspect_bytes=config.max_inspect_bytes,
        digests_enabled=config.enable_similarity,
        storage=config.store_backend,
        hot_entries=config.store_hot_entries)
    if telemetry is not None:
        store.announce(telemetry,
                       open_seconds=time.perf_counter() - resolve_started)
    return store

ProgressFn = Callable[[int, int, SampleResult], None]


def _add_leaves(total: dict, entry: dict) -> None:
    """Sum ``entry`` into ``total`` leaf by leaf: numbers add, nested
    dicts recurse, anything else (flags, strings, None) is dropped."""
    for key, value in entry.items():
        if isinstance(value, dict):
            _add_leaves(total.setdefault(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value


@dataclass
class CampaignResult:
    """Aggregated outcome of one cohort sweep."""

    results: List[SampleResult] = field(default_factory=list)
    #: campaign-level execution counters (wall seconds, throughput,
    #: workers, baseline-store identity) filled by the runners
    perf: dict = field(default_factory=dict, compare=False)
    #: campaign-level telemetry snapshot (``TelemetrySession.export()``
    #: of the parent's session — store-build events and the like); None
    #: when the campaign ran without telemetry
    telemetry: Optional[dict] = field(default=None, compare=False)

    def perf_stats(self) -> dict:
        """Per-sample ``monitor.stats()`` dicts summed leaf by leaf
        across every sample that carried one (``samples`` counts them),
        plus the campaign-level execution counters in :attr:`perf`."""
        per_sample = [r.perf for r in self.results if r.perf is not None]
        merged = {"samples": len(per_sample)}
        for perf in per_sample:
            _add_leaves(merged, perf)
        merged.update(self.perf)
        return merged

    def telemetry_stats(self) -> dict:
        """Campaign-wide telemetry aggregate, the analogue of
        :meth:`perf_stats`: every per-sample (or per-worker)
        ``TelemetrySession.export()`` snapshot merged — metric states
        add, per-kind event counts add — plus the campaign-level
        snapshot in :attr:`telemetry` (store builds etc.)."""
        return merge_telemetry_dicts(
            [r.telemetry for r in self.results if r.telemetry is not None]
            + ([self.telemetry] if self.telemetry is not None else []))

    # -- headline metrics -----------------------------------------------------

    @property
    def working(self) -> List[SampleResult]:
        return [r for r in self.results if not r.inert]

    @property
    def detection_rate(self) -> float:
        working = self.working
        if not working:
            return 0.0
        return sum(1 for r in working if r.detected) / len(working)

    def files_lost_values(self) -> List[int]:
        return [r.files_lost for r in self.working]

    @property
    def median_files_lost(self) -> float:
        values = self.files_lost_values()
        return statistics.median(values) if values else 0.0

    @property
    def max_files_lost(self) -> int:
        values = self.files_lost_values()
        return max(values) if values else 0

    @property
    def min_files_lost(self) -> int:
        values = self.files_lost_values()
        return min(values) if values else 0

    @property
    def union_rate(self) -> float:
        working = self.working
        if not working:
            return 0.0
        return sum(1 for r in working if r.union_fired) / len(working)

    # -- groupings ----------------------------------------------------------------

    def by_family(self) -> Dict[str, List[SampleResult]]:
        grouped: Dict[str, List[SampleResult]] = {}
        for result in self.working:
            grouped.setdefault(result.family, []).append(result)
        return grouped

    def family_medians(self) -> Dict[str, float]:
        return {family: statistics.median([r.files_lost for r in rows])
                for family, rows in sorted(self.by_family().items())}

    def class_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.working:
            counts[result.behavior_class] = \
                counts.get(result.behavior_class, 0) + 1
        return counts

    def cumulative_distribution(self) -> List[tuple]:
        """(files_lost, cumulative fraction of samples) — Fig. 3's curve."""
        values = sorted(self.files_lost_values())
        if not values:
            return []
        total = len(values)
        out = []
        for i, value in enumerate(values, start=1):
            if i == total or values[i] != value:
                out.append((value, i / total))
        return out


def run_campaign(samples: Sequence, corpus: Optional[GeneratedCorpus] = None,
                 config: Optional[CryptoDropConfig] = None,
                 record_ops: bool = False,
                 progress: Optional[ProgressFn] = None,
                 journal=None,
                 use_baseline_store: bool = True) -> CampaignResult:
    """Run every sample through a revert cycle on a shared machine.

    ``journal`` (a path or :class:`~repro.sandbox.journal.CampaignJournal`)
    makes the sweep crash-resumable: each completed result is appended
    durably, and a rerun against the same journal executes only the
    samples missing from it, splicing journalled results back in order.

    ``use_baseline_store`` (default on) digests the corpus once into a
    shared :class:`~repro.corpus.baselines.BaselineStore` so every
    sample's engine resolves pristine-content baselines without
    re-digesting; detection results are bit-identical either way.
    """
    from .journal import CampaignJournal, coerce_journal
    corpus = corpus or generate()
    journal = coerce_journal(journal)
    done = journal.load() if journal is not None else {}
    # the campaign's own session captures parent-side events (store
    # builds); per-sample sessions live inside each run's monitor
    session = TelemetrySession.from_config(config or CryptoDropConfig())
    store = store_for_config(corpus, config, telemetry=session) \
        if use_baseline_store else None
    machine = VirtualMachine(corpus, baseline_store=store)
    machine.snapshot()
    campaign = CampaignResult()
    total = len(samples)
    started = time.perf_counter()
    for index, sample in enumerate(samples):
        cached = (done.get(CampaignJournal.key_for(sample))
                  if journal is not None else None)
        if cached is not None:
            result = cached
        else:
            result = run_sample(machine, sample, config, record_ops)
            if journal is not None:
                journal.record(result)
        campaign.results.append(result)
        if progress is not None:
            progress(index + 1, total, result)
    elapsed = time.perf_counter() - started
    campaign.perf = {
        "wall_seconds": elapsed,
        "samples_per_second": total / elapsed if elapsed > 0 else 0.0,
        "workers": 1,
        "baseline_store": None if store is None else store.describe(),
    }
    if session is not None:
        campaign.telemetry = session.export()
    return campaign


def cull_haul(samples: Sequence, corpus: Optional[GeneratedCorpus] = None,
              config: Optional[CryptoDropConfig] = None) -> tuple:
    """The paper's culling pass: split a haul into (working, inert) by
    observed behaviour — a sample is kept iff it attacked user data or was
    detected; reverted between runs (§V-A)."""
    campaign = run_campaign(samples, corpus, config)
    working = []
    inert = []
    for sample, result in zip(samples, campaign.results):
        if result.detected or result.files_lost > 0 or result.new_files > 0:
            working.append((sample, result))
        else:
            inert.append((sample, result))
    return working, inert, campaign
