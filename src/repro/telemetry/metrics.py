"""Low-overhead metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the numeric side of the telemetry subsystem — where the
event bus answers *what happened when*, the registry answers *how much,
how often, how distributed*.  It follows the Prometheus data model
(metric name + label set + samples) because that is what the text-format
exporter in :mod:`repro.telemetry.export` renders, but it has no network
or wire dependencies of its own.

Two kinds of state live here:

* **live instruments** — counters and histograms incremented at emit
  points (indicator hits, union boosts, suspensions, per-OpKind wall
  time).  These are lifetime counters: engine checkpoints carry them and
  restore re-seeds them, the same way the digest cache's counters travel
  (buffered *events* never checkpoint — see ``AnalysisEngine.checkpoint``).
* **snapshots** — :func:`engine_snapshot` mirrors the engine's
  ``stats()`` counters (plus the attached store's paging counters) into
  registry gauges, and :func:`ingest_snapshot` does the same for an
  ingest session, so one Prometheus scrape carries both worlds.

Bucket layouts are fixed (not configurable per-run) so campaign-wide
merges are always bucket-compatible.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "FILES_LOST_BUCKETS", "SCORE_BUCKETS", "OP_WALL_US_BUCKETS",
    "QUEUE_DEPTH_BUCKETS",
    "engine_snapshot", "ingest_snapshot", "merge_metric_states",
]

#: detection latency measured in files lost before suspension (paper
#: Fig. 3's x-axis: the median working-sample loss is ~10 files)
FILES_LOST_BUCKETS: Tuple[float, ...] = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55)
#: reputation score at the moment of suspension (threshold 200 default,
#: union threshold 180)
SCORE_BUCKETS: Tuple[float, ...] = (150, 180, 200, 220, 250, 300, 400, 600)
#: measured post_operation wall time per operation, microseconds
OP_WALL_US_BUCKETS: Tuple[float, ...] = (5, 10, 25, 50, 100, 250, 1000,
                                         5000, 20000)
#: pending inspections drained per InspectionScheduler flush
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
#: bounded ingest-queue occupancy at admission time (repro.ingest)
QUEUE_DEPTH_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic counter series (one value per label set)."""

    metric_type = "counter"
    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self._series.values())

    def series(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._series.items())

    # -- checkpoint ----------------------------------------------------------

    def state(self) -> list:
        return [[list(map(list, key)), value]
                for key, value in self.series()]

    def load(self, state: list) -> None:
        self._series = {tuple(tuple(pair) for pair in key): float(value)
                        for key, value in state}


class Gauge(Counter):
    """Point-in-time value series; same storage, set instead of inc."""

    metric_type = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: str) -> None:
        self._series[_label_key(labels)] = value


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)   # +1 for +Inf
        self.sum = 0.0
        self.count = 0


class Histogram:
    """Fixed-bucket histogram series (cumulative buckets at render time).

    ``bounds`` are upper bucket edges; an implicit ``+Inf`` bucket always
    exists.  Counts are stored per-bucket (not cumulative) so merging two
    histograms is element-wise addition; the Prometheus renderer emits
    the cumulative form the exposition format requires.
    """

    metric_type = "histogram"
    __slots__ = ("name", "help", "bounds", "_series")

    def __init__(self, name: str, bounds: Tuple[float, ...],
                 help: str = "") -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds!r}")
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in bounds)
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.bounds))
        series.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        series.sum += value
        series.count += 1

    def series(self) -> List[Tuple[LabelKey, _HistogramSeries]]:
        return sorted(self._series.items(), key=lambda kv: kv[0])

    def count(self, **labels: str) -> int:
        series = self._series.get(_label_key(labels))
        return 0 if series is None else series.count

    def total_count(self) -> int:
        return sum(s.count for s in self._series.values())

    # -- checkpoint ----------------------------------------------------------

    def state(self) -> list:
        return [[list(map(list, key)),
                 {"buckets": list(s.bucket_counts), "sum": s.sum,
                  "count": s.count}]
                for key, s in self.series()]

    def load(self, state: list) -> None:
        self._series = {}
        for key, payload in state:
            series = _HistogramSeries(len(self.bounds))
            series.bucket_counts = [int(n) for n in payload["buckets"]]
            series.sum = float(payload["sum"])
            series.count = int(payload["count"])
            self._series[tuple(tuple(pair) for pair in key)] = series


class MetricsRegistry:
    """Named metric instruments, get-or-create, render- and merge-able."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def _register(self, cls, name: str, help: str, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args, help=help) if args \
                else cls(name, help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{metric.metric_type}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, bounds: Tuple[float, ...],
                  help: str = "") -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, bounds, help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{metric.metric_type}")
        elif metric.bounds != tuple(float(b) for b in bounds):
            raise ValueError(f"metric {name!r} bucket bounds differ")
        return metric

    def get(self, name: str):
        return self._metrics.get(name)

    def metrics(self) -> List[object]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    # -- checkpoint / merge ---------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-serialisable lifetime state of every instrument.

        This is what engine checkpoints embed: counters and histogram
        tallies travel, buffered events never do.
        """
        out = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry = {"type": metric.metric_type, "help": metric.help,
                     "state": metric.state()}
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
            out[name] = entry
        return out

    def restore(self, state: dict) -> None:
        """Load a :meth:`checkpoint` snapshot, replacing current values."""
        for name, entry in state.items():
            kind = entry["type"]
            if kind == "histogram":
                metric = self.histogram(name, tuple(entry["bounds"]),
                                        help=entry.get("help", ""))
            elif kind == "gauge":
                metric = self.gauge(name, help=entry.get("help", ""))
            else:
                metric = self.counter(name, help=entry.get("help", ""))
            metric.load(entry["state"])

    def merge(self, state: dict) -> None:
        """Fold another registry's :meth:`checkpoint` into this one.

        Counters and histogram tallies add; gauges take the incoming
        value (last write wins — campaign merges only use gauges for
        configuration-like values where any sample's reading is valid).
        """
        for name, entry in state.items():
            kind = entry["type"]
            if kind == "histogram":
                metric = self.histogram(name, tuple(entry["bounds"]),
                                        help=entry.get("help", ""))
                for key, payload in entry["state"]:
                    label_key = tuple(tuple(pair) for pair in key)
                    series = metric._series.get(label_key)
                    if series is None:
                        series = metric._series[label_key] = \
                            _HistogramSeries(len(metric.bounds))
                    for i, n in enumerate(payload["buckets"]):
                        series.bucket_counts[i] += int(n)
                    series.sum += float(payload["sum"])
                    series.count += int(payload["count"])
            elif kind == "gauge":
                metric = self.gauge(name, help=entry.get("help", ""))
                for key, value in entry["state"]:
                    metric._series[tuple(tuple(pair) for pair in key)] = \
                        float(value)
            else:
                metric = self.counter(name, help=entry.get("help", ""))
                for key, value in entry["state"]:
                    label_key = tuple(tuple(pair) for pair in key)
                    metric._series[label_key] = \
                        metric._series.get(label_key, 0.0) + float(value)


def merge_metric_states(states: Iterable[dict]) -> MetricsRegistry:
    """One registry holding the sum of many :meth:`checkpoint` payloads."""
    merged = MetricsRegistry()
    for state in states:
        if state:
            merged.merge(state)
    return merged


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def engine_snapshot(engine,
                    registry: Optional[MetricsRegistry] = None
                    ) -> MetricsRegistry:
    """Mirror an engine's (or monitor's) ``stats()`` into registry gauges.

    Lets one Prometheus exposition carry both the live telemetry
    instruments and the engine's operational counters.  The attached
    baseline store's paging counters come from its own ``page_stats()``:
    they are store-wide, so ``stats()`` leaves them out.  Idempotent over
    a registry: gauges are set, not accumulated.
    """
    stats = engine.stats()
    cache_stats = stats["digest_cache"]
    streaming = stats["streaming"]
    registry = registry if registry is not None else MetricsRegistry()
    cache = registry.gauge("cryptodrop_digest_cache",
                           "digest LRU traffic and occupancy")
    for event in ("hits", "misses", "evictions", "entries", "capacity"):
        cache.set(cache_stats[event], event=event)
    store = registry.gauge("cryptodrop_baseline_store_lookups",
                           "corpus BaselineStore resolution traffic")
    store.set(cache_stats["store_hits"], result="hit")
    store.set(cache_stats["store_misses"], result="miss")
    registry.gauge("cryptodrop_deferred_digests",
                   "inspections whose digest was deferred to the scheduler"
                   ).set(cache_stats["deferred"])
    volume = registry.gauge("cryptodrop_bytes",
                            "content bytes through the inspection paths")
    volume.set(cache_stats["bytes_digested"], path="digested")
    volume.set(stats["bytes_closed"], path="closed")
    volume.set(stats["bytes_inspected"], path="inspected")
    volume.set(streaming["bytes_streamed"], path="streamed")
    registry.gauge("cryptodrop_tracked_files",
                   "baselines currently tracked").set(stats["tracked_files"])
    registry.gauge("cryptodrop_detections",
                   "threshold crossings recorded").set(stats["detections"])
    ops = registry.gauge("cryptodrop_ops_seen",
                         "operations handled, per kind")
    for op_kind, count in sorted(stats["ops_seen"].items()):
        ops.set(count, kind=op_kind)
    wall = registry.gauge("cryptodrop_op_wall_us_sum",
                          "measured post_operation wall time per kind, "
                          "microseconds")
    for op_kind, total_us in sorted(stats["op_wall_us"].items()):
        wall.set(round(total_us, 3), kind=op_kind)
    streams = registry.gauge(
        "cryptodrop_stream_digests",
        "incremental close-path digest stream lifecycle")
    for event in ("started", "finalized", "in_flight"):
        streams.set(streaming[event], event=event)
    fallbacks = registry.gauge(
        "cryptodrop_stream_digest_fallbacks",
        "streams abandoned for the whole-content path, per reason")
    for reason, count in sorted(streaming["fallbacks"].items()):
        fallbacks.set(count, reason=reason)
    windows = registry.gauge(
        "cryptodrop_stream_baseline_windows",
        "windows of streamed comparisons' baseline digests, taken from "
        "the stream or computed")
    windows.set(streaming["baseline_windows_reused"], source="reused")
    windows.set(streaming["baseline_windows_computed"], source="computed")
    registry.gauge(
        "cryptodrop_scheduler_pending_bytes",
        "content bytes retained by deferred (pending) inspections"
        ).set(stats["scheduler"]["pending_bytes"])
    baseline_store = getattr(engine, "engine", engine).cache.baseline_store
    if baseline_store is not None:
        paging = baseline_store.page_stats()
        registry.gauge("cryptodrop_store_page_ins",
                       "baseline-store records deserialised from disk "
                       "(mmap backend; 0 for resident dict storage)"
                       ).set(paging["page_ins"])
        registry.gauge("cryptodrop_store_resident_entries",
                       "baseline-store entries resident in memory"
                       ).set(paging["resident"], storage=paging["storage"])
    return registry


#: breaker states as gauge values (closed is healthy, open is tripped)
_BREAKER_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


def ingest_snapshot(manager,
                    registry: Optional[MetricsRegistry] = None
                    ) -> MetricsRegistry:
    """Mirror an ingest session's per-tenant counters into gauges.

    The ingest analogue of :func:`engine_snapshot`: accepts an
    :class:`~repro.ingest.EndpointSessionManager` (anything exposing its
    ``stats()`` shape) and sets tenant-labelled gauges for queue
    occupancy, shed/blocked admission outcomes, applied events, restart
    counts, and breaker state, so one Prometheus exposition carries the
    whole resilience picture.  Idempotent over a registry.
    """
    stats = manager.stats() if callable(getattr(manager, "stats", None)) \
        else manager
    registry = registry if registry is not None else MetricsRegistry()
    registry.gauge("cryptodrop_ingest_ticks",
                   "scheduler ticks run by the session manager"
                   ).set(stats.get("ticks", 0))
    depth = registry.gauge("cryptodrop_ingest_queue_depth",
                           "bounded ingest-queue occupancy, per tenant")
    applied = registry.gauge("cryptodrop_ingest_events_applied",
                             "endpoint events applied to the detector, "
                             "per tenant")
    shed = registry.gauge("cryptodrop_ingest_shed_events",
                          "events shed under overload, per tenant")
    blocked = registry.gauge("cryptodrop_ingest_blocked_admissions",
                             "admissions refused by backpressure, "
                             "per tenant")
    restarts = registry.gauge("cryptodrop_ingest_shard_restarts",
                              "watchdog restarts, per tenant")
    breaker = registry.gauge("cryptodrop_ingest_breaker_state",
                             "circuit-breaker state per tenant "
                             "(0=closed, 1=half_open, 2=open)")
    for tenant, shard in sorted(stats.get("tenants", {}).items()):
        queue = shard.get("queue", {})
        depth.set(queue.get("depth", 0), tenant=tenant)
        applied.set(shard.get("applied", 0), tenant=tenant)
        shed.set(queue.get("shed", 0), tenant=tenant)
        blocked.set(queue.get("blocked", 0), tenant=tenant)
        restarts.set(shard.get("restarts", 0), tenant=tenant)
        state = (shard.get("breaker") or {}).get("state", "closed")
        breaker.set(_BREAKER_STATE_VALUES.get(state, 0), tenant=tenant)
    return registry
