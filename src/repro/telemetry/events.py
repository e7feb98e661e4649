"""Typed detection-telemetry events and the bounded event bus.

CryptoDrop's value proposition is *early* warning, so the interesting
questions about a run are temporal: when did each indicator fire, how did
the reputation score climb toward the union boost, which close actually
resolved its baseline from the corpus store.  Final verdicts cannot answer
those; a structured event stream can.

Design constraints, in order:

1. **Disabled means free.**  Telemetry defaults off and every emit point
   in the hot paths is guarded by a single ``is None`` check on the
   engine's session slot — no event object is ever constructed, no
   timestamp read, no callable invoked.  The bench harness gates this at
   <2% on the close-heavy workload (``telemetry_overhead`` in
   ``BENCH_4.json``).
2. **Bounded memory.**  :class:`EventBus` is a ring buffer: a monitor
   left attached for days keeps the newest ``capacity`` events and counts
   what it dropped, rather than growing without limit.  Subscribers see
   every event at emit time regardless of ring evictions, which is how
   the JSONL exporter archives unbounded streams.
3. **Replayable.**  Every event serialises to a flat JSON-safe dict via
   :meth:`TelemetryEvent.as_dict` and round-trips through
   :func:`event_from_dict`, so an archived incident feeds the timeline
   builder exactly like a live bus does.

Timebase: ``timestamp_us`` is the *simulated* VFS clock (the same
timebase as :class:`~repro.core.scoring.ScoreEvent`), so events line up
with score journals and detection records, and replays are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Type

__all__ = [
    "TelemetryEvent", "IndicatorFired", "ScoreDelta", "UnionBoost",
    "ProcessSuspended", "BaselineResolved", "CacheEvicted",
    "DigestBatchFlushed", "StreamDigestFinalized",
    "FaultInjected", "StoreBuilt", "StoreOpened", "StorePageIn",
    "LoadShed", "BreakerTripped", "ShardRestarted", "EventBus",
    "EVENT_TYPES", "event_from_dict", "events_as_dicts",
]


@dataclass(frozen=True)
class TelemetryEvent:
    """Base of all telemetry events: a kind tag plus a timestamp."""

    #: class-level event-kind tag, stable across versions (wire format)
    kind: ClassVar[str] = ""

    timestamp_us: float

    def as_dict(self) -> dict:
        """Flat JSON-safe encoding, ``kind`` included."""
        out = {"kind": self.kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True)
class IndicatorFired(TelemetryEvent):
    """One indicator hit, before scoreboard folding (engine ``_apply``)."""

    kind: ClassVar[str] = "indicator_fired"

    root_pid: int = 0
    indicator: str = ""
    points: float = 0.0
    path: str = ""
    detail: str = ""


@dataclass(frozen=True)
class ScoreDelta(TelemetryEvent):
    """One scoreboard mutation with the resulting cumulative score."""

    kind: ClassVar[str] = "score_delta"

    root_pid: int = 0
    indicator: str = ""
    points: float = 0.0
    score_after: float = 0.0
    path: str = ""


@dataclass(frozen=True)
class UnionBoost(TelemetryEvent):
    """Union indication fired: bonus applied, threshold lowered (§V-B2)."""

    kind: ClassVar[str] = "union_boost"

    root_pid: int = 0
    bonus: float = 0.0
    score_after: float = 0.0
    threshold_after: float = 0.0
    path: str = ""


@dataclass(frozen=True)
class ProcessSuspended(TelemetryEvent):
    """The detection verdict: threshold crossed, policy consulted."""

    kind: ClassVar[str] = "process_suspended"

    root_pid: int = 0
    process_name: str = ""
    score: float = 0.0
    threshold: float = 0.0
    union_fired: bool = False
    suspended: bool = True
    trigger_op: str = ""
    trigger_path: str = ""


@dataclass(frozen=True)
class BaselineResolved(TelemetryEvent):
    """One inspection resolved, tagged by where the digest came from.

    ``source`` is one of ``lru`` (digest-cache hit), ``store`` (corpus
    BaselineStore hit), ``live`` (digested now), or ``deferred``
    (type-only, digest postponed to the scheduler).
    """

    kind: ClassVar[str] = "baseline_resolved"

    source: str = ""
    size: int = 0
    path: str = ""


@dataclass(frozen=True)
class CacheEvicted(TelemetryEvent):
    """The digest LRU pushed out its least-recently-used entry."""

    kind: ClassVar[str] = "cache_evicted"

    entries: int = 0
    capacity: int = 0


@dataclass(frozen=True)
class DigestBatchFlushed(TelemetryEvent):
    """The InspectionScheduler materialised a pending-digest batch.

    ``pending`` is how many deferred inspections the flush drained;
    ``live`` how many actually reached the batched digest kernel (the
    rest resolved from the LRU or the corpus store); ``bytes_live`` the
    content bytes the kernel digested.
    """

    kind: ClassVar[str] = "digest_batch_flushed"

    pending: int = 0
    live: int = 0
    bytes_live: int = 0


@dataclass(frozen=True)
class StreamDigestFinalized(TelemetryEvent):
    """A close served its similarity digest from an incremental
    per-handle stream (O(tail) finalize — the content was never re-read).

    ``chunks`` is how many write chunks the stream consumed; closes that
    instead fell back to the whole-content path are visible through the
    ``cryptodrop_stream_digest_fallback_total`` counter, per reason.
    """

    kind: ClassVar[str] = "stream_digest_finalized"

    path: str = ""
    size: int = 0
    features: int = 0
    chunks: int = 0


@dataclass(frozen=True)
class FaultInjected(TelemetryEvent):
    """The fault layer misbehaved on purpose (``repro.faults``)."""

    kind: ClassVar[str] = "fault_injected"

    fault: str = ""
    op_index: int = 0
    op_kind: str = ""
    path: str = ""


@dataclass(frozen=True)
class StoreBuilt(TelemetryEvent):
    """A corpus BaselineStore finished digesting (once per campaign)."""

    kind: ClassVar[str] = "store_built"

    entries: int = 0
    total_bytes: int = 0
    build_seconds: float = 0.0
    backend: str = ""


@dataclass(frozen=True)
class StoreOpened(TelemetryEvent):
    """A persistent baseline store was opened from disk (``repro.store``).

    ``open_seconds`` is the header-parse + mmap cost — O(1) in entry
    count, which is the format's headline property; nothing else is
    read until lookups page records in (see :class:`StorePageIn`).
    """

    kind: ClassVar[str] = "store_opened"

    entries: int = 0
    total_bytes: int = 0
    path: str = ""
    open_seconds: float = 0.0
    hot_entries: int = 0


@dataclass(frozen=True)
class StorePageIn(TelemetryEvent):
    """The mmap store deserialised one record on first touch.

    ``resident`` is the hot-entry LRU occupancy after the page-in —
    bounded by the ``store_hot_entries`` knob, never the corpus size.
    """

    kind: ClassVar[str] = "store_page_in"

    size: int = 0
    resident: int = 0


@dataclass(frozen=True)
class LoadShed(TelemetryEvent):
    """The ingest queue shed one event under overload (sampling mode).

    Every shed decision is observable: the shard drops the event *and*
    emits exactly one of these, tenant-tagged, so degraded-mode
    detection is never silent (``docs/robustness.md`` §4).
    """

    kind: ClassVar[str] = "load_shed"

    tenant: str = ""
    seq: int = 0
    op_kind: str = ""
    queue_depth: int = 0


@dataclass(frozen=True)
class BreakerTripped(TelemetryEvent):
    """A per-stream circuit breaker opened after repeated transient
    inspection failures; ``cooldown_ticks`` is the jittered exponential
    backoff before the next half-open probe."""

    kind: ClassVar[str] = "breaker_tripped"

    tenant: str = ""
    failures: int = 0
    trips: int = 0
    cooldown_ticks: int = 0


@dataclass(frozen=True)
class ShardRestarted(TelemetryEvent):
    """The watchdog restarted a wedged/killed shard from its checkpoint.

    ``replayed`` is the journal-tail length re-applied to bring the
    restored monitor back to the kill point; ``recovery_ticks`` how many
    scheduler ticks the shard was down before the watchdog acted.
    """

    kind: ClassVar[str] = "shard_restarted"

    tenant: str = ""
    reason: str = ""
    replayed: int = 0
    recovery_ticks: int = 0
    restarts: int = 0


EVENT_TYPES: Dict[str, Type[TelemetryEvent]] = {
    cls.kind: cls
    for cls in (IndicatorFired, ScoreDelta, UnionBoost, ProcessSuspended,
                BaselineResolved, CacheEvicted, DigestBatchFlushed,
                StreamDigestFinalized, FaultInjected, StoreBuilt,
                StoreOpened, StorePageIn,
                LoadShed, BreakerTripped, ShardRestarted)
}


def event_from_dict(entry: dict) -> TelemetryEvent:
    """Inverse of :meth:`TelemetryEvent.as_dict`."""
    kind = entry.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown telemetry event kind {kind!r}")
    kwargs = {f.name: entry[f.name] for f in fields(cls) if f.name in entry}
    return cls(**kwargs)


class EventBus:
    """Bounded ring buffer of telemetry events with pluggable subscribers.

    The ring keeps the newest ``capacity`` events for post-hoc timeline
    building; ``dropped`` counts ring evictions so consumers know when a
    stream was truncated.  Subscribers (e.g. the JSONL writer) are called
    synchronously at emit time with every event, before any ring
    eviction, so they observe the complete stream.

    ``clock_us`` is the bus's notion of "now" on the simulated timebase:
    the engine refreshes it from each operation's timestamp, so emitters
    without operation context (the digest cache, the baseline store)
    still stamp events consistently.
    """

    __slots__ = ("capacity", "emitted", "dropped", "clock_us",
                 "_ring", "_subscribers")

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = max(1, int(capacity))
        self.emitted = 0
        self.dropped = 0
        self.clock_us = 0.0
        self._ring: "deque[TelemetryEvent]" = deque(maxlen=self.capacity)
        self._subscribers: List[Callable[[TelemetryEvent], None]] = []

    def __len__(self) -> int:
        return len(self._ring)

    def emit(self, event: TelemetryEvent) -> None:
        self.emitted += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        for subscriber in self._subscribers:
            subscriber(event)

    def subscribe(self, fn: Callable[[TelemetryEvent], None]
                  ) -> Callable[[], None]:
        """Register ``fn`` for every future event; returns an unsubscribe."""
        self._subscribers.append(fn)

        def unsubscribe() -> None:
            if fn in self._subscribers:
                self._subscribers.remove(fn)
        return unsubscribe

    def events(self, kind: Optional[str] = None) -> List[TelemetryEvent]:
        """Ring contents in emit order, optionally filtered by kind."""
        if kind is None:
            return list(self._ring)
        return [e for e in self._ring if e.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._ring:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def clear(self) -> None:
        """Drop ring contents; lifetime counters survive."""
        self._ring.clear()

    def stats(self) -> dict:
        return {"capacity": self.capacity, "buffered": len(self._ring),
                "emitted": self.emitted, "dropped": self.dropped}


def events_as_dicts(events: Iterable[TelemetryEvent]) -> List[dict]:
    """Serialise an event sequence (helper shared by exporters/results)."""
    return [event.as_dict() for event in events]
