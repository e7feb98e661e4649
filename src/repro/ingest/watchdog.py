"""Heartbeat watchdog: detects wedged or killed shards and restarts them.

Every healthy :meth:`~repro.ingest.MonitorShard.step` stamps the shard's
``last_beat``; a shard that is dead (hard-killed monitor) or wedged
(queue-stall fault) stops beating.  The watchdog scans once per
scheduler tick and, when a shard with pending work has missed
``miss_threshold`` consecutive beats, drives
:meth:`~repro.ingest.MonitorShard.restart` — checkpoint revert plus
journal-tail replay — and records the outage length as the recovery
time in :meth:`stats` (pinned by ``tests/test_ingest.py::TestWatchdogUnit``).

Disabled (the manager's ``watchdog=False``), dead shards stay dead and
the session reports them as abandoned — the chaos matrix's control arm.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["HeartbeatWatchdog"]


class HeartbeatWatchdog:
    """Tick-driven liveness scanner over a set of shards."""

    def __init__(self, miss_threshold: int = 3) -> None:
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.miss_threshold = miss_threshold
        self.restarts = 0
        self.recovery_ticks: List[int] = []

    def scan(self, tick: int, shards: Iterable) -> int:
        """Restart every flatlined shard; returns how many were revived."""
        revived = 0
        for shard in shards:
            if shard.finished:
                continue
            if shard.alive and shard.done:
                continue
            missed = tick - shard.last_beat
            if missed < self.miss_threshold:
                continue
            reason = "wedged" if shard.alive else "killed"
            shard.restart(tick, reason=reason, down_ticks=missed)
            self.restarts += 1
            self.recovery_ticks.append(missed)
            revived += 1
        return revived

    def stats(self) -> dict:
        return {
            "miss_threshold": self.miss_threshold,
            "restarts": self.restarts,
            "recovery_ticks": list(self.recovery_ticks),
        }
