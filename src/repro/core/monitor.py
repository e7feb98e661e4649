"""CryptoDrop public facade.

:class:`CryptoDropMonitor` is what downstream users instantiate: it wires
an :class:`~repro.core.engine.AnalysisEngine` into a virtual filesystem's
filter stack, exposes detections and scores, and detaches cleanly.

>>> from repro.fs import VirtualFileSystem, DOCUMENTS
>>> from repro.core import CryptoDropMonitor
>>> vfs = VirtualFileSystem()
>>> vfs.mkdir(vfs.processes.spawn("setup").pid, DOCUMENTS, parents=True)
>>> monitor = CryptoDropMonitor(vfs)
>>> monitor.attach()
>>> # ... run workloads ...
>>> monitor.detach()
"""

from __future__ import annotations

from typing import List, Optional

from ..fs.vfs import VirtualFileSystem
from ..telemetry import TelemetrySession
from .config import CryptoDropConfig
from .detection import AlertPolicy, Detection, SuspendPolicy
from .engine import AnalysisEngine
from .scoring import ProcessScore

__all__ = ["CryptoDropMonitor"]


class CryptoDropMonitor:
    """Attach/detach lifecycle and reporting around the analysis engine."""

    def __init__(self, vfs: VirtualFileSystem,
                 config: Optional[CryptoDropConfig] = None,
                 policy: Optional[AlertPolicy] = None,
                 baseline_store=None, telemetry=None) -> None:
        self.vfs = vfs
        self.config = config or CryptoDropConfig()
        #: pass an explicit :class:`~repro.telemetry.TelemetrySession` to
        #: share one bus across monitors (e.g. trace replay into an
        #: existing sink); otherwise the config decides — disabled means
        #: ``None`` all the way down, the near-zero-cost path
        self.telemetry = telemetry if telemetry is not None \
            else TelemetrySession.from_config(self.config)
        self.engine = AnalysisEngine(vfs, self.config,
                                     policy or SuspendPolicy(),
                                     baseline_store=baseline_store,
                                     telemetry=self.telemetry)
        self._attached = False

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> "CryptoDropMonitor":
        if self._attached:
            raise RuntimeError("monitor already attached")
        self.vfs.filters.attach(self.engine)
        self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.vfs.filters.detach(self.engine)
            self._attached = False

    def close(self) -> None:
        """Graceful shutdown: drain deferred digests, then detach.

        The deferred close path may still hold verdict-relevant pending
        inspections when the monitor goes away; :meth:`detach` alone
        would silently drop them, so a checkpoint taken after a bare
        detach could disagree with an eager run.  ``close()`` (and the
        context-manager exit, which routes through it) flushes the
        scheduler first so the final state is complete.  Idempotent.
        """
        self.engine.scheduler.close()
        self.detach()

    def __enter__(self) -> "CryptoDropMonitor":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def attached(self) -> bool:
        return self._attached

    # -- checkpoint / restore -------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-serialisable snapshot of the engine's scoring state."""
        return self.engine.checkpoint()

    @classmethod
    def from_checkpoint(cls, vfs: VirtualFileSystem, state: dict,
                        config: Optional[CryptoDropConfig] = None,
                        policy: Optional[AlertPolicy] = None,
                        baseline_store=None,
                        telemetry=None) -> "CryptoDropMonitor":
        """A new (detached) monitor resumed from a :meth:`checkpoint`.

        The restored monitor scores exactly as the checkpointed one would
        have: same reputations, same union flags, same baselines.  Attach
        it to the same VFS (node ids must match) to continue a run.  A
        checkpoint taken with a corpus BaselineStore attached records the
        store's descriptor; restoring with a *different* store attached is
        rejected (the baselines would not match the referenced corpus).
        """
        monitor = cls(vfs, config, policy, baseline_store=baseline_store,
                      telemetry=telemetry)
        monitor.engine.restore(state)
        return monitor

    # -- results ---------------------------------------------------------------

    @property
    def detections(self) -> List[Detection]:
        return self.engine.detections

    @property
    def detected(self) -> bool:
        return bool(self.engine.detections)

    def suspended_detections(self) -> List[Detection]:
        return [d for d in self.engine.detections if d.suspended]

    def score_rows(self) -> List[ProcessScore]:
        return self.engine.scoreboard.rows()

    def score_of(self, pid: int) -> float:
        return self.engine.score_of(pid)

    def union_count(self) -> int:
        return self.engine.scoreboard.union_count()

    # -- telemetry -------------------------------------------------------------

    def timeline(self, root_pid: Optional[int] = None):
        """The per-process :class:`~repro.telemetry.DetectionTimeline`
        rebuilt from this session's event stream (telemetry must be on)."""
        if self.telemetry is None:
            raise RuntimeError(
                "telemetry is disabled for this monitor — construct with "
                "CryptoDropConfig(telemetry_enabled=True) or pass a "
                "TelemetrySession")
        return self.telemetry.timeline(root_pid=root_pid)

    def telemetry_export(self) -> Optional[dict]:
        """The session's telemetry snapshot (events + metric state), or
        None when disabled — the payload ``SampleResult.telemetry``
        carries."""
        return None if self.telemetry is None else self.telemetry.export()

    def export_report(self) -> dict:
        """JSON-serialisable forensic report of the session.

        Contains every detection, every process's score trajectory, and
        the engine's operational counters — what an incident responder
        would pull off the machine after an alert.
        """
        return {
            "config": {
                "non_union_threshold": self.config.non_union_threshold,
                "union_threshold": self.config.union_threshold,
                "union_bonus": self.config.union_bonus,
                "entropy_delta": self.config.entropy_delta,
                "similarity_backend": self.config.similarity_backend,
                "indicators": self.config.indicators_enabled(),
            },
            "detections": [
                {
                    "process": d.process_name,
                    "root_pid": d.root_pid,
                    "score": d.score,
                    "threshold": d.threshold,
                    "union": d.union_fired,
                    "flags": sorted(d.flags),
                    "timestamp_us": d.timestamp_us,
                    "trigger": f"{d.trigger_op} {d.trigger_path}",
                    "suspended": d.suspended,
                    "files_lost": d.files_lost,
                }
                for d in self.detections
            ],
            "processes": [
                {
                    "root_pid": row.root_pid,
                    "name": row.name,
                    "score": row.score,
                    "threshold": row.threshold,
                    "union": row.union_fired,
                    "flags": sorted(row.flags),
                    "events": [
                        {
                            "t_us": e.timestamp_us,
                            "indicator": e.indicator,
                            "points": e.points,
                            "score": e.score_after,
                            "path": e.path,
                            "detail": e.detail,
                        }
                        for e in row.history
                    ],
                }
                for row in self.score_rows()
            ],
            "stats": self.stats(),
        }

    def flush_inspections(self) -> int:
        """Force the deferred-digest scheduler to materialise its pending
        set now; returns how many records were drained (0 when nothing
        is pending)."""
        return self.engine.scheduler.flush()

    def stats(self) -> dict:
        return {
            "ops_seen": dict(self.engine.op_counts),
            "bytes_inspected": self.engine.bytes_inspected,
            "bytes_closed": self.engine.bytes_closed,
            "tracked_files": len(self.engine.cache),
            "detections": len(self.engine.detections),
            "processes_scored": len(self.engine.scoreboard.rows()),
            "digest_cache": self.engine.cache.digest_cache.stats(),
            "scheduler": self.engine.scheduler.stats(),
            "streaming": self.engine.stream_stats(),
            "op_wall_us": dict(self.engine.op_wall_us),
        }
