"""Single-sample execution protocol (§V-A, one VM revert cycle).

For each sample the paper reverted the guest to a snapshot, ran the
sample until detection or timeout, then verified every document's SHA-256.
:func:`run_sample` reproduces one such cycle: fresh CryptoDrop engine,
run, damage assessment, revert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..core.config import CryptoDropConfig
from ..core.detection import Detection
from ..core.monitor import CryptoDropMonitor
from ..fs.events import OpKind
from ..fs.paths import WinPath
from ..fs.recorder import OperationRecorder
from ..telemetry.timeline import indicator_totals
from .machine import RunOutcome, VirtualMachine

__all__ = ["BenignResult", "SampleResult", "errored_result", "run_benign",
           "run_sample"]


@dataclass
class SampleResult:
    """Everything the experiments need from one sample run."""

    sample_name: str
    family: str
    behavior_class: str
    seed: int
    detected: bool
    suspended: bool
    files_lost: int
    files_modified: int
    files_missing: int
    new_files: int
    union_fired: bool
    score: float
    threshold: float
    flags: Set[str] = field(default_factory=set)
    sim_seconds: float = 0.0
    error: Optional[str] = None
    completed: bool = False
    inert: bool = False
    touched_dirs: Set[WinPath] = field(default_factory=set)
    extensions_accessed: Set[str] = field(default_factory=set)
    notes_written: int = 0
    files_attacked: int = 0
    disposal: str = ""
    traversal: str = ""
    cipher: str = ""
    #: total reputation points per indicator (entropy/type_change/...)
    indicator_points: dict = field(default_factory=dict)
    #: per-sample engine counters (the monitor's ``stats()`` dict);
    #: transient — not journalled, excluded from equality so journal
    #: round trips stay exact
    perf: Optional[dict] = field(default=None, repr=False, compare=False)
    #: per-sample telemetry snapshot (``TelemetrySession.export()``:
    #: ring events + metric state); None unless the run's config enabled
    #: telemetry.  Transient like :attr:`perf` — not journalled, excluded
    #: from equality.
    telemetry: Optional[dict] = field(default=None, repr=False,
                                      compare=False)

    @property
    def is_working_detection(self) -> bool:
        return self.detected and not self.inert


def errored_result(profile, error: str) -> SampleResult:
    """A placeholder result for a sample whose run itself failed.

    Campaigns record these instead of aborting the sweep: the sample is
    visibly errored (``error`` set, ``completed`` False) rather than
    silently missing from the aggregate.
    """
    return SampleResult(
        sample_name=profile.sample_name,
        family=profile.family,
        behavior_class=profile.behavior_class,
        seed=profile.seed,
        detected=False, suspended=False, files_lost=0, files_modified=0,
        files_missing=0, new_files=0, union_fired=False, score=0.0,
        threshold=0.0, error=error, completed=False,
        inert=profile.inert_reason is not None,
        disposal=profile.class_c_disposal,
        traversal=profile.traversal,
        cipher=profile.cipher_kind,
    )


def run_sample(machine: VirtualMachine, sample,
               config: Optional[CryptoDropConfig] = None,
               record_ops: bool = False) -> SampleResult:
    """One revert-run-assess cycle with a fresh CryptoDrop instance.

    Workload exceptions are absorbed by ``machine.run_program``; anything
    unexpected that escapes the run/assess cycle itself (a harness bug, a
    fault-layer surprise) is converted into an errored result rather than
    propagated, so one bad sample cannot abort a campaign.  The machine
    is always reverted.
    """
    if machine.baseline is None:
        machine.snapshot()
    monitor = CryptoDropMonitor(machine.vfs, config,
                                baseline_store=machine.baseline_store)
    recorder = OperationRecorder(
        kinds={OpKind.READ, OpKind.WRITE, OpKind.OPEN,
               OpKind.RENAME, OpKind.DELETE}) if record_ops else None
    monitor.attach()
    if recorder is not None:
        machine.vfs.filters.attach(recorder)
    try:
        return _run_sample_attached(machine, sample, monitor, recorder)
    except Exception as exc:  # noqa: BLE001 - campaign survival
        return errored_result(sample.profile,
                              f"{type(exc).__name__}: {exc}")
    finally:
        if recorder is not None:
            machine.vfs.filters.detach(recorder)
        monitor.detach()
        machine.revert()


def _run_sample_attached(machine: VirtualMachine, sample,
                         monitor: CryptoDropMonitor,
                         recorder: Optional[OperationRecorder]) -> SampleResult:
    outcome: RunOutcome = machine.run_program(sample)
    damage = machine.assess()
    detections: List[Detection] = list(monitor.detections)
    detection = detections[0] if detections else None
    row = monitor.engine.row_of(outcome.pid)
    profile = sample.profile
    in_docs = machine.docs_root
    touched = set()
    exts = set()
    if recorder is not None:
        touched = {d for d in recorder.touched_directories(None)
                   if d.is_within(in_docs)}
        # victim formats only: OPEN/READ hit pre-existing files,
        # while the sample's own drops (notes, ciphertext) arrive via
        # CREATE and are excluded
        exts = {e for e in recorder.accessed_extensions(
                    None, kinds=(OpKind.READ, OpKind.OPEN))
                if e}
    result = SampleResult(
        sample_name=profile.sample_name,
        family=profile.family,
        behavior_class=profile.behavior_class,
        seed=profile.seed,
        detected=detection is not None,
        suspended=outcome.suspended,
        files_lost=damage.files_lost,
        files_modified=len(damage.modified),
        files_missing=len(damage.missing),
        new_files=len(damage.new_files),
        union_fired=row.union_fired,
        score=row.score,
        threshold=row.threshold,
        flags=set(row.flags),
        sim_seconds=outcome.sim_seconds,
        error=outcome.error,
        completed=outcome.completed,
        inert=profile.inert_reason is not None,
        touched_dirs=touched,
        extensions_accessed=exts,
        notes_written=getattr(sample, "notes_written", 0),
        files_attacked=len(getattr(sample, "files_attacked", ())),
        disposal=profile.class_c_disposal,
        traversal=profile.traversal,
        cipher=profile.cipher_kind,
        indicator_points=indicator_totals(row.history),
    )
    result.perf = monitor.stats()
    if detection is not None:
        detection.files_lost = damage.files_lost
    if monitor.telemetry is not None:
        # damage is only measurable post-assessment, so the detection
        # latency histogram is fed here, not at the suspension emit point
        if detection is not None:
            monitor.telemetry.observe_files_lost(damage.files_lost)
        result.telemetry = monitor.telemetry_export()
    return result


@dataclass
class BenignResult:
    """Outcome of one benign-application run (§V-F)."""

    app_name: str
    final_score: float
    detected: bool
    suspended: bool
    union_fired: bool
    flags: Set[str] = field(default_factory=set)
    completed: bool = False
    error: Optional[str] = None
    #: journalled (timestamp_us, cumulative score, indicator) triples for
    #: threshold sweeps; legacy 2-tuples without the indicator still work
    trajectory: List[tuple] = field(default_factory=list)
    #: the union threshold the run was recorded under (None = union never
    #: considered, e.g. a no-union ablation)
    union_threshold: Optional[float] = None

    def score_at_threshold(self, threshold: float,
                           union_threshold: Optional[float] = None) -> bool:
        """Would this run have been flagged at a given non-union threshold?

        Union indication lowers a process's effective threshold the moment
        all three primary flags are present (§V-B2), so the sweep must
        honour any union crossing recorded in the trajectory: after a
        ``union`` event the run is flagged once the score reaches
        ``min(threshold, union_threshold)``, not just ``threshold``.
        """
        if union_threshold is None:
            union_threshold = self.union_threshold
        effective = threshold
        for entry in self.trajectory:
            score = entry[1]
            indicator = entry[2] if len(entry) > 2 else ""
            if indicator == "union" and union_threshold is not None:
                effective = min(effective, union_threshold)
            if score >= effective:
                return True
        return False


def run_benign(machine: VirtualMachine, app,
               config: Optional[CryptoDropConfig] = None) -> BenignResult:
    """One benign workload under a fresh CryptoDrop, then revert.

    The alert policy still suspends on detection (the paper's user is
    asked either way); the result records whether that happened.

    The monitor attaches *before* ``app.prepare`` runs: preparation plants
    assets through the event-free ``peek_*`` accessors, so the detector
    sees nothing, but the ordering guarantees a prepare-time failure is
    caught with the monitor detached cleanly and reported as an errored
    result instead of killing the suite.
    """
    if machine.baseline is None:
        machine.snapshot()
    monitor = CryptoDropMonitor(machine.vfs, config)
    monitor.attach()
    try:
        app.prepare(machine)
        outcome = machine.run_program(app, seed=getattr(app, "seed", 0))
        row = monitor.engine.row_of(outcome.pid)
        return BenignResult(
            app_name=app.name,
            final_score=row.score,
            detected=bool(monitor.detections),
            suspended=outcome.suspended,
            union_fired=row.union_fired,
            flags=set(row.flags),
            completed=outcome.completed,
            error=outcome.error,
            trajectory=[(e.timestamp_us, e.score_after, e.indicator)
                        for e in row.history],
            union_threshold=(monitor.config.union_threshold
                             if monitor.config.enable_union else None),
        )
    except Exception as exc:  # noqa: BLE001 - suite survival
        return BenignResult(
            app_name=getattr(app, "name", repr(app)), final_score=0.0,
            detected=False, suspended=False, union_fired=False,
            completed=False, error=f"{type(exc).__name__}: {exc}")
    finally:
        monitor.detach()
        machine.revert()
