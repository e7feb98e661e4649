"""Seeded inputs shared by the workloads: cohorts and recorded streams.

An attack stream is captured once, during set-up, from a *monitored*
live run: a :class:`~repro.trace.TraceRecorder` sits next to the
detector, so the stream ends at the operation on which the detector
suspended the sample (recording monitor-free would encrypt the whole
corpus).  Replaying it later costs only the detector's work, not the
simulator's pure-Python ciphers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import CryptoDropMonitor
from repro.fs.errors import AccessDenied, FsError, ProcessSuspended
from repro.fs.paths import WinPath
from repro.ransomware import instantiate, working_cohort
from repro.trace import TraceRecord, TraceRecorder


def stratified(rng: random.Random, items: Sequence, key: Callable,
               total: int) -> List:
    """``total`` items drawn so every stratum keeps its natural share.

    Quotas come from the largest-remainder rule, so the per-stratum
    counts are the same for every seed; the seed only chooses which
    members of each stratum are drawn.
    """
    strata: Dict[object, list] = {}
    for item in items:
        strata.setdefault(key(item), []).append(item)
    order = sorted(strata, key=str)
    exact = {k: total * len(strata[k]) / len(items) for k in order}
    quota = {k: int(exact[k]) for k in order}
    spare = total - sum(quota.values())
    by_remainder = sorted(order, key=lambda k: (quota[k] - exact[k], str(k)))
    for k in by_remainder[:spare]:
        quota[k] += 1
    picked = []
    for k in order:
        picked.extend(rng.sample(strata[k], quota[k]))
    return picked


def attack_cohort(rng: random.Random, total: int) -> list:
    """Working-sample profiles stratified by (family, behaviour class)."""
    profiles = [s.profile for s in working_cohort(base_seed=0)]
    return stratified(rng, profiles,
                      lambda p: (p.family, p.behavior_class), total)


@dataclass
class Recording:
    """One sample's stream plus the live verdict it must replay to."""

    name: str
    records: List[TraceRecord]
    #: recorded pid -> (process name, recorded parent pid or None)
    processes: Dict[int, Tuple[str, Optional[int]]]
    detected: bool
    files_lost: int
    error: Optional[str]


def record_attack(machine, profile, config, store=None) -> Recording:
    """Run one sample live under a fresh monitor and capture its stream."""
    monitor = CryptoDropMonitor(machine.vfs, config,
                                baseline_store=store).attach()
    recorder = TraceRecorder()
    machine.vfs.filters.attach(recorder)
    try:
        outcome = machine.run_program(instantiate(profile))
        damage = machine.assess()
        return Recording(profile.sample_name, list(recorder.records),
                         _process_tree(machine.vfs.processes,
                                       recorder.records),
                         bool(monitor.detections), damage.files_lost,
                         outcome.error)
    finally:
        machine.vfs.filters.detach(recorder)
        monitor.detach()
        machine.revert()


def _process_tree(table, records) -> Dict[int, Tuple[str, Optional[int]]]:
    tree: Dict[int, Tuple[str, Optional[int]]] = {}
    for pid in {r.pid for r in records}:
        while pid is not None and pid not in tree and pid in table:
            proc = table.get(pid)
            tree[pid] = (proc.name, proc.parent_pid)
            pid = proc.parent_pid
    return tree


def replay(vfs, recording: Recording) -> None:
    """Re-issue a recorded stream through ``vfs``'s public calls.

    The dispatch is :func:`repro.trace.replay_trace`'s, on a machine the
    caller owns, with two differences that keep replayed verdicts equal
    to the recorded live run: it rebuilds the recorded process tree, so
    families that fork children still score as one, and it reopens a
    read-only file for reading.  It stops when the detector suspends the
    replayed process.
    """
    pids: Dict[int, int] = {}
    tree = recording.processes

    def live_pid(original: int) -> int:
        pid = pids.get(original)
        if pid is None:
            name, parent = tree.get(original, (f"replay-{original}.exe",
                                               None))
            parent_pid = live_pid(parent) if parent in tree else None
            pid = vfs.processes.spawn(name, parent_pid=parent_pid,
                                      started_us=vfs.clock.now_us).pid
            pids[original] = pid
        return pid

    handles: Dict[Tuple[int, str], object] = {}
    for record in recording.records:
        pid = live_pid(record.pid)
        path = WinPath(record.path)
        key = (pid, record.path.lower())
        kind = record.kind
        try:
            if kind == "mkdir":
                vfs.mkdir(pid, path, exist_ok=True)
            elif kind == "create":
                handles[key] = vfs.open(pid, path, "rw", create=True)
            elif kind == "open":
                try:
                    handles[key] = vfs.open(pid, path, "rw",
                                            truncate=record.truncate)
                except AccessDenied:
                    # a read-only file: the recorded open was a read (the
                    # VFS refuses before any filter sees the operation)
                    handles[key] = vfs.open(pid, path, "r")
            elif kind == "read":
                handle = handles.get(key)
                if handle is not None:
                    vfs.seek(pid, handle, record.offset)
                    vfs.read(pid, handle, record.size)
            elif kind == "write":
                handle = handles.get(key)
                if handle is not None and record.data is not None:
                    vfs.seek(pid, handle, record.offset)
                    vfs.write(pid, handle, record.data)
            elif kind == "truncate":
                handle = handles.get(key)
                if handle is not None and record.new_size is not None:
                    vfs.truncate_handle(pid, handle, record.new_size)
            elif kind == "close":
                handle = handles.pop(key, None)
                if handle is not None:
                    vfs.close(pid, handle)
            elif kind == "rename":
                vfs.rename(pid, path, WinPath(record.dest))
                moved = handles.pop(key, None)
                if moved is not None:
                    handles[(pid, record.dest.lower())] = moved
            elif kind == "delete":
                vfs.delete(pid, path)
        except ProcessSuspended:
            return
        except FsError:
            continue
