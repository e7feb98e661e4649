"""Measurement plumbing shared by every workload.

A workload drives the detector through the same ``VirtualFileSystem``
calls a user program makes.  :func:`attach_vfs_meter` shadows six of
those calls on one filesystem *instance* with thin wrappers that count
every call and time each ``write`` and ``close`` — the two operations
whose latency the paper reports (§V-H).  Nothing under ``src/`` changes:
the wrappers live on the instance and are removed with
:func:`detach_vfs_meter`.

Times are reported at the reference speed.  The benchmark's host is a
shared virtual machine whose CPU slows by up to 2x for tens of seconds
at a time when its neighbours are busy, which no choice of statistic
inside a 10 s run can hide.  So :meth:`Meter.task` times a fixed kernel
(:func:`reference_ns`: interpreter work plus numpy passes over a
128 KiB buffer, no program code) just before and just after each task,
and scales the task's measured times by ``REFERENCE_NS`` over the faster
of the two readings.  On a quiet host the factor is close to 1; the
report prints the run's measured over scaled time as ``host_speed``.
Over ten seeds per workload on such a host, the scaled figures spread a
third to a half as much as the measured ones (the change log has the
numbers).
"""

from __future__ import annotations

import gc
import math
import resource
import time
from contextlib import contextmanager
from typing import Dict, List, Sequence

import numpy as np

VFS_OPS = ("open", "read", "write", "close", "rename", "delete")

#: percentiles a ``.tail`` metric may report, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

MIB = float(1 << 20)

#: the reference kernel's time on a quiet host; a constant, so a faster
#: program reads faster whatever the host does
REFERENCE_NS = 700_000.0
#: kernel timings per reading; the fastest one counts
REPEATS = 2

_RNG = np.random.default_rng(0)
_BUFFER = _RNG.integers(0, 256, 1 << 17, dtype=np.uint8)


def _kernel() -> int:
    """Fixed work in the detector's mix: integer arithmetic, dict and
    bytearray stores in the interpreter, then numpy passes over a buffer
    larger than the first-level caches, so the factor also follows
    slowdowns of memory-bound work."""
    table: Dict[int, int] = {}
    buffer = bytearray(256)
    acc = 0
    for i in range(1000):
        acc += i * i ^ (acc >> 3)
        table[i & 255] = acc & 0xFFFF
        buffer[i & 255] = acc & 0xFF
    np.bincount(_BUFFER, minlength=256)
    np.unique(_BUFFER[:1 << 15])
    return acc


def reference_ns() -> int:
    """The fastest of ``REPEATS`` timings of the reference kernel."""
    clock = time.perf_counter_ns
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            start = clock()
            _kernel()
            took = clock() - start
            best = took if best is None else min(best, took)
        return best
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Everything the measured passes of one run observed."""

    def __init__(self, vfs_timing: bool = True) -> None:
        #: False in the traced run: span wrappers time the VFS instead
        self.vfs_timing = vfs_timing
        self.ops = 0
        self.bytes_written = 0
        #: per-call and per-task times, at the reference speed
        self.write_ns: List[float] = []
        self.close_ns: List[float] = []
        self.task_ns: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: attempted programs whose verdict matched their label
        self.verdicts_ok = 0
        #: per pass: (VFS calls, bytes written, measured seconds,
        #: cumulative sample counts at the end of the pass)
        self.passes: List[tuple] = []
        #: workload-specific observations for the printed report
        self.extra: Dict[str, list] = {}
        #: task time so far, at the reference speed and as measured
        self.timed_ns = 0.0
        self.raw_ns = 0
        #: the traced run's :class:`spans.Tracer`, which records spans
        #: only inside tasks
        self.tracer = None

    @contextmanager
    def task(self):
        """One timed task: the work a user waits for.

        The reference kernel runs just outside the timed region on both
        sides; the task's time and the write/close latencies it recorded
        are scaled to the reference speed.
        """
        before = reference_ns()
        writes, closes = len(self.write_ns), len(self.close_ns)
        tracer = self.tracer
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            raw = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.recording = False
            factor = REFERENCE_NS / min(before, reference_ns())
            _scale(self.write_ns, writes, factor)
            _scale(self.close_ns, closes, factor)
            self.task_ns.append(raw * factor)
            self.timed_ns += raw * factor
            self.raw_ns += raw

    def speed(self) -> float:
        """Measured over reference-speed task time (1.0 on a quiet host;
        above 1 when the host ran slow)."""
        return self.raw_ns / self.timed_ns if self.timed_ns else 1.0

    def note(self, key: str, value) -> None:
        self.extra.setdefault(key, []).append(value)

    def sample_counts(self) -> Dict[str, int]:
        return {"write": len(self.write_ns), "close": len(self.close_ns),
                "task": len(self.task_ns)}


def _scale(samples: list, start: int, factor: float) -> None:
    for i in range(start, len(samples)):
        samples[i] *= factor


def attach_vfs_meter(vfs, meter: Meter) -> None:
    """Count the six user-facing VFS calls on ``vfs``; time writes/closes."""
    if not meter.vfs_timing:
        return
    clock = time.perf_counter_ns
    for name in VFS_OPS:
        original = getattr(type(vfs), name).__get__(vfs)
        if name == "write":
            setattr(vfs, name, _timed_write(original, meter, clock))
        elif name == "close":
            setattr(vfs, name, _timed(original, meter, meter.close_ns, clock))
        else:
            setattr(vfs, name, _counted(original, meter))


def detach_vfs_meter(vfs) -> None:
    for name in VFS_OPS:
        vfs.__dict__.pop(name, None)


def _counted(fn, meter: Meter):
    def call(*args, **kwargs):
        meter.ops += 1
        return fn(*args, **kwargs)
    return call


def _timed(fn, meter: Meter, samples: list, clock):
    def call(*args, **kwargs):
        meter.ops += 1
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(clock() - start)
    return call


def _timed_write(fn, meter: Meter, clock):
    samples = meter.write_ns

    def write(pid, handle, payload):
        meter.ops += 1
        meter.bytes_written += len(payload)
        start = clock()
        try:
            return fn(pid, handle, payload)
        finally:
            samples.append(clock() - start)
    return write


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten of ``count``
    samples beyond it (the lowest step when none has).

    Workloads fix their ``.tail`` percentiles in a ``tails`` table, so
    the percentile does not move with the seed or the host's speed; this
    only lowers one for a run too short to put ten samples beyond it.
    """
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= 10.0:
            chosen = pct
    return chosen


def peak_rss_mib() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
