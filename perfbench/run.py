"""CryptoDrop detector benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attack_replay --seed 1 \\
        --seconds 10 --trace 0

A run builds the workload's inputs three times from ``--seed``, keeps
the last build and warms it up with one untimed pass (``setup_s`` is the
median build time plus the warm-up), then repeats whole passes until
``--seconds`` of task time have been measured and the workload's minimum
pass count is reached.  Times are reported at the reference speed
(``harness.py``).  Outputs are checked outside the timed region.
The report goes to standard output; its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes (measuring half of ``--seconds``) with passes run under
span wrappers (see ``spans.py``), and reports the per-layer metrics; no
end-to-end number comes from a traced run.  Spans are written to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3
#: measuring stops starting new passes after this much wall time, so a
#: run ends well inside its time limit even on a slow machine
WALL_CAP_S = 90.0

#: every end-to-end metric, in report order: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("write_mib_per_s", "MiB/s"),
    ("task_ms.p50", "ms"),
    ("task_ms.tail", "ms"),
    ("close_us.p50", "us"),
    ("close_us.tail", "us"),
    ("write_us.p50", "us"),
    ("write_us.tail", "us"),
    ("verdict_accuracy", "fraction"),
)


def _workloads() -> dict:
    from attack_replay import AttackReplay
    from benign_desktop import BenignDesktop
    from bulk_append import BulkAppend
    from ingest_chaos import IngestChaos
    return {cls.name: cls for cls in (AttackReplay, BenignDesktop,
                                      BulkAppend, IngestChaos)}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pass(workload, meter, check: bool = False) -> None:
    """One pass, with its VFS calls, bytes, timed seconds and cumulative
    sample counts appended to ``meter.passes``."""
    ops, written, timed = meter.ops, meter.bytes_written, meter.timed_ns
    workload.begin(meter)
    try:
        workload.run_pass(meter, check)
    finally:
        workload.end()
    meter.passes.append((meter.ops - ops, meter.bytes_written - written,
                         (meter.timed_ns - timed) / 1e9,
                         meter.sample_counts()))
    # garbage from this pass must not pile up into the peak RSS of a later
    # one (collected outside every timed region)
    gc.collect()


def set_up(cls, seed: int):
    """Build the workload ``SETUP_REPS`` times, keep the last build, and
    warm it up with one untimed pass.

    ``setup_s`` is the median build time plus the warm-up pass's task
    time: work a user does not repeat, which a later change must not hide
    here.  Like every time, it is at the reference speed (``harness``):
    each build is scaled by the reference kernel timed on both sides.
    """
    from harness import REFERENCE_NS, Meter, median, reference_ns
    times, builds = [], []
    workload = None
    for _ in range(SETUP_REPS):
        workload = None
        gc.collect()
        before = reference_ns()
        started = time.perf_counter()
        workload = cls(seed)
        workload.setup()
        took = time.perf_counter() - started
        factor = REFERENCE_NS / min(before, reference_ns())
        times.append(took * factor)
        builds.append(workload.store_build_s * factor)
    warm = Meter()
    run_pass(workload, warm)
    return workload, median(times) + warm.timed_ns / 1e9, median(builds)


def _enough(workload, meter, passes: int, seconds: float,
            started: float) -> bool:
    """Stop once ``seconds`` of task time (as measured, so a slow host
    does not stretch the run) are spent over at least the workload's
    minimum passes, or once the wall cap is spent."""
    return ((passes >= workload.min_passes
             and meter.raw_ns / 1e9 >= seconds)
            or (passes >= 1 and time.perf_counter() - started > WALL_CAP_S))


def measure(workload, seconds: float, meter) -> int:
    """Run measured passes; returns how many ran."""
    started = time.perf_counter()
    passes = 0
    while not _enough(workload, meter, passes, seconds, started):
        run_pass(workload, meter, check=passes == 0)
        passes += 1
    return passes


def end_to_end(workload, meter, setup_s) -> tuple:
    from harness import median, peak_rss_mib, percentile, tail_percentile
    # rates are the median over passes, so a burst of host load during
    # one pass does not drag the whole run's figure
    metrics = {"setup_s": setup_s, "peak_rss_mib": peak_rss_mib(),
               "ops_per_s": median([p[0] / p[2] for p in meter.passes]),
               "write_mib_per_s": median([p[1] / (1 << 20) / p[2]
                                          for p in meter.passes]),
               "verdict_accuracy": meter.verdicts_ok / meter.attempted}
    notes = {}
    for key, samples, scale in (("task_ms", meter.task_ns, 1e6),
                                ("close_us", meter.close_ns, 1e3),
                                ("write_us", meter.write_ns, 1e3)):
        kind = key.split("_")[0]
        tail = min(workload.tails[kind], tail_percentile(len(samples)))
        ends = [0] + [p[3][kind] for p in meter.passes]
        per_pass = [samples[a:b] for a, b in zip(ends, ends[1:]) if b > a]
        # percentiles are taken per pass, then the median across passes,
        # so a hiccup of the host in one pass does not move them; a tail
        # that one pass cannot hold ten samples beyond uses the whole run
        metrics[f"{key}.p50"] = median([percentile(s, 50.0)
                                        for s in per_pass]) / scale
        if tail_percentile(min(map(len, per_pass))) >= tail:
            metrics[f"{key}.tail"] = median([percentile(s, tail)
                                             for s in per_pass]) / scale
        else:
            metrics[f"{key}.tail"] = percentile(samples, tail) / scale
        notes[key] = f"tail=p{tail:g} n={len(samples)}"
    return metrics, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no detector sources at {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(sorted(workloads))})",
              file=sys.stderr)
        return 2
    from harness import Meter
    cls = workloads[args.workload]
    workload, setup_s, store_build_s = set_up(cls, args.seed)
    print(f"workload {cls.name} seed={args.seed} loop=closed clients=1 "
          f"setup_s={setup_s:.3f} (median of {SETUP_REPS} builds + warm-up)")
    if args.trace:
        return _traced(workload, args, store_build_s)
    meter = Meter()
    passes = measure(workload, args.seconds, meter)
    timed = meter.timed_ns / 1e9
    metrics, notes = end_to_end(workload, meter, setup_s)
    units = dict(END_TO_END)
    print(f"passes={passes} measured_s={timed:.3f} "
          f"host_speed={meter.speed():.3f}x reference "
          f"attempted={meter.attempted} failed={meter.failed} "
          f"failed_share={meter.failed / meter.attempted:.4f}")
    for name, unit in END_TO_END:
        note = notes.get(name.split(".")[0], "") if "." in name else ""
        print(f"  {name:<20} {metrics[name]:>14.4f} {unit:<9} {note}")
    for name, value, unit in workload.report(meter, timed):
        shown = f"{value:>14.4f}" if isinstance(value, float) else \
            f"{value!s:>14}"
        print(f"  {name:<20} {shown} {unit}")
    print(json.dumps({
        "correct": meter.failed == 0, "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _ in END_TO_END}}))
    return 0


def _traced(workload, args, store_build_s) -> int:
    """Alternate untraced and traced passes over the same inputs.

    Interleaving keeps slow spells of the host from landing on one side
    only.  The untraced passes measure half of ``--seconds``; the
    overhead is traced over untraced measured time.
    """
    from harness import Meter
    from spans import PER_LAYER, Tracer
    tracer = Tracer()
    untraced, traced = Meter(), Meter(vfs_timing=False)
    traced.tracer = tracer
    started = time.perf_counter()
    passes = 0
    while not _enough(workload, untraced, passes, args.seconds / 2,
                      started):
        run_pass(workload, untraced, check=passes == 0)
        tracer.install()
        try:
            run_pass(workload, traced, check=passes == 0)
        finally:
            tracer.uninstall()
        passes += 1
    untraced_s, traced_s = untraced.timed_ns / 1e9, traced.timed_ns / 1e9
    values = tracer.metrics(passes, traced_s, untraced_s,
                            traced.raw_ns / 1e9, store_build_s,
                            workload.layer_counters(traced))
    out = ROOT / ".perfbench_out" / f"spans-{workload.name}-{args.seed}.json"
    tracer.dump(out, {"workload": workload.name, "seed": args.seed,
                      "passes": passes})
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    print(f"traced passes={passes} untraced_s={untraced_s:.3f} "
          f"traced_s={traced_s:.3f} overhead={values['trace.overhead']:.3f}x "
          f"coverage={values['trace.coverage']:.3f} spans={len(tracer.spans)}"
          f" -> {out.relative_to(ROOT)}")
    print("per-layer metrics (per traced pass unless named otherwise):")
    for name, unit in PER_LAYER:
        print(f"  {name:<38} {values[name]:>16.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
