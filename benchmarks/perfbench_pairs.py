"""Parent-vs-change perfbench pairs: run one workload alternately on a
base commit and on the working tree, then judge the change.

    python3 benchmarks/perfbench_pairs.py --workload bulk_append --seed 7 \
        --pairs 10 --base HEAD --claim write_mib_per_s
    make perfbench-pairs W=bulk_append SEED=7 N=10 BASE=HEAD \
        CLAIM=write_mib_per_s

Run it from the repository root.  The base tree is extracted with
``git archive`` into a temporary directory (no worktree, so ``.git`` is
left as it is).  Each pair runs the benchmark command of
``BENCHMARK.json`` (``perfbench/run.py``) once per tree at its
``run_seconds`` with ``--trace 0``; which tree goes first alternates
from pair to pair, so a slow spell of the host does not land on one
side only.

Each run's report is printed as it finishes, one JSON line
``{"pair", "side", "attempted", "failed", "metrics"}``, so every run
made stays on record.  Then, for every end-to-end metric, it prints each
side's median and quartiles and the pairs the change won (ties count for
neither side), and checks:

* every ``end_to_end`` bound of ``BENCHMARK.json``: the change's median
  may be worse than the base's by at most the bound;
* that the change fails no larger share of operations than the base;
* with ``--claim``, the gain rule: the change wins at least nine tenths
  of the pairs and the medians differ, the right way, by more than the
  distance between the base's quartiles.

It exits 1 when a check fails.  Only ``BENCHMARK.json`` supplies the
command, the run length, the metrics, their directions and their bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]


def parse_report(stdout: str) -> dict:
    """The last line of a perfbench run, its JSON report, flattened to
    ``{"attempted", "failed", "metrics": {name: value}}``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    report = json.loads(lines[-1])
    return {"attempted": report["attempted"], "failed": report["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in report["metrics"].items()}}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; quartiles interpolate between the runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def _worse_by(base: float, change: float, direction: str) -> float:
    """How much worse the change's median is, as a share of the base's
    (negative when it is better)."""
    gap = change - base if direction == "lower" else base - change
    if base == 0:
        return 0.0 if gap <= 0 else float("inf")
    return gap / abs(base)


def judge(base: List[dict], change: List[dict], end_to_end: List[dict],
          claim: Optional[str] = None) -> Tuple[List[dict], List[str]]:
    """Compare paired runs (``base[i]`` and ``change[i]`` are pair ``i``).

    Returns one row per end-to-end metric and the list of failed checks.
    A row holds each side's quartiles, the change's wins, its worsening
    as a share of the base median, and ``status``: ``worse`` past the
    bound, ``unresolved`` when the base's own quartiles lie further
    apart than the bound (unless every change run beats every base
    run), else ``ok``.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of runs per side")
    rows, problems = [], []
    for spec in end_to_end:
        name, direction, bound = spec["name"], spec["better"], spec["bound"]
        b = [run["metrics"][name] for run in base]
        c = [run["metrics"][name] for run in change]
        bq, cq = quartiles(b), quartiles(c)
        wins = sum(_better(x, y, direction) for x, y in zip(c, b))
        worse = _worse_by(bq[1], cq[1], direction)
        spread = bq[2] - bq[0]
        if worse > bound:
            status = "worse"
            problems.append(f"{name}: median worse by {worse:.1%}, bound "
                            f"{bound:.0%}")
        elif (spread > bound * abs(bq[1])
              and not all(_better(x, y, direction) for x in c for y in b)):
            status = "unresolved"
        else:
            status = "ok"
        row = {"name": name, "unit": spec["unit"], "base": bq, "change": cq,
               "wins": wins, "pairs": len(base), "worse": worse,
               "status": status}
        if name == claim:
            gap = cq[1] - bq[1] if direction == "higher" else bq[1] - cq[1]
            row["claim_met"] = wins * 10 >= 9 * len(base) and gap > spread
            if not row["claim_met"]:
                problems.append(
                    f"claim {name}: {wins}/{len(base)} wins, median gap "
                    f"{gap:.4g} against a base IQR of {spread:.4g}")
        rows.append(row)
    if claim is not None and claim not in {r["name"] for r in rows}:
        raise ValueError(f"unknown claimed metric {claim!r}")
    shares = [sum(run["failed"] for run in side)
              / max(1, sum(run["attempted"] for run in side))
              for side in (base, change)]
    if shares[1] > shares[0]:
        problems.append(f"failed share {shares[0]:.4f} -> {shares[1]:.4f}")
    return rows, problems


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def render(rows: List[dict]) -> str:
    out = [f"{'metric':<17} {'base median [q1, q3]':>32}  "
           f"{'change median [q1, q3]':>32}  {'wins':>6}  "
           f"{'worse by':>8}  status"]
    for row in rows:
        claim = ""
        if "claim_met" in row:
            claim = ", claim met" if row["claim_met"] else ", CLAIM NOT MET"
        out.append(f"{row['name']:<17} {_cell(row['base']):>32}  "
                   f"{_cell(row['change']):>32}  "
                   f"{row['wins']:>2}/{row['pairs']:<3}  "
                   f"{row['worse']:>+8.1%}  {row['status']}{claim}")
    return "\n".join(out)


def _extract(base: str, into: Path) -> None:
    """``git archive`` of ``base`` unpacked into ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", base],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout,
                   check=True)


def _run(tree: Path, command: List[str], workload: str, seed: int,
         seconds: float) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {tree} exited "
                           f"{done.returncode}:\n{done.stdout}{done.stderr}")
    return parse_report(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare the working tree against")
    parser.add_argument("--claim", default=None,
                        help="end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    names = [spec["name"] for spec in bench["end_to_end"]]
    if args.claim is not None and args.claim not in names:
        parser.error(f"--claim must name an end-to-end metric: "
                     f"{', '.join(names)}")
    sides: Dict[str, List[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perfbench-base-") as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        _extract(args.base, trees["base"])
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run = _run(trees[side], command, args.workload, args.seed,
                           seconds)
                sides[side].append(run)
                print(json.dumps({"pair": i + 1, "side": side, **run}),
                      flush=True)
    rows, problems = judge(sides["base"], sides["change"],
                           bench["end_to_end"], args.claim)
    print(f"{args.workload} seed={args.seed}: {args.base} vs working tree, "
          f"{args.pairs} alternating pairs at {seconds:g} s")
    print(render(rows))
    for problem in problems:
        print(f"FAIL {problem}")
    print("perfbench-pairs: " + ("fail" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
