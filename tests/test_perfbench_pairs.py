"""The statistics of ``benchmarks/perfbench_pairs.py`` on canned runs.

The runner's verdicts (medians, quartiles, wins, the gain rule and the
``BENCHMARK.json`` bounds) are checked here on perfbench report lines
written by hand, so no benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perfbench_pairs", ROOT / "benchmarks" / "perfbench_pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

#: a middling run of every end-to-end metric
BASE = {spec["name"]: 100.0 for spec in END_TO_END}


def _stdout(metrics, failed=0, attempted=1000):
    """What perfbench/run.py prints: text lines, then its JSON report."""
    report = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": "x"}
                          for name, value in metrics.items()}}
    return ("workload bulk_append seed=7 loop=closed clients=1\n"
            "  write_mib_per_s   15.0000 MiB/s\n" + json.dumps(report) + "\n")


def _runs(name, values, failed=0):
    return [pairs.parse_report(_stdout(dict(BASE, **{name: v}), failed))
            for v in values]


def _row(rows, name):
    return next(row for row in rows if row["name"] == name)


BASE_RATES = [15.0, 15.1, 14.9, 15.2, 15.0, 14.8, 15.1, 15.3, 15.0, 14.9]


class TestParse:
    def test_reads_the_last_line(self):
        report = pairs.parse_report(_stdout(dict(BASE, setup_s=3.5),
                                            failed=2, attempted=40))
        assert report["failed"] == 2 and report["attempted"] == 40
        assert report["metrics"]["setup_s"] == 3.5

    def test_empty_output_is_an_error(self):
        with pytest.raises(ValueError):
            pairs.parse_report("\n")


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert pairs.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)

    def test_one_run(self):
        assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestJudge:
    def test_claim_met_on_ten_wins_past_the_iqr(self):
        base = _runs("write_mib_per_s", BASE_RATES)
        change = _runs("write_mib_per_s", [r + 3.5 for r in BASE_RATES])
        rows, problems = pairs.judge(base, change, END_TO_END,
                                     claim="write_mib_per_s")
        row = _row(rows, "write_mib_per_s")
        assert row["wins"] == 10 and row["claim_met"]
        assert row["worse"] < 0 and row["status"] == "ok"
        assert problems == []

    def test_eight_wins_of_ten_is_no_claim(self):
        base = _runs("write_mib_per_s", BASE_RATES)
        rates = [r + 3.5 for r in BASE_RATES]
        rates[0], rates[1] = 14.0, 14.0
        change = _runs("write_mib_per_s", rates)
        rows, problems = pairs.judge(base, change, END_TO_END,
                                     claim="write_mib_per_s")
        assert _row(rows, "write_mib_per_s")["wins"] == 8
        assert not _row(rows, "write_mib_per_s")["claim_met"]
        assert len(problems) == 1 and problems[0].startswith("claim ")

    def test_a_gap_inside_the_base_iqr_is_no_claim(self):
        base = _runs("write_mib_per_s", BASE_RATES)
        change = _runs("write_mib_per_s", [r + 0.1 for r in BASE_RATES])
        rows, _ = pairs.judge(base, change, END_TO_END,
                              claim="write_mib_per_s")
        row = _row(rows, "write_mib_per_s")
        assert row["wins"] == 10 and not row["claim_met"]

    def test_lower_is_better_metrics_win_by_falling(self):
        base = _runs("task_ms.p50", [200.0] * 10)
        change = _runs("task_ms.p50", [160.0] * 10)
        rows, problems = pairs.judge(base, change, END_TO_END,
                                     claim="task_ms.p50")
        row = _row(rows, "task_ms.p50")
        assert row["wins"] == 10 and row["claim_met"]
        assert row["worse"] == pytest.approx(-0.2)
        assert problems == []

    def test_bound_exceeded_fails(self):
        base = _runs("task_ms.p50", [200.0] * 10)
        change = _runs("task_ms.p50", [260.0] * 10)
        rows, problems = pairs.judge(base, change, END_TO_END)
        row = _row(rows, "task_ms.p50")
        assert row["status"] == "worse"
        assert row["worse"] == pytest.approx(0.3)
        assert problems == ["task_ms.p50: median worse by 30.0%, bound 25%"]

    def test_worse_within_the_bound_passes(self):
        base = _runs("setup_s", [3.0] * 10)
        change = _runs("setup_s", [3.6] * 10)
        rows, problems = pairs.judge(base, change, END_TO_END)
        assert _row(rows, "setup_s")["status"] == "ok"
        assert problems == []

    def test_wide_base_spread_is_unresolved(self):
        base = _runs("setup_s", [2.0, 4.0] * 5)
        change = _runs("setup_s", [2.1, 4.1] * 5)
        rows, problems = pairs.judge(base, change, END_TO_END)
        assert _row(rows, "setup_s")["status"] == "unresolved"
        assert problems == []

    def test_ties_count_for_neither_side(self):
        base = _runs("ops_per_s", [100.0] * 10)
        change = _runs("ops_per_s", [100.0] * 10)
        rows, _ = pairs.judge(base, change, END_TO_END)
        assert _row(rows, "ops_per_s")["wins"] == 0

    def test_larger_failed_share_fails(self):
        base = _runs("setup_s", [3.0] * 10)
        change = _runs("setup_s", [3.0] * 10, failed=1)
        _, problems = pairs.judge(base, change, END_TO_END)
        assert problems == ["failed share 0.0000 -> 0.0010"]

    def test_every_end_to_end_metric_gets_a_row(self):
        base = _runs("setup_s", [3.0] * 3)
        rows, _ = pairs.judge(base, base, END_TO_END)
        assert [row["name"] for row in rows] == \
            [spec["name"] for spec in END_TO_END]
        assert len(pairs.render(rows).splitlines()) == len(END_TO_END) + 1

    def test_unknown_claim_and_unpaired_runs_are_errors(self):
        base = _runs("setup_s", [3.0] * 3)
        with pytest.raises(ValueError):
            pairs.judge(base, base, END_TO_END, claim="no_such_metric")
        with pytest.raises(ValueError):
            pairs.judge(base, base[:2], END_TO_END)
