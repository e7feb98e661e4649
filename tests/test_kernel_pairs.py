"""The statistics of ``benchmarks/kernel_pairs.py`` on canned timings.

The timer's verdicts (medians, differences, pairs won, faults and
system time per call, the fault flag) and its input parsing are checked
here on measurements written by hand, so no kernel is timed.  The
calls it times are checked for what they compute.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "kernel_pairs", ROOT / "benchmarks" / "kernel_pairs.py")
kernel_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_pairs)


def _calls(seconds, faults=0, stime=0.0):
    return [(t, faults, stime) for t in seconds]


class TestSummarise:
    def test_medians_difference_and_pairs_won(self):
        base = _calls([0.010, 0.012, 0.011, 0.030])
        change = _calls([0.008, 0.013, 0.009, 0.007])
        row = kernel_pairs.summarise(base, change)
        assert row["pairs"] == 4
        assert row["base_s"] == pytest.approx(0.0115)
        assert row["change_s"] == pytest.approx(0.0085)
        assert row["diff_s"] == pytest.approx(-0.003)
        assert row["ratio"] == pytest.approx(0.0085 / 0.0115)
        # pair 2 went to the base
        assert row["won"] == pytest.approx(0.75)
        assert not row["faulted"]

    def test_ties_count_for_neither_side(self):
        row = kernel_pairs.summarise(_calls([1.0, 2.0]), _calls([1.0, 1.5]))
        assert row["won"] == pytest.approx(0.5)

    def test_faults_and_system_time_per_call_flag_the_leg(self):
        base = [(0.001, 0, 0.0), (0.001, 0, 0.0)]
        change = [(0.001, 172, 0.0002), (0.001, 0, 0.0)]
        row = kernel_pairs.summarise(base, change)
        assert row["faults"] == {"base": 0.0, "change": 86.0}
        assert row["stime_s"]["change"] == pytest.approx(0.0001)
        assert row["faulted"]
        assert "FAULTS" in kernel_pairs.render([("cipher:4096", row)])
        clean = kernel_pairs.summarise(base, base)
        assert not clean["faulted"]
        assert "FAULTS" not in kernel_pairs.render([("cipher:4096", clean)])

    def test_unpaired_runs_are_refused(self):
        with pytest.raises(ValueError):
            kernel_pairs.summarise(_calls([1.0]), _calls([1.0, 2.0]))
        with pytest.raises(ValueError):
            kernel_pairs.summarise([], [])


class TestInputs:
    def test_sizes_and_kinds(self):
        assert kernel_pairs.parse_input("save:1M,2.5M,4096,64K") == (
            "save", [1 << 20, 5 << 19, 4096, 64 << 10])
        for bad in ("zip:1M", "text", "text:"):
            with pytest.raises(ValueError):
                kernel_pairs.parse_input(bad)

    def test_a_save_shares_most_of_its_text(self):
        case = kernel_pairs.make_case("save", 200_000)
        assert len(case.old) == len(case.new) == 200_000
        same = sum(case.old[i:i + 4096] == case.new[i:i + 4096]
                   for i in range(0, 200_000, 4096))
        assert 0.8 * 49 <= same < 49
        assert kernel_pairs.make_case("text", 5000).new is None
        assert kernel_pairs.make_case("cipher", 5000).old != \
            kernel_pairs.make_case("text", 5000).old


class TestKernels:
    def test_the_stream_kernel_digests_like_sdhash(self):
        mod = importlib.import_module("repro.simhash.sdhash")
        case = kernel_pairs.make_case("text", 300_000)
        got = kernel_pairs.prepare(mod, "stream", case)()
        assert got.hexdigest() == mod.sdhash(case.old).hexdigest()
        assert got.n_features == mod.sdhash(case.old).n_features
