"""The statistics of ``benchmarks/kernel_pairs.py`` on canned timings.

The timer's verdicts (medians, differences, pairs won, faults and
system time per call, the fault flag, the control leg's columns), the
order of each round's calls and its input parsing are checked here on
measurements written by hand, so no kernel is timed.  The calls it
times are checked for what they compute.
"""

import importlib
import importlib.util
import itertools
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

    def test_a_control_leg_adds_its_ratio_and_pairs_won(self):
        base = _calls([0.010, 0.010, 0.010, 0.010])
        row = kernel_pairs.summarise(base, _calls([0.008] * 4))
        control = kernel_pairs.summarise(base, _calls([0.0101, 0.0099,
                                                       0.0102, 0.0098]))
        assert control["ratio"] == pytest.approx(1.0)
        assert control["won"] == pytest.approx(0.5)
        head, line = kernel_pairs.render([("save:1M", row,
                                           control)]).splitlines()
        assert "ctrl ratio" in head
        assert "0.800  100%       1.000   50%" in line
        assert "ctrl" not in kernel_pairs.render([("save:1M", row)])

    def test_times_print_in_microseconds_with_one_decimal(self):
        # a compare of two 4 KiB ciphertext digests takes a few µs
        row = kernel_pairs.summarise(_calls([4.2e-6, 4.4e-6]),
                                     _calls([4.9e-6, 5.1e-6], stime=2e-6))
        head, line = kernel_pairs.render([("cipher:4096", row)]).splitlines()
        assert "base us" in head and "sys us/call" in head
        assert "ms" not in head
        assert line.split()[1:4] == ["4.3", "5.0", "+0.7"]
        assert line.split()[-1] == "0.0/2.0"

    def test_unpaired_runs_are_refused(self):
        with pytest.raises(ValueError):
            kernel_pairs.summarise(_calls([1.0]), _calls([1.0, 2.0]))
        with pytest.raises(ValueError):
            kernel_pairs.summarise([], [])


class TestRounds:
    @staticmethod
    def _rounds(sides, pairs):
        seen = []
        calls = {side: (lambda side=side: seen.append(side))
                 for side in sides}
        runs = kernel_pairs.run_leg(calls, pairs)
        assert {side: len(got) for side, got in runs.items()} == \
            {side: pairs for side in sides}
        seen = seen[len(sides):]  # the warm-up calls
        return [tuple(seen[at:at + len(sides)])
                for at in range(0, len(seen), len(sides))]

    def test_two_sides_alternate_which_goes_first(self):
        assert self._rounds(("base", "change"), 4) == \
            [("base", "change"), ("change", "base")] * 2

    def test_a_control_side_takes_every_order_in_turn(self):
        sides = ("base", "change", "control")
        assert self._rounds(sides, 6) == list(itertools.permutations(sides))


class TestInputs:
    def test_120_pairs_a_leg_by_default_here_and_in_the_makefile(self):
        """At 40 pairs a base-against-itself control read 0.881x at
        4 MiB; at 120 the controls stayed within 0.97-1.04x."""
        assert kernel_pairs.DEFAULT_PAIRS == 120
        args = kernel_pairs.build_parser().parse_args(
            ["--base", "HEAD", "--fn", "sdhash", "--input", "text:4K"])
        assert args.pairs == 120
        makefile = (ROOT / "Makefile").read_text().splitlines()
        assert "PAIRS ?= 120" in makefile

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

    def test_digest_many_lends_every_field_of_the_reference(
            self, monkeypatch):
        """The leg's reference carries the stream's SHA-1s, so a save
        hashes only the features outside the chunks it shares."""
        mod = importlib.import_module("repro.simhash.sdhash")
        case = kernel_pairs.make_case("save", 1 << 20)
        call = kernel_pairs.prepare(mod, "digest_many", case)
        hashed = []
        real = mod._sha1s

        def counting(windows):
            hashed.append(len(windows))
            return real(windows)

        monkeypatch.setattr(mod, "_sha1s", counting)
        got = call()[0]
        assert got.hexdigest() == mod.sdhash(case.old).hexdigest()
        assert 0 < hashed[0] <= 0.25 * got.n_features

    def test_the_compare_kernel_scores_the_input_pair(self):
        mod = importlib.import_module("repro.simhash.sdhash")
        save = kernel_pairs.make_case("save", 300_000)
        want = mod.compare(mod.sdhash(save.old), mod.sdhash(save.new))
        assert kernel_pairs.prepare(mod, "compare", save)() == want
        cipher = kernel_pairs.make_case("cipher", 4096)
        a, b = mod.sdhash(cipher.old), mod.sdhash(cipher.old[::-1])
        assert len(a) == len(b) == 1
        assert kernel_pairs.prepare(mod, "compare", cipher)() == \
            mod.compare(a, b)
