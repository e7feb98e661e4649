"""Experiment harness at TINY scale: every table/figure regenerates."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (PAPER_OVERALL, PAPER_TABLE1, TINY,
                               campaign_at_scale, run_ctb_small_file_rerun,
                               run_fig3, run_fig4, run_fig5, run_fig6,
                               run_performance, run_scripts_experiment,
                               run_table1, run_union_effect,
                               samples_at_scale)
from repro.experiments.reporting import (ascii_bars, ascii_cdf, ascii_table,
                                         header)


@pytest.fixture(scope="module")
def tiny_campaign():
    return campaign_at_scale(TINY)


class TestScaling:
    def test_tiny_keeps_every_family(self):
        samples = samples_at_scale(TINY)
        families = {s.profile.family for s in samples}
        assert len(families) == 15

    def test_tiny_keeps_class_mix(self):
        samples = samples_at_scale(TINY)
        classes = {s.profile.behavior_class for s in samples}
        assert classes == {"A", "B", "C"}

    def test_campaign_cache(self, tiny_campaign):
        assert campaign_at_scale(TINY) is tiny_campaign


class TestTable1:
    def test_full_detection_at_tiny_scale(self, tiny_campaign):
        table = run_table1(TINY, campaign=tiny_campaign)
        assert table.campaign.detection_rate == 1.0

    def test_rows_cover_families(self, tiny_campaign):
        table = run_table1(TINY, campaign=tiny_campaign)
        assert {r.family for r in table.rows} == set(PAPER_TABLE1)

    def test_render_contains_key_lines(self, tiny_campaign):
        text = run_table1(TINY, campaign=tiny_campaign).render()
        assert "teslacrypt" in text and "Median FL" in text
        assert "Detection rate: 100" in text

    def test_row_lookup(self, tiny_campaign):
        table = run_table1(TINY, campaign=tiny_campaign)
        assert table.row("xorist").total >= 1
        with pytest.raises(KeyError):
            table.row("wannacry")


class TestFig3:
    def test_cdf_reaches_one(self, tiny_campaign):
        fig = run_fig3(TINY, campaign=tiny_campaign)
        assert fig.points[-1][1] == pytest.approx(1.0)
        assert fig.fraction_detected_within(fig.maximum) == pytest.approx(1.0)

    def test_render(self, tiny_campaign):
        assert "files lost" in run_fig3(TINY, campaign=tiny_campaign).render()


class TestFig4:
    @pytest.fixture(scope="class")
    def fig4(self):
        return run_fig4(TINY)

    def test_three_contrasting_samples(self, fig4):
        assert [s.family for s in fig4.samples] == \
            ["teslacrypt", "ctb-locker", "gpcode"]

    def test_teslacrypt_goes_deep_first(self, fig4):
        tesla = fig4.by_family("teslacrypt")
        assert tesla.mean_touched_depth >= fig4.corpus_mean_depth

    def test_gpcode_starts_shallow_and_loses_nothing(self, fig4):
        gpcode = fig4.by_family("gpcode")
        assert gpcode.files_lost == 0            # the read-only quirk
        assert gpcode.mean_touched_depth <= fig4.corpus_mean_depth + 0.5

    def test_render(self, fig4):
        assert "directory-access" in fig4.render()


class TestFig5:
    def test_productivity_formats_lead(self, tiny_campaign):
        fig = run_fig5(TINY, campaign=tiny_campaign)
        top6 = [ext for ext, _count in fig.top(6)]
        assert ".pdf" in top6

    def test_attack_artifacts_excluded(self, tiny_campaign):
        fig = run_fig5(TINY, campaign=tiny_campaign)
        assert ".locked" not in fig.frequencies
        assert ".ecc" not in fig.frequencies

    def test_counts_bounded_by_cohort(self, tiny_campaign):
        fig = run_fig5(TINY, campaign=tiny_campaign)
        n = len(tiny_campaign.working)
        assert all(count <= n for count in fig.frequencies.values())


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return run_fig6(TINY, suite="five")

    def test_five_apps(self, fig6):
        assert len(fig6.results) == 5

    def test_sweep_monotone_decreasing(self, fig6):
        sweep = fig6.sweep()
        values = [sweep[t] for t in sorted(sweep)]
        assert values == sorted(values, reverse=True)

    def test_word_and_mogrify_zero(self, fig6):
        scores = fig6.final_scores()
        assert scores["WINWORD.EXE"] == 0.0
        assert scores["mogrify.exe"] == 0.0

    def test_no_detections_at_200(self, fig6):
        assert fig6.detected_apps() == []

    def test_render(self, fig6):
        assert "paper score" in fig6.render()


class TestOtherExperiments:
    def test_union_effect_accounting(self, tiny_campaign):
        result = run_union_effect(TINY, campaign=tiny_campaign)
        assert (len(result.class_c_linkable())
                + len(result.class_c_evaders())) == len(result.class_c())
        assert "union" in result.render().lower()

    def test_scripts_experiment_shape(self):
        result = run_scripts_experiment(TINY)
        assert result.original_scan.count == 8
        assert result.engines_lost == 2
        assert result.cryptodrop_detected
        assert result.unseen_virlock_detections <= 2

    def test_ctb_rerun_runs(self):
        result = run_ctb_small_file_rerun(TINY)
        assert result.lost_with_small > 0
        assert result.lost_without_small > 0

    def test_performance_ordering(self):
        result = run_performance(n_files=12, corpus_files=60, repeats=1)
        modelled = result.modelled_ms
        assert modelled["open"] < modelled["close"] < modelled["write"] \
            < modelled["rename"]
        assert "rename" in result.render()

    def test_sensitivity_independent_of_hash_seed(self):
        # str hash() is salted per process: a corpus seeded from it gives
        # a different table under every PYTHONHASHSEED
        src = Path(__file__).resolve().parent.parent / "src"
        runs = [subprocess.Popen(
                    [sys.executable, "-m", "repro", "--scale", "tiny",
                     "sensitivity"],
                    stdout=subprocess.PIPE, text=True,
                    env={**os.environ, "PYTHONPATH": str(src),
                         "PYTHONHASHSEED": seed})
                for seed in ("1", "2")]
        tables = []
        for run in runs:
            out, _ = run.communicate(timeout=240)
            assert run.returncode == 0
            tables.append([line for line in out.splitlines()
                           if not line.startswith("[sensitivity completed")])
        assert "accountant" in "\n".join(tables[0])
        assert tables[0] == tables[1]


class TestReportingHelpers:
    def test_ascii_table_alignment(self):
        text = ascii_table(("name", "value"), [("a", 1), ("bb", 22)])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_ascii_bars(self):
        text = ascii_bars([("x", 10.0), ("y", 5.0)])
        assert text.splitlines()[0].count("#") > \
            text.splitlines()[1].count("#")

    def test_ascii_bars_empty(self):
        assert ascii_bars([]) == "(no data)"

    def test_ascii_cdf_renders(self):
        text = ascii_cdf([(1, 0.2), (5, 0.7), (10, 1.0)])
        assert "1.0 +" in text and "0.0 +" in text

    def test_header(self):
        assert "My Title" in header("My Title")


class TestDynamicScoring:
    def test_boost_reduces_ctb_losses(self):
        from repro.experiments import TINY, run_dynamic_scoring
        result = run_dynamic_scoring(TINY)
        assert result.ctb_lost_dynamic <= result.ctb_lost_static
        assert result.speedup >= 1.0

    def test_boosted_hits_marked_in_history(self, small_corpus):
        from repro.core import CryptoDropMonitor, default_config
        from repro.ransomware import working_cohort
        from repro.sandbox import VirtualMachine
        machine = VirtualMachine(small_corpus)
        machine.snapshot()
        monitor = CryptoDropMonitor(
            machine.vfs, default_config(dynamic_scoring=True)).attach()
        sample = next(s for s in working_cohort()
                      if s.profile.family == "ctb-locker")
        outcome = machine.run_program(sample)
        row = monitor.engine.row_of(outcome.pid)
        boosted = [e for e in row.history if "[boosted]" in e.detail]
        assert boosted
        assert all(e.points == 10.0 for e in boosted)   # 5.0 x 2.0
