"""Table I's paper bands, checked on the committed full-scale pin.

``tests/data/table1_full.txt`` is what ``python -m repro --scale full
table1`` prints (minus its timing line); ``make table1-check`` and the CI
``experiments`` job keep it equal to the code.  These tests parse it and
hold it to the bands the paper sets, so a pin re-recorded outside a band
fails here, on every tier-1 run, without running the 492-sample campaign.
They also find every measured cell of EXPERIMENTS.md's headline and
Table I tables in the pin, so the document cannot drift from it.
"""

import re
from pathlib import Path

import pytest

from repro.experiments import FULL, PAPER_OVERALL, PAPER_TABLE1

ROOT = Path(__file__).resolve().parents[1]
PIN = ROOT / "tests" / "data" / "table1_full.txt"


def parse_pin(text):
    """The pin as ``{"rows": {family: (a, b, c, total, median)},
    "total": (a, b, c, total, median), "rate": "100.0%", "median": m,
    "range": (lo, hi)}``; blank class cells are 0."""
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines)
                if line.startswith("-----") and "  " in line)
    spans = [m.span() for m in re.finditer(r"-+", lines[rule])]
    rows, total = {}, None
    for line in lines[rule + 1:]:
        if not line.strip():
            break
        cells = [line[lo:hi].strip() for lo, hi in spans]
        counts = tuple(int(cell) if cell else 0 for cell in cells[1:5])
        row = counts + (float(cells[5]),)
        if cells[0] == "#":
            total = row
        else:
            rows[cells[0]] = row
    rate = re.search(r"^Detection rate: (\S+)", text, re.M).group(1)
    median = float(re.search(r"^Overall median files lost: (\S+)", text,
                             re.M).group(1))
    lo, hi = re.search(r"^Range: (\d+)-(\d+)", text, re.M).groups()
    return {"rows": rows, "total": total, "rate": rate, "median": median,
            "range": (int(lo), int(hi))}


@pytest.fixture(scope="module")
def table1():
    return parse_pin(PIN.read_text())


def _medians(table1):
    return {family: row[4] for family, row in table1["rows"].items()}


class TestTable1Shape:
    """``benchmarks/bench_table1.py::TestTable1Shape``, same bounds, read
    from the pin instead of a fresh campaign."""

    def test_every_sample_detected(self, table1):
        # paper: 100%; one miss in 492 would print 99.8%
        assert table1["rate"] == "100.0%"
        assert table1["total"][3] == PAPER_OVERALL["samples"]

    def test_overall_median_near_paper(self, table1):
        assert 6 <= table1["median"] <= 14                    # paper: 10
        assert table1["total"][4] == table1["median"]

    def test_loss_range_near_paper(self, table1):
        assert table1["range"][0] == 0                        # paper: 0
        assert table1["range"][1] <= 45                       # paper: 33

    def test_family_composition_exact(self, table1):
        assert set(table1["rows"]) == set(PAPER_TABLE1)
        for family, row in table1["rows"].items():
            a, b, c, total, _ = PAPER_TABLE1[family]
            assert row[:4] == (a, b, c, total), family
        assert table1["total"][:4] == tuple(
            sum(row[k] for row in PAPER_TABLE1.values()) for k in range(4))

    def test_ctb_locker_is_slowest_family(self, table1):
        medians = _medians(table1)
        assert medians["ctb-locker"] == max(medians.values())

    def test_fast_families_fastest(self, table1):
        medians = _medians(table1)
        assert medians["xorist"] <= 6
        assert medians["cryptotorlocker2015"] <= 6

    def test_gpcode_slow_like_paper(self, table1):
        assert _medians(table1)["gpcode"] >= 15               # paper: 22

    def test_family_medians_track_paper_ordering(self, table1):
        """Spearman-style check: families the paper found slow should be
        slow here too (rank correlation > 0.5)."""
        ours, paper = [], []
        for family, row in table1["rows"].items():
            ours.append(row[4])
            paper.append(PAPER_TABLE1[family][4])

        def ranks(values):
            order = sorted(range(len(values)), key=lambda i: values[i])
            out = [0.0] * len(values)
            for rank, idx in enumerate(order):
                out[idx] = float(rank)
            return out

        ra, rb = ranks(ours), ranks(paper)
        n = len(ra)
        d2 = sum((x - y) ** 2 for x, y in zip(ra, rb))
        rho = 1 - (6 * d2) / (n * (n * n - 1))
        assert rho > 0.5, f"rank correlation {rho:.2f}"


def _section(name):
    """The table rows of the EXPERIMENTS.md section whose heading starts
    with ``name``, each as its list of cells."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    body = text.split("\n## " + name, 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in body.splitlines() if line.startswith("|")]
    return rows[2:]  # past the header and its rule


def _bold(cell):
    match = re.fullmatch(r"\*\*(.+)\*\*", cell)
    assert match, f"not a measured (bold) cell: {cell!r}"
    return match.group(1)


def _family(name):
    """EXPERIMENTS.md's family name as the pin spells it."""
    return name.lower().replace(" (copycat)", "-copycat")


class TestExperimentsCells:
    def test_every_measured_cell_is_in_the_pin(self, table1):
        headline = {row[0]: row[2] for row in _section("Headline")}
        lo, hi = table1["range"]
        detected = table1["total"][3]
        rate = float(table1["rate"].rstrip("%"))
        assert _bold(headline["samples detected"]) == \
            f"{detected}/{PAPER_OVERALL['samples']} ({rate:g}%)"
        assert float(_bold(headline["median files lost"])) == \
            table1["median"]
        assert int(_bold(headline["minimum files lost"])) == lo
        assert int(_bold(headline["maximum files lost"])) == hi
        # the corpus row is the run's configuration, not an outcome
        assert headline["corpus"] == \
            f"{FULL.n_files:,} files / {FULL.n_dirs} dirs"

        families = _section("Table I")
        assert len(families) == len(table1["rows"]) + 1
        for name, samples, _, measured in families:
            if name == "**total**":
                row, samples = table1["total"], _bold(samples)
            else:
                row = table1["rows"][_family(name)]
            assert samples == f"{row[3]} ({row[0]}/{row[1]}/{row[2]})", name
            assert float(_bold(measured)) == row[4], name

    def test_the_paper_column_is_the_paper(self):
        for name, _, paper, _ in _section("Table I"):
            if name != "**total**":
                assert float(paper) == PAPER_TABLE1[_family(name)][4], name
