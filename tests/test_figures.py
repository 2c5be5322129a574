"""The paper's figures are declared once, and their tables come from the grid.

Each figure's table is checked as ``FigureTable.write`` (the figure
benchmarks' writer, ``benchmarks/_common.py``) produces it, plus any table
that a ``pytest benchmarks`` run left in the gitignored ``benchmarks/results/``.
"""

import importlib.util
from pathlib import Path

from repro.analysis.ccdf import tail_quantiles
from repro.experiments import Experiment
from repro.experiments.figures import FIGURES, FIGURES_BY_ID, mean_rows

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
RESULTS = BENCHMARKS / "results"


def _bench_common():
    """``benchmarks/_common.py``, loaded by path under a private name."""
    spec = importlib.util.spec_from_file_location(
        "_figures_bench_common", BENCHMARKS / "_common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_figure_is_declared_once():
    ids = [figure.id for figure in FIGURES]
    assert sorted(ids) == ["3a", "3b", "4a", "4b", "5", "6", "7", "8"]
    assert list(FIGURES_BY_ID) == ids
    assert len({figure.table for figure in FIGURES}) == len(FIGURES)


def test_fig6_fig7_panels_plot_the_tail():
    """The paper's Figures 6 and 7 both plot tails at n=100, m=10."""
    assert FIGURES_BY_ID["6"].panel == FIGURES_BY_ID["7"].panel == "p999"


def test_each_table_is_committed(tmp_path, monkeypatch):
    """Each table opens with its figure's title, a run line and its headers,
    as written and as left in ``benchmarks/results/`` by a benchmark run."""
    common = _bench_common()
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    for figure in FIGURES:
        table = common.FigureTable(figure.table, figure.title, list(figure.headers))
        table.add(*range(len(figure.headers)))
        table.write()
        paths = [tmp_path / f"{figure.table}.txt"]
        if (RESULTS / f"{figure.table}.txt").exists():
            paths.append(RESULTS / f"{figure.table}.txt")
        for path in paths:
            lines = path.read_text().splitlines()
            assert lines[0] == figure.title, (figure.id, path)
            assert lines[2].split() == list(figure.headers), (figure.id, path)


def test_mean_table_equals_the_grid_records():
    """A 3a table on one system at one load holds the records' metrics; its
    p99.9 column is the 1e-3 CCDF level of the response histogram."""
    figure = FIGURES_BY_ID["3a"]
    system = figure.systems[0]
    rows = [
        row
        for policy, cell_system in figure.cells()
        if cell_system == system
        for row in mean_rows(policy, system, rounds=30, loads=(0.9,), seed=0)
    ]
    records = Experiment(figure.policies, system, 0.9, rounds=30, base_seed=0).run()
    assert rows == [
        ["n100/m5", r.policy, 0.9, r.metrics["mean"], r.metrics["p99"], r.metrics["p999"]]
        for r in records
    ]
    for row, record in zip(rows, records):
        assert row[5] == tail_quantiles(record.result.histogram, (1e-3,))[1e-3]
