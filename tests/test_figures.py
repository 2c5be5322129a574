"""The paper's figures are declared once, and their tables come from the grid."""

from pathlib import Path

from repro.analysis.ccdf import tail_quantiles
from repro.experiments import Experiment
from repro.experiments.figures import FIGURES, FIGURES_BY_ID, mean_rows

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def test_each_figure_is_declared_once():
    ids = [figure.id for figure in FIGURES]
    assert sorted(ids) == ["3a", "3b", "4a", "4b", "5", "6", "7", "8"]
    assert list(FIGURES_BY_ID) == ids
    assert len({figure.table for figure in FIGURES}) == len(FIGURES)


def test_each_table_is_committed():
    for figure in FIGURES:
        lines = (RESULTS / f"{figure.table}.txt").read_text().splitlines()
        assert lines[0] == figure.title, figure.id
        assert lines[2].split() == list(figure.headers), figure.id


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
