"""The paper's figures are declared once, and their tables come from the grid.

Each figure's table is checked as ``FigureTable.write`` (the figure
benchmarks' writer, ``benchmarks/_common.py``) produces it, plus any table
that a ``pytest benchmarks`` run left in the gitignored ``benchmarks/results/``.
A mean or tail figure is one ``fast`` experiment; its rows equal those of
the same grid on ``reference``, and a saved result renders the same rows.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.analysis.ccdf import tail_quantiles
from repro.experiments.figures import (
    FIGURES,
    FIGURES_BY_ID,
    PANEL_METRIC,
    RUNTIME,
    TAIL,
)
from repro.experiments.persistence import load_experiment, save_experiment
from repro.workloads.scenarios import TAIL_LOADS

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
RESULTS = BENCHMARKS / "results"

SIMULATED = [figure for figure in FIGURES if figure.kind != RUNTIME]

#: A tiny grid: every cell of every simulated figure at one load.
TINY = {"rounds": 20, "loads": (0.9,), "seed": 0}


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
    assert PANEL_METRIC == "p999"
    assert [f.id for f in FIGURES if f.panel] == ["6", "7"]


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


def test_a_figure_is_one_fast_experiment():
    experiment = FIGURES_BY_ID["3a"].experiment(**TINY)
    assert experiment.backend == "fast"
    assert experiment.size == 7 * 4
    assert FIGURES_BY_ID["3b"].experiment(**TINY).loads == TAIL_LOADS
    with pytest.raises(ValueError, match="Figure 5 is timed"):
        FIGURES_BY_ID["5"].experiment(**TINY)


@pytest.mark.parametrize("figure", SIMULATED, ids=lambda f: f.id)
def test_fast_rows_equal_the_reference_rows(figure):
    """The figure's rows on ``fast`` are bit-equal to the same grid's rows
    on ``reference``; so are the tail figures' improvement lines."""
    fast = figure.run(**TINY)
    reference_grid = dataclasses.replace(figure.experiment(**TINY), backend="reference")
    reference = reference_grid.run(keep_results=True)
    assert figure.rows(fast, TINY["loads"]) == figure.rows(reference, TINY["loads"])
    assert figure.notes(fast) == figure.notes(reference)
    if figure.kind == TAIL:
        assert len(figure.notes(fast)) == len(TAIL_LOADS)


def test_mean_table_equals_the_grid_records():
    """A 3a table on one system at one load holds the records' metrics; its
    p99.9 column is the 1e-3 CCDF level of the response histogram."""
    figure = FIGURES_BY_ID["3a"]
    result = figure.experiment(**TINY).run(keep_results=True)
    rows = [row for row in figure.rows(result, TINY["loads"]) if row[0] == "n100/m5"]
    records = result.filter(system=figure.systems[0].name)
    assert rows == [
        ["n100/m5", r.policy, 0.9, r.metrics["mean"], r.metrics["p99"], r.metrics["p999"]]
        for r in records
    ]
    for row, record in zip(rows, records):
        assert row[5] == tail_quantiles(record.result.histogram, (1e-3,))[1e-3]


@pytest.mark.parametrize("figure_id", ["3b", "6"])
def test_a_saved_result_renders_the_same_rows(figure_id, tmp_path):
    figure = FIGURES_BY_ID[figure_id]
    result = figure.run(**TINY)
    loaded = load_experiment(save_experiment(result, tmp_path / "figure.json"))
    assert figure.rows(loaded, TINY["loads"]) == figure.rows(result, TINY["loads"])
    assert figure.notes(loaded) == figure.notes(result)


@pytest.mark.parametrize("figure_id", ["6", "7"])
def test_panel_survives_loads_without_the_tail_loads(figure_id):
    """The n=100, m=10 panel covers :data:`TAIL_LOADS` whatever the loads."""
    figure = FIGURES_BY_ID[figure_id]
    grid = {**TINY, "loads": (0.5,)}
    experiment = figure.experiment(**grid)
    assert experiment.loads == (0.5, *TAIL_LOADS)
    rows = figure.rows(figure.run(**grid), grid["loads"])
    load_rows = [row for row in rows if row[0] != "n100/m10-tail"]
    panel = [row for row in rows if row[0] == "n100/m10-tail"]
    assert {row[2] for row in load_rows} == {0.5}
    assert len(load_rows) == len(figure.policies) * len(figure.systems)
    assert [(row[1], row[2]) for row in panel] == [
        (policy, rho) for rho in TAIL_LOADS for policy in figure.policies
    ]
    assert all(isinstance(row[5], int) for row in panel)
