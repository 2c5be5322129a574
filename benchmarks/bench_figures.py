"""The paper's eight evaluation figures (Section 6, Appendix E).

Each figure is declared once in :mod:`repro.experiments.figures`, and
each figure is one benchmark, which writes its table to
``results/<figure.table>.txt``.  A mean or tail figure is one simulation
grid, run once per module (:func:`figure_result`); the claims below read
the same result and check the shape the paper reports, each on its
figure's policies and systems.  A run-time figure times one technique's
decisions per server count.

Run-time figures (5, 8): the paper times C++, we time Python/numpy, so
compare shapes: SCD via Algorithm 4 scales like JSQ and SED, and
Algorithm 1 is slower and grows faster with n.  The paper's Figure 5
legend says "Algorithm 2/3"; per its Section 6.3 text the curves are
Algorithms 1 and 4.
"""

import functools

import pytest

from repro.experiments.figures import (
    FIGURES,
    FIGURES_BY_ID as FIG,
    PANEL_METRIC,
    RUNTIME,
    RUNTIME_SERVER_COUNTS,
    TAIL,
    runtime_row,
    runtime_snapshots,
)
from repro.workloads.scenarios import TAIL_LOADS

from _common import BENCH_LOADS, BENCH_ROUNDS, BENCH_SEED, BENCH_WORKERS, FigureTable


@functools.cache
def figure_result(figure):
    """A mean or tail figure's result, run once per module."""
    return figure.run(
        rounds=BENCH_ROUNDS, loads=BENCH_LOADS, seed=BENCH_SEED, workers=BENCH_WORKERS
    )


@functools.cache
def runtime_rows(figure):
    """A run-time figure's rows, keyed by ``(technique, n)``."""
    snapshots = {
        n: runtime_snapshots(figure, n, seed=BENCH_SEED) for n in RUNTIME_SERVER_COUNTS
    }
    return {
        (technique, n): runtime_row(n, technique, *snapshots[n])
        for technique, n in figure.cells()
    }


# -- the figures ---------------------------------------------------------------


@pytest.mark.parametrize("figure", FIGURES, ids=lambda f: f.id)
def test_figure(benchmark, figure):
    table = FigureTable(figure.table, figure.title, list(figure.headers))
    if figure.kind == RUNTIME:
        rows = list(benchmark.pedantic(runtime_rows, args=(figure,), rounds=1).values())
    else:
        result = benchmark.pedantic(figure_result, args=(figure,), rounds=1)
        rows = figure.rows(result, BENCH_LOADS)
        # Sanity: response times are at least one round, and every tail
        # cell kept its histogram.
        assert all(r.metrics["mean"] >= 1.0 for r in result), figure.id
        if figure.kind == TAIL:
            assert all(r.result.histogram.total > 0 for r in result), figure.id
    for row in rows:
        table.add(*row)
    table.write()


# -- the figures' claims ----------------------------------------------------


def claim(figure, policies, system, rho, metric):
    """Policy -> ``metric`` of the figure's cells of ``policies`` on ``system``."""
    records = figure_result(figure).filter(policy=policies, system=system.name, rho=rho)
    return {r.policy: r.metrics[metric] for r in records}


@pytest.mark.parametrize("system", FIG["3a"].systems, ids=lambda s: s.name)
def test_fig3a_scd_wins_at_high_load(system):
    """The headline claim, checked head-to-head at the top of the grid."""
    policies = ("scd", "twf", "sed", "hjsq(2)")
    means = claim(FIG["3a"], policies, system, max(BENCH_LOADS), "mean")
    assert means["scd"] == min(means.values()), means


def test_fig3b_scd_tail_dominates_at_099():
    """SCD's deep tail beats the field at rho = 0.99 (paper: >2.1x)."""
    figure = FIG["3b"]
    policies = ("scd", "sed", "hlsq", "twf")
    tails = claim(figure, policies, figure.tail_system, 0.99, "p999")
    assert tails["scd"] == min(tails.values()), tails


@pytest.mark.parametrize("system", FIG["4a"].systems, ids=lambda s: s.name)
def test_fig4a_heterogeneity_obliviousness_punished(system):
    """TWF (rate-blind) trails SCD clearly in this regime at high load."""
    means = claim(FIG["4a"], ("scd", "twf"), system, max(BENCH_LOADS), "mean")
    assert means["scd"] < means["twf"], means


def test_fig4b_twf_tail_collapses():
    """The heterogeneity-oblivious tail is far worse than SCD's here."""
    figure = FIG["4b"]
    tails = claim(figure, ("scd", "twf"), figure.tail_system, 0.9, "p999")
    assert tails["twf"] >= 2 * tails["scd"], tails


@pytest.mark.parametrize("figure", [FIG["6"], FIG["7"]], ids=lambda f: f.id)
@pytest.mark.parametrize("rho", TAIL_LOADS)
def test_fig6_fig7_scd_wins_panel(figure, rho):
    """SCD beats JSQ(2), JIQ, LSQ and WR on the n=100, m=10 panel."""
    values = claim(figure, figure.policies, figure.tail_system, rho, PANEL_METRIC)
    assert values["scd"] == min(values.values()), values


def decision_median_us(figure, technique, n):
    """``technique``'s median decision time on ``n`` servers (the p50_us column)."""
    return runtime_rows(figure)[technique, n][3]


@pytest.mark.parametrize("n", RUNTIME_SERVER_COUNTS)
def test_fig5_alg1_slower_than_alg4(n):
    """The asymptotic gap the figure demonstrates, per server count."""
    medians = {t: decision_median_us(FIG["5"], t, n) for t in ("scd-alg1", "scd-alg4")}
    assert medians["scd-alg1"] > medians["scd-alg4"], medians


def test_fig8_scaling_shape():
    """Alg4's median grows roughly linearly in n; Alg1's superlinearly."""
    small, big = RUNTIME_SERVER_COUNTS[0], RUNTIME_SERVER_COUNTS[-1]
    ratios = {
        t: decision_median_us(FIG["8"], t, big) / decision_median_us(FIG["8"], t, small)
        for t in ("scd-alg4", "scd-alg1")
    }
    # 4x the servers: Alg1's growth factor must exceed Alg4's.
    assert ratios["scd-alg1"] > ratios["scd-alg4"], ratios
