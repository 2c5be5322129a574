"""The paper's eight evaluation figures (Section 6, Appendix E).

Each figure is declared once in :mod:`repro.experiments.figures`.  Every
cell of every figure is one benchmark: a mean cell runs one policy on one
system over the load grid, a tail cell one policy at one load on n=100,
m=10, and a run-time cell times one technique on one server count.  The
rows land in ``results/<figure.table>.txt``.  The claims below check the
shape the paper reports, each on its figure's policies and systems.

Run-time figures (5, 8): the paper times C++, we time Python/numpy, so
compare shapes: SCD via Algorithm 4 scales like JSQ and SED, and
Algorithm 1 is slower and grows faster with n.  The paper's Figure 5
legend says "Algorithm 2/3"; per its Section 6.3 text the curves are
Algorithms 1 and 4.
"""

import functools

import numpy as np
import pytest

from repro.analysis.runtime import RUNTIME_TECHNIQUES, measure_decision_times
from repro.experiments.figures import (
    FIGURES,
    FIGURES_BY_ID as FIG,
    MEAN,
    RUNTIME,
    RUNTIME_DISPATCHERS,
    RUNTIME_SERVER_COUNTS,
    TAIL,
    mean_rows,
    panel_rows,
    policy_metrics,
    runtime_row,
    runtime_snapshots,
    tail_histogram,
    tail_row,
)
from repro.workloads.scenarios import TAIL_LOADS

from _common import BENCH_LOADS, BENCH_ROUNDS, BENCH_SEED, BENCH_WORKERS, FigureTable

GRID = {"rounds": BENCH_ROUNDS, "seed": BENCH_SEED}


@pytest.fixture(scope="module")
def tables():
    """Figure id -> its table; every filled table is written at module end."""
    tables = {f.id: FigureTable(f.table, f.title, list(f.headers)) for f in FIGURES}
    yield tables
    for table in tables.values():
        if table.rows:
            table.write()


def cells(kind):
    return [
        pytest.param(f, a, b, id=f"{f.id}-{a}-{getattr(b, 'name', b)}")
        for f in FIGURES
        if f.kind == kind
        for a, b in f.cells()
    ]


def once(benchmark, fn, *args, **kwargs):
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@functools.cache
def snapshots(figure, n):
    return runtime_snapshots(figure, n, seed=BENCH_SEED)


def decision_median(technique, figure, n):
    snaps, rates = snapshots(figure, n)
    times = measure_decision_times(technique, snaps, rates, RUNTIME_DISPATCHERS)
    return float(np.median(times))


# -- the figures' cells ------------------------------------------------------


@pytest.mark.parametrize("figure, policy, system", cells(MEAN))
def test_mean_cell(benchmark, tables, figure, policy, system):
    rows = once(
        benchmark, mean_rows, policy, system,
        loads=BENCH_LOADS, workers=BENCH_WORKERS, **GRID,
    )
    for row in rows:
        benchmark.extra_info[f"mean@{row[2]}"] = round(row[3], 3)
        tables[figure.id].add(*row)
    # Sanity: response times are at least one round and finite.
    assert all(row[3] >= 1.0 for row in rows)


@pytest.mark.parametrize("figure, policy, rho", cells(TAIL))
def test_tail_cell(benchmark, tables, figure, policy, rho):
    hist = once(benchmark, tail_histogram, figure, policy, rho, **GRID)
    row = tail_row(policy, rho, hist)
    tables[figure.id].add(*row)
    benchmark.extra_info["p99.9"] = row[4]
    assert hist.total > 0


@pytest.mark.parametrize("figure, technique, n", cells(RUNTIME))
def test_runtime_cell(benchmark, tables, figure, technique, n):
    snaps, rates = snapshots(figure, n)
    snap = snaps[len(snaps) // 2]
    # pytest-benchmark timing on one representative high-load snapshot.
    benchmark(
        RUNTIME_TECHNIQUES[technique], snap.queues, rates, snap.batch_size,
        RUNTIME_DISPATCHERS,
    )
    # The CDF over all snapshots (the figure's protocol).
    row = runtime_row(n, technique, snaps, rates)
    tables[figure.id].add(*row)
    benchmark.extra_info["median_us_over_snapshots"] = round(row[3], 1)


# -- the figures' claims ----------------------------------------------------


def claim(benchmark, policies, system, rho, metric):
    values = once(benchmark, policy_metrics, policies, system, rho, metric, **GRID)
    benchmark.extra_info.update(values)
    return values


@pytest.mark.parametrize("system", FIG["3a"].systems, ids=lambda s: s.name)
def test_fig3a_scd_wins_at_high_load(benchmark, system):
    """The headline claim, checked head-to-head at the top of the grid."""
    policies = ("scd", "twf", "sed", "hjsq(2)")
    means = claim(benchmark, policies, system, max(BENCH_LOADS), "mean")
    assert means["scd"] == min(means.values()), means


def test_fig3b_scd_tail_dominates_at_099(benchmark):
    """SCD's deep tail beats the field at rho = 0.99 (paper: >2.1x)."""
    policies = ("scd", "sed", "hlsq", "twf")
    tails = claim(benchmark, policies, FIG["3b"].tail_system, 0.99, "p999")
    assert tails["scd"] == min(tails.values()), tails


@pytest.mark.parametrize("system", FIG["4a"].systems, ids=lambda s: s.name)
def test_fig4a_heterogeneity_obliviousness_punished(benchmark, system):
    """TWF (rate-blind) trails SCD clearly in this regime at high load."""
    means = claim(benchmark, ("scd", "twf"), system, max(BENCH_LOADS), "mean")
    assert means["scd"] < means["twf"], means


def test_fig4b_twf_tail_collapses(benchmark):
    """The heterogeneity-oblivious tail is far worse than SCD's here."""
    tails = claim(benchmark, ("scd", "twf"), FIG["4b"].tail_system, 0.9, "p999")
    assert tails["twf"] >= 2 * tails["scd"], tails


@pytest.mark.parametrize("figure", [FIG["6"], FIG["7"]], ids=lambda f: f.id)
@pytest.mark.parametrize("rho", TAIL_LOADS)
def test_fig6_fig7_scd_wins_panel(benchmark, tables, figure, rho):
    """SCD beats JSQ(2), JIQ, LSQ and WR on the n=100, m=10 panel."""
    values = claim(benchmark, figure.policies, figure.tail_system, rho, figure.panel)
    for row in panel_rows(figure, rho, values):
        tables[figure.id].add(*row)
    assert values["scd"] == min(values.values()), values


@pytest.mark.parametrize("n", RUNTIME_SERVER_COUNTS)
def test_fig5_alg1_slower_than_alg4(benchmark, n):
    """The asymptotic gap the figure demonstrates, per server count."""

    def medians():
        return {t: decision_median(t, FIG["5"], n) for t in ("scd-alg1", "scd-alg4")}

    result = once(benchmark, medians)
    benchmark.extra_info.update({k: round(v * 1e6, 1) for k, v in result.items()})
    assert result["scd-alg1"] > result["scd-alg4"], result


def test_fig8_scaling_shape(benchmark):
    """Alg4's median grows roughly linearly in n; Alg1's superlinearly."""
    small, big = RUNTIME_SERVER_COUNTS[0], RUNTIME_SERVER_COUNTS[-1]

    def growth():
        return {
            t: decision_median(t, FIG["8"], big) / decision_median(t, FIG["8"], small)
            for t in ("scd-alg4", "scd-alg1")
        }

    ratios = once(benchmark, growth)
    benchmark.extra_info.update({k: round(v, 2) for k, v in ratios.items()})
    # 4x the servers: Alg1's growth factor must exceed Alg4's.
    assert ratios["scd-alg1"] > ratios["scd-alg4"], ratios
