"""The paper's evaluation figures, each declared once.

Goren, Vargaftik & Moses (arXiv 2105.09389, Section 6 and Appendix E)
evaluate SCD in eight figures of three kinds:

* ``mean``: mean response time against offered load on the four paper
  systems (3a, 4a, 6, 7).  Figures 6 and 7 add a panel at n=100, m=10
  over :data:`TAIL_LOADS`, whose one metric column is :attr:`Figure.panel`;
* ``tail``: response-time tail quantiles at n=100, m=10 over
  :data:`TAIL_LOADS` (3b, 4b);
* ``runtime``: per-decision run-time CDF landmarks at rho=0.99 for growing
  server counts (5, 8).

A :class:`Figure` holds the kind, the rate profile, the policies (the
run-time techniques for ``runtime``) and the table: its
``benchmarks/results/<table>.txt`` name, title and headers.  That
directory holds benchmark run output; it is gitignored, not committed.
:meth:`Figure.cells` lists the cells in table-row order, and one row
builder per kind turns a cell into table rows.  Rounds, loads and seed
are the caller's.  The figure benchmarks (``benchmarks/bench_figures.py``)
and ``examples/paper_figures.py`` both build their tables here, so the
two print the same table for the same rounds, loads and seed.

This module is not imported by :mod:`repro.experiments`: it reads
:mod:`repro.analysis`, which a simulation cell does not load.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.analysis.ccdf import tail_quantiles
from repro.analysis.runtime import (
    RUNTIME_TECHNIQUES,
    DecisionSnapshot,
    collect_snapshots,
    measure_decision_times,
    runtime_cdf_summary,
)
from repro.analysis.tables import format_table
from repro.sim.metrics import ResponseTimeHistogram
from repro.workloads.scenarios import (
    EXTRA_POLICIES,
    MAIN_POLICIES,
    PAPER_SYSTEMS,
    TAIL_LOADS,
    SystemSpec,
    paper_system,
)

from .grid import Experiment

__all__ = [
    "FIGURES",
    "FIGURES_BY_ID",
    "Figure",
    "MEAN",
    "TAIL",
    "RUNTIME",
    "RUNTIME_DISPATCHERS",
    "RUNTIME_SERVER_COUNTS",
    "RUNTIME_SNAPSHOTS",
    "RUNTIME_SNAPSHOT_ROUNDS",
    "mean_rows",
    "panel_rows",
    "policy_metrics",
    "runtime_row",
    "runtime_snapshots",
    "table_text",
    "tail_histogram",
    "tail_row",
]

MEAN, TAIL, RUNTIME = "mean", "tail", "runtime"

HEADERS = {
    MEAN: ("system", "policy", "rho", "mean", "p99", "p99.9"),
    TAIL: ("rho", "policy", "mean", "p99", "p99.9", "p99.99", "max"),
    RUNTIME: ("n", "technique", "p10_us", "p50_us", "p90_us", "p99_us"),
}

#: Record metrics behind a mean table's last three columns.
MEAN_METRICS = ("mean", "p99", "p999")

#: CCDF levels of a tail table's p99, p99.9 and p99.99 columns.
TAIL_LEVELS = (1e-2, 1e-3, 1e-4)

#: The run-time protocol: decision snapshots of a short ``scd`` run at
#: rho=0.99 on n servers and ten dispatchers.
RUNTIME_SERVER_COUNTS = (100, 200, 300, 400)
RUNTIME_DISPATCHERS = 10
RUNTIME_SNAPSHOTS = 120
RUNTIME_SNAPSHOT_ROUNDS = 60


@dataclass(frozen=True)
class Figure:
    """One evaluation figure of the paper and the table that holds it."""

    id: str
    kind: str
    profile: str
    policies: tuple[str, ...]
    table: str
    title: str
    #: Figures 6/7: the record metric (``"mean"`` or ``"p999"``) of the
    #: n=100, m=10 panel that follows the mean rows.
    panel: str | None = None

    @property
    def headers(self) -> tuple[str, ...]:
        return HEADERS[self.kind]

    @property
    def systems(self) -> tuple[SystemSpec, ...]:
        """The four systems of the mean rows."""
        return PAPER_SYSTEMS[self.profile]

    @property
    def tail_system(self) -> SystemSpec:
        """n=100, m=10: the system of the tail rows and of the panel."""
        return paper_system(100, 10, self.profile)

    def cells(self, servers=RUNTIME_SERVER_COUNTS) -> list[tuple]:
        """The table's cells in row order.

        ``(policy, system)`` for ``mean``, ``(policy, rho)`` for ``tail``
        and ``(technique, n)`` over ``servers`` for ``runtime``.
        """
        inner = {MEAN: self.systems, TAIL: TAIL_LOADS, RUNTIME: servers}[self.kind]
        return list(itertools.product(self.policies, inner))


_TECHNIQUES = tuple(sorted(RUNTIME_TECHNIQUES))

FIGURES: tuple[Figure, ...] = (
    Figure(
        "3a", MEAN, "u1_10", MAIN_POLICIES, "fig3a_mean_response",
        "Figure 3a: mean response time vs offered load (mu ~ U[1,10])",
    ),
    Figure(
        "3b", TAIL, "u1_10", MAIN_POLICIES, "fig3b_tail_ccdf",
        "Figure 3b: response-time tails, n=100, m=10 (mu ~ U[1,10])",
    ),
    Figure(
        "4a", MEAN, "u1_100", MAIN_POLICIES, "fig4a_mean_response",
        "Figure 4a: mean response time vs offered load (mu ~ U[1,100])",
    ),
    Figure(
        "4b", TAIL, "u1_100", MAIN_POLICIES, "fig4b_tail_ccdf",
        "Figure 4b: response-time tails, n=100, m=10 (mu ~ U[1,100])",
    ),
    Figure(
        "5", RUNTIME, "u1_10", _TECHNIQUES, "fig5_runtime",
        "Figure 5: per-decision run-time CDF landmarks, rho=0.99 "
        "(mu ~ U[1,10]), microseconds",
    ),
    Figure(
        "6", MEAN, "u1_10", EXTRA_POLICIES, "fig6_additional_policies",
        "Figure 6: SCD vs JSQ(2)/JIQ/LSQ/WR (mu ~ U[1,10])",
        panel="p999",
    ),
    Figure(
        "7", MEAN, "u1_100", EXTRA_POLICIES, "fig7_additional_policies",
        "Figure 7: SCD vs JSQ(2)/JIQ/LSQ/WR (mu ~ U[1,100])",
        panel="p999",
    ),
    Figure(
        "8", RUNTIME, "u1_100", _TECHNIQUES, "fig8_runtime_hetero",
        "Figure 8: per-decision run-time CDF landmarks, rho=0.99 "
        "(mu ~ U[1,100]), microseconds",
    ),
)

FIGURES_BY_ID = {figure.id: figure for figure in FIGURES}


def table_text(title, headers, rows, *, rounds, loads, seed) -> str:
    """A results table, its title ending in the run's rounds, loads and seed."""
    return format_table(
        headers,
        rows,
        title=f"{title}\n(rounds/cell: {rounds}, loads: {tuple(loads)}, seed: {seed})",
    )


def mean_rows(policy, system, *, rounds, loads, seed, workers=1) -> list[list]:
    """A mean-figure cell: one row per load for ``policy`` on ``system``."""
    records = Experiment(policy, system, loads, rounds=rounds, base_seed=seed).run(
        workers=workers, keep_results=False
    )
    label = f"n{system.num_servers}/m{system.num_dispatchers}"
    return [
        [label, policy, r.rho, *(r.metrics[key] for key in MEAN_METRICS)]
        for r in records
    ]


def policy_metrics(policies, system, rho, metric, *, rounds, seed) -> dict[str, float]:
    """Policy -> record metric ``metric`` of its cell on ``system`` at ``rho``."""
    records = Experiment(policies, system, rho, rounds=rounds, base_seed=seed).run(
        keep_results=False
    )
    return {r.policy: r.metrics[metric] for r in records}


def panel_rows(figure: Figure, rho: float, values: dict[str, float]) -> list[list]:
    """The rows of a Figure 6/7 panel at ``rho`` from :func:`policy_metrics`.

    Only the panel's metric column is filled.  A quantile is written in
    whole rounds, as in the tail tables.
    """
    rows = []
    for policy, value in values.items():
        cells = [float("nan")] * len(MEAN_METRICS)
        cells[MEAN_METRICS.index(figure.panel)] = (
            value if figure.panel == "mean" else int(value)
        )
        rows.append(["n100/m10-tail", policy, rho, *cells])
    return rows


def tail_histogram(figure: Figure, policy, rho, *, rounds, seed) -> ResponseTimeHistogram:
    """A tail-figure cell: the response-time histogram of ``policy`` at ``rho``."""
    experiment = Experiment(policy, figure.tail_system, rho, rounds=rounds, base_seed=seed)
    return experiment.run().only().result.histogram


def tail_row(policy, rho, histogram: ResponseTimeHistogram) -> list:
    """A tail-figure row: mean, the CCDF quantiles of :data:`TAIL_LEVELS`, max."""
    quantiles = tail_quantiles(histogram, TAIL_LEVELS)
    return [
        rho,
        policy,
        histogram.mean(),
        *(quantiles[level] for level in TAIL_LEVELS),
        histogram.max_response_time,
    ]


def runtime_snapshots(
    figure: Figure,
    n: int,
    *,
    seed,
    snapshots=RUNTIME_SNAPSHOTS,
    rounds=RUNTIME_SNAPSHOT_ROUNDS,
) -> tuple[list[DecisionSnapshot], np.ndarray]:
    """Decision snapshots on ``n`` servers and the servers' rates."""
    system = SystemSpec(n, RUNTIME_DISPATCHERS, figure.profile)
    taken = collect_snapshots(
        system, rho=0.99, rounds=rounds, seed=seed, max_snapshots=snapshots
    )
    return taken, system.rates()


def runtime_row(n, technique, snapshots, rates) -> list:
    """A run-time cell: ``technique``'s decision-time landmarks over the snapshots."""
    times = measure_decision_times(technique, snapshots, rates, RUNTIME_DISPATCHERS)
    summary = runtime_cdf_summary(times)
    return [n, technique, *(summary[key] for key in HEADERS[RUNTIME][2:])]
