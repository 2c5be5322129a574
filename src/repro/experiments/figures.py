"""The paper's evaluation figures, each declared once.

Goren, Vargaftik & Moses (arXiv 2105.09389, Section 6 and Appendix E)
evaluate SCD in eight figures of three kinds:

* ``mean``: mean response time against offered load on the four paper
  systems (3a, 4a, 6, 7).  Figures 6 and 7 add a panel at n=100, m=10
  over :data:`TAIL_LOADS` whose one column is :data:`PANEL_METRIC`;
* ``tail``: response-time tail quantiles at n=100, m=10 over
  :data:`TAIL_LOADS` (3b, 4b);
* ``runtime``: per-decision run-time CDF landmarks at rho=0.99 for growing
  server counts (5, 8).

A :class:`Figure` holds the kind, the rate profile, the policies (the
run-time techniques for ``runtime``) and the table: its
``benchmarks/results/<table>.txt`` name, title and headers.  That
directory holds benchmark run output; it is gitignored, not committed.

A mean or tail figure is one simulation grid, :meth:`Figure.experiment`,
on the ``fast`` backend (bit-identical to ``reference``).
:meth:`Figure.rows` and :meth:`Figure.notes` are pure functions of its
:class:`~repro.experiments.ExperimentResult`, so a result saved with
:func:`~repro.experiments.persistence.save_experiment` renders the same
table when loaded.  A run-time figure times decisions on the wall clock
(:func:`runtime_snapshots`, :func:`runtime_row`).  Rounds, loads and seed
are the caller's.  The figure benchmarks (``benchmarks/bench_figures.py``)
and ``repro figure`` both build their tables here, so the two print the
same table for the same rounds, loads and seed.

This module is not imported by :mod:`repro.experiments`: it reads
:mod:`repro.analysis`, which a simulation cell does not load.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.ccdf import tail_improvement_factor, tail_quantiles
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
from .results import ExperimentResult

__all__ = [
    "FIGURES",
    "FIGURES_BY_ID",
    "Figure",
    "MEAN",
    "TAIL",
    "RUNTIME",
    "PANEL_METRIC",
    "RUNTIME_DISPATCHERS",
    "RUNTIME_SERVER_COUNTS",
    "RUNTIME_SNAPSHOTS",
    "RUNTIME_SNAPSHOT_ROUNDS",
    "runtime_row",
    "runtime_snapshots",
    "table_text",
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

#: The record metric of the Figure 6/7 panel: both plot the p99.9 tail.
PANEL_METRIC = "p999"

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
    #: Figures 6/7: an n=100, m=10 panel of :data:`PANEL_METRIC` over
    #: :data:`TAIL_LOADS` follows the mean rows.
    panel: bool = False

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

    def experiment(self, *, rounds, loads, seed) -> Experiment:
        """The figure's one simulation grid, on the ``fast`` backend.

        ``policies x systems x loads`` for a mean figure, with
        :data:`TAIL_LOADS` added for a panel; ``policies x tail_system x
        TAIL_LOADS`` for a tail figure.  A run-time figure is timed, not
        simulated.
        """
        if self.kind == MEAN:
            grid = (self.systems, sorted({*loads, *(TAIL_LOADS if self.panel else ())}))
        elif self.kind == TAIL:
            grid = (self.tail_system, TAIL_LOADS)
        else:
            raise ValueError(f"Figure {self.id} is timed, not simulated")
        return Experiment(
            self.policies, *grid, rounds=rounds, base_seed=seed, backend="fast"
        )

    def run(self, *, rounds, loads, seed, workers=1) -> ExperimentResult:
        """Run :meth:`experiment`; a tail figure keeps each cell's histogram."""
        return self.experiment(rounds=rounds, loads=loads, seed=seed).run(
            workers=workers, keep_results=self.kind == TAIL
        )

    def rows(self, result: ExperimentResult, loads) -> list[list]:
        """The table's rows, read from the result of :meth:`experiment`.

        Mean rows cover ``loads`` in ``(policy, system, rho)`` order; a
        tail figure's rows do not depend on ``loads``.
        """
        records = _records(result)
        if self.kind == TAIL:
            system = self.tail_system.name
            return [
                tail_row(policy, rho, records[policy, system, rho].result.histogram)
                for policy, rho in self.cells()
            ]
        rows = []
        for policy, system in self.cells():
            label = f"n{system.num_servers}/m{system.num_dispatchers}"
            for rho in map(float, loads):
                metrics = records[policy, system.name, rho].metrics
                rows.append([label, policy, rho, *(metrics[key] for key in MEAN_METRICS)])
        if self.panel:
            # Only the p99.9 column is filled, in whole rounds as in the
            # tail tables.
            system = self.tail_system.name
            rows += [
                [
                    "n100/m10-tail", policy, rho, math.nan, math.nan,
                    int(records[policy, system, rho].metrics[PANEL_METRIC]),
                ]
                for rho in TAIL_LOADS
                for policy in self.policies
            ]
        return rows

    def notes(self, result: ExperimentResult) -> list[str]:
        """The lines printed under the table.

        For a tail figure, how much shorter SCD's 1e-4 tail is than the
        runner-up's at each load; no lines for the other kinds.
        """
        if self.kind != TAIL:
            return []
        records = _records(result)
        system = self.tail_system.name
        lines = []
        for rho in TAIL_LOADS:
            histograms = {
                policy: records[policy, system, rho].result.histogram
                for policy in self.policies
            }
            factor, runner_up = tail_improvement_factor(
                histograms.pop("scd"), histograms, level=1e-4
            )
            lines.append(
                f"rho={rho}: SCD 1e-4 tail improvement over runner-up "
                f"({runner_up}): {factor:.2f}x"
            )
        return lines


def _records(result: ExperimentResult) -> dict:
    """``(policy, system name, rho) -> record`` of a figure's result."""
    return {(r.policy, r.system, r.rho): r for r in result}


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
        panel=True,
    ),
    Figure(
        "7", MEAN, "u1_100", EXTRA_POLICIES, "fig7_additional_policies",
        "Figure 7: SCD vs JSQ(2)/JIQ/LSQ/WR (mu ~ U[1,100])",
        panel=True,
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
