"""Shared infrastructure for the benchmark suite.

``bench_figures.py`` holds the paper's evaluation figures, declared in
:mod:`repro.experiments.figures`; the other ``bench_*`` modules are
ablations and extensions.  Each benchmark cell runs one simulation grid
exactly once (``benchmark.pedantic(rounds=1)``) -- a simulation *is* the
workload being timed -- and deposits its numbers both in
``benchmark.extra_info`` and into a per-figure text table written under
``benchmarks/results/``.

Scaling knobs (environment variables):

``REPRO_BENCH_ROUNDS``
    Simulation rounds per cell (default 1200).  The paper uses 1e5; the
    qualitative shape -- who wins, roughly by how much -- is stable far
    below that (ROADMAP item 9 plans the paper's horizon).
``REPRO_BENCH_LOADS``
    Comma-separated offered loads (default ``0.7,0.9,0.99``).
``REPRO_BENCH_WORKERS``
    Process-pool workers for the mean figures' load grids (default 1 =
    serial, so a benchmark cell times the simulation itself; raising it
    speeds up full-suite runs without changing any results -- cell seeds
    are scheduling-independent).
"""

from __future__ import annotations

import os
from pathlib import Path

import repro
from repro.experiments.figures import table_text

RESULTS_DIR = Path(__file__).resolve().parent / "results"

BENCH_ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "1200"))
BENCH_LOADS = tuple(
    float(x) for x in os.environ.get("REPRO_BENCH_LOADS", "0.7,0.9,0.99").split(",")
)
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def grid_experiment(
    policies, system: repro.SystemSpec, loads=None
) -> repro.Experiment:
    """The benchmark suite's standard declarative grid for one system.

    Scalar ``policies``/``loads`` declare one cell, whose bare result is
    ``grid_experiment(policy, system, rho).run().only().result``.
    """
    return repro.Experiment(
        policies=policies,
        systems=system,
        loads=loads if loads is not None else BENCH_LOADS,
        rounds=BENCH_ROUNDS,
        base_seed=BENCH_SEED,
    )


class FigureTable:
    """Accumulates one figure's rows and writes them to results/ on close."""

    def __init__(self, name: str, title: str, headers: list[str]) -> None:
        self.name = name
        self.title = title
        self.headers = headers
        self.rows: list[list[object]] = []

    def add(self, *row: object) -> None:
        self.rows.append(list(row))

    def write(self) -> Path:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        text = table_text(
            self.title,
            self.headers,
            self.rows,
            rounds=BENCH_ROUNDS,
            loads=BENCH_LOADS,
            seed=BENCH_SEED,
        )
        path = RESULTS_DIR / f"{self.name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")
        return path
