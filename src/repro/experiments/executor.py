"""Execution backends for experiment grids.

Two backends behind one tiny interface: :class:`SerialExecutor` runs
cells in-process in grid order; :class:`ProcessPoolExecutor` fans cells
out over worker processes for near-linear wall-clock speedups on
multi-cell sweeps.  Because every cell carries its own
workload-coordinate seed (see :mod:`repro.experiments.grid`), scheduling
is seed-stable: the two backends produce *identical* records regardless
of worker count or completion order, and records always come back sorted
in grid order.

The cell-execution function itself (:func:`execute_cell`) is module-level
and takes only picklable arguments, which is what lets the process pool
ship work with the standard :mod:`concurrent.futures` machinery.
"""

from __future__ import annotations

import concurrent.futures
import os
from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.policies.base import Policy
from repro.sim.engine import Simulation, SimulationConfig, SimulationResult
from repro.workloads.scenarios import SystemSpec

from .grid import Cell, Experiment, PolicySpec
from .results import CellRecord
from .workload import WorkloadSpec

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "resolve_executor",
    "build_cell_simulation",
    "simulate_cell",
    "execute_cell",
]

ProgressCallback = Callable[[int, int], None]


def build_cell_simulation(
    policy: "str | PolicySpec | Policy",
    system: SystemSpec,
    rho: float,
    workload: WorkloadSpec,
    seed: int,
    rounds: int,
    warmup: int = 0,
    backend: str = "reference",
    probes: tuple = (),
) -> Simulation:
    """Build (but do not run) the simulation at resolved coordinates.

    The construction half of :func:`simulate_cell`: builds the
    workload's processes, binds a fresh policy, and returns the
    simulation (with the workload's job-size distribution, if any)
    ready for ``.run()``.  The run-lifecycle
    orchestrator (:mod:`repro.runs`) uses this seam to drive the
    simulation under a checkpointing controller instead of a plain run.
    """
    rates = system.rates()
    policy_obj = policy if isinstance(policy, Policy) else PolicySpec.of(policy).build()
    arrivals = workload.build_arrivals(system, rho)
    service = workload.build_service(system)
    return Simulation(
        rates=rates,
        policy=policy_obj,
        arrivals=arrivals,
        service=service,
        config=SimulationConfig(
            rounds=rounds,
            warmup=warmup,
            seed=seed,
            backend=backend,
            probes=probes,
            scenario=workload.scenario,
        ),
        sizes=workload.job_sizes,
    )


def simulate_cell(
    policy: "str | PolicySpec | Policy",
    system: SystemSpec,
    rho: float,
    workload: WorkloadSpec,
    seed: int,
    rounds: int,
    warmup: int = 0,
    backend: str = "reference",
    probes: tuple = (),
) -> SimulationResult:
    """Run one simulation at fully resolved coordinates.

    The shared low-level path of every executor:
    :func:`build_cell_simulation` plus the run.  It also runs policies
    a grid cannot declare (a pre-built :class:`Policy`, or array
    kwargs); pass the ``seed`` of the matching
    :meth:`Experiment.cells` cell to reproduce that cell exactly.  ``backend`` names the round kernel in the
    :mod:`repro.sim.backends` registry; unknown names fail with the
    registry's error message.  ``probes`` are extra observability probes
    (names or ``ProbeSpec``) appended to the default collectors.
    """
    return build_cell_simulation(
        policy, system, rho, workload, seed, rounds, warmup, backend, probes
    ).run()


def execute_cell(cell: Cell, keep_results: bool = True) -> CellRecord:
    """Run one grid cell and package it as a record (worker entry point)."""
    result = simulate_cell(
        cell.policy,
        cell.system,
        cell.rho,
        cell.workload,
        cell.seed,
        cell.rounds,
        cell.warmup,
        cell.backend,
        cell.metrics,
    )
    return CellRecord.of(cell, result, keep_result=keep_results)


class Executor(ABC):
    """Strategy for running all cells of an experiment."""

    @abstractmethod
    def run(
        self,
        experiment: Experiment,
        keep_results: bool = True,
        progress: ProgressCallback | None = None,
    ) -> Sequence[CellRecord]:
        """Execute every cell; records are returned in grid order."""


class SerialExecutor(Executor):
    """In-process execution in grid order (the reference backend)."""

    def run(
        self,
        experiment: Experiment,
        keep_results: bool = True,
        progress: ProgressCallback | None = None,
    ) -> list[CellRecord]:
        total = experiment.size
        records = []
        for cell in experiment.cells():
            records.append(execute_cell(cell, keep_results=keep_results))
            if progress is not None:
                progress(len(records), total)
        return records


class ProcessPoolExecutor(Executor):
    """Fan cells out over worker processes.

    Seed-stable by construction: seeds live in the cells, so neither the
    number of workers nor completion order affects any simulation, and
    results are re-sorted into grid order before returning.  Worker
    count defaults to the machine's CPU count.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers or os.cpu_count() or 1

    def run(
        self,
        experiment: Experiment,
        keep_results: bool = True,
        progress: ProgressCallback | None = None,
    ) -> list[CellRecord]:
        cells = list(experiment.cells())
        total = len(cells)
        by_index: dict[int, CellRecord] = {}
        with concurrent.futures.ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                pool.submit(execute_cell, cell, keep_results): cell.index
                for cell in cells
            }
            for future in concurrent.futures.as_completed(futures):
                by_index[futures[future]] = future.result()
                if progress is not None:
                    progress(len(by_index), total)
        return [by_index[i] for i in range(total)]


def resolve_executor(
    executor: "Executor | str | None" = None, workers: int | None = None
) -> Executor:
    """Pick a backend from an instance, a name, or a worker count.

    ``None`` means serial unless ``workers`` asks for more than one
    process; strings accept ``"serial"`` and ``"process"``.
    """
    if isinstance(executor, Executor):
        if workers is not None:
            raise ValueError("pass workers to the executor constructor instead")
        return executor
    if executor is None:
        if workers is not None and workers > 1:
            return ProcessPoolExecutor(workers=workers)
        return SerialExecutor()
    name = executor.lower()
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessPoolExecutor(workers=workers)
    raise ValueError(f"unknown executor {executor!r}; use 'serial' or 'process'")
