"""Declarative experiment API: grids, pluggable workloads, parallel execution.

The paper's evaluation protocol is a grid -- policies x systems x
offered loads x replications (x workloads) -- and this package exposes
it as exactly that:

>>> from repro.experiments import Experiment, WorkloadSpec
>>> from repro.workloads.scenarios import SystemSpec
>>> exp = Experiment(
...     policies=["scd", "jsq", "sed"],
...     systems=SystemSpec(num_servers=20, num_dispatchers=4),
...     loads=[0.7, 0.9],
...     replications=2,
...     rounds=500,
... )
>>> result = exp.run(workers=1)        # workers>1 uses a process pool
>>> result.metric("mean", policy="scd", rho=0.9, replication=0) > 0
True

The default :class:`WorkloadSpec` is the paper's Poisson+geometric
workload.  Each cell's seed depends only on its workload coordinates:
``derive_seed(base_seed + 1_000_003 * replication, system.name,
round(rho * 10_000))`` for the default workload, so every policy at the
same coordinates sees the same arrivals and departures.  Alternative
workloads (skewed dispatcher traffic, correlated bursts, sized jobs,
arbitrary arrival/service factories) plug into the same grid.
"""

from .executor import (
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    execute_cell,
    resolve_executor,
    simulate_cell,
)
from .grid import Cell, Experiment, PolicySpec, REPLICATION_SEED_STRIDE
from .results import CellRecord, ExperimentResult, metrics_from_result
from .workload import PAPER_WORKLOAD_NAME, WorkloadSpec

__all__ = [
    "Experiment",
    "PolicySpec",
    "Cell",
    "WorkloadSpec",
    "PAPER_WORKLOAD_NAME",
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "resolve_executor",
    "simulate_cell",
    "execute_cell",
    "CellRecord",
    "ExperimentResult",
    "metrics_from_result",
    "REPLICATION_SEED_STRIDE",
]
