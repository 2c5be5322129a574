"""repro -- Stochastic Coordination in Heterogeneous Load Balancing Systems.

A complete reproduction of Goren, Vargaftik & Moses (PODC 2021): the SCD
dispatching policy and its supporting mathematics, ten baseline policies,
and a synchronous-round cluster simulator with the paper's evaluation
protocol exposed as a declarative :class:`Experiment` grid.

Quickstart
----------
Declare the evaluation grid -- policies x systems x loads x replications
(x workloads) -- and run it, serially or on a process pool:

>>> import repro
>>> exp = repro.Experiment(
...     policies=["scd", "jsq", "sed"],
...     systems=repro.SystemSpec(num_servers=50, num_dispatchers=5),
...     loads=[0.7, 0.9],
...     replications=2,
...     rounds=2000,
... )
>>> result = exp.run(workers=4)        # same records as workers=1
>>> result.best_policy_at(0.9)  # doctest: +SKIP
'scd'

Workloads are pluggable (``repro.WorkloadSpec.skewed(3.0)``,
``.bursty()``, ``.sized(...)``, or arbitrary arrival/service factories);
the default is the paper's Poisson+geometric workload.  A cell's seed
depends only on its workload coordinates --
``derive_seed(base_seed + 1_000_003 * replication, system.name,
round(rho * 10_000))`` for the default workload -- so every policy at
the same coordinates sees the same arrivals and departures.  Scalar
axes declare one cell, whose bare result is one call away:

>>> system = repro.SystemSpec(num_servers=50, num_dispatchers=5, profile="u1_10")
>>> single = repro.Experiment("scd", system, 0.9, rounds=2000).run().only().result
>>> single.mean_response_time  # doctest: +SKIP
2.1...

The core math is importable directly:

>>> import numpy as np
>>> q, mu = np.array([2, 1, 3, 1]), np.array([5.0, 2.0, 1.0, 1.0])
>>> repro.compute_iwl(q, mu, arrivals=7)   # Figure 1's ideal workload
1.375

Importing the package loads none of its submodules: each public name
below is imported from its submodule on first access (PEP 562), so a
process pays only for the layers it uses.  The packages form one stack,
each importing only from those before it::

    workloads < core < policies < sim < meanfield < analysis
              < experiments < runs < service < cli
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: Submodule -> the public names it provides; the one list of the
#: package's top-level API.
_EXPORTS = {
    # declarative experiments
    "experiments": (
        "Experiment",
        "ExperimentResult",
        "WorkloadSpec",
        "PolicySpec",
        "Cell",
        "CellRecord",
        "Executor",
        "SerialExecutor",
        "ProcessPoolExecutor",
        "simulate_cell",
    ),
    "experiments.persistence": (
        "save_experiment",
        "load_experiment",
        "save_result",
        "load_result",
    ),
    # core math
    "core.iwl": ("compute_iwl", "compute_iwl_reference", "compute_iba"),
    "core.probabilities": (
        "scd_probabilities",
        "scd_probabilities_loop",
        "scd_probabilities_quadratic",
        "single_job_probabilities",
        "scd_objective",
        "kkt_residuals",
    ),
    "core.scd": ("scd_decision",),
    "core.twf": ("twf_probabilities",),
    "core.theory": (
        "StabilityBound",
        "strong_stability_bound",
        "poisson_second_moment",
        "geometric_second_moment",
    ),
    "core.estimation": (
        "ArrivalEstimator",
        "ScaledOwnArrivals",
        "OracleTotal",
        "ConstantEstimator",
        "EwmaEstimator",
        "make_estimator",
    ),
    # policies
    "policies.base": ("Policy", "SystemContext", "make_policy", "available_policies"),
    "policies.scd": ("SCDPolicy", "SizedSCDPolicy"),
    "policies.twf": ("TWFPolicy",),
    "policies.greedy": ("greedy_batch_assign", "greedy_batch_assign_heap"),
    # simulation
    "sim.engine": ("Simulation", "SimulationConfig", "SimulationResult", "simulate"),
    "sim.backends": (
        "EngineBackend",
        "ReferenceBackend",
        "FastBackend",
        "register_backend",
        "make_backend",
        "available_backends",
        "backend_descriptions",
        "SizedServerQueue",
    ),
    "sim.batchstore": ("BatchQueueStore",),
    # observability probes
    "sim.probes": (
        "Probe",
        "ProbeSpec",
        "ProbeSet",
        "ProbeContext",
        "ProbeBlock",
        "ResponseTimeProbe",
        "QueueSeriesProbe",
        "ServerStatsProbe",
        "DispatcherStatsProbe",
        "WindowedMeanProbe",
        "HerdingSignalProbe",
        "register_probe",
        "make_probe",
        "available_probes",
        "probe_descriptions",
        "probe_from_state",
        "DEFAULT_PROBE_LABELS",
    ),
    "sim.metrics": ("ResponseTimeHistogram", "QueueLengthSeries"),
    "sim.sized": ("JobSizeDistribution", "DeterministicSize", "GeometricSize", "BimodalSize"),
    "sim.arrivals": (
        "ArrivalProcess",
        "PoissonArrivals",
        "DeterministicArrivals",
        "TraceArrivals",
    ),
    "sim.service": (
        "ServiceProcess",
        "GeometricService",
        "DeterministicService",
        "TraceService",
    ),
    "sim.seeding": ("spawn_streams", "derive_seed"),
    # workloads
    "workloads.scenarios": (
        "SystemSpec",
        "paper_system",
        "PAPER_SYSTEMS",
        "PAPER_LOADS",
        "TAIL_LOADS",
        "MAIN_POLICIES",
        "EXTRA_POLICIES",
        "lambdas_for_load",
    ),
    "workloads.heterogeneity": ("uniform_rates", "bimodal_rates", "constant_rates", "make_rates"),
    # analysis
    "analysis.replication": ("ReplicatedResult", "paired_comparison"),
    "analysis.ccdf": ("ccdf_series", "tail_quantiles", "tail_improvement_factor"),
    "analysis.stability": ("assess_stability", "StabilityVerdict"),
    "analysis.tables": ("format_table", "format_series_table"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its submodule on first access (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
