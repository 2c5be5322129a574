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
"""

from .analysis.ccdf import ccdf_series, tail_improvement_factor, tail_quantiles
from .analysis.replication import ReplicatedResult, paired_comparison
from .analysis.persistence import (
    load_experiment,
    load_result,
    save_experiment,
    save_result,
)
from .analysis.stability import StabilityVerdict, assess_stability
from .analysis.tables import format_series_table, format_table
from .experiments import (
    Cell,
    CellRecord,
    Executor,
    Experiment,
    ExperimentResult,
    PolicySpec,
    ProcessPoolExecutor,
    SerialExecutor,
    WorkloadSpec,
    simulate_cell,
)
from .core.estimation import (
    ArrivalEstimator,
    ConstantEstimator,
    EwmaEstimator,
    OracleTotal,
    ScaledOwnArrivals,
    make_estimator,
)
from .core.iwl import compute_iba, compute_iwl, compute_iwl_reference
from .core.probabilities import (
    kkt_residuals,
    scd_objective,
    scd_probabilities,
    scd_probabilities_loop,
    scd_probabilities_quadratic,
    single_job_probabilities,
)
from .core.scd import SCDPolicy, SizedSCDPolicy, scd_decision
from .core.theory import (
    StabilityBound,
    geometric_second_moment,
    poisson_second_moment,
    strong_stability_bound,
)
from .core.twf import TWFPolicy, twf_probabilities
from .policies.base import Policy, SystemContext, available_policies, make_policy
from .policies.greedy import greedy_batch_assign, greedy_batch_assign_heap
from .sim.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from .sim.backends import (
    EngineBackend,
    FastBackend,
    ReferenceBackend,
    SizedServerQueue,
    available_backends,
    backend_descriptions,
    make_backend,
    register_backend,
)
from .sim.batchstore import BatchQueueStore
from .sim.engine import Simulation, SimulationConfig, SimulationResult, simulate
from .sim.metrics import QueueLengthSeries, ResponseTimeHistogram
from .sim.probes import (
    DEFAULT_PROBE_LABELS,
    DispatcherStatsProbe,
    HerdingSignalProbe,
    Probe,
    ProbeBlock,
    ProbeContext,
    ProbeSet,
    ProbeSpec,
    QueueSeriesProbe,
    ResponseTimeProbe,
    ServerStatsProbe,
    WindowedMeanProbe,
    available_probes,
    make_probe,
    probe_descriptions,
    probe_from_state,
    register_probe,
)
from .sim.seeding import derive_seed, spawn_streams
from .sim.sized import (
    BimodalSize,
    DeterministicSize,
    GeometricSize,
    JobSizeDistribution,
)
from .sim.service import (
    DeterministicService,
    GeometricService,
    ServiceProcess,
    TraceService,
)
from .workloads.heterogeneity import (
    bimodal_rates,
    constant_rates,
    make_rates,
    uniform_rates,
)
from .workloads.scenarios import (
    PAPER_LOADS,
    PAPER_SYSTEMS,
    TAIL_LOADS,
    SystemSpec,
    lambdas_for_load,
    paper_system,
)

__version__ = "1.0.0"

__all__ = [
    # declarative experiments
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
    "save_experiment",
    "load_experiment",
    # core math
    "compute_iwl",
    "compute_iwl_reference",
    "compute_iba",
    "scd_probabilities",
    "scd_probabilities_loop",
    "scd_probabilities_quadratic",
    "single_job_probabilities",
    "scd_objective",
    "kkt_residuals",
    "scd_decision",
    "twf_probabilities",
    "SizedSCDPolicy",
    # estimators
    "ArrivalEstimator",
    "ScaledOwnArrivals",
    "OracleTotal",
    "ConstantEstimator",
    "EwmaEstimator",
    "make_estimator",
    # policies
    "Policy",
    "SystemContext",
    "SCDPolicy",
    "TWFPolicy",
    "make_policy",
    "available_policies",
    "greedy_batch_assign",
    "greedy_batch_assign_heap",
    # simulation
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "simulate",
    "EngineBackend",
    "ReferenceBackend",
    "FastBackend",
    "register_backend",
    "make_backend",
    "available_backends",
    "backend_descriptions",
    "BatchQueueStore",
    # observability probes
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
    "ResponseTimeHistogram",
    "JobSizeDistribution",
    "DeterministicSize",
    "GeometricSize",
    "BimodalSize",
    "SizedServerQueue",
    "QueueLengthSeries",
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "TraceArrivals",
    "ServiceProcess",
    "GeometricService",
    "DeterministicService",
    "TraceService",
    "spawn_streams",
    "derive_seed",
    # workloads
    "SystemSpec",
    "paper_system",
    "PAPER_SYSTEMS",
    "PAPER_LOADS",
    "TAIL_LOADS",
    "lambdas_for_load",
    "uniform_rates",
    "bimodal_rates",
    "constant_rates",
    "make_rates",
    # analysis
    "ReplicatedResult",
    "paired_comparison",
    "ccdf_series",
    "tail_quantiles",
    "tail_improvement_factor",
    "assess_stability",
    "StabilityVerdict",
    "save_result",
    "load_result",
    "StabilityBound",
    "strong_stability_bound",
    "poisson_second_moment",
    "geometric_second_moment",
    "format_table",
    "format_series_table",
]
