"""The paper's primary contribution: IWL, optimal probabilities, SCD, TWF."""

from .estimation import (
    ArrivalEstimator,
    ConstantEstimator,
    EwmaEstimator,
    OracleTotal,
    ScaledOwnArrivals,
    make_estimator,
)
from .iwl import compute_iba, compute_iwl, compute_iwl_reference, load_vector
from .probabilities import (
    kkt_residuals,
    priority_key,
    scd_objective,
    scd_probabilities,
    scd_probabilities_loop,
    scd_probabilities_quadratic,
    single_job_probabilities,
)
from .scd import PROBABILITY_ALGORITHMS, SCDPolicy, SizedSCDPolicy, scd_decision
from .theory import (
    StabilityBound,
    geometric_second_moment,
    poisson_second_moment,
    strong_stability_bound,
)
from .twf import TWFPolicy, twf_probabilities

__all__ = [
    "compute_iwl",
    "compute_iwl_reference",
    "compute_iba",
    "load_vector",
    "scd_probabilities",
    "scd_probabilities_loop",
    "scd_probabilities_quadratic",
    "single_job_probabilities",
    "scd_objective",
    "kkt_residuals",
    "priority_key",
    "SCDPolicy",
    "scd_decision",
    "PROBABILITY_ALGORITHMS",
    "SizedSCDPolicy",
    "TWFPolicy",
    "twf_probabilities",
    "StabilityBound",
    "strong_stability_bound",
    "poisson_second_moment",
    "geometric_second_moment",
    "ArrivalEstimator",
    "ScaledOwnArrivals",
    "OracleTotal",
    "ConstantEstimator",
    "EwmaEstimator",
    "make_estimator",
]
