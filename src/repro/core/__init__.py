"""SCD's math: the ideal workload, the optimal probabilities, the decision.

Pure functions and solvers with no dependency on any other ``repro``
package: the ideal workload (Algorithm 3), the optimal probabilities
(Algorithm 4), SCD's from-scratch per-dispatcher decision, TWF's
homogeneous solve, arrival estimators and the stability theory.  The
dispatching policies built on them live in :mod:`repro.policies`.
"""

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
from .scd import PROBABILITY_ALGORITHMS, scd_decision
from .theory import (
    StabilityBound,
    geometric_second_moment,
    poisson_second_moment,
    strong_stability_bound,
)
from .twf import twf_probabilities

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
    "scd_decision",
    "PROBABILITY_ALGORITHMS",
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
