"""SCD's per-dispatcher computation from scratch -- Algorithm 2's math.

:func:`scd_decision` estimates the round's total arrivals (Eq. 18),
then computes the ideal workload (Algorithm 3) and the optimal
probability vector (Algorithm 4) for one dispatcher, sorts included:
the unit of work the run-time figures measure.  The dispatching policy
built on this math is :class:`repro.policies.scd.SCDPolicy`.
"""

from __future__ import annotations

import numpy as np

from .estimation import ArrivalEstimator, make_estimator
from .iwl import compute_iwl
from .probabilities import (
    scd_probabilities,
    scd_probabilities_loop,
    scd_probabilities_quadratic,
)

__all__ = ["scd_decision", "PROBABILITY_ALGORITHMS"]

#: Selectable probability solvers (all produce the same vector).
PROBABILITY_ALGORITHMS = {
    "vectorized": scd_probabilities,
    "loop": scd_probabilities_loop,
    "quadratic": scd_probabilities_quadratic,
}


def scd_decision(
    queues: np.ndarray,
    rates: np.ndarray,
    own_arrivals: int,
    num_dispatchers: int,
    *,
    algorithm: str = "vectorized",
    estimator: ArrivalEstimator | str = "scaled",
) -> tuple[float, np.ndarray]:
    """One dispatcher's full per-round computation, from scratch.

    Performs everything Algorithm 2 charges to a single dispatcher --
    both sorts, the IWL, and the probability vector -- with no caching.
    This is the unit the run-time evaluation (Figures 5 and 8) measures.

    Returns
    -------
    (iwl, probabilities)
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    est = make_estimator(estimator)
    a_est = est.estimate(int(own_arrivals), int(num_dispatchers))
    load_order = np.argsort(queues / rates, kind="stable")
    iwl = compute_iwl(queues, rates, a_est, order=load_order)
    solver = PROBABILITY_ALGORITHMS[algorithm]
    if algorithm == "quadratic":
        probs = solver(queues, rates, a_est, iwl)
    else:
        key_order = np.argsort((2.0 * queues + 1.0) / rates, kind="stable")
        probs = solver(queues, rates, a_est, iwl, order=key_order)
    return iwl, probs
