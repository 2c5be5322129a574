"""Tidal Water Filling (TWF) -- the homogeneous baseline of Goren et al. [22].

:func:`twf_probabilities` is SCD's solve on an all-ones rate vector: TWF
balances raw queue lengths as if every server had unit rate.  The
dispatching policy is :class:`repro.policies.twf.TWFPolicy`.
"""

from __future__ import annotations

import numpy as np

from .iwl import compute_iwl
from .probabilities import scd_probabilities

__all__ = ["twf_probabilities"]


def twf_probabilities(
    queues: np.ndarray,
    num_jobs_estimate: float,
) -> tuple[float, np.ndarray]:
    """Water level and TWF probability vector for a queue snapshot.

    Equivalent to SCD's computation with all rates equal to 1; the returned
    level is [22]'s *water level*, which equals the IWL in the homogeneous
    case (paper footnote 5).

    Returns
    -------
    (water_level, probabilities)
    """
    queues = np.asarray(queues, dtype=np.float64)
    ones = np.ones(queues.size, dtype=np.float64)
    level = compute_iwl(queues, ones, num_jobs_estimate)
    probs = scd_probabilities(queues, ones, num_jobs_estimate, level)
    return level, probs
