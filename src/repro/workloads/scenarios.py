"""The paper's evaluation scenarios as declarative specifications.

A :class:`SystemSpec` fixes the cluster (server count, dispatcher count,
heterogeneity profile and the seed its rates are drawn from); the offered
load ``rho`` then determines the symmetric per-dispatcher Poisson rates via

    lambda_d = rho * sum(mu) / m          (Section 6.1's definition of rho)

so that ``rho = E[total arrivals] / E[total capacity]``.  The four systems
of Figures 3/4/6/7, the standard load grid and the policy set of each
figure are exported as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heterogeneity import make_rates

__all__ = [
    "SystemSpec",
    "lambdas_for_load",
    "paper_system",
    "PAPER_SYSTEMS",
    "PAPER_LOADS",
    "TAIL_LOADS",
    "MAIN_POLICIES",
    "EXTRA_POLICIES",
]


@dataclass(frozen=True)
class SystemSpec:
    """An immutable cluster description.

    Attributes
    ----------
    num_servers, num_dispatchers:
        ``n`` and ``m``.
    profile:
        Heterogeneity profile name (see
        :mod:`repro.workloads.heterogeneity`).
    rate_seed:
        Seed for drawing the rate vector; fixed per spec so every policy
        and load sees the same servers.
    """

    num_servers: int
    num_dispatchers: int
    profile: str = "u1_10"
    rate_seed: int = 7

    def __post_init__(self) -> None:
        if self.num_servers < 1 or self.num_dispatchers < 1:
            raise ValueError("need at least one server and one dispatcher")

    @property
    def name(self) -> str:
        """Identifier like ``n100_m10_u1_10`` used in results and seeds."""
        return f"n{self.num_servers}_m{self.num_dispatchers}_{self.profile}"

    def rates(self) -> np.ndarray:
        """Draw (deterministically) this system's server rate vector."""
        rng = np.random.default_rng(
            np.random.SeedSequence((self.rate_seed, self.num_servers))
        )
        return make_rates(self.profile, self.num_servers, rng)

    def lambdas(self, rho: float, weights: np.ndarray | None = None) -> np.ndarray:
        """Per-dispatcher Poisson rates giving offered load ``rho``."""
        return lambdas_for_load(rho, self.rates(), self.num_dispatchers, weights)


def lambdas_for_load(
    rho: float,
    rates: np.ndarray,
    num_dispatchers: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Arrival rates realizing offered load ``rho``.

    By default the traffic splits symmetrically, ``lambda_d = rho *
    sum(mu) / m`` (the paper's setup).  ``weights`` skews the split --
    dispatcher ``d`` receives the fraction ``weights[d] / sum(weights)``
    of the total -- which stresses SCD's Eq. 18 estimator (it assumes all
    dispatchers receive alike; see the skew ablation benchmark).

    ``rho`` may be >= 1 only for instability experiments; the admissible
    regime the paper studies is ``rho < 1``.
    """
    if rho < 0:
        raise ValueError("offered load must be non-negative")
    rates = np.asarray(rates, dtype=np.float64)
    total = rho * float(rates.sum())
    if weights is None:
        return np.full(num_dispatchers, total / num_dispatchers)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (num_dispatchers,):
        raise ValueError(
            f"weights must have one entry per dispatcher ({num_dispatchers}), "
            f"got shape {weights.shape}"
        )
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with a positive sum")
    return total * weights / weights.sum()


def paper_system(
    num_servers: int,
    num_dispatchers: int,
    profile: str = "u1_10",
) -> SystemSpec:
    """A system with the paper's standard rate seed."""
    return SystemSpec(num_servers, num_dispatchers, profile)


#: The four (n, m) systems of Figures 3a/4a/6a/7a, per profile.
PAPER_SYSTEMS: dict[str, tuple[SystemSpec, ...]] = {
    profile: (
        paper_system(100, 5, profile),
        paper_system(100, 10, profile),
        paper_system(200, 10, profile),
        paper_system(200, 20, profile),
    )
    for profile in ("u1_10", "u1_100")
}

#: Offered-load grid of the mean-response figures.
PAPER_LOADS: tuple[float, ...] = (0.60, 0.70, 0.80, 0.90, 0.95, 0.99)

#: Loads at which the paper reports response-time tails (Figures 3b/4b).
TAIL_LOADS: tuple[float, ...] = (0.70, 0.90, 0.99)

#: Policies in the main-body figures (3 and 4).
MAIN_POLICIES = ("scd", "twf", "jsq", "sed", "hjsq(2)", "hjiq", "hlsq")

#: Policies in the appendix figures (6 and 7).
EXTRA_POLICIES = ("scd", "jsq(2)", "jiq", "lsq", "wr")
