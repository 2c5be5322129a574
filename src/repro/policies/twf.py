"""Tidal Water Filling (TWF) -- the homogeneous baseline of Goren et al. [22].

TWF is stochastic coordination for *homogeneous* systems: it solves the
same per-round optimization as SCD but on raw queue lengths, i.e. as if
every server had unit rate.  In a homogeneous system it coincides with SCD;
in a heterogeneous system it is *heterogeneity-oblivious* -- it balances
job counts instead of workloads, starving fast servers and overloading slow
ones.  The paper uses it to show that a mild adaptation of [22] is not
enough (Figures 3-4: TWF's tail degrades by an order of magnitude under
high heterogeneity).

Implementation: :class:`TWFPolicy` is :class:`~repro.policies.scd.SCDPolicy`
with an all-ones rate vector, so it shares SCD's solver, its validated
round snapshot (built on the unit rates) and its native
one-solve-per-round batch path.  This is mathematically exactly [22]'s
policy -- in the homogeneous case the probable set is the analytically
known ``{s : q_s < water-level}``, which our prefix search returns --
and it exercises the same code paths, so TWF doubles as a regression
check of the general algorithm against the known homogeneous closed
form (see ``tests/test_scd_policy.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.estimation import ArrivalEstimator

from .base import register_policy
from .scd import SCDPolicy

__all__ = ["TWFPolicy"]


@register_policy("twf")
class TWFPolicy(SCDPolicy):
    """TWF: stochastic coordination on job counts (rate-oblivious).

    :class:`~repro.policies.scd.SCDPolicy` with its solves bound to unit
    rates; everything else -- the round snapshot, the one-solve-per-round
    batch path and the RNG stream -- is SCD's.

    Parameters
    ----------
    estimator:
        Total-arrival estimator, as in :class:`repro.policies.scd.SCDPolicy`.
    """

    name = "twf"

    def __init__(self, estimator: ArrivalEstimator | str | float = "scaled") -> None:
        super().__init__(estimator=estimator)

    def _on_bind(self) -> None:
        super()._on_bind()
        self._rates = np.ones(self.ctx.num_servers, dtype=np.float64)
