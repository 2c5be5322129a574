"""Stochastically Coordinated Dispatching (SCD) -- the paper's Algorithm 2.

Per round, a dispatcher that received ``a_d`` jobs:

1. estimates the round's total arrivals (Eq. 18: ``a_est = m * a_d``),
2. computes the ideal workload for ``a_est`` (Algorithm 3),
3. computes the optimal probability vector ``P`` (Algorithm 4),
4. draws each job's destination i.i.d. from ``P``.

Step 4 over a whole batch is a multinomial draw.  Steps 2-3 depend only on
the shared snapshot and on ``a_est``; the two server orderings (by ``q/mu``
and by ``(2q+1)/mu``) are computed once per round and shared.  The
per-dispatcher :meth:`SCDPolicy.dispatch` caches the ``(iwl, P)`` pair per
distinct ``a_est`` within a round (dispatchers with equal batch sizes
produce identical estimates).  The batch protocol,
:meth:`SCDPolicy.dispatch_round`, solves all of the round's distinct
estimates in one broadcast IWL call and one broadcast probability call,
and step 4 over the whole round is one multinomial draw with a row per
dispatcher -- bit-identical, rows and RNG stream, to the per-dispatcher
loop.

The module also exposes :func:`scd_decision`, the *from-scratch* single
dispatcher computation (sorts included) used by the run-time figures, and
the :class:`SCDPolicy` supports an optional per-dispatcher connectivity
mask -- the paper's Section 7 open problem (2) -- restricting each
dispatcher to the servers it can reach.

Every stochastic-coordination policy is an :class:`SCDPolicy`: the
policy solves with three knobs, the rate vector (``_rates``) and the
two job-size constants of :func:`~repro.core.probabilities.scd_probabilities`
(``mean_size``, ``offset``).  Subclasses only set them:

* :class:`repro.core.twf.TWFPolicy` (``"twf"``) solves on unit rates --
  the homogeneous policy of Goren et al. [22];
* :class:`SizedSCDPolicy` (``"scd-sized"``) solves over work units with
  the job-size moments folded in -- the paper's Section 7 open problem
  (1), derived in :mod:`repro.core.probabilities`.

All of them therefore share the per-estimate cache, the one-solve-per-
round :meth:`SCDPolicy.dispatch_round` and its RNG contract.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import Policy, register_policy

from .estimation import ArrivalEstimator, make_estimator
from .iwl import compute_iwl
from .probabilities import (
    scd_probabilities,
    scd_probabilities_loop,
    scd_probabilities_quadratic,
)

__all__ = ["SCDPolicy", "SizedSCDPolicy", "scd_decision", "PROBABILITY_ALGORITHMS"]

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


@register_policy("scd")
class SCDPolicy(Policy):
    """The SCD dispatching policy (Algorithm 2).

    Parameters
    ----------
    estimator:
        Total-arrival estimator; the paper's ``"scaled"`` (Eq. 18) by
        default.  See :mod:`repro.core.estimation`.
    algorithm:
        Probability solver: ``"vectorized"`` (default), ``"loop"``
        (faithful Algorithm 4), or ``"quadratic"`` (Algorithm 1).
    connectivity:
        Optional ``(m, n)`` boolean array; ``connectivity[d, s]`` is True
        when dispatcher ``d`` can reach server ``s``.  ``None`` (default)
        means full connectivity.  With a mask, each dispatcher solves the
        optimization restricted to its reachable servers (the Section 7
        extension); per-round caching is disabled since views differ.

    Subclasses change what the solves see, not how they run: the rate
    vector ``_rates`` (bound to ``ctx.rates``), and the job-size
    constants :attr:`mean_size` and :attr:`offset` (the IWL is solved
    for the estimated work ``a_est * mean_size``).
    """

    name = "scd"
    #: Mean job size ``wbar`` the solves assume (1 for unit jobs).
    mean_size: float = 1.0
    #: Discreteness correction ``E[W^2]/wbar`` (1 for unit jobs).
    offset: float = 1.0

    def __init__(
        self,
        estimator: ArrivalEstimator | str | float = "scaled",
        algorithm: str = "vectorized",
        connectivity: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        if algorithm not in PROBABILITY_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {sorted(PROBABILITY_ALGORITHMS)}"
            )
        self.estimator = make_estimator(estimator)
        self.algorithm = algorithm
        self.connectivity = (
            None if connectivity is None else np.asarray(connectivity, dtype=bool)
        )
        if algorithm == "quadratic":
            self.name = "scd-alg1"

    def _on_bind(self) -> None:
        n = self.ctx.num_servers
        m = self.ctx.num_dispatchers
        if self.connectivity is not None:
            if self.connectivity.shape != (m, n):
                raise ValueError(
                    f"connectivity must be shaped (m, n) = ({m}, {n}), "
                    f"got {self.connectivity.shape}"
                )
            if not self.connectivity.any(axis=1).all():
                raise ValueError("every dispatcher must reach at least one server")
        self.estimator.reset()
        self._rates = self.ctx.rates
        self._queues: np.ndarray | None = None
        self._load_order: np.ndarray | None = None
        self._key_order: np.ndarray | None = None
        self._round_cache: dict[float, np.ndarray] = {}

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._queues = queues
        self._round_cache.clear()
        if self.connectivity is None:
            # Algorithm 2 lines 2-4: the two sorted orders for the round.
            rates = self._rates
            self._load_order = np.argsort(queues / rates, kind="stable")
            self._key_order = np.argsort(
                (2.0 * queues + self.offset) / rates, kind="stable"
            )

    def observe_total_arrivals(self, total: int) -> None:
        self.estimator.observe_total(total)

    def _solve(
        self,
        queues: np.ndarray,
        rates: np.ndarray,
        a_est: float,
        iwl: float,
        order: np.ndarray | None = None,
    ) -> np.ndarray:
        """The selected probability solver for one estimate."""
        if self.algorithm == "quadratic":
            return scd_probabilities_quadratic(queues, rates, a_est, iwl)
        if self.algorithm == "loop":
            return scd_probabilities_loop(queues, rates, a_est, iwl, order=order)
        return scd_probabilities(
            queues, rates, a_est, iwl, order=order,
            mean_size=self.mean_size, offset=self.offset,
        )

    def _probabilities(self, a_est: float) -> np.ndarray:
        probs = self._round_cache.get(a_est)
        if probs is None:
            queues = self._queues
            rates = self._rates
            iwl = compute_iwl(
                queues, rates, a_est * self.mean_size, order=self._load_order
            )
            probs = self._solve(queues, rates, a_est, iwl, order=self._key_order)
            probs = probs / probs.sum()
            self._round_cache[a_est] = probs
        return probs

    def _masked_probabilities(self, dispatcher: int, a_est: float) -> np.ndarray:
        mask = self.connectivity[dispatcher]
        queues = np.asarray(self._queues, dtype=np.float64)[mask]
        rates = self._rates[mask]
        iwl = compute_iwl(queues, rates, a_est * self.mean_size)
        sub = self._solve(queues, rates, a_est, iwl)
        probs = np.zeros(self.ctx.num_servers, dtype=np.float64)
        probs[mask] = sub / sub.sum()
        return probs

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        a_est = self.estimator.estimate(int(num_jobs), self.ctx.num_dispatchers)
        if self.connectivity is None:
            probs = self._probabilities(a_est)
        else:
            probs = self._masked_probabilities(dispatcher, a_est)
        return self.rng.multinomial(int(num_jobs), probs).astype(np.int64)

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """The whole round in one IWL solve, one probability solve and one draw.

        Estimates are taken in dispatcher order over the non-empty
        batches, exactly as the per-dispatcher loop takes them (stateful
        estimators such as EWMA see the same call sequence).  A broadcast
        multinomial over per-dispatcher rows consumes the stream like
        sequential per-row draws, so the result and the RNG state after it
        equal :meth:`Policy.dispatch_round`'s.  A connectivity mask or a
        non-vectorized solver takes that base loop instead.
        """
        if self.connectivity is not None or self.algorithm != "vectorized":
            return super().dispatch_round(batch, queues)
        m = self.ctx.num_dispatchers
        rows = np.zeros((m, self.ctx.num_servers), dtype=np.int64)
        active = np.flatnonzero(batch)
        if active.size == 0:
            return rows
        jobs = np.asarray(batch, dtype=np.int64)[active]
        estimate = self.estimator.estimate
        a_est = np.array([estimate(k, m) for k in jobs.tolist()], dtype=np.float64)
        values, inverse = np.unique(a_est, return_inverse=True)
        snapshot, rates = self._queues, self._rates
        iwl = compute_iwl(
            snapshot, rates, values * self.mean_size, order=self._load_order
        )
        probs = scd_probabilities(
            snapshot, rates, values, iwl, order=self._key_order,
            mean_size=self.mean_size, offset=self.offset,
        )
        probs /= probs.sum(axis=1, keepdims=True)
        rows[active] = self.rng.multinomial(jobs, probs[inverse])
        return rows


@register_policy("scd-alg1")
def _make_scd_alg1(**kwargs) -> SCDPolicy:
    """SCD with the O(n^2) Algorithm 1 solver (run-time comparator)."""
    kwargs.setdefault("algorithm", "quadratic")
    return SCDPolicy(**kwargs)


@register_policy("scd-sized")
class SizedSCDPolicy(SCDPolicy):
    """Size-aware SCD: stochastic coordination over work units.

    Algorithm 2 run over work units: queues arrive in units, the arrival
    estimate counts *jobs* (Eq. 18 unchanged), the IWL is solved for the
    estimated work ``a_est * E[W]`` and the probabilities for the
    size-aware constants ``(E[W], E[W^2]/E[W])`` (derivation in
    :mod:`repro.core.probabilities`).  Plain SCD on the same unit queues
    treats each job as one unit of work, so it underestimates incoming
    work by the mean size and uses the wrong discreteness correction; the
    gap between the two is the value of size information, quantified in
    ``benchmarks/bench_ext_sized_jobs.py``.

    Parameters
    ----------
    mean_size, second_moment_size:
        The job-size moments the dispatchers know (``E[W]``, ``E[W^2]``);
        defaults describe unit jobs, where this policy coincides with SCD.
    estimator:
        Total-*job* estimator, as in :class:`SCDPolicy`.
    """

    name = "scd-sized"

    def __init__(
        self,
        mean_size: float = 1.0,
        second_moment_size: float | None = None,
        estimator: ArrivalEstimator | str | float = "scaled",
    ) -> None:
        if mean_size <= 0:
            raise ValueError("mean job size must be positive")
        super().__init__(estimator=estimator)
        self.mean_size = float(mean_size)
        self.second_moment_size = (
            float(second_moment_size)
            if second_moment_size is not None
            else self.mean_size**2
        )
        if self.second_moment_size < self.mean_size**2:
            raise ValueError("E[W^2] cannot be below E[W]^2")
        self.offset = self.second_moment_size / self.mean_size
