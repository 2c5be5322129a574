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

__all__ = ["SCDPolicy", "scd_decision", "PROBABILITY_ALGORITHMS"]

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
    """

    name = "scd"

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
        self._solver = PROBABILITY_ALGORITHMS[algorithm]
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
        self._queues: np.ndarray | None = None
        self._load_order: np.ndarray | None = None
        self._key_order: np.ndarray | None = None
        self._round_cache: dict[float, np.ndarray] = {}

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._queues = queues
        self._round_cache.clear()
        if self.connectivity is None:
            # Algorithm 2 lines 2-4: the two sorted orders for the round.
            rates = self.rates
            self._load_order = np.argsort(queues / rates, kind="stable")
            self._key_order = np.argsort((2.0 * queues + 1.0) / rates, kind="stable")

    def observe_total_arrivals(self, total: int) -> None:
        self.estimator.observe_total(total)

    def _probabilities(self, a_est: float) -> np.ndarray:
        probs = self._round_cache.get(a_est)
        if probs is None:
            queues = self._queues
            rates = self.rates
            iwl = compute_iwl(queues, rates, a_est, order=self._load_order)
            if self.algorithm == "quadratic":
                probs = self._solver(queues, rates, a_est, iwl)
            else:
                probs = self._solver(queues, rates, a_est, iwl, order=self._key_order)
            probs = probs / probs.sum()
            self._round_cache[a_est] = probs
        return probs

    def _masked_probabilities(self, dispatcher: int, a_est: float) -> np.ndarray:
        mask = self.connectivity[dispatcher]
        queues = np.asarray(self._queues, dtype=np.float64)[mask]
        rates = self.rates[mask]
        iwl = compute_iwl(queues, rates, a_est)
        sub = self._solver(queues, rates, a_est, iwl)
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
        snapshot, rates = self._queues, self.rates
        iwl = compute_iwl(snapshot, rates, values, order=self._load_order)
        probs = scd_probabilities(snapshot, rates, values, iwl, order=self._key_order)
        probs /= probs.sum(axis=1, keepdims=True)
        rows[active] = self.rng.multinomial(jobs, probs[inverse])
        return rows


@register_policy("scd-alg1")
def _make_scd_alg1(**kwargs) -> SCDPolicy:
    """SCD with the O(n^2) Algorithm 1 solver (run-time comparator)."""
    kwargs.setdefault("algorithm", "quadratic")
    return SCDPolicy(**kwargs)
