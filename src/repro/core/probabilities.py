"""Optimal dispatching probabilities for SCD.

Solves the stochastic-coordination optimization problem of Eq. (10):

    minimize   f(P) = (a-1) * sum_s p_s^2 / mu_s
                      + sum_s [(2(q_s - mu_s*iwl) + 1) / mu_s] * p_s
    subject to sum_s p_s = 1,  p_s >= 0,

whose solution is the probability vector a dispatcher samples job
destinations from.  The KKT analysis (Eqs. 13-16) shows that once the
*probable set* ``S+ = {s : p*_s > 0}`` is known the solution is closed-form:

    Lambda0 = [2*sum_{S+}(mu_s*iwl - q_s) - |S+| - 2(a-1)] / sum_{S+} mu_s
    p*_s    = [-2(q_s - mu_s*iwl) - 1 - mu_s*Lambda0] / (2(a-1))

and Lemma 1 / Corollary 1 prove that ``S+`` is a *prefix* of the servers
sorted by ``(2q_s + 1) / mu_s``.  Three implementations are provided:

* :func:`scd_probabilities_quadratic` -- the paper's Algorithm 1, ``O(n^2)``.
* :func:`scd_probabilities_loop`      -- the paper's Algorithm 4,
  ``O(n log n)`` (``O(n)`` given the sort), using running sums and the
  Lemma 2 decomposition ``f(P) = v1*Lambda0^2 - v2``.
* :func:`scd_probabilities`           -- a vectorized formulation of
  Algorithm 4 (cumulative sums + masked argmin); the simulator's hot path.
  It validates its inputs and solves on a :class:`KeySnapshot`, the
  kernel SCD's round snapshot shares.

All three return identical vectors (property-tested), and agree with the
exact brute-force / SLSQP reference solvers in
:mod:`repro.core.qp_reference`.

Note on Eq. (17): the paper's displayed inequality drops a factor of two;
the correct feasibility test, used by Algorithm 4 line 12 and implemented
here, is ``2*iwl - (2q_r+1)/mu_r >= Lambda0``.

Job sizes (the paper's Section 7 open problem 1)
------------------------------------------------
When jobs carry i.i.d. integer work sizes ``w ~ W`` (distribution known
to dispatchers), server ``s`` completes ``c_s(t)`` *work units* per round
and queues are measured in units.  Redoing the derivation of Eqs. (5)-(8)
with ``abar_s = sum_j w_j X_j`` (``X_j ~ Bern(p_s)``, sizes independent
of placements):

    E[abar_s]   = a * wbar * p_s
    E[abar_s^2] = a * E[W^2] * p_s - a * wbar^2 * p_s^2 + a^2 * wbar^2 * p_s^2

and dropping constants and dividing by ``a * wbar``, the per-round
problem becomes

    minimize  wbar*(a-1) * sum_s p_s^2 / mu_s
              + sum_s [(2(q_s - mu_s*iwl) + c) / mu_s] * p_s,   c = E[W^2]/wbar,

the *same form* as Eq. (10) with ``(a-1, 1)`` replaced by
``(wbar*(a-1), c)``; unit sizes give ``wbar = E[W^2] = 1`` and Eq. (10)
itself.  The whole KKT analysis goes through verbatim with ``1 -> c``
and ``a-1 -> wbar*(a-1)``: the probable set is a prefix of the
``(2q_s + c)/mu_s`` order, ``Lambda0`` and the probabilities are
closed-form, and the Lemma 2 decomposition holds.  The vectorized solver
therefore takes the two size constants as keyword-only ``mean_size``
(``wbar``) and ``offset`` (``c``), as do :func:`priority_key`,
:func:`single_job_probabilities` and :func:`scd_objective`; the defaults
``1.0`` reproduce Eq. (10) bit for bit.  The IWL is then computed on the
estimated total *work* ``a * wbar``
(:class:`repro.policies.scd.SizedSCDPolicy`).

Intuition for the constants: a heavier mean size raises the variance
penalty of piling probability on one server (the quadratic weight
grows), and size dispersion (``E[W^2]/wbar = wbar * (1 + cv^2)``) grows
the discreteness correction ``c`` -- with very lumpy jobs even a single
placement is a big commitment, pushing the optimum toward faster servers.
"""

from __future__ import annotations

import numpy as np

from .iwl import _check_rates

__all__ = [
    "KeySnapshot",
    "scd_probabilities",
    "scd_probabilities_loop",
    "scd_probabilities_quadratic",
    "single_job_probabilities",
    "scd_objective",
    "kkt_residuals",
    "priority_key",
]

#: Tolerance used when testing candidate feasibility / clipping.  The
#: closed-form probabilities are exact up to float64 rounding; candidates
#: are rejected only when genuinely negative.
_FEAS_EPS = 1e-12


def priority_key(
    queues: np.ndarray, rates: np.ndarray, *, offset: float = 1.0
) -> np.ndarray:
    """Return the probable-set ordering key ``(2 q_s + 1) / mu_s``.

    Lemma 1: if server ``r`` is probable and ``key_u <= key_r`` then ``u``
    is probable too, hence ``S+`` is a prefix in this order.  ``offset``
    replaces the ``1`` by the size-aware discreteness correction
    ``E[W^2]/wbar`` (see the module docstring).
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    return (2.0 * queues + offset) / rates


def single_job_probabilities(
    queues: np.ndarray, rates: np.ndarray, *, offset: float = 1.0
) -> np.ndarray:
    """Optimal probabilities for ``a == 1`` (Eq. 9).

    With a single arriving job the quadratic term vanishes and any
    distribution supported on the argmin of ``(2q_s+1)/mu_s`` (the
    :func:`priority_key` with ``offset``) is optimal; we return the
    uniform distribution over that argmin set.
    """
    key = priority_key(queues, rates, offset=offset)
    winners = key <= key.min() + _FEAS_EPS
    p = np.zeros(key.size, dtype=np.float64)
    p[winners] = 1.0 / winners.sum()
    return p


def scd_objective(
    p: np.ndarray,
    queues: np.ndarray,
    rates: np.ndarray,
    arrivals: float,
    iwl: float,
    *,
    mean_size: float = 1.0,
    offset: float = 1.0,
) -> float:
    """Evaluate the objective ``f(P)`` of Eq. (10) at ``p``.

    ``mean_size`` and ``offset`` give the size-aware form (quadratic
    weight ``mean_size * (a - 1)``, linear offset ``offset``).
    """
    p = np.asarray(p, dtype=np.float64)
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    linear = (2.0 * (queues - rates * iwl) + offset) / rates
    quad = mean_size * (arrivals - 1.0)
    return float(quad * np.sum(p * p / rates) + np.sum(linear * p))


def _check_inputs(
    queues: np.ndarray, rates: np.ndarray, arrivals: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if queues.shape != rates.shape or queues.ndim != 1 or queues.size == 0:
        raise ValueError("queues and rates must be equal-shape non-empty 1-D arrays")
    _check_rates(rates)
    if (np.asarray(arrivals) < 1).any():
        raise ValueError(f"arrivals must be >= 1, got {arrivals}")
    return queues, rates


class KeySnapshot:
    """A validated snapshot in probable-set key order: the Algorithm 4 kernel.

    Built once per snapshot from float queues, rates, the
    :func:`priority_key` values with ``offset`` and their stable
    ``argsort`` (``O(n)`` given the order).  :meth:`solve` then solves
    any number of ``(a, iwl)`` pairs as one ``(k, n)`` problem.  Inputs
    are trusted: :func:`scd_probabilities` validates before building
    one, and :class:`repro.policies.scd.SCDPolicy` checks its rates once at
    bind and its queues once per round.
    """

    __slots__ = ("order", "mu", "q", "key", "mu_cum", "offset", "offsets")

    def __init__(
        self,
        queues: np.ndarray,
        rates: np.ndarray,
        key: np.ndarray,
        order: np.ndarray,
        offset: float,
    ) -> None:
        self.order = order
        self.mu = rates[order]
        self.q = queues[order]
        self.key = key[order]
        # The Lambda0 denominator of every prefix (Eq. 16).
        self.mu_cum = self.mu.cumsum()
        self.offset = offset
        self.offsets = offset * np.arange(1, key.size + 1)

    def solve(
        self, arrivals: np.ndarray, iwl: np.ndarray, mean_size: float
    ) -> np.ndarray:
        """Clipped probabilities for 1-D float arrays of ``(a, iwl)`` pairs.

        Returns a ``(k, n)`` matrix in server order; row ``i`` depends on
        ``(arrivals[i], iwl[i])`` and the snapshot only.  Rows with
        ``a == 1`` are solved with a stand-in ``a = 2`` (the general
        formula divides by ``a - 1``), then replaced by Eq. (9).
        """
        single = arrivals == 1
        # One row per pair: a and iwl become columns, the servers run
        # along the rows in key order.
        a = np.where(single, 2.0, arrivals)[:, None]
        iwl = iwl[:, None]
        quad = mean_size * (a - 1.0)  # the quadratic weight (a - 1 for unit jobs)
        two_quad = 2.0 * quad
        gain = self.mu * iwl - self.q  # mu_s*iwl - q_s per server
        lam0 = (2.0 * gain.cumsum(axis=1) - self.offsets - two_quad) / self.mu_cum

        feasible = 2.0 * iwl - self.key >= lam0 - _FEAS_EPS

        four_quad = 4.0 * quad
        numer = -2.0 * gain + self.offset  # == 2(q_s - mu_s*iwl) + offset
        v1 = self.mu_cum / four_quad
        v2 = (numer * numer / self.mu).cumsum(axis=1) / four_quad
        val = v1 * lam0 * lam0 - v2
        val[~feasible] = np.inf
        best = val.argmin(axis=1)
        lam0_best = lam0[np.arange(best.size), best][:, None]

        # Eq. (14) in key order: 2(mu_s*iwl - q_s) - offset is exactly
        # -numer, because IEEE rounding is symmetric in sign.
        p_key = (-numer - self.mu * lam0_best) / two_quad
        np.maximum(p_key, 0.0, out=p_key)
        if single.any():
            # Eq. (9): uniform over the argmin of the key, which the
            # sorted key holds first.
            winners = self.key <= self.key[0] + _FEAS_EPS
            p_key[single] = winners / winners.sum()
        p = np.empty_like(p_key)
        p[:, self.order] = p_key
        return p


def scd_probabilities_quadratic(
    queues: np.ndarray,
    rates: np.ndarray,
    arrivals: float,
    iwl: float,
) -> np.ndarray:
    """Algorithm 1: probable-set prefix scan with per-prefix recomputation.

    Kept as a faithful ``O(n^2)`` reference; used in the run-time figures
    (Figures 5 and 8) as the slow comparator.

    Parameters
    ----------
    queues, rates:
        Server state.
    arrivals:
        The (estimated) total number ``a`` of jobs arriving this round;
        must be ``>= 1``.  ``a == 1`` falls back to Eq. (9).
    iwl:
        The ideal workload for ``(queues, rates, arrivals)``, from
        :func:`repro.core.iwl.compute_iwl`.
    """
    queues, rates = _check_inputs(queues, rates, arrivals)
    if arrivals == 1:
        return single_job_probabilities(queues, rates)

    n = queues.size
    key = priority_key(queues, rates)
    order = np.argsort(key, kind="stable")

    best_val = np.inf
    best_p: np.ndarray | None = None
    a = float(arrivals)
    for j in range(1, n + 1):
        members = order[:j]
        mu_o = rates[members]
        q_o = queues[members]
        lam0_num = 2.0 * np.sum(mu_o * iwl - q_o) - j - 2.0 * (a - 1.0)
        lam0 = lam0_num / np.sum(mu_o)  # Eq. (16)
        p_members = (-2.0 * (q_o - mu_o * iwl) - 1.0 - mu_o * lam0) / (
            2.0 * (a - 1.0)
        )  # Eq. (14)
        if np.any(p_members < -_FEAS_EPS):
            continue  # infeasible candidate; try the next prefix
        p_members = np.maximum(p_members, 0.0)
        linear = (2.0 * (q_o - mu_o * iwl) + 1.0) / mu_o
        val = (a - 1.0) * np.sum(p_members**2 / mu_o) + np.sum(linear * p_members)
        if val < best_val:
            best_val = val
            best_p = np.zeros(n, dtype=np.float64)
            best_p[members] = p_members
    if best_p is None:  # unreachable: the full set is always feasible
        raise RuntimeError("no feasible probable-set prefix found")
    return best_p


def scd_probabilities_loop(
    queues: np.ndarray,
    rates: np.ndarray,
    arrivals: float,
    iwl: float,
    *,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """Algorithm 4: optimal-complexity probable-set search (faithful loop).

    Maintains running sums for the Lambda0 numerator/denominator and for
    the Lemma 2 objective terms ``v1`` and ``v2``, so each prefix is
    evaluated in ``O(1)``; total cost is the sort (``O(n log n)``), or
    ``O(n)`` when ``order`` is supplied.
    """
    queues, rates = _check_inputs(queues, rates, arrivals)
    if arrivals == 1:
        return single_job_probabilities(queues, rates)

    key = priority_key(queues, rates)
    if order is None:
        order = np.argsort(key, kind="stable")
    a = float(arrivals)

    lam0_num = -2.0 * (a - 1.0)
    lam0_den = 0.0
    v1 = 0.0
    v2 = 0.0
    best_val = np.inf
    best_lam0 = np.nan
    four_a1 = 4.0 * (a - 1.0)
    for r in order:
        mu_r = rates[r]
        q_r = queues[r]
        lam0_num += 2.0 * (mu_r * iwl - q_r) - 1.0
        lam0_den += mu_r
        lam0 = lam0_num / lam0_den  # Eq. (16), incrementally
        numer_r = 2.0 * (q_r - mu_r * iwl) + 1.0
        v1 += mu_r / four_a1
        v2 += numer_r * numer_r / (four_a1 * mu_r)
        # Feasibility (corrected Eq. 17): the last-added server has the
        # largest key in the prefix, so checking it covers the whole set.
        if 2.0 * iwl - key[r] < lam0 - _FEAS_EPS:
            continue
        val = v1 * lam0 * lam0 - v2  # Lemma 2
        if val < best_val:
            best_val = val
            best_lam0 = lam0
    if not np.isfinite(best_lam0):  # unreachable: full prefix is feasible
        raise RuntimeError("no feasible probable-set prefix found")
    p = (-2.0 * (queues - rates * iwl) - 1.0 - rates * best_lam0) / (2.0 * (a - 1.0))
    np.maximum(p, 0.0, out=p)
    return p


def scd_probabilities(
    queues: np.ndarray,
    rates: np.ndarray,
    arrivals: float | np.ndarray,
    iwl: float | np.ndarray,
    *,
    order: np.ndarray | None = None,
    mean_size: float = 1.0,
    offset: float = 1.0,
) -> np.ndarray:
    """Vectorized Algorithm 4 (the simulator's hot path).

    Computes every prefix's Lambda0, feasibility flag and Lemma 2 objective
    with cumulative sums, then selects the minimizing feasible prefix.
    Output is identical to :func:`scd_probabilities_loop`.

    Parameters
    ----------
    queues, rates:
        As in :func:`scd_probabilities_quadratic`.
    arrivals, iwl:
        Scalars as in :func:`scd_probabilities_quadratic`, or two
        equal-length 1-D arrays of ``(a, iwl)`` pairs.  Arrays are solved
        together against the same snapshot and give a ``(k, n)`` matrix
        whose row ``i`` is bit-identical to the scalar call with
        ``(arrivals[i], iwl[i])``.
    order:
        Optional precomputed ``argsort`` of :func:`priority_key` with the
        same ``offset`` (shared across dispatchers within a round by
        Algorithm 2).
    mean_size, offset:
        The job-size constants ``wbar`` and ``c = E[W^2]/wbar`` of the
        size-aware problem (module docstring): the quadratic weight is
        ``mean_size * (a - 1)`` and ``offset`` replaces the ``1`` of the
        linear term.  The defaults give Eq. (10) exactly.
    """
    queues, rates = _check_inputs(queues, rates, arrivals)
    if not (mean_size > 0 and offset > 0):
        raise ValueError(
            f"mean_size and offset must be positive, got {mean_size}, {offset}"
        )
    key = priority_key(queues, rates, offset=offset)
    if order is None:
        order = np.argsort(key, kind="stable")
    rows = KeySnapshot(queues, rates, key, order, offset).solve(
        np.atleast_1d(np.asarray(arrivals, dtype=np.float64)),
        np.atleast_1d(np.asarray(iwl, dtype=np.float64)),
        mean_size,
    )
    return rows if np.ndim(arrivals) > 0 else rows[0]


def kkt_residuals(
    p: np.ndarray,
    queues: np.ndarray,
    rates: np.ndarray,
    arrivals: float,
    iwl: float,
) -> dict[str, float]:
    """Measure how far ``p`` is from satisfying the KKT system (Eq. 12).

    Returns a dict of residual magnitudes; an optimal solution has all of
    them ~0 (used by the test suite to certify optimality independently of
    which algorithm produced ``p``).

    Keys
    ----
    ``primal_sum``      : ``|sum(p) - 1|``.
    ``primal_nonneg``   : magnitude of the most negative probability.
    ``dual_feasibility``: most negative implied multiplier ``Lambda_s``.
    ``stationarity``    : max deviation of the gradient condition on the
                          support of ``p`` from a common ``-Lambda0``.
    """
    p = np.asarray(p, dtype=np.float64)
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    a = float(arrivals)

    grad = 2.0 * (a - 1.0) * p / rates + (2.0 * (queues - rates * iwl) + 1.0) / rates
    support = p > 1e-9
    if support.any():
        # On the support Lambda_s = 0, so grad_s = -Lambda0 for all s in S+.
        lam0 = -grad[support].mean()
        stationarity = float(np.max(np.abs(grad[support] + lam0)))
        # Off support, Lambda_s = grad_s + Lambda0 must be >= 0.
        off = ~support
        dual = float(np.minimum((grad[off] + lam0), 0.0).min()) if off.any() else 0.0
    else:
        stationarity = np.inf
        dual = -np.inf
    return {
        "primal_sum": float(abs(p.sum() - 1.0)),
        "primal_nonneg": float(max(0.0, -p.min())),
        "dual_feasibility": float(max(0.0, -dual)),
        "stationarity": stationarity,
    }
