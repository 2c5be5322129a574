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

All three return identical vectors (property-tested), and agree with the
exact brute-force / SLSQP reference solvers in
:mod:`repro.core.qp_reference`.

Note on Eq. (17): the paper's displayed inequality drops a factor of two;
the correct feasibility test, used by Algorithm 4 line 12 and implemented
here, is ``2*iwl - (2q_r+1)/mu_r >= Lambda0``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
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


def priority_key(queues: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Return the probable-set ordering key ``(2 q_s + 1) / mu_s``.

    Lemma 1: if server ``r`` is probable and ``key_u <= key_r`` then ``u``
    is probable too, hence ``S+`` is a prefix in this order.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    return (2.0 * queues + 1.0) / rates


def single_job_probabilities(queues: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Optimal probabilities for ``a == 1`` (Eq. 9).

    With a single arriving job the quadratic term vanishes and any
    distribution supported on the argmin of ``(2q_s+1)/mu_s`` is optimal;
    we return the uniform distribution over that argmin set.
    """
    key = priority_key(queues, rates)
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
) -> float:
    """Evaluate the objective ``f(P)`` of Eq. (10) at ``p``."""
    p = np.asarray(p, dtype=np.float64)
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    linear = (2.0 * (queues - rates * iwl) + 1.0) / rates
    return float((arrivals - 1.0) * np.sum(p * p / rates) + np.sum(linear * p))


def _check_inputs(
    queues: np.ndarray, rates: np.ndarray, arrivals: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if queues.shape != rates.shape or queues.ndim != 1 or queues.size == 0:
        raise ValueError("queues and rates must be equal-shape non-empty 1-D arrays")
    if (rates <= 0).any():
        raise ValueError("all service rates must be strictly positive")
    if (np.asarray(arrivals) < 1).any():
        raise ValueError(f"arrivals must be >= 1, got {arrivals}")
    return queues, rates


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
        Optional precomputed ``argsort`` of ``(2q_s+1)/mu_s`` (shared
        across dispatchers within a round by Algorithm 2).
    """
    queues, rates = _check_inputs(queues, rates, arrivals)
    many = np.ndim(arrivals) > 0
    if many:
        # One row per pair: a and iwl become columns, the servers run along
        # the rows.  Rows with a == 1 are solved with a stand-in a = 2 (the
        # general formula divides by a - 1), then replaced by Eq. (9).
        single = np.asarray(arrivals) == 1
        a = np.where(single, 2.0, arrivals)[:, None]
        iwl = np.asarray(iwl, dtype=np.float64).reshape(-1, 1)
    elif arrivals == 1:
        return single_job_probabilities(queues, rates)
    else:
        a = float(arrivals)

    key = priority_key(queues, rates)
    if order is None:
        order = np.argsort(key, kind="stable")

    mu_o = rates[order]
    q_o = queues[order]
    key_o = key[order]

    two_a1 = 2.0 * (a - 1.0)
    gain = mu_o * iwl - q_o  # mu_s*iwl - q_s per server, in key order
    lam0_num = 2.0 * np.cumsum(gain, axis=-1) - np.arange(1, key_o.size + 1) - two_a1
    lam0_den = np.cumsum(mu_o)
    lam0 = lam0_num / lam0_den

    feasible = 2.0 * iwl - key_o >= lam0 - _FEAS_EPS

    four_a1 = 4.0 * (a - 1.0)
    numer = -2.0 * gain + 1.0  # == 2(q_s - mu_s*iwl) + 1
    v1 = lam0_den / four_a1
    v2 = np.cumsum(numer * numer / mu_o, axis=-1) / four_a1
    val = v1 * lam0 * lam0 - v2
    val[~feasible] = np.inf
    best = np.argmin(val, axis=-1)
    if many:
        lam0_best = lam0[np.arange(best.size), best][:, None]
    else:
        lam0_best = lam0[best]

    p = (2.0 * (rates * iwl - queues) - 1.0 - rates * lam0_best) / two_a1
    np.maximum(p, 0.0, out=p)
    if many and single.any():
        p[single] = single_job_probabilities(queues, rates)
    return p


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
