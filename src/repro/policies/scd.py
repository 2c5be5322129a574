"""Stochastically Coordinated Dispatching (SCD) -- the paper's Algorithm 2.

Per round, a dispatcher that received ``a_d`` jobs:

1. estimates the round's total arrivals (Eq. 18: ``a_est = m * a_d``),
2. computes the ideal workload for ``a_est`` (Algorithm 3),
3. computes the optimal probability vector ``P`` (Algorithm 4),
4. draws each job's destination i.i.d. from ``P``.

Step 4 over a whole batch is a multinomial draw.  Steps 2-3 depend only on
the shared snapshot and on ``a_est``, so :meth:`SCDPolicy.begin_round`
builds one validated round snapshot: it converts the queues to float
and checks them non-negative once, computes ``q/mu``, the
``(2q+offset)/mu`` key, both stable orders and the solvers' prefix sums
(:class:`~repro.core.iwl.LoadSnapshot`,
:class:`~repro.core.probabilities.KeySnapshot`).  Rates are fixed at
bind and checked there.  The batch protocol,
:meth:`SCDPolicy.dispatch_round`, then makes one IWL solve and one
probability solve on the snapshot with one row per active dispatcher,
and step 4 over the whole round is one multinomial draw over those rows
-- bit-identical, rows and RNG stream, to the per-dispatcher loop.  The
per-dispatcher :meth:`SCDPolicy.dispatch` solves its one row on the
same snapshot with the same kernels, which the public
:func:`~repro.core.iwl.compute_iwl` and
:func:`~repro.core.probabilities.scd_probabilities` also call after
validating their inputs.

The *from-scratch* single-dispatcher computation (sorts included) used by
the run-time figures is :func:`repro.core.scd.scd_decision`.
:class:`SCDPolicy` supports an optional per-dispatcher connectivity
mask -- the paper's Section 7 open problem (2) -- restricting each
dispatcher to the servers it can reach.

Every stochastic-coordination policy is an :class:`SCDPolicy`: the
policy solves with three knobs, the rate vector (``_rates``) and the
two job-size constants of :func:`~repro.core.probabilities.scd_probabilities`
(``mean_size``, ``offset``).  Subclasses only set them:

* :class:`repro.policies.twf.TWFPolicy` (``"twf"``) solves on unit rates --
  the homogeneous policy of Goren et al. [22];
* :class:`SizedSCDPolicy` (``"scd-sized"``) solves over work units with
  the job-size moments folded in -- the paper's Section 7 open problem
  (1), derived in :mod:`repro.core.probabilities`.

All of them therefore share the round snapshot, the one-solve-per-round
:meth:`SCDPolicy.dispatch_round` and its RNG contract.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimation import ArrivalEstimator, make_estimator
from repro.core.iwl import LoadSnapshot, compute_iwl
from repro.core.probabilities import KeySnapshot, scd_probabilities

from .base import Policy, register_policy

__all__ = ["SCDPolicy", "SizedSCDPolicy"]


@register_policy("scd")
class SCDPolicy(Policy):
    """The SCD dispatching policy (Algorithm 2).

    Parameters
    ----------
    estimator:
        Total-arrival estimator; the paper's ``"scaled"`` (Eq. 18) by
        default.  See :mod:`repro.core.estimation`.
    connectivity:
        Optional ``(m, n)`` boolean array; ``connectivity[d, s]`` is True
        when dispatcher ``d`` can reach server ``s``.  ``None`` (default)
        means full connectivity.  With a mask, each dispatcher solves the
        optimization restricted to its reachable servers (the Section 7
        extension); views differ, so masked dispatchers solve on their
        own views instead of the shared round snapshot.

    Subclasses change what the solves see, not how they run: the rate
    vector ``_rates`` (bound to ``ctx.rates``), and the job-size
    constants :attr:`mean_size` and :attr:`offset` (the IWL is solved
    for the estimated work ``a_est * mean_size``).  Every solve runs the
    vectorized Algorithm 4 (:func:`~repro.core.probabilities.scd_probabilities`);
    the slower solvers of :data:`~repro.core.scd.PROBABILITY_ALGORITHMS` serve only
    :func:`~repro.core.scd.scd_decision`, the run-time figures' unit of work.
    """

    name = "scd"
    #: Mean job size ``wbar`` the solves assume (1 for unit jobs).
    mean_size: float = 1.0
    #: Discreteness correction ``E[W^2]/wbar`` (1 for unit jobs).
    offset: float = 1.0

    def __init__(
        self,
        estimator: ArrivalEstimator | str | float = "scaled",
        connectivity: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.estimator = make_estimator(estimator)
        self.connectivity = (
            None if connectivity is None else np.asarray(connectivity, dtype=bool)
        )

    def __setstate__(self, state: dict) -> None:
        # Older checkpoints carry the solver the run chose.  The other
        # solvers agree with the vectorized one only to rounding, so a run
        # that chose one of them cannot resume bit-identically: refuse it.
        algorithm = state.pop("algorithm", "vectorized")
        if algorithm != "vectorized":
            raise ValueError(
                f"cannot restore an SCD policy that solved with the removed "
                f"{algorithm!r} algorithm; only the vectorized solver remains"
            )
        self.__dict__.update(state)

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
        # Fixed for the whole run and already checked finite and positive
        # by the SystemContext (TWF's unit rates need no check).
        self._rates = self.ctx.rates
        self._queues: np.ndarray | None = None
        self._loads: LoadSnapshot | None = None
        self._keys: KeySnapshot | None = None

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        """Build the round's validated snapshot (Algorithm 2 lines 2-4).

        The queues are converted to float and checked non-negative once;
        ``q/mu``, the ``(2q + offset)/mu`` key, both stable orders and the
        solvers' prefix sums follow, so every solve of the round runs on
        trusted arrays.  A connectivity mask gives each dispatcher its own
        view, so masked rounds keep only the float queues.
        """
        queues = np.asarray(queues, dtype=np.float64)
        if (queues < 0).any():
            raise ValueError("queue lengths must be non-negative")
        self._queues = queues
        if self.connectivity is None:
            rates = self._rates
            loads = queues / rates
            key = (2.0 * queues + self.offset) / rates
            self._loads = LoadSnapshot(queues, rates, loads, loads.argsort(kind="stable"))
            self._keys = KeySnapshot(
                queues, rates, key, key.argsort(kind="stable"), self.offset
            )

    def observe_total_arrivals(self, total: int) -> None:
        self.estimator.observe_total(total)

    def _probabilities(self, a_est: np.ndarray) -> np.ndarray:
        """Normalized rows on the round snapshot, one per estimate.

        One IWL solve and one probability solve for the whole 1-D float
        array ``a_est``; row ``i`` depends only on ``a_est[i]`` and the
        snapshot, so any grouping of estimates gives the same rows.
        """
        iwl = self._loads.levels(a_est * self.mean_size)
        probs = self._keys.solve(a_est, iwl, self.mean_size)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    def _masked_probabilities(self, dispatcher: int, a_est: float) -> np.ndarray:
        mask = self.connectivity[dispatcher]
        queues = self._queues[mask]
        rates = self._rates[mask]
        iwl = compute_iwl(queues, rates, a_est * self.mean_size)
        sub = scd_probabilities(
            queues, rates, a_est, iwl, mean_size=self.mean_size, offset=self.offset
        )
        probs = np.zeros(self.ctx.num_servers, dtype=np.float64)
        probs[mask] = sub / sub.sum()
        return probs

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        a_est = self.estimator.estimate(int(num_jobs), self.ctx.num_dispatchers)
        if self.connectivity is None:
            probs = self._probabilities(np.array([a_est], dtype=np.float64))[0]
        else:
            probs = self._masked_probabilities(dispatcher, a_est)
        return self.rng.multinomial(int(num_jobs), probs).astype(np.int64)

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """The whole round in one IWL solve, one probability solve and one draw.

        The solves run on :meth:`begin_round`'s snapshot with one row per
        active dispatcher.  Estimates are taken in dispatcher order over
        the non-empty batches, exactly as the per-dispatcher loop takes
        them (stateful estimators such as EWMA see the same call
        sequence).  A broadcast multinomial over per-dispatcher rows
        consumes the stream like sequential per-row draws, so the summed
        rows and the RNG state after the draw equal
        :meth:`Policy.dispatch_round`'s.
        A connectivity mask takes that base loop instead.
        """
        if self.connectivity is not None:
            return super().dispatch_round(batch, queues)
        jobs = np.asarray(batch, dtype=np.int64)
        jobs = jobs[jobs > 0]
        if jobs.size == 0:
            return np.zeros(self.ctx.num_servers, dtype=np.int64)
        a_est = self.estimator.estimate_many(jobs, self.ctx.num_dispatchers)
        return self.rng.multinomial(jobs, self._probabilities(a_est)).sum(axis=0)


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
