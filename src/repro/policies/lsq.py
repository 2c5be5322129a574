"""Local-Shortest-Queue (LSQ) and its heterogeneity-aware variant hLSQ.

LSQ-style policies [Vargaftik et al., ToN 2020] give each dispatcher a
*local array* of queue-length estimates and dispatch greedily against that
array rather than against the true state.  The local arrays are updated by

* **self-increments** -- a dispatcher adds its own assignments to its
  estimates (it knows what it sent), and
* **random sampling** -- the dispatcher queries random servers for their
  true queue length and overwrites those entries.

Because each dispatcher samples different servers, the dispatchers' views
decorrelate, which is what suppresses (though does not eliminate) herding.
The hLSQ variant ranks by local expected delay ``q_est/mu`` and samples
servers proportionally to their rates (paper footnote 6).

LSQ's native model processes one job per time slot and samples one server
per job; a round here batches ``a_d`` jobs, so the faithful adaptation
samples ``ceil(samples_per_job * a_d)`` servers per dispatcher per round
(default one sample per job, the classic LSQ budget).

The sampled refreshes are vectorized across dispatchers: one RNG draw
per round covers every dispatcher's budget (numpy fills draws element by
element, so the realization -- and the stream position -- is exactly the
per-dispatcher loop's), and one fancy assignment applies all refreshes.
Together with the native :meth:`LSQPolicy.dispatch_round` this is the
batch-protocol path on the fast kernels, bit-identical to the
per-dispatcher fallback it replaces.  LED (:mod:`repro.policies.led`)
is this class plus one drain step at the end of each round.
"""

from __future__ import annotations

import numpy as np

from .base import Policy, register_policy, sample_servers
from .greedy import greedy_batch_assign, greedy_rows_for_batches

__all__ = ["LSQPolicy"]


class LSQPolicy(Policy):
    """LSQ / hLSQ with per-dispatcher local estimate arrays."""

    def __init__(
        self,
        heterogeneity_aware: bool = False,
        samples_per_job: float = 1.0,
    ) -> None:
        super().__init__()
        if samples_per_job <= 0:
            raise ValueError("samples_per_job must be positive")
        self.heterogeneity_aware = bool(heterogeneity_aware)
        self.samples_per_job = float(samples_per_job)
        self.name = "hlsq" if heterogeneity_aware else "lsq"

    def _on_bind(self) -> None:
        m = self.ctx.num_dispatchers
        n = self.ctx.num_servers
        # Optimistic zero initialization, as in the LSQ paper; the sampled
        # refreshes correct the estimates within a few rounds.
        self._local = np.zeros((m, n), dtype=np.float64)
        self._batch_sizes = np.zeros(m, dtype=np.int64)
        if self.heterogeneity_aware:
            weights = self.rates / self.rates.sum()
            self._sampling_cdf: np.ndarray | None = np.cumsum(weights)
            self._rank_rates = self.rates
        else:
            self._sampling_cdf = None
            self._rank_rates = np.ones(n, dtype=np.float64)

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._batch_sizes[:] = 0

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        estimates = self._local[dispatcher]
        counts = greedy_batch_assign(estimates, self._rank_rates, num_jobs)
        estimates += counts
        self._batch_sizes[dispatcher] = num_jobs
        return counts

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """Native batch protocol, bit-identical to the fallback.

        Each dispatcher ranks against its *own* local estimate array, and
        only its own row changes, so one greedy call over the active
        dispatchers' arrays (one sort for all of them) gives every row the
        per-dispatcher :meth:`dispatch` would.  The rows update the local
        arrays and their sum is returned; this pairs with the vectorized
        :meth:`end_round` refresh.
        """
        batch = np.asarray(batch, dtype=np.int64)
        active = np.flatnonzero(batch)
        if active.size == 0:
            return np.zeros(self.ctx.num_servers, dtype=np.int64)
        rows = greedy_rows_for_batches(
            self._local[active], self._rank_rates, batch[active]
        )
        self._local[active] += rows
        self._batch_sizes[active] = batch[active]
        return rows.sum(axis=0)

    def end_round(self, round_index: int, queues: np.ndarray) -> None:
        # One draw covers every active dispatcher's sampling budget.
        # numpy fills random output element by element, so the single
        # draw realizes exactly the per-dispatcher draws it replaces
        # (bit-identical stream consumption, dispatcher order).
        active = np.flatnonzero(self._batch_sizes)
        if active.size == 0:
            return
        budgets = np.maximum(
            1,
            np.ceil(self.samples_per_job * self._batch_sizes[active]).astype(
                np.int64
            ),
        )
        sampled = sample_servers(
            self.rng, self.ctx.num_servers, self._sampling_cdf, int(budgets.sum())
        )
        rows = np.repeat(active, budgets)
        # Duplicate (dispatcher, server) pairs all write queues[server]:
        # order inside the fancy assignment cannot matter.
        self._local[rows, sampled] = queues[sampled]


@register_policy("lsq")
def _make_lsq(samples_per_job: float = 1.0) -> LSQPolicy:
    return LSQPolicy(heterogeneity_aware=False, samples_per_job=samples_per_job)


@register_policy("hlsq")
def _make_hlsq(samples_per_job: float = 1.0) -> LSQPolicy:
    return LSQPolicy(heterogeneity_aware=True, samples_per_job=samples_per_job)
