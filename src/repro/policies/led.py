"""Local Estimation Driven dispatching (LED) and its h-variant.

LED [Zhou, Shroff & Wierman, Perf. Eval. 2021] is the other
local-view state-of-the-art the paper discusses alongside LSQ
(Section 1.1).  Like LSQ, each dispatcher keeps a local array and
occasionally queries random servers for their true queue lengths.  Unlike
LSQ -- whose entries only move on samples and self-increments -- LED
*drives the estimates between samples*: each round the dispatcher also
applies the known service model, draining every estimate by the server's
expected completions.  The estimates therefore track the real queues far
more closely between refreshes, at zero extra communication.

Both papers' analyses only require the estimates to be refreshed
infrequently; the sampling budget here follows the same one-query-per-job
convention as our LSQ implementation so the two are directly comparable.

The heterogeneity-aware variant (``hled``) ranks by estimated expected
delay and samples rate-proportionally, mirroring the paper's footnote 6
adaptations of the other baselines.

The batch-protocol path mirrors :mod:`repro.policies.lsq`: one greedy
call ranks every dispatcher against its own local array (one row each),
while :meth:`LEDPolicy.end_round` fuses every dispatcher's sampling budget
into one RNG draw and one fancy assignment.
numpy fills random output element by element, so the fused draw realizes
exactly the per-dispatcher draws it replaces -- bit-identical stream
consumption on every engine backend.
"""

from __future__ import annotations

import numpy as np

from .base import Policy, register_policy
from .greedy import greedy_batch_assign, greedy_rows_for_batches

__all__ = ["LEDPolicy"]


class LEDPolicy(Policy):
    """LED / hLED with drift-corrected per-dispatcher estimates."""

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
        self.name = "hled" if heterogeneity_aware else "led"

    def _on_bind(self) -> None:
        m = self.ctx.num_dispatchers
        n = self.ctx.num_servers
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

        As in LSQ, each dispatcher ranks against its *own* drift-corrected
        estimate array and only its own row changes, so one greedy call
        over the active dispatchers' arrays gives every row the
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

    def _sample_servers(self, count: int) -> np.ndarray:
        n = self.ctx.num_servers
        if self._sampling_cdf is None:
            return self.rng.integers(0, n, size=count)
        return np.searchsorted(self._sampling_cdf, self.rng.random(count))

    def end_round(self, round_index: int, queues: np.ndarray) -> None:
        # The LED step: drive every estimate with the known service model
        # (each server drains ~mu jobs per round), floored at zero.
        np.maximum(self._local - self.rates, 0.0, out=self._local)
        # Then refresh sampled entries with ground truth, as in LSQ: one
        # draw covers every active dispatcher's budget (numpy fills
        # random output element by element, so the realization -- and
        # the stream position -- matches the per-dispatcher loop this
        # replaces), and one fancy assignment applies all refreshes.
        active = np.flatnonzero(self._batch_sizes)
        if active.size == 0:
            return
        budgets = np.maximum(
            1,
            np.ceil(self.samples_per_job * self._batch_sizes[active]).astype(
                np.int64
            ),
        )
        sampled = self._sample_servers(int(budgets.sum()))
        rows = np.repeat(active, budgets)
        # Duplicate (dispatcher, server) pairs all write queues[server]:
        # order inside the fancy assignment cannot matter.
        self._local[rows, sampled] = queues[sampled]


@register_policy("led")
def _make_led(samples_per_job: float = 1.0) -> LEDPolicy:
    return LEDPolicy(heterogeneity_aware=False, samples_per_job=samples_per_job)


@register_policy("hled")
def _make_hled(samples_per_job: float = 1.0) -> LEDPolicy:
    return LEDPolicy(heterogeneity_aware=True, samples_per_job=samples_per_job)
