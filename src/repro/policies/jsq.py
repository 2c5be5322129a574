"""Join-the-Shortest-Queue (JSQ) and Shortest-Expected-Delay (SED).

Both are deterministic greedy policies operating on the full queue-length
information.  JSQ sends each job to the server with the fewest queued jobs;
SED normalizes by processing speed and sends each job to the server with
the smallest expected wait ``(q_s + x_s + 1) / mu_s`` (its
heterogeneity-aware counterpart; the two coincide when all rates are
equal).

Under multiple dispatchers these policies *herd*: every dispatcher sees the
same snapshot and floods the same short queues -- the failure mode SCD is
designed to avoid.  They remain the strongest centralized baselines and are
what production L7 balancers ship today, hence their place in every figure.
"""

from __future__ import annotations

import numpy as np

from .base import Policy, register_policy
from .greedy import GreedySnapshot

__all__ = ["JSQPolicy", "SEDPolicy"]


@register_policy("jsq")
class JSQPolicy(Policy):
    """Join-the-shortest-queue, batch form.

    A dispatcher assigns its batch one job at a time, each to the currently
    shortest queue *in its own local view* (snapshot plus its own
    assignments this round), ties to the lowest server index.  The batch
    computation is the exact sequential greedy.  :meth:`begin_round`
    builds the round's :class:`~repro.policies.greedy.GreedySnapshot`
    once; :meth:`dispatch` answers one batch and :meth:`dispatch_round`
    the whole round's totals from it, with one water fill and one sort
    (see :mod:`repro.policies.greedy`).
    """

    name = "jsq"

    def _rank_rates(self) -> np.ndarray:
        """The rates the greedy ranks on: all ones, so loads are queues."""
        return np.ones(self.ctx.num_servers, dtype=np.float64)

    def _on_bind(self) -> None:
        # Fixed for the whole run and already checked finite and positive
        # by the SystemContext.
        self._rates = self._rank_rates()
        self._step = 1.0 / self._rates.min()
        self._snapshot: GreedySnapshot | None = None

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        """Build the round's trusted snapshot; queues are checked here once."""
        queues = np.asarray(queues, dtype=np.float64)
        if (queues < 0).any():
            raise ValueError("queue lengths must be non-negative")
        self._snapshot = GreedySnapshot(queues, self._rates, self._step)

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        if num_jobs <= 0:
            return np.zeros(self.ctx.num_servers, dtype=np.int64)
        return self._snapshot.assign(np.array([num_jobs], dtype=np.int64))

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        sizes = batch[batch > 0]
        if sizes.size == 0:
            return np.zeros(self.ctx.num_servers, dtype=np.int64)
        return self._snapshot.assign(sizes.astype(np.int64, copy=False))


@register_policy("sed")
class SEDPolicy(JSQPolicy):
    """Shortest-expected-delay: greedy on the normalized loads ``q_s/mu_s``."""

    name = "sed"

    def _rank_rates(self) -> np.ndarray:
        return self.ctx.rates
