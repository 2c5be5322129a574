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
from .greedy import greedy_batch_assign, greedy_rows_for_batches

__all__ = ["JSQPolicy", "SEDPolicy"]


@register_policy("jsq")
class JSQPolicy(Policy):
    """Join-the-shortest-queue, batch form.

    A dispatcher assigns its batch one job at a time, each to the currently
    shortest queue *in its own local view* (snapshot plus its own
    assignments this round), ties to the lowest server index.  The batch
    computation is the exact sequential greedy; one stable sort per round
    gives every dispatcher's row (see :mod:`repro.policies.greedy`).
    """

    name = "jsq"

    def _on_bind(self) -> None:
        self._ones = np.ones(self.ctx.num_servers, dtype=np.float64)
        self._queues: np.ndarray | None = None

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._queues = queues

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        return greedy_batch_assign(self._queues, self._ones, num_jobs)

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        return greedy_rows_for_batches(queues, self._ones, batch)


@register_policy("sed")
class SEDPolicy(Policy):
    """Shortest-expected-delay: greedy on the normalized loads ``q_s/mu_s``."""

    name = "sed"

    def _on_bind(self) -> None:
        self._queues: np.ndarray | None = None

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._queues = queues

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        return greedy_batch_assign(self._queues, self.rates, num_jobs)

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        return greedy_rows_for_batches(queues, self.rates, batch)
