"""Power-of-d-choices policies: JSQ(d) and hJSQ(d).

For each arriving job the dispatcher samples ``d`` servers and sends the
job to the best of the sample.  The classic JSQ(d) samples uniformly and
ranks by queue length; the heterogeneity-aware hJSQ(d) of the paper's
footnote 6 samples server ``s`` with probability ``mu_s / sum(mu)`` and
ranks by expected delay ``q_s / mu_s``.

Sampling is per *job* (that is the mechanism that breaks dispatcher
symmetry), and a dispatcher tracks its own within-round assignments, so two
of its jobs landing on the same sampled server see the incremented queue.
"""

from __future__ import annotations

import numpy as np

from .base import Policy, register_policy, sample_servers

__all__ = ["PowerOfDPolicy"]


class PowerOfDPolicy(Policy):
    """JSQ(d) / hJSQ(d), parameterized by sample size and awareness.

    Parameters
    ----------
    d:
        Number of servers sampled per job (``d >= 1``); ``d = 2`` is the
        paper's configuration.
    heterogeneity_aware:
        ``False`` for JSQ(d) (uniform sampling, rank by ``q``); ``True``
        for hJSQ(d) (rate-proportional sampling, rank by ``q/mu``).
    """

    def __init__(self, d: int = 2, heterogeneity_aware: bool = False) -> None:
        super().__init__()
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = int(d)
        self.heterogeneity_aware = bool(heterogeneity_aware)
        self.name = f"hjsq({d})" if heterogeneity_aware else f"jsq({d})"

    def _on_bind(self) -> None:
        n = self.ctx.num_servers
        if self.heterogeneity_aware:
            weights = self.rates / self.rates.sum()
            self._sampling_cdf: np.ndarray | None = np.cumsum(weights)
            self._inv_rates = (1.0 / self.rates).tolist()
        else:
            self._sampling_cdf = None
            self._inv_rates = [1.0] * n
        self._queues: np.ndarray | None = None

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._queues = queues

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        n = self.ctx.num_servers
        counts = np.zeros(n, dtype=np.int64)
        if num_jobs <= 0:
            return counts
        samples = sample_servers(
            self.rng, n, self._sampling_cdf, (int(num_jobs), self.d)
        ).tolist()
        # Local view: snapshot ranks plus this dispatcher's own assignments.
        rank = (self._queues.astype(np.float64) * np.asarray(self._inv_rates)).tolist()
        self._assign(samples, rank, counts)
        return counts

    def _assign(self, samples: list, rank: list, counts: np.ndarray) -> None:
        """Sequentially place one job per candidate tuple, best-of-sample."""
        inv_rates = self._inv_rates
        for candidates in samples:
            best = candidates[0]
            best_rank = rank[best]
            for s in candidates[1:]:
                r = rank[s]
                if r < best_rank:
                    best = s
                    best_rank = r
            counts[best] += 1
            rank[best] = best_rank + inv_rates[best]

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """Native batch path: one candidate draw for the whole round.

        All dispatchers' per-job samples are drawn in a single RNG call
        and the shared snapshot ranks are materialized once; the
        sequential best-of-sample selection (with each dispatcher's own
        within-round increments) is unchanged, so the assignment law is
        identical while the per-dispatcher numpy overhead disappears.
        One pooled draw consumes the RNG stream exactly like ``m``
        sequential per-dispatcher draws, so this is bit-identical to the
        reference loop.  Each dispatcher ranks on its own copy of the
        snapshot ranks, but every placement lands in one shared totals
        vector: the counts are never read back.
        """
        batch = np.asarray(batch, dtype=np.int64)
        totals = np.zeros(self.ctx.num_servers, dtype=np.int64)
        total = int(batch.sum())
        if total == 0:
            return totals
        samples = sample_servers(
            self.rng, self.ctx.num_servers, self._sampling_cdf, (total, self.d)
        ).tolist()
        base_rank = (queues.astype(np.float64) * np.asarray(self._inv_rates)).tolist()
        offset = 0
        for k in batch[batch > 0].tolist():
            self._assign(samples[offset : offset + k], list(base_rank), totals)
            offset += k
        return totals


@register_policy("jsq(d)")
def _make_jsq_d(d: int = 2) -> PowerOfDPolicy:
    return PowerOfDPolicy(d=d, heterogeneity_aware=False)


@register_policy("jsq(2)")
def _make_jsq_2() -> PowerOfDPolicy:
    return PowerOfDPolicy(d=2, heterogeneity_aware=False)


@register_policy("hjsq(d)")
def _make_hjsq_d(d: int = 2) -> PowerOfDPolicy:
    return PowerOfDPolicy(d=d, heterogeneity_aware=True)


@register_policy("hjsq(2)")
def _make_hjsq_2() -> PowerOfDPolicy:
    return PowerOfDPolicy(d=2, heterogeneity_aware=True)
