"""Join-the-Idle-Queue (JIQ) and its heterogeneity-aware variant hJIQ.

A JIQ dispatcher forwards jobs only to *idle* servers (empty queue at the
round's snapshot); once it has used up the idle servers it knows about, the
remaining jobs go to random servers.  The paper's hJIQ variant (footnote 6)
replaces both uniform choices with rate-proportional ones: idle servers are
picked with probability proportional to ``mu_s`` and the random fallback is
weighted-random.

Each dispatcher consumes the idle set *independently* -- dispatchers do not
see each other's assignments, so at moderate load many dispatchers pile
onto the same few idle servers.  That correlation, plus the random fallback
at high load, is exactly why JIQ degrades as load grows (Section 1.1).

The batch protocol (:meth:`JIQPolicy.dispatch_round`) exploits exactly
that high-load regime: in rounds whose idle set is *empty* -- the common
case near saturation, where the fast kernels matter -- every job takes
the random fallback, and one fused RNG draw covers all dispatchers
(numpy fills random output element by element, so the realization and
stream position match the per-dispatcher loop bit for bit); its
destinations, counted, are the round's per-server totals.  Rounds with
idle servers keep the sequential per-dispatcher draws, whose
permutation/weighted-choice sampling cannot fuse.
"""

from __future__ import annotations

import numpy as np

from .base import Policy, register_policy, sample_servers

__all__ = ["JIQPolicy"]


class JIQPolicy(Policy):
    """JIQ / hJIQ, parameterized by heterogeneity awareness."""

    def __init__(self, heterogeneity_aware: bool = False) -> None:
        super().__init__()
        self.heterogeneity_aware = bool(heterogeneity_aware)
        self.name = "hjiq" if heterogeneity_aware else "jiq"

    def _on_bind(self) -> None:
        if self.heterogeneity_aware:
            weights = self.rates / self.rates.sum()
            self._fallback_cdf: np.ndarray | None = np.cumsum(weights)
        else:
            self._fallback_cdf = None
        self._idle: np.ndarray | None = None

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._idle = np.flatnonzero(queues == 0)

    def _pick_idle(self, budget: int) -> np.ndarray:
        """Choose up to ``budget`` *distinct* idle servers for one dispatcher."""
        idle = self._idle
        take = min(budget, idle.size)
        if take == 0:
            return idle[:0]
        if self._fallback_cdf is None:
            return self.rng.permutation(idle)[:take]
        weights = self.rates[idle]
        return self.rng.choice(idle, size=take, replace=False, p=weights / weights.sum())

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        n = self.ctx.num_servers
        counts = np.zeros(n, dtype=np.int64)
        if num_jobs <= 0:
            return counts
        k = int(num_jobs)
        chosen_idle = self._pick_idle(k)
        counts[chosen_idle] += 1
        rest = k - chosen_idle.size
        if rest > 0:
            fallback = sample_servers(self.rng, n, self._fallback_cdf, rest)
            np.add.at(counts, fallback, 1)
        return counts

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """Native batch protocol, bit-identical to the fallback.

        With no idle servers this round, ``dispatch`` would draw only
        the random fallback for each dispatcher in index order; one
        fused draw realizes exactly those element-by-element fills, and
        one ``bincount`` of it is the round's totals.  With idle servers
        present the base per-dispatcher loop runs unchanged
        (distinct-idle sampling is sequential by nature).
        """
        if self._idle is not None and self._idle.size:
            return super().dispatch_round(batch, queues)
        # Empty idle set: _pick_idle consumes no randomness, every job
        # falls back, and the fused draw's destinations are the totals.
        total = int(np.sum(batch))
        n = self.ctx.num_servers
        if total == 0:
            return np.zeros(n, dtype=np.int64)
        return np.bincount(
            sample_servers(self.rng, n, self._fallback_cdf, total), minlength=n
        )


@register_policy("jiq")
def _make_jiq() -> JIQPolicy:
    return JIQPolicy(heterogeneity_aware=False)


@register_policy("hjiq")
def _make_hjiq() -> JIQPolicy:
    return JIQPolicy(heterogeneity_aware=True)
