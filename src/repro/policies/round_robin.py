"""Round-robin and weighted round-robin dispatching.

The default algorithms of production L7 balancers (NGINX, HAProxy) that
the paper's introduction positions SCD against.  Both are queue-oblivious:
plain round-robin cycles through servers uniformly (and, like uniform
random, is unstable in heterogeneous systems at high load); weighted
round-robin visits each server proportionally to its service rate using a
smooth interleaving (the classic smooth-WRR scheme NGINX uses: each step,
add every server's weight to its credit and pick the largest credit).

Each dispatcher keeps its *own* rotation state -- dispatchers do not
coordinate, so their rotations drift apart, which is precisely why
round-robin avoids herding while still wasting queue information.
"""

from __future__ import annotations

import numpy as np

from .base import Policy, register_policy

__all__ = ["RoundRobinPolicy", "WeightedRoundRobinPolicy"]


@register_policy("rr")
class RoundRobinPolicy(Policy):
    """Plain round-robin: dispatcher d cycles servers in index order."""

    name = "rr"

    def _on_bind(self) -> None:
        m = self.ctx.num_dispatchers
        # Stagger starting positions so dispatchers do not trivially align.
        n = self.ctx.num_servers
        self._position = np.array([(d * n) // m for d in range(m)], dtype=np.int64)

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        n = self.ctx.num_servers
        start = int(self._position[dispatcher])
        counts = np.bincount((start + np.arange(num_jobs)) % n, minlength=n)
        self._position[dispatcher] = (start + num_jobs) % n
        return counts.astype(np.int64)

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """All rotations advanced at once: a one-round :meth:`dispatch_rounds`."""
        return self.dispatch_rounds(np.asarray(batch, dtype=np.int64)[None, :])[0]

    def dispatch_rounds(self, batch_block: np.ndarray) -> np.ndarray:
        """A whole block's rotations advanced at once (bit-identical).

        Round-robin is queue-oblivious, so every round's starting
        positions follow from the cumulative batch counts alone:
        dispatcher ``d`` opens round ``i`` at
        ``(p_d + sum_{j<i} batch[j, d]) mod n``.  Each non-empty
        ``(round, dispatcher)`` cell contributes its remainder arc to a
        difference array (one ``np.bincount`` of the arcs' opening cells
        minus one of their closing cells) and the full-cycle part as a
        per-round constant; a row-wise prefix sum then yields every
        round's per-server admissions in one pass.  Dispatcher ``d``
        with batch ``k`` starting at ``p`` gives every server ``k // n``
        jobs plus one job to each of the ``k % n`` servers ``p, p+1, ...
        (mod n)``, so counts and carried positions match the
        per-dispatcher loop exactly.
        """
        n = self.ctx.num_servers
        batch_block = np.asarray(batch_block, dtype=np.int64)
        length = batch_block.shape[0]
        starts = self._position[None, :] + np.cumsum(batch_block, axis=0) - batch_block
        starts %= n
        remainder = batch_block % n
        row_i, col_d = np.nonzero(remainder)
        arc_start = starts[row_i, col_d]
        arc_end = arc_start + remainder[row_i, col_d]
        # Flat (row, server) cells of the (L, n+1) difference array.  An
        # arc opens at its start and closes at min(end, n); a wrapped arc
        # also reopens at 0 and closes at end - n.
        row_base = row_i * (n + 1)
        wrapped = arc_end > n
        wrapped_base = row_base[wrapped]
        plus = np.concatenate((row_base + arc_start, wrapped_base))
        minus = np.concatenate(
            (row_base + np.minimum(arc_end, n), wrapped_base + arc_end[wrapped] - n)
        )
        size = length * (n + 1)
        diff = np.bincount(plus, minlength=size)
        diff -= np.bincount(minus, minlength=size)
        received = np.cumsum(diff.reshape(length, n + 1)[:, :n], axis=1)
        received += (batch_block // n).sum(axis=1)[:, None]
        self._position[:] = (self._position + batch_block.sum(axis=0)) % n
        return received


@register_policy("wrr")
class WeightedRoundRobinPolicy(Policy):
    """Smooth weighted round-robin (NGINX's algorithm), per dispatcher.

    Per job: every server's credit increases by its weight ``mu_s``; the
    job goes to the largest credit, which is then decreased by the total
    weight.  Long-run shares converge to ``mu_s / sum(mu)`` with the
    smoothest possible interleaving.
    """

    name = "wrr"

    def _on_bind(self) -> None:
        m = self.ctx.num_dispatchers
        n = self.ctx.num_servers
        self._credits = np.zeros((m, n), dtype=np.float64)
        self._total_weight = float(self.rates.sum())

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        n = self.ctx.num_servers
        counts = np.zeros(n, dtype=np.int64)
        credits = self._credits[dispatcher]
        rates = self.rates
        total = self._total_weight
        for _ in range(int(num_jobs)):
            credits += rates
            best = int(np.argmax(credits))
            credits[best] -= total
            counts[best] += 1
        return counts

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """All dispatchers' credit loops advanced in lock-step (bit-identical).

        Dispatchers are independent (each owns a credits row and no RNG
        is involved), so the per-dispatcher job loops can be transposed:
        step ``j`` updates every dispatcher still holding a ``j``-th job
        at once.  Each step is the same float arithmetic and the same
        first-of-the-maxima ``argmax`` as the scalar loop, so the totals
        *and* the carried credit state match the fallback exactly; the
        round costs O(max batch) vectorized steps instead of O(total
        jobs) scalar ones.
        """
        n = self.ctx.num_servers
        batch = np.asarray(batch, dtype=np.int64)
        totals = np.zeros(n, dtype=np.int64)
        credits = self._credits
        rates = self.rates
        total = self._total_weight
        dispatchers = np.arange(batch.size)
        for j in range(int(batch.max()) if batch.size else 0):
            active = dispatchers[batch > j]
            block = credits[active] + rates
            best = np.argmax(block, axis=1)
            block[np.arange(active.size), best] -= total
            credits[active] = block
            totals += np.bincount(best, minlength=n)
        return totals
