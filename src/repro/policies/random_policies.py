"""Load-oblivious randomized policies: weighted random and uniform random.

Weighted random (WR, paper footnote 7) sends each job to server ``s`` with
probability ``mu_s / sum(mu)`` -- the optimal *static* split for
heterogeneous rates, but blind to queue state, so it cannot exploit
momentarily under-loaded servers.  Uniform random ignores rates entirely
and is unstable in heterogeneous systems at high load (slow servers receive
more than they can process); it is included as a sanity baseline and for
the stability ablation.

For a probability-vector policy, dispatching a batch of ``k`` jobs i.i.d.
is exactly a multinomial draw, so these dispatch in one vectorized call --
and a whole *round* (every dispatcher's batch) is one stacked multinomial
draw whose rows are summed, which is the native batch-protocol path
below.  numpy's broadcast multinomial consumes the policy RNG stream
exactly like the per-dispatcher draws, so the fast engine backend is
bit-identical to the reference backend for these policies.
"""

from __future__ import annotations

import numpy as np

from .base import Policy, register_policy

__all__ = ["WeightedRandomPolicy", "UniformRandomPolicy"]


@register_policy("wr")
class WeightedRandomPolicy(Policy):
    """Rate-proportional random dispatching (WR)."""

    name = "wr"

    def _on_bind(self) -> None:
        self._probs = self.rates / self.rates.sum()

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        return self.rng.multinomial(int(num_jobs), self._probs).astype(np.int64)

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        return self.rng.multinomial(
            np.asarray(batch, dtype=np.int64), self._probs
        ).sum(axis=0)


@register_policy("random")
class UniformRandomPolicy(WeightedRandomPolicy):
    """Uniform random dispatching: WR on unit weights (ignores rates)."""

    name = "random"

    def _on_bind(self) -> None:
        n = self.ctx.num_servers
        self._probs = np.full(n, 1.0 / n)
