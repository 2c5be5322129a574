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

Everything but the drain is :class:`~repro.policies.lsq.LSQPolicy`:
the greedy dispatch against each dispatcher's own row, the native batch
protocol and the fused sampled refresh, with its bit-identical RNG
stream on every engine backend.
"""

from __future__ import annotations

import numpy as np

from .base import register_policy
from .lsq import LSQPolicy

__all__ = ["LEDPolicy"]


class LEDPolicy(LSQPolicy):
    """LED / hLED: LSQ with drift-corrected per-dispatcher estimates."""

    def __init__(
        self,
        heterogeneity_aware: bool = False,
        samples_per_job: float = 1.0,
    ) -> None:
        super().__init__(heterogeneity_aware, samples_per_job)
        self.name = "hled" if heterogeneity_aware else "led"

    def end_round(self, round_index: int, queues: np.ndarray) -> None:
        # The LED step: drive every estimate with the known service model
        # (each server drains ~mu jobs per round), floored at zero; then
        # LSQ's sampled refresh with ground truth.
        np.maximum(self._local - self.rates, 0.0, out=self._local)
        super().end_round(round_index, queues)


@register_policy("led")
def _make_led(samples_per_job: float = 1.0) -> LEDPolicy:
    return LEDPolicy(heterogeneity_aware=False, samples_per_job=samples_per_job)


@register_policy("hled")
def _make_hled(samples_per_job: float = 1.0) -> LEDPolicy:
    return LEDPolicy(heterogeneity_aware=True, samples_per_job=samples_per_job)
