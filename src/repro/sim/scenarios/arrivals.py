"""Nonstationary arrival scenarios: rate curves over a Poisson base.

Each scenario here wraps the run's stationary
:class:`~repro.sim.arrivals.PoissonArrivals` in a
:class:`ModulatedRateArrivals`: round ``t`` draws
``Pois(lambda_d * f(t))`` where ``f`` is a deterministic, round-indexed
*rate curve*.  Because the curve is a pure function of the round index
(no internal counters), the block pre-sampler can draw a whole
``(256, m)`` rate matrix at once -- numpy fills Poisson output arrays in
C order, element by element, so the block consumes the arrival stream
exactly like 256 sequential per-round draws and every kernel
(reference, fast) sees the identical realization.

Built-ins:

``diurnal``
    A sinusoidal day/night cycle: ``f(t) = 1 + amplitude *
    sin(2 pi (t + phase) / period)``.

``flash``
    A flash crowd: ``f(t) = 1`` until round ``at``, then a spike of
    height ``spike`` decaying exponentially with time-constant
    ``decay`` rounds.

``regime``
    MMPP-style regime switching: the rate factor alternates between a
    calm and a surge level, with segment lengths drawn from an
    exponential dwell distribution by a dedicated deterministic stream
    (``phase_seed``) -- the phase path is workload *shape*, not
    workload randomness, so it is identical across kernels, seeds and
    resume boundaries.  ``WorkloadSpec.bursty`` is this scenario with
    levels that keep the mean factor at 1.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.sim.arrivals import ArrivalProcess

from .base import Scenario, register_scenario

__all__ = [
    "RateCurve",
    "SinusoidCurve",
    "FlashCrowdCurve",
    "RegimeSwitchingCurve",
    "ModulatedRateArrivals",
    "DiurnalScenario",
    "FlashCrowdScenario",
    "RegimeSwitchingScenario",
]


class RateCurve:
    """A deterministic per-round rate multiplier ``f(t) >= 0``."""

    def factors(self, start_round: int, count: int) -> np.ndarray:
        """Return ``f(start_round), ..., f(start_round + count - 1)``."""
        raise NotImplementedError

    @property
    def mean_factor(self) -> float:
        """Long-run average of ``f`` (for admissibility accounting)."""
        return 1.0


class SinusoidCurve(RateCurve):
    """``f(t) = 1 + amplitude * sin(2 pi (t + phase) / period)``."""

    def __init__(self, amplitude: float, period: float, phase: float = 0.0):
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1) to keep rates positive")
        if period < 1:
            raise ValueError("period must be >= 1 round")
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)

    def factors(self, start_round: int, count: int) -> np.ndarray:
        t = start_round + np.arange(count, dtype=np.float64)
        return 1.0 + self.amplitude * np.sin(
            (2.0 * math.pi / self.period) * (t + self.phase)
        )


class FlashCrowdCurve(RateCurve):
    """``f(t) = 1`` before ``at``; spike + exponential decay afterwards."""

    def __init__(self, spike: float, at: int, decay: float):
        if spike <= 0:
            raise ValueError("spike must be a positive rate multiplier")
        if at < 0:
            raise ValueError("the spike round must be >= 0")
        if decay <= 0:
            raise ValueError("decay must be a positive time constant")
        self.spike = float(spike)
        self.at = int(at)
        self.decay = float(decay)

    def factors(self, start_round: int, count: int) -> np.ndarray:
        t = start_round + np.arange(count, dtype=np.float64)
        elapsed = np.maximum(t - self.at, 0.0)
        surge = 1.0 + (self.spike - 1.0) * np.exp(-elapsed / self.decay)
        return np.where(t >= self.at, surge, 1.0)

    @property
    def mean_factor(self) -> float:
        return 1.0  # the spike's excess mass is transient


class RegimeSwitchingCurve(RateCurve):
    """Alternating calm/surge factor levels with exponential dwells.

    The segment boundaries are generated lazily from a private
    ``random.Random(phase_seed)`` stream: deterministic in the round
    index, independent of the simulation's RNG streams, and extended
    identically whether queried one round at a time (reference kernel)
    or a block at a time (fast kernels).  The generator state pickles
    with the curve, so a resumed run extends the same path.
    """

    def __init__(
        self,
        calm: float,
        surge: float,
        mean_dwell: float,
        phase_seed: int = 0,
    ):
        if calm <= 0 or surge <= 0:
            raise ValueError("regime factor levels must be positive")
        if mean_dwell < 1:
            raise ValueError("mean_dwell must be >= 1 round")
        self.calm = float(calm)
        self.surge = float(surge)
        self.mean_dwell = float(mean_dwell)
        self.phase_seed = int(phase_seed)
        self._rnd = random.Random(self.phase_seed)
        self._bounds = [0]  # cumulative segment end rounds
        self._levels: list[float] = []  # factor level per segment

    def _extend_to(self, end_round: int) -> None:
        while self._bounds[-1] < end_round:
            dwell = max(1, round(self._rnd.expovariate(1.0 / self.mean_dwell)))
            level = self.calm if len(self._levels) % 2 == 0 else self.surge
            self._bounds.append(self._bounds[-1] + dwell)
            self._levels.append(level)

    def factors(self, start_round: int, count: int) -> np.ndarray:
        self._extend_to(start_round + count)
        t = start_round + np.arange(count)
        segments = np.searchsorted(self._bounds, t, side="right") - 1
        return np.asarray(self._levels, dtype=np.float64)[segments]

    @property
    def mean_factor(self) -> float:
        return 0.5 * (self.calm + self.surge)


class ModulatedRateArrivals(ArrivalProcess):
    """Poisson arrivals whose rate vector is scaled by a rate curve.

    Round ``t`` draws ``Pois(lambdas * f(t))`` per dispatcher.  The
    block draw hands numpy a full ``(count, m)`` rate matrix; C-order
    filling makes it consume the stream exactly like ``count``
    sequential :meth:`sample` calls, preserving the engines' bit-identity
    invariant for nonstationary rates.
    """

    def __init__(self, lambdas: np.ndarray, curve: RateCurve) -> None:
        self.lambdas = np.asarray(lambdas, dtype=np.float64)
        if self.lambdas.ndim != 1 or self.lambdas.size == 0:
            raise ValueError("lambdas must be a non-empty 1-D array")
        if np.any(self.lambdas < 0):
            raise ValueError("arrival rates must be non-negative")
        self.curve = curve

    @property
    def num_dispatchers(self) -> int:
        return int(self.lambdas.size)

    @property
    def mean_rate(self) -> float:
        return float(self.lambdas.sum()) * self.curve.mean_factor

    def sample(self, rng: np.random.Generator, round_index: int) -> np.ndarray:
        factor = self.curve.factors(round_index, 1)[0]
        return rng.poisson(self.lambdas * factor).astype(np.int64, copy=False)

    def sample_many(
        self, rng: np.random.Generator, start_round: int, count: int
    ) -> np.ndarray:
        factors = self.curve.factors(start_round, count)
        return rng.poisson(self.lambdas[None, :] * factors[:, None]).astype(
            np.int64, copy=False
        )


def _base_lambdas(arrivals) -> np.ndarray:
    """The stationary rate vector an arrival scenario modulates."""
    lambdas = getattr(arrivals, "lambdas", None)
    if lambdas is None:
        raise ValueError(
            f"scenario needs a rate-based arrival process to modulate; "
            f"{type(arrivals).__name__} carries no 'lambdas' vector"
        )
    return np.asarray(lambdas, dtype=np.float64)


@register_scenario("diurnal")
class DiurnalScenario(Scenario):
    """Sinusoidal day/night arrival-rate cycle (stationary fleet)."""

    name = "diurnal"
    description = (
        "sinusoidal arrival-rate cycle: f(t) = 1 + amplitude * "
        "sin(2 pi (t + phase) / period)"
    )

    def __init__(
        self,
        amplitude: float = 0.4,
        period: float = 4096,
        phase: float = 0.0,
    ) -> None:
        self.curve = SinusoidCurve(amplitude, period, phase)

    def wrap_arrivals(self, arrivals):
        return ModulatedRateArrivals(_base_lambdas(arrivals), self.curve)


@register_scenario("flash")
class FlashCrowdScenario(Scenario):
    """Flash crowd: an arrival-rate spike decaying exponentially."""

    name = "flash"
    description = (
        "flash crowd: rate multiplier jumps to 'spike' at round 'at' "
        "and decays exponentially with time constant 'decay'"
    )

    def __init__(
        self, spike: float = 4.0, at: int = 2048, decay: float = 1024
    ) -> None:
        self.curve = FlashCrowdCurve(spike, at, decay)

    def wrap_arrivals(self, arrivals):
        return ModulatedRateArrivals(_base_lambdas(arrivals), self.curve)


@register_scenario("regime")
class RegimeSwitchingScenario(Scenario):
    """MMPP-style calm/surge regime switching of the arrival rate."""

    name = "regime"
    description = (
        "regime switching: the rate factor alternates calm/surge levels "
        "with exponential dwell times from a deterministic phase stream"
    )

    def __init__(
        self,
        calm: float = 0.8,
        surge: float = 1.6,
        mean_dwell: float = 512,
        phase_seed: int = 0,
    ) -> None:
        self.curve = RegimeSwitchingCurve(calm, surge, mean_dwell, phase_seed)

    def wrap_arrivals(self, arrivals):
        return ModulatedRateArrivals(_base_lambdas(arrivals), self.curve)
