"""Per-dispatcher arrival processes (phase 1 of each round).

The paper's evaluation draws each dispatcher's round batch from a Poisson
distribution, ``a_d(t) ~ Pois(lambda_d)`` (Section 6.1); the model itself
only requires stochastic, independent, unknown processes (Section 2).  The
extra processes here support tests (deterministic, trace).  Time-varying
rates -- diurnal cycles, flash crowds, correlated calm/surge bursts --
are rate curves over the Poisson base, applied by the scenarios in
:mod:`repro.sim.scenarios.arrivals`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "TraceArrivals",
]


class ArrivalProcess(ABC):
    """Produces the vector of per-dispatcher batch sizes each round."""

    @property
    @abstractmethod
    def num_dispatchers(self) -> int:
        """Number of dispatchers this process feeds."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, round_index: int) -> np.ndarray:
        """Return an int64 array of length ``m`` with this round's arrivals."""

    def sample_many(
        self, rng: np.random.Generator, start_round: int, count: int
    ) -> np.ndarray:
        """Return a ``(count, m)`` block of batches for consecutive rounds.

        The fast engine backend pre-samples rounds in chunks.  The default
        loops :meth:`sample` (bit-identical RNG consumption for stateful
        processes); memoryless processes override with one block draw --
        numpy fills output arrays in C order, element by element, so the
        block consumes the stream exactly like ``count`` sequential calls.
        """
        return np.stack(
            [self.sample(rng, start_round + i) for i in range(count)]
        )

    def reset(self) -> None:
        """Clear internal state (modulation phase, trace position...)."""

    @property
    def mean_rate(self) -> float:
        """Expected total arrivals per round (for admissibility checks)."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Independent Poisson batches: ``a_d(t) ~ Pois(lambda_d)``."""

    stateless = True

    def __init__(self, lambdas: np.ndarray) -> None:
        self.lambdas = np.asarray(lambdas, dtype=np.float64)
        if self.lambdas.ndim != 1 or self.lambdas.size == 0:
            raise ValueError("lambdas must be a non-empty 1-D array")
        if np.any(self.lambdas < 0):
            raise ValueError("arrival rates must be non-negative")

    @property
    def num_dispatchers(self) -> int:
        return int(self.lambdas.size)

    @property
    def mean_rate(self) -> float:
        return float(self.lambdas.sum())

    def sample(self, rng: np.random.Generator, round_index: int) -> np.ndarray:
        return rng.poisson(self.lambdas).astype(np.int64, copy=False)

    def sample_many(
        self, rng: np.random.Generator, start_round: int, count: int
    ) -> np.ndarray:
        return rng.poisson(
            self.lambdas, size=(count, self.lambdas.size)
        ).astype(np.int64, copy=False)


class DeterministicArrivals(ArrivalProcess):
    """Fixed fractional rates realized by credit accumulation.

    Dispatcher ``d`` with rate 2.5 receives 2, 3, 2, 3, ... jobs.  Useful
    for tests that need an exactly known workload.
    """

    def __init__(self, rates: np.ndarray) -> None:
        self.rates = np.asarray(rates, dtype=np.float64)
        if np.any(self.rates < 0):
            raise ValueError("arrival rates must be non-negative")
        self._credit = np.zeros_like(self.rates)

    @property
    def num_dispatchers(self) -> int:
        return int(self.rates.size)

    @property
    def mean_rate(self) -> float:
        return float(self.rates.sum())

    def reset(self) -> None:
        self._credit[:] = 0.0

    def sample(self, rng: np.random.Generator, round_index: int) -> np.ndarray:
        self._credit += self.rates
        batches = np.floor(self._credit + 1e-12).astype(np.int64)
        self._credit -= batches
        return batches


class TraceArrivals(ArrivalProcess):
    """Replay a ``(T, m)`` matrix of batch sizes, cycling past the end."""

    stateless = True

    def __init__(self, trace: np.ndarray) -> None:
        self.trace = np.asarray(trace, dtype=np.int64)
        if self.trace.ndim != 2 or self.trace.shape[0] == 0:
            raise ValueError("trace must be a non-empty (rounds, dispatchers) matrix")
        if np.any(self.trace < 0):
            raise ValueError("trace entries must be non-negative")

    @property
    def num_dispatchers(self) -> int:
        return int(self.trace.shape[1])

    @property
    def mean_rate(self) -> float:
        return float(self.trace.sum(axis=1).mean())

    def sample(self, rng: np.random.Generator, round_index: int) -> np.ndarray:
        return self.trace[round_index % self.trace.shape[0]]

    def sample_many(
        self, rng: np.random.Generator, start_round: int, count: int
    ) -> np.ndarray:
        rows = (start_round + np.arange(count)) % self.trace.shape[0]
        return self.trace[rows]
