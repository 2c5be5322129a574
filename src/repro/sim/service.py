"""Per-server service processes (phase 3 of each round).

The paper's evaluation draws each server's round capacity from a geometric
distribution with mean ``mu_s``: ``c_s(t) ~ Geom(1/(1+mu_s))`` supported on
``{0, 1, 2, ...}`` (Section 6.1).  Capacities are drawn every round
regardless of queue contents -- unused capacity is lost -- which both
matches the model and keeps the departure stream identical across policies
(common random numbers).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "ServiceProcess",
    "GeometricService",
    "DeterministicService",
    "TraceService",
]


def _check_rates(rates: np.ndarray) -> None:
    """Raise ``ValueError`` unless every rate is finite and positive
    (``rates <= 0`` alone lets NaN through)."""
    if not (np.isfinite(rates).all() and (rates > 0).all()):
        raise ValueError("service rates must be finite and strictly positive")


class ServiceProcess(ABC):
    """Produces the vector of per-server completion capacities each round."""

    @property
    @abstractmethod
    def num_servers(self) -> int:
        """Number of servers this process drives."""

    @property
    @abstractmethod
    def mean_rates(self) -> np.ndarray:
        """Expected capacities ``mu_s`` (for admissibility checks)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, round_index: int) -> np.ndarray:
        """Return an int64 array of length ``n`` with this round's capacities."""

    def sample_many(
        self, rng: np.random.Generator, start_round: int, count: int
    ) -> np.ndarray:
        """Return a ``(count, n)`` block of capacities for consecutive rounds.

        Default loops :meth:`sample` (bit-identical for stateful
        processes); memoryless processes override with one block draw,
        which consumes the RNG stream exactly like sequential calls (C
        order element-by-element fill).
        """
        return np.stack(
            [self.sample(rng, start_round + i) for i in range(count)]
        )

    def reset(self) -> None:
        """Clear internal state (credit counters, trace position...)."""


class GeometricService(ServiceProcess):
    """The paper's service model: ``c_s(t) ~ Geom(1/(1+mu_s))``, mean ``mu_s``.

    numpy's ``geometric`` counts trials to first success (support starting
    at 1), so we subtract 1 to get the number-of-failures convention with
    support ``{0, 1, ...}`` and mean ``(1-p)/p = mu_s``.
    """

    stateless = True

    def __init__(self, rates: np.ndarray) -> None:
        self.rates = np.asarray(rates, dtype=np.float64)
        if self.rates.ndim != 1 or self.rates.size == 0:
            raise ValueError("rates must be a non-empty 1-D array")
        _check_rates(self.rates)
        self._success_prob = 1.0 / (1.0 + self.rates)

    @property
    def num_servers(self) -> int:
        return int(self.rates.size)

    @property
    def mean_rates(self) -> np.ndarray:
        return self.rates

    def sample(self, rng: np.random.Generator, round_index: int) -> np.ndarray:
        draws = rng.geometric(self._success_prob).astype(np.int64, copy=False)
        draws -= 1
        return draws

    def sample_many(
        self, rng: np.random.Generator, start_round: int, count: int
    ) -> np.ndarray:
        draws = rng.geometric(
            self._success_prob, size=(count, self.rates.size)
        ).astype(np.int64, copy=False)
        draws -= 1
        return draws


class DeterministicService(ServiceProcess):
    """Deterministic capacities via credit accumulation (tests, examples).

    A server with ``mu = 2.5`` completes 2, 3, 2, 3, ... jobs per round.
    """

    def __init__(self, rates: np.ndarray) -> None:
        self.rates = np.asarray(rates, dtype=np.float64)
        _check_rates(self.rates)
        self._credit = np.zeros_like(self.rates)

    @property
    def num_servers(self) -> int:
        return int(self.rates.size)

    @property
    def mean_rates(self) -> np.ndarray:
        return self.rates

    def reset(self) -> None:
        self._credit[:] = 0.0

    def sample(self, rng: np.random.Generator, round_index: int) -> np.ndarray:
        self._credit += self.rates
        capacity = np.floor(self._credit + 1e-12).astype(np.int64)
        self._credit -= capacity
        return capacity


class TraceService(ServiceProcess):
    """Replay a ``(T, n)`` capacity matrix, cycling past the end."""

    stateless = True

    def __init__(self, trace: np.ndarray) -> None:
        self.trace = np.asarray(trace, dtype=np.int64)
        if self.trace.ndim != 2 or self.trace.shape[0] == 0:
            raise ValueError("trace must be a non-empty (rounds, servers) matrix")
        if np.any(self.trace < 0):
            raise ValueError("trace entries must be non-negative")

    @property
    def num_servers(self) -> int:
        return int(self.trace.shape[1])

    @property
    def mean_rates(self) -> np.ndarray:
        return self.trace.mean(axis=0)

    def sample(self, rng: np.random.Generator, round_index: int) -> np.ndarray:
        return self.trace[round_index % self.trace.shape[0]]

    def sample_many(
        self, rng: np.random.Generator, start_round: int, count: int
    ) -> np.ndarray:
        rows = (start_round + np.arange(count)) % self.trace.shape[0]
        return self.trace[rows]
