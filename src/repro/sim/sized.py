"""Job-size distributions: the work each job brings, in integer units.

The base model (Section 2) counts unit jobs; open problem 1 gives every
job an integer *size* in work units, served FIFO at the server's
per-round unit capacity.  :class:`repro.sim.engine.Simulation` takes
one of these distributions as its optional ``sizes`` argument and draws
from it on its own ``sizes`` stream (see :mod:`repro.sim.seeding`).
``DeterministicSize(1)`` is the base model and runs as unit jobs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "JobSizeDistribution",
    "DeterministicSize",
    "GeometricSize",
    "BimodalSize",
    "is_unit_size",
]


class JobSizeDistribution(ABC):
    """Distribution of per-job work sizes (positive integers)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. job sizes (int64, all >= 1)."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """``E[W]``."""

    @property
    @abstractmethod
    def second_moment(self) -> float:
        """``E[W^2]``."""


class DeterministicSize(JobSizeDistribution):
    """Every job needs exactly ``size`` units; size 1 recovers the base model."""

    stateless = True

    def __init__(self, size: int = 1) -> None:
        if size < 1:
            raise ValueError("job size must be >= 1")
        self.size = int(size)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, self.size, dtype=np.int64)

    @property
    def mean(self) -> float:
        return float(self.size)

    @property
    def second_moment(self) -> float:
        return float(self.size) ** 2


class GeometricSize(JobSizeDistribution):
    """Sizes ``1 + Geom``: support {1, 2, ...} with the given mean."""

    stateless = True

    def __init__(self, mean_size: float = 2.0) -> None:
        if mean_size <= 1.0:
            raise ValueError("mean size must exceed 1 (sizes start at 1)")
        self._mean = float(mean_size)
        # W = 1 + G with G geometric on {0,1,...} of mean m-1:
        self._p = 1.0 / self._mean  # success prob of numpy's 1-based geometric

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.geometric(self._p, size=count).astype(np.int64, copy=False)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def second_moment(self) -> float:
        # numpy's geometric on {1,2,...}: Var = (1-p)/p^2.
        variance = (1.0 - self._p) / (self._p**2)
        return variance + self._mean**2


class BimodalSize(JobSizeDistribution):
    """Mostly small jobs with a heavy minority (the elephant/mice mix)."""

    stateless = True

    def __init__(self, small: int = 1, large: int = 20, large_prob: float = 0.05):
        if small < 1 or large < small:
            raise ValueError("need 1 <= small <= large")
        if not 0.0 <= large_prob <= 1.0:
            raise ValueError("large_prob must be in [0, 1]")
        self.small = int(small)
        self.large = int(large)
        self.large_prob = float(large_prob)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        big = rng.random(count) < self.large_prob
        return np.where(big, self.large, self.small).astype(np.int64, copy=False)

    @property
    def mean(self) -> float:
        return (1 - self.large_prob) * self.small + self.large_prob * self.large

    @property
    def second_moment(self) -> float:
        return (
            (1 - self.large_prob) * self.small**2
            + self.large_prob * self.large**2
        )


def is_unit_size(sizes: JobSizeDistribution | None) -> bool:
    """True for the base model's unit jobs: ``None`` or ``DeterministicSize(1)``."""
    return sizes is None or (isinstance(sizes, DeterministicSize) and sizes.size == 1)
