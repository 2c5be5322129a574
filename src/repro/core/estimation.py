"""Total-arrival estimators for distributed dispatchers (Section 5.1).

The optimal probabilities depend only on the *total* number of arrivals
``a = sum_d a_d``, but a dispatcher only observes its own ``a_d``.  The
paper's estimator (Eq. 18) assumes everyone received the same batch:
``a_est = m * a_d``; its average across dispatchers equals the true total
(Eq. 19), so over- and under-estimates compensate.

The stability proof (Appendix D) holds for *any* estimator with
``1 <= a_est < inf``, which motivates the alternatives implemented here
for the ablation benchmark:

* :class:`ScaledOwnArrivals` -- the paper's ``m * a_d`` (default).
* :class:`OracleTotal`       -- the true total (an unattainable upper bound
  requiring global knowledge; isolates estimation error).
* :class:`ConstantEstimator` -- a fixed guess, e.g. the system's expected
  per-round capacity; load-oblivious.
* :class:`EwmaEstimator`     -- exponentially weighted moving average of
  scaled own arrivals; smooths Poisson noise at the cost of staleness.

Estimates are clamped to ``>= 1`` so that the probability computation is
always well-defined (``a_est = 1`` degenerates to the SED-like Eq. 9 rule,
``a_est -> inf`` approaches weighted-random; see Section 5.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "ArrivalEstimator",
    "ScaledOwnArrivals",
    "OracleTotal",
    "ConstantEstimator",
    "EwmaEstimator",
    "make_estimator",
]


class ArrivalEstimator(ABC):
    """Estimates the round's total arrivals from a dispatcher's own batch."""

    @abstractmethod
    def estimate(self, own_arrivals: int, num_dispatchers: int) -> float:
        """Return ``a_est >= 1`` given this dispatcher's batch size.

        Parameters
        ----------
        own_arrivals:
            ``a_d``, the number of jobs that arrived at this dispatcher
            this round (``>= 1`` when called; dispatchers with no jobs do
            not dispatch).
        num_dispatchers:
            ``m``, the number of dispatchers in the system.
        """

    def estimate_many(self, own_arrivals: np.ndarray, num_dispatchers: int) -> np.ndarray:
        """Estimates for a round's non-empty batches, in dispatcher order.

        Returns a float array equal, entry by entry, to :meth:`estimate`
        called on each batch in turn.  This default makes exactly those
        calls, so stateful estimators (EWMA) see the per-dispatcher call
        sequence; stateless ones override it with one vector operation.
        """
        return np.array(
            [self.estimate(k, num_dispatchers) for k in own_arrivals.tolist()],
            dtype=np.float64,
        )

    def observe_total(self, total_arrivals: int) -> None:
        """Feed the true round total (used only by the oracle).

        The simulation engine calls this after all arrivals of a round are
        known; non-oracle estimators ignore it.
        """

    def reset(self) -> None:
        """Clear any internal state (called when a simulation starts)."""


class ScaledOwnArrivals(ArrivalEstimator):
    """The paper's estimator, Eq. (18): ``a_est = m * a_d``."""

    def estimate(self, own_arrivals: int, num_dispatchers: int) -> float:
        return float(max(1, num_dispatchers * own_arrivals))

    def estimate_many(self, own_arrivals: np.ndarray, num_dispatchers: int) -> np.ndarray:
        return np.maximum(num_dispatchers * own_arrivals, 1).astype(np.float64)


class OracleTotal(ArrivalEstimator):
    """Uses the true total arrivals of the round (unrealizable baseline)."""

    def __init__(self) -> None:
        self._total = 1

    def observe_total(self, total_arrivals: int) -> None:
        self._total = max(1, int(total_arrivals))

    def estimate(self, own_arrivals: int, num_dispatchers: int) -> float:
        return float(self._total)

    def estimate_many(self, own_arrivals: np.ndarray, num_dispatchers: int) -> np.ndarray:
        return np.full(own_arrivals.size, float(self._total))

    def reset(self) -> None:
        self._total = 1


class ConstantEstimator(ArrivalEstimator):
    """Always returns a fixed value (e.g. expected system capacity)."""

    def __init__(self, value: float) -> None:
        if value < 1:
            raise ValueError(f"constant estimate must be >= 1, got {value}")
        self.value = float(value)

    def estimate(self, own_arrivals: int, num_dispatchers: int) -> float:
        return self.value

    def estimate_many(self, own_arrivals: np.ndarray, num_dispatchers: int) -> np.ndarray:
        return np.full(own_arrivals.size, self.value)


class EwmaEstimator(ArrivalEstimator):
    """EWMA of scaled own arrivals: ``e <- (1-alpha)*e + alpha*m*a_d``.

    ``alpha = 1`` reduces to :class:`ScaledOwnArrivals`.
    """

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._value: float | None = None

    def estimate(self, own_arrivals: int, num_dispatchers: int) -> float:
        sample = float(num_dispatchers * own_arrivals)
        if self._value is None:
            self._value = sample
        else:
            self._value = (1.0 - self.alpha) * self._value + self.alpha * sample
        return max(1.0, self._value)

    def reset(self) -> None:
        self._value = None


def make_estimator(spec: str | float | ArrivalEstimator, **kwargs) -> ArrivalEstimator:
    """Build an estimator from a name, a number, or an existing instance.

    Accepted names: ``"scaled"`` (paper default), ``"oracle"``,
    ``"constant"`` (requires ``value=``), ``"ewma"`` (optional ``alpha=``).
    A bare number builds a :class:`ConstantEstimator`.
    """
    if isinstance(spec, ArrivalEstimator):
        return spec
    if isinstance(spec, (int, float)):
        return ConstantEstimator(float(spec))
    name = spec.lower()
    if name == "scaled":
        return ScaledOwnArrivals()
    if name == "oracle":
        return OracleTotal()
    if name == "constant":
        return ConstantEstimator(**kwargs)
    if name == "ewma":
        return EwmaEstimator(**kwargs)
    raise ValueError(f"unknown estimator {spec!r}")
