"""Metrics: exact response-time distributions and queue-length series.

Response times in the round-based model are positive integers, so the full
distribution is an integer histogram.  Storing counts instead of samples
gives exact means, percentiles and CCDFs (the paper plots tails down to
1e-8 -- far beyond what a sample reservoir could resolve) at O(max response
time) memory.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ResponseTimeHistogram", "QueueLengthSeries", "restored_int64"]


def restored_int64(array: np.ndarray | None) -> np.ndarray | None:
    """An unpickled int64 array, re-based on numpy's own int64 dtype.

    Unpickling rebuilds an array's dtype as a new, equal instance, and
    copies (``.copy()``, ``zeros_like``) keep it; numpy's ``ufunc.at``
    fast path misses arrays carrying such an instance, so a resumed
    run's ``np.add.at`` into them is over ten times slower.  Every
    ``__setstate__`` of an object holding ``ufunc.at`` targets passes
    them through here.
    """
    return None if array is None else array.astype(np.int64)


#: Percentile levels of :meth:`ResponseTimeHistogram.summary`, by key.
_SUMMARY_PERCENTILES = {"p50": 0.50, "p95": 0.95, "p99": 0.99, "p999": 0.999}


class ResponseTimeHistogram:
    """Exact histogram of integer response times.

    ``counts[t]`` is the number of jobs whose response time was exactly
    ``t`` rounds (index 0 is unused; response times start at 1).
    """

    def __init__(self, initial_capacity: int = 256) -> None:
        if initial_capacity < 2:
            raise ValueError("initial_capacity must be >= 2")
        self._counts = np.zeros(initial_capacity, dtype=np.int64)
        self._max_seen = 0

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._counts = restored_int64(self._counts)

    # -- recording ---------------------------------------------------------

    def record(self, response_time: int, count: int = 1) -> None:
        """Add ``count`` jobs with the given integer response time."""
        if response_time < 1:
            raise ValueError(f"response time must be >= 1, got {response_time}")
        if count <= 0:
            return
        if response_time >= self._counts.size:
            new_size = max(self._counts.size * 2, response_time + 1)
            grown = np.zeros(new_size, dtype=np.int64)
            grown[: self._counts.size] = self._counts
            self._counts = grown
        self._counts[response_time] += count
        if response_time > self._max_seen:
            self._max_seen = response_time

    def record_many(self, response_times: np.ndarray, counts: np.ndarray) -> None:
        """Bulk-add jobs: ``counts[i]`` jobs took ``response_times[i]`` rounds.

        The vectorized engine backend drains whole server sets at once and
        records their response times in one call; duplicate times are
        accumulated (``np.add.at`` semantics), zero counts are ignored, and
        the result is identical to the equivalent sequence of
        :meth:`record` calls.
        """
        times = np.asarray(response_times, dtype=np.int64)
        amounts = np.asarray(counts, dtype=np.int64)
        if times.shape != amounts.shape:
            raise ValueError("response_times and counts must have the same shape")
        keep = amounts > 0
        if not keep.all():
            times = times[keep]
            amounts = amounts[keep]
        if times.size == 0:
            return
        hi = int(times.max())
        if int(times.min()) < 1:
            raise ValueError("response times must be >= 1")
        if hi >= self._counts.size:
            grown = np.zeros(max(self._counts.size * 2, hi + 1), dtype=np.int64)
            grown[: self._counts.size] = self._counts
            self._counts = grown
        np.add.at(self._counts, times, amounts)
        if hi > self._max_seen:
            self._max_seen = hi

    def state_dict(self) -> dict:
        """Sparse JSON-able form: nonzero ``values`` and their ``counts``.

        The one wire format for response-time histograms -- result
        persistence and the ``responses`` probe both delegate here, so
        the encoding cannot drift between them.
        """
        counts = self.counts
        nonzero = np.flatnonzero(counts)
        return {
            "values": nonzero.tolist(),
            "counts": counts[nonzero].tolist(),
        }

    def load_state(self, state: dict) -> None:
        """Fold in counts written by :meth:`state_dict`."""
        self.record_many(
            np.asarray(state.get("values", ()), dtype=np.int64),
            np.asarray(state.get("counts", ()), dtype=np.int64),
        )

    # -- queries -----------------------------------------------------------

    @property
    def total(self) -> int:
        """Number of recorded jobs."""
        return int(self._counts.sum())

    @property
    def max_response_time(self) -> int:
        """Largest recorded response time (0 if empty)."""
        return self._max_seen

    @property
    def counts(self) -> np.ndarray:
        """Read-only view of the counts up to the max recorded value."""
        view = self._counts[: self._max_seen + 1]
        view.flags.writeable = False
        return view

    def mean(self) -> float:
        """Average response time (NaN if empty)."""
        total = self.total
        if total == 0:
            return float("nan")
        values = np.arange(self._max_seen + 1, dtype=np.float64)
        return float(np.dot(values, self._counts[: self._max_seen + 1]) / total)

    def percentile(self, q: float) -> int:
        """Smallest response time ``t`` with ``P(T <= t) >= q`` (q in (0, 1])."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        total = self.total
        if total == 0:
            raise ValueError("empty histogram has no percentiles")
        cumulative = np.cumsum(self._counts[: self._max_seen + 1])
        return int(np.searchsorted(cumulative, q * total, side="left"))

    def summary(self) -> dict[str, float]:
        """Headline numbers: mean, p50/p95/p99/p999 and max.

        The one response-time summary of results, records and the
        ``responses`` probe.  An empty histogram reports NaN for the mean
        and the percentiles and 0 for the max.
        """
        if self.total == 0:
            percentiles = dict.fromkeys(_SUMMARY_PERCENTILES, float("nan"))
        else:
            percentiles = {
                label: float(self.percentile(q))
                for label, q in _SUMMARY_PERCENTILES.items()
            }
        return {"mean": self.mean(), **percentiles, "max": float(self._max_seen)}

    def ccdf(self, taus: np.ndarray | list[int]) -> np.ndarray:
        """``P(T > tau)`` for each tau (the paper's Figures 3b/4b y-axis)."""
        total = self.total
        if total == 0:
            raise ValueError("empty histogram has no CCDF")
        taus = np.asarray(taus, dtype=np.int64)
        cumulative = np.cumsum(self._counts[: self._max_seen + 1])
        clipped = np.clip(taus, 0, self._max_seen)
        at_or_below = np.where(taus >= 0, cumulative[clipped], 0)
        at_or_below = np.where(taus > self._max_seen, total, at_or_below)
        return (total - at_or_below) / total

    def quantile_of_ccdf(self, level: float) -> int:
        """Smallest tau with ``P(T > tau) <= level`` (e.g. level=1e-4)."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        return self.percentile(1.0 - level)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResponseTimeHistogram total={self.total} "
            f"mean={self.mean():.3f} max={self._max_seen}>"
        )


class QueueLengthSeries:
    """Per-round total queue length, for stability diagnostics.

    Records ``sum_s q_s(t)`` each round; exposes summary statistics and a
    growth-slope estimate (positive slope at admissible load signals an
    unstable policy, cf. the paper's footnote 1).
    """

    def __init__(self, rounds_hint: int = 1024) -> None:
        self._values = np.zeros(max(16, rounds_hint), dtype=np.int64)
        self._count = 0

    def record(self, total_queue_length: int) -> None:
        """Append one round's total queue length."""
        if self._count == self._values.size:
            grown = np.zeros(self._values.size * 2, dtype=np.int64)
            grown[: self._count] = self._values
            self._values = grown
        self._values[self._count] = total_queue_length
        self._count += 1

    def record_many(self, totals: np.ndarray) -> None:
        """Append one total per round, in round order (bulk ``record``)."""
        totals = np.asarray(totals, dtype=np.int64)
        if totals.ndim != 1:
            raise ValueError("totals must be a 1-D array of per-round values")
        needed = self._count + totals.size
        if needed > self._values.size:
            grown = np.zeros(max(self._values.size * 2, needed), dtype=np.int64)
            grown[: self._count] = self._values[: self._count]
            self._values = grown
        self._values[self._count : needed] = totals
        self._count = needed

    @property
    def values(self) -> np.ndarray:
        """The recorded series as a read-only array."""
        view = self._values[: self._count]
        view.flags.writeable = False
        return view

    def mean(self) -> float:
        """Time-averaged total queue length."""
        if self._count == 0:
            return float("nan")
        return float(self.values.mean())

    def growth_slope(self) -> float:
        """Least-squares slope of total queue length per round.

        Near zero for a stable policy at admissible load; solidly positive
        when some queue grows without bound.
        """
        if self._count < 2:
            return 0.0
        y = self.values.astype(np.float64)
        x = np.arange(self._count, dtype=np.float64)
        return float(np.polyfit(x, y, 1)[0])

    def tail_to_head_ratio(self, fraction: float = 0.25) -> float:
        """Mean of the last ``fraction`` of rounds over the first.

        A scale-free instability signal: ~1 for stationary series, large
        for growing ones.  Series shorter than 8 rounds have no
        meaningful head/tail split and yield NaN (they used to silently
        report 1.0, masquerading as a confident "stationary" verdict).
        """
        if not 0.0 < fraction <= 0.5:
            raise ValueError("fraction must be in (0, 0.5]")
        if self._count < 8:
            return float("nan")
        k = max(1, int(self._count * fraction))
        head = float(self.values[:k].mean())
        tail = float(self.values[-k:].mean())
        return tail / max(head, 1.0)
