"""Tests for the response-time histogram and queue-length series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import Experiment, metrics_from_result
from repro.sim.metrics import QueueLengthSeries, ResponseTimeHistogram
from repro.workloads.scenarios import SystemSpec


def fill(samples):
    hist = ResponseTimeHistogram()
    for s in samples:
        hist.record(int(s))
    return hist


class TestHistogramBasics:
    def test_empty(self):
        hist = ResponseTimeHistogram()
        assert hist.total == 0
        assert np.isnan(hist.mean())
        with pytest.raises(ValueError):
            hist.percentile(0.5)
        with pytest.raises(ValueError):
            hist.ccdf([1])

    def test_rejects_bad_values(self):
        hist = ResponseTimeHistogram()
        with pytest.raises(ValueError):
            hist.record(0)
        with pytest.raises(ValueError):
            ResponseTimeHistogram(initial_capacity=1)

    def test_record_with_count(self):
        hist = ResponseTimeHistogram()
        hist.record(3, count=5)
        assert hist.total == 5
        assert hist.mean() == 3.0

    def test_zero_count_ignored(self):
        hist = ResponseTimeHistogram()
        hist.record(3, count=0)
        assert hist.total == 0

    def test_growth_beyond_initial_capacity(self):
        hist = ResponseTimeHistogram(initial_capacity=2)
        hist.record(1000)
        assert hist.max_response_time == 1000
        assert hist.total == 1

    def test_load_state_adds_counts(self):
        """Pooling two histograms is one ``load_state`` of the other's
        ``state_dict``: counts add and the max grows."""
        a = fill([1, 2, 3])
        a.load_state(fill([3, 4]).state_dict())
        assert a.total == 5
        assert a.counts[3] == 2
        assert a.max_response_time == 4

    def test_load_state_empty_is_noop(self):
        a = fill([1, 2])
        a.load_state(ResponseTimeHistogram().state_dict())
        assert a.total == 2
        assert a.max_response_time == 2


class TestHistogramStatistics:
    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=300)
    )
    @settings(max_examples=150)
    def test_mean_matches_numpy(self, samples):
        hist = fill(samples)
        assert hist.mean() == pytest.approx(np.mean(samples))

    @given(
        st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=200),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=150)
    def test_percentile_definition(self, samples, q):
        """percentile(q) is the smallest t with P(T <= t) >= q."""
        hist = fill(samples)
        t = hist.percentile(q)
        arr = np.asarray(samples)
        assert (arr <= t).mean() >= q - 1e-12
        if t > 1:
            assert (arr <= t - 1).mean() < q

    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=200)
    )
    @settings(max_examples=100)
    def test_ccdf_matches_empirical(self, samples):
        hist = fill(samples)
        arr = np.asarray(samples)
        taus = np.arange(0, 105)
        expected = [(arr > tau).mean() for tau in taus]
        np.testing.assert_allclose(hist.ccdf(taus), expected, atol=1e-12)

    def test_ccdf_edges(self):
        hist = fill([1, 2, 3, 4])
        np.testing.assert_allclose(hist.ccdf([0]), [1.0])
        np.testing.assert_allclose(hist.ccdf([4]), [0.0])
        np.testing.assert_allclose(hist.ccdf([100]), [0.0])

    def test_quantile_of_ccdf(self):
        hist = ResponseTimeHistogram()
        hist.record(1, count=9_999)
        hist.record(50, count=1)
        # P(T > 1) = 1e-4 exactly, so the 1e-4 level is met at tau = 1...
        assert hist.quantile_of_ccdf(1e-4) == 1
        # ...while any stricter level needs the full tail.
        assert hist.quantile_of_ccdf(5e-5) == 50
        assert hist.quantile_of_ccdf(0.5) == 1

    def test_percentile_validation(self):
        hist = fill([1])
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)


SUMMARY_KEYS = ["mean", "p50", "p95", "p99", "p999", "max"]


class TestSummary:
    """One summary serves results, record metrics and the responses probe."""

    def test_filled_histogram(self):
        hist = fill([1, 2, 2, 3, 7, 40] * 200 + [90])
        assert list(hist.summary().items()) == [
            ("mean", hist.mean()),
            ("p50", 3.0),
            ("p95", 40.0),
            ("p99", 40.0),
            ("p999", 40.0),
            ("max", 90.0),
        ]

    def test_empty_histogram(self):
        summary = ResponseTimeHistogram().summary()
        assert list(summary) == SUMMARY_KEYS
        assert all(np.isnan(summary[key]) for key in SUMMARY_KEYS[:-1])
        assert summary["max"] == 0.0

    def test_grid_cell_without_jobs(self):
        """A load so low that no job arrives gives NaN metrics, not a crash."""
        record = Experiment(
            "jsq", SystemSpec(10, 2), 0.001, rounds=20, backend="fast"
        ).run().only()
        assert record.metrics["arrived"] == 0.0
        assert list(record.metrics)[:6] == SUMMARY_KEYS
        assert np.isnan(record.metrics["p99"])
        probe = record.result.probes["responses"].summary()
        assert list(probe) == ["total", *SUMMARY_KEYS]

    def test_three_summaries_agree(self):
        result = Experiment("jsq", SystemSpec(10, 2), 0.8, rounds=200).run().only().result
        summary = result.summary()
        assert list(summary) == SUMMARY_KEYS
        assert {k: metrics_from_result(result)[k] for k in SUMMARY_KEYS} == summary
        probe = result.probes["responses"].summary()
        assert probe == {"total": float(result.histogram.total), **summary}


class TestQueueSeries:
    def test_record_and_values(self):
        series = QueueLengthSeries(rounds_hint=2)
        for v in [1, 2, 3, 4, 5]:
            series.record(v)
        np.testing.assert_array_equal(series.values, [1, 2, 3, 4, 5])
        assert series.mean() == 3.0

    def test_growth_slope_of_linear_series(self):
        series = QueueLengthSeries()
        for t in range(100):
            series.record(5 * t + 3)
        assert series.growth_slope() == pytest.approx(5.0)

    def test_growth_slope_of_flat_series(self):
        series = QueueLengthSeries()
        for _ in range(100):
            series.record(7)
        assert series.growth_slope() == pytest.approx(0.0, abs=1e-9)

    def test_tail_to_head_ratio(self):
        series = QueueLengthSeries()
        for v in [10] * 50 + [100] * 50:
            series.record(v)
        assert series.tail_to_head_ratio() == pytest.approx(10.0)

    def test_tail_to_head_short_series_is_nan(self):
        # Shorter than 8 rounds: no meaningful head/tail split.  (Used
        # to silently report 1.0 -- a confident-looking "stationary".)
        series = QueueLengthSeries()
        series.record(3)
        assert np.isnan(series.tail_to_head_ratio())

    def test_record_many_matches_record(self):
        a, b = QueueLengthSeries(rounds_hint=4), QueueLengthSeries(rounds_hint=4)
        values = [5, 0, 3, 9, 1, 7, 2, 8, 4]
        for v in values:
            a.record(v)
        b.record_many(np.asarray(values))
        assert np.array_equal(a.values, b.values)

    def test_record_many_rejects_matrix(self):
        with pytest.raises(ValueError):
            QueueLengthSeries().record_many(np.zeros((2, 2), dtype=np.int64))

    def test_empty_mean_is_nan(self):
        assert np.isnan(QueueLengthSeries().mean())

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            QueueLengthSeries().tail_to_head_ratio(fraction=0.9)
