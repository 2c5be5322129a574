"""Tests for the analysis layer: experiment runs, CCDF helpers, tables, run-time."""

import numpy as np
import pytest

from repro.analysis.ccdf import ccdf_series, tail_improvement_factor, tail_quantiles
from repro.analysis.runtime import (
    RUNTIME_TECHNIQUES,
    collect_snapshots,
    measure_decision_times,
    runtime_cdf_summary,
)
from repro.analysis.tables import format_series_table, format_table
from repro.experiments import Experiment, PolicySpec
from repro.sim.metrics import ResponseTimeHistogram
from repro.workloads.scenarios import SystemSpec

SMALL = SystemSpec(num_servers=12, num_dispatchers=3, profile="u1_10")


def quick(policies, loads) -> Experiment:
    return Experiment(policies, SMALL, loads, rounds=250, base_seed=0)


class TestRunner:
    def test_single_cell_smoke(self):
        result = quick("scd", 0.8).run().only().result
        assert result.policy_name == "scd"
        assert result.total_arrived > 0
        assert result.mean_response_time >= 1.0

    def test_common_random_numbers(self):
        a, b = quick(["scd", "jsq"], 0.8).run()
        assert a.result.total_arrived == b.result.total_arrived

    def test_policy_kwargs_forwarded(self):
        result = quick(PolicySpec.of("jsq(d)", d=3), 0.5).run().only().result
        assert result.policy_name == "jsq(3)"

    def test_sweep_structure(self):
        sweep = quick(["scd", "wr"], (0.5, 0.8)).run(keep_results=False)
        assert [r.policy for r in sweep.filter(rho=0.5)] == ["scd", "wr"]
        assert sweep.experiment.loads == (0.5, 0.8)
        assert len(sweep.filter(policy="scd")) == 2
        assert all(r.mean_response_time >= 1.0 for r in sweep.filter(policy="wr"))

    def test_sweep_best_policy(self):
        sweep = quick(["scd", "random"], 0.9).run(keep_results=False)
        assert sweep.best_policy_at(0.9) == "scd"

    def test_full_results_at_one_load(self):
        records = quick(["scd", "wr"], 0.9).run()
        assert {r.policy for r in records} == {"scd", "wr"}
        for record in records:
            assert record.result.histogram.total > 0


class TestCCDFHelpers:
    def make_hist(self):
        hist = ResponseTimeHistogram()
        hist.record(1, count=900)
        hist.record(5, count=90)
        hist.record(20, count=9)
        hist.record(100, count=1)
        return hist

    def test_ccdf_series_shape(self):
        taus, values = ccdf_series(self.make_hist(), num_points=20)
        assert taus.shape == values.shape
        assert values[0] == 1.0
        assert values[-1] == 0.0
        assert np.all(np.diff(values) <= 1e-12)  # non-increasing

    def test_ccdf_series_max_tau(self):
        taus, _ = ccdf_series(self.make_hist(), max_tau=10, num_points=5)
        assert taus.max() <= 10

    def test_tail_quantiles(self):
        q = tail_quantiles(self.make_hist(), levels=(1e-1, 1e-2, 1e-3))
        assert q[1e-1] == 1
        assert q[1e-2] == 5
        assert q[1e-3] == 20

    def test_tail_quantiles_beyond_resolution(self):
        hist = ResponseTimeHistogram()
        hist.record(3, count=10)
        q = tail_quantiles(hist, levels=(1e-6,))
        assert q[1e-6] == 3  # falls back to the max observed

    def test_improvement_factor(self):
        good = ResponseTimeHistogram()
        good.record(2, count=10_000)
        good.record(10, count=2)  # P(T > 2) ~ 2e-4 > 1e-4
        bad = ResponseTimeHistogram()
        bad.record(2, count=10_000)
        bad.record(40, count=2)
        factor, name = tail_improvement_factor(good, {"bad": bad}, level=1e-4)
        assert name == "bad"
        assert factor == pytest.approx(4.0)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            ["policy", "mean"], [["scd", 2.5], ["jsq", 4.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "policy" in lines[1]
        assert "2.500" in text
        assert "4.250" in text

    def test_format_series_table(self):
        text = format_series_table(
            "rho",
            [0.5, 0.9],
            {"scd": [1.0, 2.0], "jsq": [1.5, 4.0]},
        )
        assert "rho" in text
        assert "scd" in text and "jsq" in text
        assert "4.000" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestRuntimeHarness:
    def test_collect_snapshots(self):
        snaps = collect_snapshots(SMALL, rho=0.9, rounds=30, max_snapshots=40)
        assert 0 < len(snaps) <= 40
        for snap in snaps[:5]:
            assert snap.queues.shape == (SMALL.num_servers,)
            assert snap.batch_size >= 1

    def test_measure_all_techniques(self):
        snaps = collect_snapshots(SMALL, rho=0.9, rounds=20, max_snapshots=10)
        rates = SMALL.rates()
        for technique in RUNTIME_TECHNIQUES:
            times = measure_decision_times(
                technique, snaps, rates, SMALL.num_dispatchers
            )
            assert times.shape == (len(snaps),)
            assert np.all(times > 0)

    def test_summary_keys(self):
        summary = runtime_cdf_summary(np.array([1e-6, 2e-6, 3e-6]))
        assert summary["p50_us"] == pytest.approx(2.0)
        assert summary["mean_us"] == pytest.approx(2.0)
