"""Tests for JSON simulation-result persistence."""

import json

import numpy as np
import pytest

from repro.experiments.persistence import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.experiments import Experiment
from repro.workloads.scenarios import SystemSpec

SYSTEM = SystemSpec(num_servers=10, num_dispatchers=2, profile="u1_10")


@pytest.fixture(scope="module")
def result():
    return Experiment("scd", SYSTEM, 0.8, rounds=200, base_seed=0).run().only().result


class TestResultRoundTrip:
    def test_dict_round_trip_is_lossless(self, result):
        restored = result_from_dict(result_to_dict(result))
        assert restored.policy_name == result.policy_name
        assert restored.total_arrived == result.total_arrived
        assert restored.total_departed == result.total_departed
        assert restored.final_queued == result.final_queued
        np.testing.assert_array_equal(restored.final_queues, result.final_queues)
        np.testing.assert_array_equal(
            restored.histogram.counts, result.histogram.counts
        )
        np.testing.assert_array_equal(
            restored.queue_series.values, result.queue_series.values
        )
        assert restored.mean_response_time == result.mean_response_time

    def test_file_round_trip(self, result, tmp_path):
        path = save_result(result, tmp_path / "sub" / "run.json")
        assert path.exists()
        restored = load_result(path)
        assert restored.summary() == result.summary()

    def test_payload_is_plain_json(self, result):
        json.dumps(result_to_dict(result))  # must not raise

    def test_version_check(self, result):
        payload = result_to_dict(result)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            result_from_dict(payload)

    def test_series_absence_preserved(self, tmp_path):
        from repro.sim.engine import SimulationConfig
        import repro

        run = repro.Simulation(
            rates=np.ones(3),
            policy=repro.make_policy("jsq"),
            arrivals=repro.PoissonArrivals(np.ones(2)),
            service=repro.GeometricService(np.ones(3)),
            config=SimulationConfig(rounds=50, track_queue_series=False),
        ).run()
        restored = result_from_dict(result_to_dict(run))
        assert restored.queue_series is None


class TestSizedResults:
    def test_sized_round_trip_keeps_job_count(self):
        import repro

        rates = np.full(3, 4.0)
        run = repro.Simulation(
            rates=rates,
            policy=repro.make_policy("jsq"),
            arrivals=repro.PoissonArrivals(np.ones(2)),
            service=repro.GeometricService(rates),
            config=repro.SimulationConfig(rounds=60),
            sizes=repro.GeometricSize(2.0),
        ).run()
        payload = result_to_dict(run)
        assert payload["total_jobs"] == run.total_jobs
        restored = result_from_dict(json.loads(json.dumps(payload)))
        assert restored.total_jobs == run.total_jobs
        assert restored.total_arrived == run.total_arrived
        np.testing.assert_array_equal(restored.final_queues, run.final_queues)

    def test_unit_payload_has_no_job_count(self, result):
        assert "total_jobs" not in result_to_dict(result)
        assert result_from_dict(result_to_dict(result)).total_jobs is None

    def test_retired_sized_result_refused(self):
        """The ``sized_result`` format, written before sized and unit jobs
        shared one result type, is refused by name."""
        payload = {
            "format_version": 1,
            "kind": "sized_result",
            "policy_name": "jsq",
            "histogram": {},
            "total_jobs": 262,
            "total_units_arrived": 507,
            "total_units_departed": 505,
            "final_units_queued": 2,
        }
        with pytest.raises(ValueError, match="'sized_result' format is retired"):
            result_from_dict(payload)
