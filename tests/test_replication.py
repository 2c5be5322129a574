"""Tests for replicated experiments and paired comparisons."""

import numpy as np
import pytest

from repro.analysis.replication import ReplicatedResult, paired_comparison
from repro.experiments import Experiment, PolicySpec
from repro.workloads.scenarios import SystemSpec

SYSTEM = SystemSpec(num_servers=15, num_dispatchers=3, profile="u1_10")


def replicated(policy, replications) -> ReplicatedResult:
    """One policy's per-replication means at rho = 0.9."""
    records = Experiment(
        policy, SYSTEM, 0.9, replications=replications, rounds=300, base_seed=1
    ).run(keep_results=False)
    means = tuple(record.metrics["mean"] for record in records)
    return ReplicatedResult(records.records[0].policy, SYSTEM, 0.9, means)


class TestReplicatedResult:
    def test_statistics(self):
        result = ReplicatedResult("x", SYSTEM, 0.9, (2.0, 3.0, 4.0))
        assert result.mean == 3.0
        assert result.replications == 3
        assert result.std_error == pytest.approx(1.0 / np.sqrt(3))

    def test_ci_contains_mean_and_widens_with_level(self):
        result = ReplicatedResult("x", SYSTEM, 0.9, (2.0, 3.0, 4.0))
        lo95, hi95 = result.confidence_interval(0.95)
        lo99, hi99 = result.confidence_interval(0.99)
        assert lo99 < lo95 < result.mean < hi95 < hi99

    def test_single_replication_degenerate_ci(self):
        result = ReplicatedResult("x", SYSTEM, 0.9, (2.5,))
        assert result.confidence_interval() == (2.5, 2.5)
        assert result.std_error == 0.0

    def test_ci_level_validation(self):
        result = ReplicatedResult("x", SYSTEM, 0.9, (2.0, 3.0))
        with pytest.raises(ValueError):
            result.confidence_interval(1.5)

    def test_str(self):
        result = ReplicatedResult("scd", SYSTEM, 0.9, (2.0, 3.0))
        assert "scd" in str(result) and "2 reps" in str(result)


class TestReplicatedRuns:
    def test_replication_count_and_variation(self):
        result = replicated("scd", 3)
        assert result.replications == 3
        # Independent workloads: replication means differ.
        assert len(set(result.replication_means)) > 1

    def test_deterministic(self):
        a = replicated("scd", 2)
        b = replicated("scd", 2)
        assert a.replication_means == b.replication_means

    def test_validation(self):
        with pytest.raises(ValueError):
            replicated("scd", 0)

    def test_policy_kwargs_forwarded(self):
        result = replicated(PolicySpec.of("scd", estimator="oracle"), 1)
        assert result.replications == 1
        assert result.policy == "scd[estimator=oracle]"


class TestPairedComparison:
    def test_scd_significantly_beats_random(self):
        scd = replicated("scd", 4)
        rnd = replicated("random", 4)
        outcome = paired_comparison(scd, rnd)
        assert outcome["mean_improvement"] > 0
        assert outcome["significant"]

    def test_self_comparison_not_significant(self):
        a = replicated("scd", 4)
        with pytest.raises(ValueError):
            # identical tuples make ttest degenerate; guard via design check
            paired_comparison(
                a,
                ReplicatedResult("scd", SYSTEM, 0.8, a.replication_means),
            )

    def test_mismatched_designs_rejected(self):
        a = replicated("scd", 2)
        b = replicated("jsq", 3)
        with pytest.raises(ValueError):
            paired_comparison(a, b)

    def test_needs_two_replications(self):
        a = replicated("scd", 1)
        b = replicated("jsq", 1)
        with pytest.raises(ValueError):
            paired_comparison(a, b)
