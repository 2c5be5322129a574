"""End-to-end shape checks against the paper's headline claims.

These run scaled-down versions of the paper's experiments (smaller systems,
fewer rounds, fixed seeds) and assert the *qualitative* results: who wins,
who degrades, and the direction of the gaps.  The full-scale numbers live
in the benchmark suite and EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.experiments import Experiment, PolicySpec, simulate_cell
from repro.policies.base import make_policy
from repro.workloads.scenarios import SystemSpec

MODERATE = SystemSpec(num_servers=40, num_dispatchers=5, profile="u1_10")
EXTREME = SystemSpec(num_servers=40, num_dispatchers=5, profile="u1_100")


def experiment(policies, systems, rho) -> Experiment:
    return Experiment(policies, systems, rho, rounds=2500, base_seed=11)


def results(policies, systems, rho) -> list:
    """Full simulation results in grid order (systems outer, policies inner)."""
    return [record.result for record in experiment(policies, systems, rho).run()]


@pytest.fixture(scope="module")
def moderate_results():
    policies = ["scd", "twf", "jsq", "sed", "hjsq(2)", "hjiq", "hlsq", "wr"]
    return dict(zip(policies, results(policies, MODERATE, 0.9)))


@pytest.fixture(scope="module")
def extreme_results():
    policies = ["scd", "twf", "sed", "hlsq"]
    return dict(zip(policies, results(policies, EXTREME, 0.9)))


class TestSCDWins:
    def test_scd_has_best_mean_under_moderate_heterogeneity(self, moderate_results):
        means = {p: r.mean_response_time for p, r in moderate_results.items()}
        best = min(means, key=means.get)
        assert best == "scd", means

    def test_scd_has_best_mean_under_extreme_heterogeneity(self, extreme_results):
        means = {p: r.mean_response_time for p, r in extreme_results.items()}
        best = min(means, key=means.get)
        assert best == "scd", means

    def test_scd_has_best_p99_tail(self, moderate_results):
        p99 = {p: r.histogram.percentile(0.99) for p, r in moderate_results.items()}
        assert p99["scd"] == min(p99.values()), p99


class TestTWFDegradesUnderHeterogeneity:
    """The paper's motivating contrast: [22]'s TWF ignores rates."""

    def test_twf_worse_than_scd(self, moderate_results):
        assert (
            moderate_results["twf"].mean_response_time
            > moderate_results["scd"].mean_response_time
        )

    def test_twf_tail_collapses_at_high_heterogeneity(self, extreme_results):
        """Under U[1,100], TWF's p99 degrades vs heterogeneity-aware
        policies (Figure 4b shows an order of magnitude at high load)."""
        p99 = {p: r.histogram.percentile(0.99) for p, r in extreme_results.items()}
        assert p99["twf"] > 2 * p99["scd"], p99
        assert p99["twf"] > p99["sed"], p99


class TestHerding:
    """More dispatchers hurt deterministic policies but not SCD."""

    def test_jsq_degrades_with_more_dispatchers(self):
        single, many = results(
            "jsq", [SystemSpec(40, 1, "u1_10"), SystemSpec(40, 10, "u1_10")], 0.9
        )
        assert many.mean_response_time > 1.15 * single.mean_response_time

    def test_scd_robust_to_more_dispatchers(self):
        single, many = results(
            "scd", [SystemSpec(40, 1, "u1_10"), SystemSpec(40, 10, "u1_10")], 0.9
        )
        assert many.mean_response_time < 1.25 * single.mean_response_time


class TestHeterogeneityAwareVariantsHelp:
    def test_hjsq2_beats_jsq2(self):
        jsq2, hjsq2 = results(["jsq(2)", "hjsq(2)"], MODERATE, 0.9)
        assert hjsq2.mean_response_time < jsq2.mean_response_time

    def test_hjiq_beats_jiq_at_high_load(self):
        jiq, hjiq = results(["jiq", "hjiq"], MODERATE, 0.95)
        assert hjiq.mean_response_time < jiq.mean_response_time


class TestEstimatorAblation:
    def test_oracle_close_to_scaled(self):
        """Eq. 18's simple estimator should be near the oracle's quality
        (the deviations compensate, Section 5.1)."""
        scaled, oracle = results(
            ["scd", PolicySpec.of("scd", estimator="oracle")], MODERATE, 0.9
        )
        assert scaled.mean_response_time < 1.3 * oracle.mean_response_time

    def test_wild_constant_estimate_hurts(self):
        """An absurdly large a_est degenerates toward weighted-random."""
        scaled, huge = results(
            ["scd", PolicySpec.of("scd", estimator=100_000.0)], MODERATE, 0.9
        )
        assert huge.mean_response_time > scaled.mean_response_time


class TestConnectivityExtension:
    def test_scd_with_partial_connectivity_still_works(self):
        rng = np.random.default_rng(0)
        m, n = MODERATE.num_dispatchers, MODERATE.num_servers
        # Each dispatcher sees a random 60% of servers.
        mask = rng.random((m, n)) < 0.6
        mask[:, 0] = True  # guarantee non-empty rows
        # An array kwarg cannot be declared on a grid: run the policy
        # object on the seed of the cell it replaces.
        cell = next(experiment("scd", MODERATE, 0.8).cells())
        result = simulate_cell(
            make_policy("scd", connectivity=mask),
            MODERATE,
            0.8,
            cell.workload,
            cell.seed,
            cell.rounds,
        )
        assert result.total_arrived == result.total_departed + result.final_queued
        assert result.mean_response_time < 15.0
