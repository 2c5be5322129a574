"""Tests for the herding diagnostics (the engine-fed ``herding`` probe)."""

import numpy as np
import pytest

from repro.policies.base import make_policy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.probes import ProbeBlock, ProbeContext, make_probe
from repro.sim.service import GeometricService


def observed(rates, *rounds):
    """Summary of a ``herding`` probe fed ``rounds`` of per-server admissions."""
    rates = np.asarray(rates, dtype=np.float64)
    probe = make_probe("herding")
    probe.bind(
        ProbeContext(
            num_servers=rates.size,
            num_dispatchers=1,
            rates=rates,
            rounds=max(len(rounds), 1),
        )
    )
    if rounds:
        received = np.asarray(rounds, dtype=np.int64)
        zeros = np.zeros_like(received)
        probe.observe_block(
            ProbeBlock(
                start_round=0, length=len(rounds),
                batch=np.zeros((len(rounds), 1), dtype=np.int64),
                received=received, done=zeros, queues=zeros,
            )
        )
    return probe.summary()


class TestHerdingSummary:
    def test_empty(self):
        stats = observed([1.0, 1.0])
        assert stats["mean_spike"] == 0.0
        assert stats["mean_imbalance"] == 0.0
        assert stats["max_spike"] == 0

    def test_observe_tracks_spike(self):
        stats = observed([1.0, 1.0], [5, 0], [3, 2])
        assert stats["max_spike"] == 5
        assert stats["mean_spike"] == 4.0
        assert stats["rounds"] == 2

    def test_proportional_placement_has_zero_imbalance(self):
        # Admissions exactly proportional to the rates.
        stats = observed([6.0, 3.0, 1.0], [6, 3, 1])
        assert stats["mean_imbalance"] == pytest.approx(0.0)

    def test_concentrated_placement_has_high_imbalance(self):
        balanced = observed(np.ones(4), [3, 2, 3, 2])
        piled = observed(np.ones(4), [10, 0, 0, 0])
        assert piled["mean_imbalance"] > 3 * balanced["mean_imbalance"]

    def test_empty_round_ignored(self):
        stats = observed(np.ones(3), [0, 0, 0])
        assert stats["rounds"] == 0


class TestHerdingMechanism:
    def run_probe(self, policy_name, m=8, rounds=400):
        rng = np.random.default_rng(5)
        rates = rng.uniform(1.0, 10.0, size=40)
        result = Simulation(
            rates=rates,
            policy=make_policy(policy_name),
            arrivals=PoissonArrivals(np.full(m, 0.9 * rates.sum() / m)),
            service=GeometricService(rates),
            config=SimulationConfig(rounds=rounds, seed=17, probes=("herding",)),
        ).run()
        return result, result.probes["herding"].summary()

    def test_jsq_herds_more_than_scd(self):
        """The mechanism claim: deterministic policies spike, SCD does not."""
        _, jsq_stats = self.run_probe("jsq")
        _, scd_stats = self.run_probe("scd")
        assert jsq_stats["mean_spike"] > 1.5 * scd_stats["mean_spike"]
        assert jsq_stats["max_spike"] > scd_stats["max_spike"]
        assert jsq_stats["mean_imbalance"] > scd_stats["mean_imbalance"]

    def test_stats_cover_all_rounds_with_arrivals(self):
        _, stats = self.run_probe("wr", rounds=300)
        assert stats["rounds"] <= 300
        assert stats["rounds"] > 250  # Poisson(44)-ish: rarely zero
