"""Tests for the LED policy and the round-robin family."""

import numpy as np
import pytest

from repro.experiments import Experiment
from repro.policies.base import SystemContext, make_policy
from repro.workloads.scenarios import SystemSpec


def bind(policy, rates, m=2, seed=0):
    policy.bind(
        SystemContext(
            rates=np.asarray(rates, dtype=np.float64),
            num_dispatchers=m,
            rng=np.random.default_rng(seed),
        )
    )
    return policy


class TestLED:
    def test_registered_variants(self):
        assert make_policy("led").name == "led"
        assert make_policy("hled").name == "hled"
        assert make_policy("hled").heterogeneity_aware

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            make_policy("led", samples_per_job=-1)

    def test_estimates_drain_by_service_rates(self):
        rates = np.array([3.0, 1.0])
        policy = bind(make_policy("led"), rates=rates, m=1)
        queues = np.array([10, 10])
        policy.begin_round(0, queues)
        policy.dispatch(0, 0 + 1)  # tiny batch; establishes batch size
        policy._local[0] = np.array([10.0, 10.0])
        policy.end_round(0, np.array([0, 0]))
        # Drift applies before sampling: entries fall by mu (then any
        # sampled entry snaps to the true value 0).
        assert np.all(policy._local[0] <= np.array([7.0, 9.0]) + 1e-12)

    def test_estimates_never_negative(self):
        policy = bind(make_policy("led"), rates=np.array([5.0, 5.0]), m=1)
        policy.begin_round(0, np.array([1, 1]))
        policy.dispatch(0, 1)
        for t in range(5):
            policy.end_round(t, np.array([0, 0]))
        assert np.all(policy._local >= 0.0)

    def test_led_tracks_better_than_lsq_between_samples(self):
        """With sparse sampling, LED's drift correction keeps estimates
        closer to the truth than LSQ's frozen entries."""
        rates = np.full(20, 2.0)
        system_queues = np.full(20, 6, dtype=np.int64)
        led = bind(make_policy("led", samples_per_job=0.01), rates, m=1, seed=3)
        lsq = bind(make_policy("lsq", samples_per_job=0.01), rates, m=1, seed=3)
        # Teach both the same initial view, then let queues drain for
        # several rounds with (almost) no refreshes.
        for policy in (led, lsq):
            policy._local[0] = system_queues.astype(float)
        drained = np.zeros(20, dtype=np.int64)
        for t in range(3):
            led.begin_round(t, system_queues)
            lsq.begin_round(t, system_queues)
            led._batch_sizes[0] = 0
            lsq._batch_sizes[0] = 0
            led.end_round(t, drained)
            lsq.end_round(t, drained)
        led_error = np.abs(led._local[0] - drained).mean()
        lsq_error = np.abs(lsq._local[0] - drained).mean()
        assert led_error < lsq_error

    def test_end_to_end_and_competitive(self):
        system = SystemSpec(num_servers=30, num_dispatchers=4, profile="u1_10")
        experiment = Experiment(["hled", "hlsq"], system, 0.9, rounds=1200, base_seed=2)
        led, lsq = (record.result for record in experiment.run())
        assert led.total_arrived == led.total_departed + led.final_queued
        # LED's fresher views should not be (much) worse than LSQ's.
        assert led.mean_response_time < 1.5 * lsq.mean_response_time


class TestRoundRobin:
    def test_rr_cycles(self):
        policy = bind(make_policy("rr"), rates=np.ones(4), m=1)
        counts = policy.dispatch(0, 8)
        np.testing.assert_array_equal(counts, [2, 2, 2, 2])

    def test_rr_position_persists_across_rounds(self):
        policy = bind(make_policy("rr"), rates=np.ones(4), m=1)
        policy.dispatch(0, 2)  # servers 0, 1
        counts = policy.dispatch(0, 2)  # servers 2, 3
        np.testing.assert_array_equal(counts, [0, 0, 1, 1])

    def test_rr_dispatchers_staggered(self):
        policy = bind(make_policy("rr"), rates=np.ones(4), m=2)
        first = policy.dispatch(0, 1)
        second = policy.dispatch(1, 1)
        assert np.argmax(first) != np.argmax(second)

    def test_wrr_long_run_shares_match_rates(self):
        rates = np.array([6.0, 3.0, 1.0])
        policy = bind(make_policy("wrr"), rates=rates, m=1)
        counts = policy.dispatch(0, 1000)
        np.testing.assert_allclose(counts / 1000, rates / rates.sum(), atol=0.01)

    def test_wrr_smooth_interleaving(self):
        # Weights 2:1 -> pattern avoids consecutive same-server runs
        # longer than necessary: in any prefix the share error is <= 1.
        rates = np.array([2.0, 1.0])
        policy = bind(make_policy("wrr"), rates=rates, m=1)
        placements = []
        for _ in range(12):
            counts = policy.dispatch(0, 1)
            placements.append(int(np.argmax(counts)))
        for k in range(1, 13):
            share0 = placements[:k].count(0)
            assert abs(share0 - 2 * k / 3) <= 1.0

    def test_wrr_stable_where_rr_is_not(self):
        rates = np.array([20.0] + [1.0] * 5)
        system_kwargs = {"rounds": 1500, "base_seed": 6}
        from repro.analysis.stability import assess_stability
        from repro.sim.arrivals import PoissonArrivals
        from repro.sim.engine import Simulation, SimulationConfig
        from repro.sim.service import GeometricService

        def run(policy):
            sim = Simulation(
                rates=rates,
                policy=make_policy(policy),
                arrivals=PoissonArrivals(np.full(3, 0.95 * rates.sum() / 3)),
                service=GeometricService(rates),
                config=SimulationConfig(rounds=2500, seed=8),
            )
            return assess_stability(sim.run(), float(rates.sum()))

        assert run("wrr").stable
        assert not run("rr").stable  # uniform rotation overloads slow servers
