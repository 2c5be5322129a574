"""Edge-case coverage: degenerate shapes and unusual configurations."""

import numpy as np
import pytest

from repro.analysis.ccdf import ccdf_series
from repro.experiments import Experiment, PolicySpec
from repro.policies.base import SystemContext, make_policy
from repro.sim.arrivals import DeterministicArrivals, PoissonArrivals
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.metrics import ResponseTimeHistogram
from repro.sim.service import GeometricService
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


ALL_POLICIES = [
    "scd",
    "twf",
    "jsq",
    "sed",
    "jsq(2)",
    "hjsq(2)",
    "jiq",
    "hjiq",
    "lsq",
    "hlsq",
    "led",
    "hled",
    "wr",
    "random",
    "rr",
    "wrr",
]


class TestSingleServer:
    """n = 1: every policy must send everything to the only server."""

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_all_jobs_to_the_only_server(self, name):
        policy = bind(make_policy(name), rates=[3.0], m=2)
        policy.begin_round(0, np.array([5], dtype=np.int64))
        counts = policy.dispatch(0, 7)
        np.testing.assert_array_equal(counts, [7])


class TestManyDispatchersFewServers:
    def test_m_greater_than_n(self):
        system = SystemSpec(num_servers=3, num_dispatchers=12, profile="u1_10")
        result = Experiment("scd", system, 0.8, rounds=300).run().only().result
        assert result.total_arrived == result.total_departed + result.final_queued

    def test_single_dispatcher_scd_estimate_is_exact(self):
        """With m = 1, Eq. 18 gives the true total: SCD sees perfect info."""
        system = SystemSpec(num_servers=10, num_dispatchers=1, profile="u1_10")
        scaled, oracle = Experiment(
            ["scd", PolicySpec.of("scd", estimator="oracle")],
            system,
            0.9,
            rounds=500,
        ).run()
        assert scaled.mean_response_time == pytest.approx(
            oracle.mean_response_time, rel=1e-12
        )


class TestLargeBatches:
    def test_jiq_batch_larger_than_idle_set(self):
        policy = bind(make_policy("jiq"), rates=np.ones(4))
        policy.begin_round(0, np.array([0, 0, 0, 0]))
        counts = policy.dispatch(0, 100)
        assert counts.sum() == 100
        # All four idle servers get exactly one "idle" job; rest random.
        assert np.all(counts >= 1)

    def test_power_of_d_with_d_exceeding_n(self):
        policy = bind(make_policy("jsq(d)", d=10), rates=np.ones(3))
        policy.begin_round(0, np.array([4, 0, 9]))
        counts = policy.dispatch(0, 5)
        assert counts.sum() == 5
        # d=10 samples over 3 servers nearly always include the shortest.
        assert counts[1] >= 4


class TestFloatQueueEstimates:
    def test_greedy_accepts_float_estimates(self):
        """LSQ/LED rank on float local estimates; the fill must cope."""
        from repro.policies.greedy import greedy_batch_assign, greedy_certificate_ok

        estimates = np.array([0.5, 2.25, 1.75])
        rates = np.array([1.0, 2.0, 1.5])
        counts = greedy_batch_assign(estimates, rates, 9)
        assert counts.sum() == 9
        assert greedy_certificate_ok(estimates, rates, counts)

    def test_iwl_accepts_float_queues(self):
        from repro.core.iwl import compute_iwl

        assert compute_iwl([0.5, 1.5], [1.0, 1.0], 2.0) == pytest.approx(2.0)


class TestSparseArrivals:
    def test_mostly_idle_system(self):
        """Arrival rate far below one job per round system-wide."""
        rates = np.ones(5)
        sim = Simulation(
            rates=rates,
            policy=make_policy("scd"),
            arrivals=PoissonArrivals(np.full(2, 0.05)),
            service=GeometricService(rates),
            config=SimulationConfig(rounds=2000, seed=3),
        )
        result = sim.run()
        assert result.total_arrived > 0
        # Nearly every job is alone in an empty system: response ~ 1-2.
        assert result.mean_response_time < 2.5

    def test_single_job_rounds_use_eq9_path(self):
        """a_d = 1 with m = 1 exercises the a = 1 closed form end to end."""
        rates = np.array([1.0, 5.0])
        sim = Simulation(
            rates=rates,
            policy=make_policy("scd"),
            arrivals=DeterministicArrivals(np.array([1.0])),
            service=GeometricService(rates),
            config=SimulationConfig(rounds=300, seed=1),
        )
        result = sim.run()
        assert result.total_arrived == 300
        # The fast server has the lower (2q+1)/mu key when both are short;
        # it should receive the bulk of the singleton jobs.
        assert result.server_received[1] > result.server_received[0]


class TestMetricsEdges:
    def test_ccdf_series_two_points(self):
        hist = ResponseTimeHistogram()
        hist.record(1, 5)
        taus, values = ccdf_series(hist, num_points=2)
        assert values[-1] == 0.0

    def test_histogram_single_value(self):
        hist = ResponseTimeHistogram()
        hist.record(7, count=100)
        assert hist.percentile(0.001) == 7
        assert hist.percentile(1.0) == 7
        assert hist.mean() == 7.0

    def test_format_table_mixed_types(self):
        from repro.analysis.tables import format_table

        text = format_table(["a", "b"], [[1, float("nan")], ["x", 2.5]])
        assert "nan" in text and "2.500" in text


class TestCLIEdges:
    def test_stability_overload_skips_bound(self, capsys):
        from repro.cli import main

        code = main(
            [
                "stability", "--policy", "wr", "--rho", "1.2",
                "--servers", "5", "--dispatchers", "2", "--rounds", "200",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "UNSTABLE" in out
        assert "Appendix D" not in out  # no bound at inadmissible load


class TestPolicyReuse:
    def test_rebinding_raises(self):
        """Binding a bound policy to a second simulation fails loudly.

        Policies carry per-system mutable state, so silent rebinding
        would share it across simulations; fresh instances per
        simulation are the contract.
        """
        policy = make_policy("lsq")
        rates = np.ones(4)

        def build(policy, seed):
            return Simulation(
                rates=rates,
                policy=policy,
                arrivals=PoissonArrivals(np.full(2, 1.5)),
                service=GeometricService(rates),
                config=SimulationConfig(rounds=100, seed=seed),
            )

        result = build(policy, seed=0).run()
        assert result.total_arrived == result.total_departed + result.final_queued
        with pytest.raises(RuntimeError, match="already bound"):
            build(policy, seed=1)
        # A fresh instance binds fine.
        result = build(make_policy("lsq"), seed=1).run()
        assert result.total_arrived == result.total_departed + result.final_queued
