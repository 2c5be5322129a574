"""Tests for the mean-field (fluid-limit) backend.

The contract under test (ISSUE 10 acceptance):

* the fluid algebra is exact where it claims to be: departures are a
  linear probability map, Poisson-split arrivals a convolution, full-JSQ
  arrivals a water-filling, and all of them conserve mass and preserve
  the tail polytope;
* the integrator raises :class:`InvariantError` instead of silently
  returning broken states, and the backend raises on truncation
  overflow instead of reporting a bounded lie for an unstable system;
* capability flags are honest and enforced at every seam -- Experiment
  construction, Run.create, service submission -- before anything runs;
* statistical parity with the ``fast`` kernel at >= 200 servers on
  heterogeneous systems (including a diurnal rate-curve scenario), with
  the shared ensemble tolerance shrinking as n grows;
* cost is independent of n: a million-server system runs in seconds.
"""

import numpy as np
import pytest
from _helpers import assert_ensemble_close, ensemble_tolerance

from repro.experiments import Experiment, WorkloadSpec
from repro.meanfield import (
    FixedStepIntegrator,
    FluidModel,
    InvariantError,
    MeanFieldBackend,
    ServerClasses,
    arrival_choices_for_policy,
    euler_step,
    rk4_step,
)
from repro.policies.base import make_policy
from repro.sim.arrivals import PoissonArrivals, TraceArrivals
from repro.sim.backends import backend_capabilities, make_backend
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.probes import ProbeSpec
from repro.sim.service import GeometricService
from repro.workloads.scenarios import SystemSpec

#: Heterogeneous rate vectors for the parity suite (all n >= 200).
HET_SYSTEMS = {
    "het2": np.repeat([1.0, 3.0], [100, 100]),
    "het4": np.tile([0.5, 1.0, 2.0, 4.0], 60),
}


def build_sim(
    policy,
    rates,
    rho,
    rounds,
    *,
    m=10,
    seed=0,
    warmup=0,
    backend="meanfield",
    scenario=None,
    probes=(),
):
    rates = np.asarray(rates, dtype=np.float64)
    lambdas = np.full(m, rho * rates.sum() / m)
    return Simulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(lambdas),
        service=GeometricService(rates),
        config=SimulationConfig(
            rounds=rounds,
            seed=seed,
            warmup=warmup,
            backend=backend,
            scenario=scenario,
            probes=probes,
        ),
    )


def run_once(policy, rates, rho, rounds, **kwargs):
    return build_sim(policy, rates, rho, rounds, **kwargs).run()


# ---------------------------------------------------------------------------
# Policy mapping
# ---------------------------------------------------------------------------


class TestArrivalChoices:
    def test_regimes(self):
        assert arrival_choices_for_policy("random", 50) is None
        assert arrival_choices_for_policy("rr", 50) is None
        assert arrival_choices_for_policy("jsq", 50) == 50
        assert arrival_choices_for_policy("jsq(2)", 50) == 2
        # d capped at n: jsq(100) of 50 servers is full JSQ.
        assert arrival_choices_for_policy("jsq(100)", 50) == 50

    @pytest.mark.parametrize("name", ["hjsq(2)", "sed", "wr", "scd", "lsq"])
    def test_rate_aware_policies_rejected(self, name):
        with pytest.raises(ValueError, match="no fluid drift"):
            arrival_choices_for_policy(name, 50)


# ---------------------------------------------------------------------------
# Class quantization
# ---------------------------------------------------------------------------


class TestServerClasses:
    def test_exact_grouping_few_distinct_rates(self):
        rates = np.array([3.0, 1.0, 3.0, 1.0, 1.0])
        classes = ServerClasses.from_rates(rates)
        assert classes.num_classes == 2
        np.testing.assert_allclose(classes.mu, [1.0, 3.0])
        np.testing.assert_allclose(classes.gamma, [0.6, 0.4])
        np.testing.assert_array_equal(classes.class_of, [1, 0, 1, 0, 0])
        np.testing.assert_allclose(
            classes.expand(classes.mu), rates
        )

    def test_binning_preserves_aggregate_capacity(self):
        rng = np.random.default_rng(3)
        rates = rng.uniform(1.0, 10.0, size=101)  # 101 distinct floats
        classes = ServerClasses.from_rates(rates, max_classes=8)
        assert classes.num_classes == 8
        # Bin-mean quantization preserves each bin's (hence the fleet's)
        # total service capacity.
        total = classes.num_servers * float(classes.gamma @ classes.mu)
        assert total == pytest.approx(float(rates.sum()))
        # Bins are contiguous in rate order.
        order = np.argsort(rates, kind="stable")
        assert np.all(np.diff(classes.class_of[order]) >= 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            ServerClasses.from_rates(np.array([]))
        with pytest.raises(ValueError, match="positive"):
            ServerClasses.from_rates(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="max_classes"):
            ServerClasses.from_rates(np.array([1.0]), max_classes=0)


# ---------------------------------------------------------------------------
# Fluid round maps
# ---------------------------------------------------------------------------


def two_class_model(depth=32, choices=None):
    classes = ServerClasses.from_rates(np.repeat([1.0, 3.0], [6, 4]))
    return FluidModel(classes, depth=depth, choices=choices)


class TestFluidMaps:
    def test_pmf_partitions_unity(self):
        model = two_class_model()
        S = model.project(np.linspace(0.9, 0.0, model.depth)[None, :].repeat(2, 0))
        p = model.pmf(S)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= -1e-12)

    def test_poisson_arrivals_conserve_mass(self):
        model = two_class_model(depth=64)
        S = model.empty_state()
        a = 0.7
        S_new, joins = model.apply_poisson_arrivals(S, a)
        gained = float(model.classes.gamma @ joins.sum(axis=1))
        assert gained == pytest.approx(a, abs=1e-9)
        np.testing.assert_allclose(S_new - S, joins)
        # From empty, the new tail is exactly the Poisson tail.
        np.testing.assert_allclose(S_new[0], model.poisson_tail(a))

    def test_waterfill_levels_then_conserves(self):
        model = two_class_model(depth=32)
        # Class 0 at level 2, class 1 empty.
        S = model.empty_state()
        S[0, :2] = 1.0
        a = 0.5
        S_new, joins = model.apply_waterfill_arrivals(S, a)
        gained = float(model.classes.gamma @ joins.sum(axis=1))
        assert gained == pytest.approx(a, abs=1e-12)
        # Jobs go to the empty class first: class 0 untouched.
        np.testing.assert_allclose(S_new[0], S[0])
        # Class-1 servers (gamma 0.4) absorb 0.5 jobs/server overall ->
        # 1.25 each, leveling them to 1 and lifting level 2 by 0.25.
        assert S_new[1, 0] == pytest.approx(1.0)
        assert S_new[1, 1] == pytest.approx(0.25)

    def test_waterfill_saturation_pools_at_depth(self):
        model = two_class_model(depth=4)
        S_new, _ = model.apply_waterfill_arrivals(model.empty_state(), 10.0)
        np.testing.assert_allclose(S_new, 1.0)

    def test_departures_are_exact_for_geometric_capacity(self):
        # A single class pinned at level q: departure flux at tail k is
        # beta**(q-k+1) -- the closed form, not an approximation.
        classes = ServerClasses.from_rates(np.full(5, 2.0))
        model = FluidModel(classes, depth=16)
        q = 3
        S = model.empty_state()
        S[0, :q] = 1.0
        flux = model.departure_flux(S)
        beta = 2.0 / 3.0
        expected = np.zeros(16)
        expected[:q] = beta ** (q - np.arange(q))
        np.testing.assert_allclose(flux[0], expected)

    def test_depart_keeps_polytope(self):
        model = two_class_model()
        S = model.project(
            np.random.default_rng(0).uniform(0, 1, (2, model.depth))
        )
        S_new, _ = model.depart(S)
        assert np.all(S_new >= 0) and np.all(S_new <= 1)
        assert np.all(np.diff(S_new, axis=1) <= 1e-12)

    def test_choice_drift_conserves_unit_job_rate(self):
        model = two_class_model(choices=3)
        S = model.project(
            np.random.default_rng(1).uniform(0, 0.8, (2, model.depth))
        )
        S[:, model.depth // 2 :] = 0.0  # state clear of the truncation depth
        drift = model.arrival_drift(S)
        # Each job joins exactly one queue position: total drift mass is
        # 1 - ybar_K**d, which is 1 for states clear of the depth.
        total = float(model.classes.gamma @ drift.sum(axis=1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_choice_drift_d1_is_uniform_split(self):
        model = two_class_model(choices=1)
        S = model.project(
            np.random.default_rng(2).uniform(0, 0.8, (2, model.depth))
        )
        drift = model.arrival_drift(S)
        np.testing.assert_allclose(drift, model.pmf(S)[:, : model.depth])

    def test_round_map_reaches_fixed_point(self):
        # Subcritical Poisson split: iterating the exact round map must
        # converge to a stationary tail profile.
        model = two_class_model(depth=64)
        a = 0.5  # per-server load below mu_min = 1
        S = model.empty_state()
        for _ in range(3000):
            S, _ = model.apply_poisson_arrivals(S, a)
            S, _ = model.depart(S)
        S2, _ = model.apply_poisson_arrivals(S, a)
        S2, _ = model.depart(S2)
        assert float(np.abs(S2 - S).max()) < 1e-10


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------


class TestIntegrator:
    def decay(self, t, y):
        return -y

    def test_steppers_match_exponential_decay(self):
        y0 = np.array([1.0])
        euler = euler_step(self.decay, 0.0, y0, 0.01)
        rk4 = rk4_step(self.decay, 0.0, y0, 0.01)
        exact = np.exp(-0.01)
        assert abs(rk4[0] - exact) < abs(euler[0] - exact) < 1e-4

    def test_integrate_accuracy_orders(self):
        y0 = np.array([1.0])
        exact = float(np.exp(-1.0))
        for method, tol in (("euler", 1e-2), ("rk4", 1e-6)):
            out = FixedStepIntegrator(method=method, dt=0.05).integrate(
                self.decay, y0, 0.0, 1.0
            )
            assert out[0] == pytest.approx(exact, abs=tol)

    def test_bounds_violation_raises(self):
        runaway = lambda t, y: np.full_like(y, -100.0)  # noqa: E731
        with pytest.raises(InvariantError, match="left"):
            FixedStepIntegrator(dt=0.1).integrate(
                runaway, np.array([0.5]), 0.0, 1.0
            )

    def test_non_finite_state_raises(self):
        blowup = lambda t, y: y / 0.0  # noqa: E731
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(InvariantError, match="non-finite"):
                FixedStepIntegrator(dt=0.1).integrate(
                    blowup, np.array([0.5]), 0.0, 1.0
                )

    def test_conservation_violation_raises(self):
        # Mass grows at rate 2 but the declared bound is 1.
        grow = lambda t, y: np.full_like(y, 2.0)  # noqa: E731
        with pytest.raises(InvariantError, match="conservation"):
            FixedStepIntegrator(dt=0.01).integrate(
                grow,
                np.array([0.0, 0.0]),
                0.0,
                0.1,
                mass=lambda y: float(y.sum()),
                mass_rate_bound=1.0,
            )

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="unknown integration method"):
            FixedStepIntegrator(method="leapfrog")
        with pytest.raises(ValueError, match="dt"):
            FixedStepIntegrator(dt=0.0)


# ---------------------------------------------------------------------------
# Backend construction and honest refusals
# ---------------------------------------------------------------------------


class TestBackendGrammar:
    def test_registry_round_trip(self):
        backend = make_backend("meanfield:euler:dt=0.1:depth=256:classes=8")
        assert isinstance(backend, MeanFieldBackend)
        assert backend.method == "euler"
        assert backend.dt == pytest.approx(0.1)
        assert backend.depth == 256
        assert backend.max_classes == 8

    @pytest.mark.parametrize(
        "spec",
        [
            "meanfield:rk4:euler",
            "meanfield:dt=0.1:dt=0.2",
            "meanfield:bogus",
            "meanfield:dt=abc",
            "meanfield::rk4",
            "meanfield:depth=1",
            "meanfield:classes=0",
            "meanfield:dt=0",
        ],
    )
    def test_bad_parameters_rejected(self, spec):
        with pytest.raises(ValueError):
            make_backend(spec)

    def test_capability_flags(self):
        caps = backend_capabilities("meanfield")
        assert caps.analytic
        assert not caps.supports_checkpoint
        assert not caps.supports_probes
        assert caps.allows_probe("windowed_mean")
        assert caps.allows_probe("server_stats")
        assert not caps.allows_probe("herding")
        assert "analytic" in caps.describe()
        # Params after ':' resolve to the same head class.
        assert backend_capabilities("meanfield:rk4:dt=0.1") == caps
        # Simulation backends keep full support.
        fast = backend_capabilities("fast")
        assert fast.supports_checkpoint and fast.allows_probe("herding")


class TestBackendRefusals:
    def test_rejects_unsupported_policy(self):
        sim = build_sim("sed", HET_SYSTEMS["het2"], 0.5, 10)
        with pytest.raises(ValueError, match="no fluid drift"):
            sim.run()

    def test_rejects_churn_scenario(self):
        sim = build_sim(
            "random", HET_SYSTEMS["het2"], 0.3, 10, scenario="churn"
        )
        with pytest.raises(ValueError, match="churn"):
            sim.run()

    def test_rejects_non_poisson_arrivals(self):
        rates = np.full(20, 2.0)
        sim = Simulation(
            rates=rates,
            policy=make_policy("random"),
            arrivals=TraceArrivals(np.tile([[1, 2, 3, 4]], (10, 1))),
            service=GeometricService(rates),
            config=SimulationConfig(rounds=10, backend="meanfield"),
        )
        with pytest.raises(ValueError, match="Poisson"):
            sim.run()

    def test_rejects_discrete_event_probes(self):
        sim = build_sim(
            "random", HET_SYSTEMS["het2"], 0.3, 10, probes=("herding",)
        )
        with pytest.raises(ValueError, match="herding"):
            sim.run()

    def test_rejects_lifecycle_controller(self):
        sim = build_sim("random", HET_SYSTEMS["het2"], 0.3, 10)
        with pytest.raises(ValueError, match="checkpoint"):
            make_backend("meanfield").run(sim, controller=object())

    def test_truncation_overflow_raises_for_unstable_load(self):
        # rho > 1: the real system grows without bound, so the fluid
        # state must refuse once mass pools at the truncation depth.
        sim = build_sim(
            "random", np.full(50, 1.0), 1.3, 3000, backend="meanfield:depth=16"
        )
        with pytest.raises(InvariantError, match="truncation overflow"):
            sim.run()

    def test_heterogeneous_random_overload_raises(self):
        # Uniform split over a (1, 3) pool is unstable once the
        # per-server rate tops mu_min = 1, even though the aggregate
        # load rho = 0.85 looks subcritical.
        sim = build_sim(
            "random",
            HET_SYSTEMS["het2"],
            0.85,
            5000,
            backend="meanfield:depth=64",
        )
        with pytest.raises(InvariantError, match="truncation overflow"):
            sim.run()


# ---------------------------------------------------------------------------
# Capability enforcement at the construction seams
# ---------------------------------------------------------------------------


class TestCapabilitySeams:
    def test_experiment_rejects_unsupported_probe(self):
        with pytest.raises(ValueError, match="cannot feed probes"):
            Experiment(
                policies=("random",),
                systems=SystemSpec(20, 2),
                loads=0.5,
                rounds=10,
                backend="meanfield",
                metrics=("herding",),
            )

    def test_experiment_accepts_synthesizable_probes(self):
        experiment = Experiment(
            policies=("random",),
            systems=SystemSpec(20, 2, "homogeneous"),
            loads=0.5,
            rounds=200,
            backend="meanfield",
            metrics=(ProbeSpec.of("windowed_stability", window=50), "server_stats"),
        )
        result = experiment.run(keep_results=False)
        record = result.records[0]
        assert record.metrics["server_stats.utilization_mean"] > 0

    def test_run_directory_rejects_meanfield(self, tmp_path):
        from repro.runs import Run

        sim = build_sim("random", np.full(20, 2.0), 0.5, 512)
        with pytest.raises(ValueError, match="checkpoint"):
            Run.create(sim, tmp_path / "mf-run")

    def test_service_submission_rejects_meanfield(self):
        from repro.service.jobs import validate_submittable

        experiment = Experiment(
            policies=("random",),
            systems=SystemSpec(20, 2),
            loads=0.5,
            rounds=10,
            backend="meanfield",
        )
        with pytest.raises(ValueError, match="federated service"):
            validate_submittable(experiment)


# ---------------------------------------------------------------------------
# Result and probe synthesis
# ---------------------------------------------------------------------------


class TestSynthesis:
    def test_accounting_and_littles_law(self):
        rates = HET_SYSTEMS["het2"]
        rho = 0.4
        rounds = 3000
        result = run_once("random", rates, rho, rounds)
        expected_arrivals = rho * rates.sum() * rounds
        assert result.total_arrived == pytest.approx(
            expected_arrivals, rel=1e-3
        )
        assert 0 < result.total_departed <= result.total_arrived
        assert result.final_queued >= 0
        # Little's law for the end-of-round census: E[T] = N/lambda + 1.
        lam = rho * rates.sum()
        queue = result.queue_series.mean()
        assert result.mean_response_time == pytest.approx(
            queue / lam + 1.0, rel=0.02
        )

    def test_probe_summaries_are_consistent(self):
        rates = HET_SYSTEMS["het2"]
        result = run_once(
            "jsq(2)",
            rates,
            0.7,
            2000,
            probes=(
                ProbeSpec.of("windowed_mean", window=500),
                ProbeSpec.of("windowed_stability", window=500),
                "server_stats",
            ),
        )
        stability = result.probes["windowed_stability[window=500]"].summary()
        assert stability["windows"] == 4
        mean_probe = result.probes["windowed_mean[window=500]"].summary()
        assert mean_probe["last_mean"] == pytest.approx(
            result.mean_response_time, rel=0.05
        )
        stats = result.probes["server_stats"].summary()
        assert 0.0 < stats["utilization_mean"] <= 1.0
        assert stats["idle_fraction"] >= 0.0

    def test_per_server_arrays_expand_classes(self):
        rates = HET_SYSTEMS["het2"]
        result = run_once("random", rates, 0.4, 500)
        assert result.server_received.shape == rates.shape
        # Uniform split: every server sees the same expected arrivals.
        assert np.unique(result.server_received).size <= 2


# ---------------------------------------------------------------------------
# Statistical parity with the fast kernel
# ---------------------------------------------------------------------------


def assert_parity(policy, rates, rho, *, m=10, seed=0, rounds=1500, base=1.0):
    n = rates.size
    warmup = rounds // 4
    fast = run_once(
        policy, rates, rho, rounds, m=m, seed=seed, warmup=warmup,
        backend="fast",
    )
    fluid = run_once(
        policy, rates, rho, rounds, m=m, warmup=warmup, backend="meanfield"
    )
    assert_ensemble_close(
        fast.mean_response_time,
        fluid.mean_response_time,
        n=n,
        base=base,
        floor=0.02,
        label=f"{policy} on n={n} at rho={rho} (seed {seed})",
    )


class TestParity:
    #: Fixed seeds of the ``fast`` ensemble the fluid limit is compared with.
    PARITY_SEEDS = range(8)

    @pytest.mark.parametrize(
        "policy, system",
        [("random", "het2"), ("random", "het4"), ("jsq(2)", "het2"), ("jsq(2)", "het4")],
    )
    def test_matches_fast_kernel_on_heterogeneous_systems(self, policy, system):
        # The mean of 8 seeded runs, not one run: a single 1500-round run
        # spreads too wide for the tolerance.  Over 48 other seeds the
        # per-run relative error measured bias -0.029 and sd 0.019 on
        # random/het4, bias -0.001 and sd 0.028 on jsq(2)/het4 (tolerance
        # 0.0845), less on het2.  The 8-run mean's false-failure rate is
        # then about 4e-17, and below 1e-9 even with every sd 35% larger
        # (CHANGES.md lists each combination).
        rates = HET_SYSTEMS[system]
        # Uniform split over a heterogeneous pool is stable only below
        # rho ~ mu_min / mean(mu); power-of-d balances the load away
        # (but keeps an O(1/n) finite-n gap that inflates with load, so
        # the choice cell stays at moderate rho for n ~ 200).
        rho = 0.35 if policy == "random" else 0.75
        rounds, warmup = 1500, 375
        fast = np.mean([
            run_once(
                policy, rates, rho, rounds, m=10, seed=seed, warmup=warmup,
                backend="fast",
            ).mean_response_time
            for seed in self.PARITY_SEEDS
        ])
        fluid = run_once(
            policy, rates, rho, rounds, m=10, warmup=warmup, backend="meanfield"
        )
        assert_ensemble_close(
            fast,
            fluid.mean_response_time,
            n=rates.size,
            floor=0.02,
            label=f"{policy} on {system}, mean of {len(self.PARITY_SEEDS)} runs",
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_jsq_matches_single_dispatcher(self, seed):
        # Full JSQ parity needs m = 1: with shared snapshots several
        # dispatchers herd onto the same short queues, a finite-m effect
        # outside the fluid limit (the paper's core observation).
        assert_parity(
            "jsq", HET_SYSTEMS["het2"], 0.9, m=1, seed=seed, rounds=1200
        )

    def test_tolerance_shrinks_with_system_size(self):
        # The same check, run at growing n with the shared shrinking
        # tolerance: bigger systems must sit closer to the limit.
        for n in (200, 800):
            rates = np.repeat([1.0, 3.0], n // 2)
            assert ensemble_tolerance(n, floor=0.02) < ensemble_tolerance(
                n // 2, floor=0.02
            )
            assert_parity("jsq(2)", rates, 0.85, seed=7)

    def test_diurnal_scenario_tracks_windowed_stability(self):
        rates = HET_SYSTEMS["het2"]
        kwargs = dict(
            m=10,
            scenario="diurnal:period=1000,amplitude=0.25",
            probes=(ProbeSpec.of("windowed_stability", window=500),),
        )
        fast = run_once(
            "jsq(2)", rates, 0.7, 2000, seed=3, backend="fast", **kwargs
        )
        fluid = run_once(
            "jsq(2)", rates, 0.7, 2000, backend="meanfield", **kwargs
        )
        label = "windowed_stability[window=500]"
        fast_means = fast.probes[label].means()
        fluid_means = fluid.probes[label].means()
        assert len(fast_means) == len(fluid_means) == 4
        for window, (observed, predicted) in enumerate(
            zip(fast_means, fluid_means)
        ):
            assert_ensemble_close(
                observed,
                predicted,
                n=rates.size,
                floor=0.03,
                label=f"diurnal window {window}",
            )
        # The cycle actually modulated the queues: windows differ.
        assert max(fluid_means) > 1.1 * min(fluid_means)


# ---------------------------------------------------------------------------
# Scale: the headline claim
# ---------------------------------------------------------------------------


class TestScale:
    def test_million_server_run_completes(self):
        n = 1_000_000
        rates = np.where(np.arange(n) % 2 == 0, 1.0, 3.0)
        result = run_once("jsq(2)", rates, 0.7, 100, m=100)
        assert result.total_arrived > 0
        assert result.mean_response_time > 1.0
