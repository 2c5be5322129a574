"""Tests for the scenario subsystem (repro.sim.scenarios).

The load-bearing property (ISSUE 9 acceptance): every built-in scenario
-- nonstationary arrival curves and server-churn capacity masks -- runs
*bit-identically* on the reference loop and the vectorized fast kernel,
with unit and sized jobs, and survives a checkpoint kill/resume with an
active churn mask.  Around that sit the registry grammar, the churn
adapter's redirection contract, the batch stores' admission guard, the
``windowed_stability`` probe, and JSON persistence of the scenario axis.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.persistence import (
    experiment_from_descriptor,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.executor import build_cell_simulation, simulate_cell
from repro.experiments.grid import Experiment
from repro.experiments.workload import WorkloadSpec
from repro.policies.base import make_policy
from repro.runs import Run
from repro.sim.scenarios import (
    UNAVAILABLE_QUEUE,
    ChurnPolicyAdapter,
    ModulatedRateArrivals,
    PeriodicChurnSchedule,
    apply_scenario,
    available_scenarios,
    make_scenario,
    scenario_descriptions,
)
from repro.sim.arrivals import PoissonArrivals
from repro.sim.batchstore import BatchQueueStore
from repro.sim.blockdriver import BLOCK_ROUNDS
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.probes import ProbeSpec, WindowedStabilityProbe, probe_from_state
from repro.sim.sized import GeometricSize
from repro.sim.service import GeometricService
from repro.workloads.scenarios import SystemSpec

SYSTEM = SystemSpec(num_servers=8, num_dispatchers=2)

#: Short-horizon variants of every built-in so nonstationarity actually
#: happens inside a few-hundred-round test run.
SCENARIOS = [
    "diurnal:period=512",
    "flash:spike=5,at=64,decay=128",
    "regime:calm=0.7,surge=1.5,mean_dwell=100",
    "churn:down=0.4,period=2",
    "elastic:period=512,reserve=0.3",
]

def paper_with(scenario: str | None) -> WorkloadSpec:
    return dataclasses.replace(WorkloadSpec.paper(), scenario=scenario)


def assert_identical(a, b):
    assert a.histogram.state_dict() == b.histogram.state_dict()
    np.testing.assert_array_equal(a.queue_series.values, b.queue_series.values)
    np.testing.assert_array_equal(a.final_queues, b.final_queues)


# ---------------------------------------------------------------------------
# Registry and grammar.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert {"diurnal", "flash", "regime", "churn", "elastic"} <= set(
            available_scenarios()
        )

    def test_descriptions_cover_all(self):
        descriptions = scenario_descriptions()
        assert set(descriptions) == set(available_scenarios())
        assert all(descriptions.values())

    def test_param_grammar_lands_on_the_curve(self):
        scenario = make_scenario("flash:spike=6,at=100,decay=50")
        assert scenario.curve.spike == 6.0
        assert scenario.curve.at == 100
        assert scenario.curve.decay == 50.0

    def test_names_are_case_insensitive(self):
        assert type(make_scenario("DIURNAL")) is type(make_scenario("diurnal"))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="diurnal"):
            make_scenario("no-such-scenario")

    def test_bad_parameter_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("churn:down=2.0")
        with pytest.raises(ValueError):
            make_scenario("diurnal:bogus=1")

    def test_workload_spec_validates_at_construction(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", scenario="no-such-scenario")

    def test_scenario_enters_seed_components_and_descriptor(self):
        plain = WorkloadSpec.paper()
        shaped = paper_with("diurnal")
        assert plain.seed_components() != shaped.seed_components()
        assert shaped.describe()["scenario"] == "diurnal"
        assert "scenario" not in plain.describe()


# ---------------------------------------------------------------------------
# Bit-identity across every kernel family, both engines.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestUnsizedBitIdentity:
    @settings(max_examples=3, deadline=None)
    @given(
        policy=st.sampled_from(["jsq", "rr"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_all_kernels_match_reference(self, scenario, policy, seed):
        workload = paper_with(scenario)
        reference = simulate_cell(
            policy, SYSTEM, 0.85, workload, seed, rounds=512
        )
        fast = simulate_cell(
            policy, SYSTEM, 0.85, workload, seed, rounds=512, backend="fast"
        )
        assert_identical(reference, fast)


def sized_run(scenario, policy, seed, backend):
    rng = np.random.default_rng(123)
    rates = rng.uniform(2.0, 10.0, size=8)
    sizes = GeometricSize(2.5)
    jobs_per_round = 0.85 * rates.sum() / sizes.mean
    return Simulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(np.full(2, jobs_per_round / 2)),
        service=GeometricService(rates),
        config=SimulationConfig(
            rounds=512, seed=seed, backend=backend, scenario=scenario
        ),
        sizes=sizes,
    ).run()


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestSizedBitIdentity:
    @settings(max_examples=2, deadline=None)
    @given(
        policy=st.sampled_from(["jsq", "wrr"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_all_kernels_match_reference(self, scenario, policy, seed):
        reference = sized_run(scenario, policy, seed, "reference")
        fast = sized_run(scenario, policy, seed, "fast")
        assert reference.histogram.state_dict() == fast.histogram.state_dict()
        np.testing.assert_array_equal(
            reference.queue_series.values, fast.queue_series.values
        )
        assert reference.total_departed == fast.total_departed


class TestStationaryDefault:
    def test_scenario_none_changes_nothing(self):
        """The scenario axis is invisible until opted into: a default
        run must be bit-identical to one built before scenarios existed
        (same seeds, same draws, same objects)."""
        workload = WorkloadSpec.paper()
        shaped = paper_with(None)
        for backend in ["reference", "fast"]:
            a = simulate_cell("jsq", SYSTEM, 0.9, workload, 7, 400, backend=backend)
            b = simulate_cell("jsq", SYSTEM, 0.9, shaped, 7, 400, backend=backend)
            assert_identical(a, b)

    def test_apply_scenario_is_identity_for_none(self):
        policy = make_policy("jsq")
        arrivals = PoissonArrivals(np.full(2, 3.0))
        out_policy, out_arrivals = apply_scenario(None, policy, arrivals, 8)
        assert out_policy is policy
        assert out_arrivals is arrivals


# ---------------------------------------------------------------------------
# The churn adapter and the stores' admission guard.
# ---------------------------------------------------------------------------


class TestChurnSchedule:
    def test_periodic_square_wave(self):
        schedule = PeriodicChurnSchedule(8, down=0.25, period=4, duty=0.5)
        up = schedule.mask_for_block(0)
        down = schedule.mask_for_block(3)
        assert up.all()
        assert down.sum() == 6  # 25% of 8 = 2 highest-indexed servers off
        assert not down[-1] and not down[-2]

    def test_mask_changes_only_at_block_edges(self):
        schedule = PeriodicChurnSchedule(8, down=0.5, period=2, duty=0.5)
        first = schedule.mask_for_round(0)
        np.testing.assert_array_equal(
            first, schedule.mask_for_round(BLOCK_ROUNDS - 1)
        )
        assert first.sum() != schedule.mask_for_round(BLOCK_ROUNDS).sum()

    def test_all_servers_never_masked(self):
        schedule = PeriodicChurnSchedule(2, down=0.9, period=2)
        assert schedule.mask_for_block(1).sum() >= 1


class TestChurnAdapter:
    def adapter(self, policy_name: str) -> ChurnPolicyAdapter:
        policy, _ = apply_scenario(
            "churn:down=0.5,period=2,offset=1",  # masked from block 0
            make_policy(policy_name),
            PoissonArrivals(np.full(2, 3.0)),
            8,
        )
        assert isinstance(policy, ChurnPolicyAdapter)
        return policy

    def test_queue_oblivious_dispatches_are_redirected(self):
        from repro.policies.base import SystemContext

        adapter = self.adapter("rr")
        adapter.bind(
            SystemContext(rates=np.ones(8), num_dispatchers=2, rng=np.random.default_rng(0))
        )
        queues = np.zeros(8, dtype=np.int64)
        adapter.begin_round(0, queues)
        mask = adapter.capacity_mask()
        assert mask is not None and not mask.all()
        for dispatcher in range(2):
            row = adapter.dispatch(dispatcher, 12)
            assert row.sum() == 12
            assert row[~mask].sum() == 0  # nothing lands on masked servers

    def test_masked_view_uses_sentinel(self):
        from repro.policies.base import SystemContext

        adapter = self.adapter("jsq")
        adapter.bind(
            SystemContext(rates=np.ones(8), num_dispatchers=2, rng=np.random.default_rng(0))
        )
        adapter.begin_round(0, np.zeros(8, dtype=np.int64))
        assert (adapter._masked[~adapter.capacity_mask()] == UNAVAILABLE_QUEUE).all()

    def test_wrapping_a_bound_policy_rejected(self):
        from repro.policies.base import SystemContext

        policy = make_policy("jsq")
        policy.bind(
            SystemContext(rates=np.ones(8), num_dispatchers=2, rng=np.random.default_rng(0))
        )
        with pytest.raises(ValueError, match="before"):
            ChurnPolicyAdapter(policy, PeriodicChurnSchedule(8))

    def test_schedule_size_mismatch_rejected_at_bind(self):
        from repro.policies.base import SystemContext

        adapter = ChurnPolicyAdapter(make_policy("jsq"), PeriodicChurnSchedule(4))
        with pytest.raises(ValueError, match="4 servers"):
            adapter.bind(
                SystemContext(rates=np.ones(8), num_dispatchers=2, rng=np.random.default_rng(0))
            )


class TestStoreAdmissionGuard:
    def test_masked_admission_raises(self):
        store = BatchQueueStore(4)
        store.set_capacity_mask(np.array([True, True, False, False]))
        received = np.zeros((1, 4), dtype=np.int64)
        received[0, 3] = 1  # a job on a masked server: adapter bug
        done = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(RuntimeError, match="churn-masked"):
            store.process_block(0, received, None, done, histogram=None)

    def test_unmasked_admission_passes(self):
        store = BatchQueueStore(4)
        store.set_capacity_mask(np.array([True, True, False, False]))
        received = np.zeros((1, 4), dtype=np.int64)
        received[0, 0] = 2
        store.process_block(0, received, None, np.zeros((1, 4), np.int64), None)
        assert store.queued_jobs()[0] == 2

    def test_mask_shape_checked(self):
        store = BatchQueueStore(4)
        with pytest.raises(ValueError, match="shape"):
            store.set_capacity_mask(np.array([True, False]))

    def test_none_clears_the_mask(self):
        store = BatchQueueStore(2)
        store.set_capacity_mask(np.array([True, False]))
        store.set_capacity_mask(None)
        assert store.capacity_mask() is None


# ---------------------------------------------------------------------------
# Checkpoint / resume under an active churn mask.
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    #: Masked from the very first block (offset puts block 0 in the down
    #: phase), so the pause at the first checkpoint happens under an
    #: active mask and the resumed leg must rebuild it from the pickle.
    CHURN = "churn:down=0.4,period=2,duty=0.5,offset=1"

    def build(self, scenario: str, backend: str = "fast"):
        return build_cell_simulation(
            "jsq", SYSTEM, 0.85, paper_with(scenario), 7, 1024, backend=backend
        )

    @pytest.mark.parametrize(
        "scenario", ["diurnal:period=512", CHURN, "flash:spike=5,at=300,decay=200"]
    )
    def test_kill_and_resume_is_bit_identical(self, scenario, tmp_path):
        """``execute(max_legs=1)`` stops exactly where a SIGKILL would
        (after one committed checkpoint); ``Run.open`` rebuilds purely
        from disk, as ``repro resume`` does after a process death."""
        baseline = self.build(scenario).run()
        directory = tmp_path / "run"
        run = Run.create(self.build(scenario), directory)
        assert run.execute(max_legs=1) is None  # paused mid-run
        resumed = Run.open(directory).execute()
        assert_identical(baseline, resumed)

    def test_churn_resumed_after_two_legs_matches_uninterrupted(self, tmp_path):
        """Paused at the second checkpoint rather than the first, one
        churn period into the run; the resumed leg still equals the
        uninterrupted run."""
        baseline = self.build(self.CHURN).run()
        run = Run.create(self.build(self.CHURN), tmp_path / "run")
        assert run.execute(max_legs=2) is None  # paused mid-run
        resumed = Run.open(tmp_path / "run").execute()
        assert_identical(baseline, resumed)


# ---------------------------------------------------------------------------
# Persistence: the scenario axis survives JSON; its absence changes nothing.
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_result_round_trips_scenario(self):
        result = simulate_cell(
            "jsq", SYSTEM, 0.85, paper_with("diurnal"), 3, 400, backend="fast"
        )
        restored = result_from_dict(result_to_dict(result))
        assert restored.config.scenario == "diurnal"
        assert_identical(result, restored)

    def test_scenario_free_payload_has_no_key(self):
        result = simulate_cell("jsq", SYSTEM, 0.85, WorkloadSpec.paper(), 3, 400)
        assert "scenario" not in result_to_dict(result)["config"]

    def test_experiment_descriptor_round_trip(self):
        experiment = Experiment(
            policies=["jsq"],
            systems=SYSTEM,
            loads=[0.9],
            rounds=400,
            workloads=(paper_with("flash:spike=5,at=64,decay=128"),),
        )
        rebuilt = experiment_from_descriptor(experiment.describe())
        assert rebuilt.workloads[0].scenario == "flash:spike=5,at=64,decay=128"
        assert next(rebuilt.cells()).seed == next(experiment.cells()).seed


# ---------------------------------------------------------------------------
# The windowed_stability probe.
# ---------------------------------------------------------------------------


def make_block(start, queues):
    from repro.sim.probes import ProbeBlock

    queues = np.asarray(queues, dtype=np.int64)
    zeros = np.zeros_like(queues)
    return ProbeBlock(
        start_round=start, length=queues.shape[0],
        batch=np.zeros((queues.shape[0], 1), dtype=np.int64),
        received=zeros, done=zeros, queues=queues,
    )


def bound_probe(window, rounds=8, servers=2):
    from repro.sim.probes import ProbeContext

    probe = WindowedStabilityProbe(window=window)
    probe.bind(
        ProbeContext(
            num_servers=servers,
            num_dispatchers=1,
            rates=np.ones(servers),
            rounds=rounds,
        )
    )
    return probe


class TestWindowedStabilityProbe:
    def test_window_means_are_exact(self):
        probe = bound_probe(window=2, rounds=6)
        probe.observe_block(make_block(0, [[1, 1], [2, 2], [3, 3]]))
        probe.observe_block(make_block(3, [[4, 4], [5, 5], [10, 10]]))
        np.testing.assert_allclose(probe.means(), [3.0, 7.0, 15.0])
        summary = probe.summary()
        assert summary["growth"] == pytest.approx(5.0)
        assert summary["peak_window"] == 2.0

    def test_state_round_trip(self):
        probe = bound_probe(window=2, rounds=4)
        probe.observe_block(make_block(0, [[1, 1], [3, 3]]))
        restored = probe_from_state(probe.state_dict())
        np.testing.assert_allclose(restored.means(), probe.means())
        assert restored.window == probe.window

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowedStabilityProbe(window=0)

    def test_flash_crowd_shows_a_hump_all_kernels_agree(self):
        spec = ProbeSpec("windowed_stability", {"window": 128})
        summaries = {}
        for backend in ["reference", "fast"]:
            result = simulate_cell(
                "jsq",
                SYSTEM,
                0.8,
                paper_with("flash:spike=6,at=128,decay=100"),
                11,
                rounds=768,
                backend=backend,
                probes=(spec,),
            )
            summaries[backend] = result.probes[spec.label].summary()
        assert summaries["reference"] == summaries["fast"]
        summary = summaries["reference"]
        # The spike lands in window 1 and drains back down afterwards.
        assert summary["peak_window"] >= 1.0
        assert summary["peak_mean"] > 3 * summary["first_mean"]


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------


class TestScenarioCLI:
    def test_scenarios_listing(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in available_scenarios():
            assert name in out

    def test_experiment_accepts_scenario(self, capsys):
        from repro.cli import main

        code = main(
            [
                "experiment",
                "--policies",
                "jsq",
                "--systems",
                "8x2",
                "--loads",
                "0.8",
                "--rounds",
                "400",
                "--backend",
                "fast",
                "--scenario",
                "diurnal:period=512",
            ]
        )
        assert code == 0
        assert "scenario: diurnal:period=512" in capsys.readouterr().out

    def test_bad_scenario_is_a_clean_exit(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="scenario"):
            main(
                [
                    "experiment",
                    "--policies",
                    "jsq",
                    "--loads",
                    "0.8",
                    "--scenario",
                    "no-such-scenario",
                ]
            )


# ---------------------------------------------------------------------------
# Modulated arrivals: the pre-sampler is the per-round sampler, exactly.
# ---------------------------------------------------------------------------


class TestModulatedRateArrivals:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_block_presample_equals_per_round_draws(self, seed):
        scenario = make_scenario("flash:spike=5,at=20,decay=30")
        arrivals = scenario.wrap_arrivals(PoissonArrivals(np.array([2.0, 3.0])))
        assert isinstance(arrivals, ModulatedRateArrivals)
        block = arrivals.sample_many(
            np.random.default_rng(seed), start_round=0, count=64
        )
        rng = np.random.default_rng(seed)
        singles = np.stack([arrivals.sample(rng, t) for t in range(64)])
        np.testing.assert_array_equal(block, singles)


class TestRegimeCurve:
    def test_two_levels_alternate_with_the_mean_dwell(self):
        curve = make_scenario("regime:calm=0.5,surge=1.5,mean_dwell=20").curve
        factors = curve.factors(0, 20_000)
        assert set(np.unique(factors)) == {0.5, 1.5}
        assert factors[0] == 0.5  # every path starts calm
        switches = np.flatnonzero(np.diff(factors)) + 1
        dwells = np.diff(np.concatenate([[0], switches]))
        assert dwells.mean() == pytest.approx(20.0, rel=0.1)
        assert curve.mean_factor == 1.0

    def test_surge_phases_raise_the_draws(self):
        scenario = make_scenario("regime:calm=0.1,surge=1.9,mean_dwell=50")
        arrivals = scenario.wrap_arrivals(PoissonArrivals(np.array([20.0])))
        draws = arrivals.sample_many(np.random.default_rng(3), 0, 4000)[:, 0]
        factors = scenario.curve.factors(0, 4000)
        assert draws[factors == 0.1].mean() == pytest.approx(2.0, rel=0.15)
        assert draws[factors == 1.9].mean() == pytest.approx(38.0, rel=0.05)
