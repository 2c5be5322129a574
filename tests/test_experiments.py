"""Tests for the declarative experiment API (repro.experiments).

The two load-bearing guarantees:

1. **Seed contract** -- an ``Experiment`` with the default
   :class:`WorkloadSpec` seeds each cell with the historical
   ``derive_seed(base_seed + 1_000_003 * r, system.name,
   round(rho * 10_000))`` scheme, and a pinned cell keeps its recorded
   mean.
2. **Executor equivalence** -- the process-pool executor returns records
   identical to the serial executor (seed-stable scheduling).
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import repro
from repro.analysis.persistence import (
    experiment_from_descriptor,
    experiment_result_from_dict,
    experiment_result_to_dict,
)
from repro.experiments import (
    Experiment,
    PolicySpec,
    ProcessPoolExecutor,
    SerialExecutor,
    WorkloadSpec,
    resolve_executor,
)
from repro.scenarios import make_scenario
from repro.sim.seeding import derive_seed
from repro.sim.sized import GeometricSize
from repro.workloads.scenarios import SystemSpec

SMALL = SystemSpec(num_servers=12, num_dispatchers=3, profile="u1_10")
OTHER = SystemSpec(num_servers=10, num_dispatchers=2, profile="u1_10")
ROUNDS = 250


class TestGrid:
    def test_scalar_axes_normalize(self):
        exp = Experiment(policies="scd", systems=SMALL, loads=0.8, rounds=100)
        assert exp.policies == (PolicySpec("scd"),)
        assert exp.systems == (SMALL,)
        assert exp.loads == (0.8,)
        assert exp.size == 1

    def test_size_and_cell_order(self):
        workloads = (WorkloadSpec(), WorkloadSpec.skewed(3.0))
        exp = Experiment(
            policies=["scd", "jsq"],
            systems=[SMALL, OTHER],
            loads=[0.7, 0.9],
            replications=3,
            workloads=workloads,
            rounds=100,
        )
        cells = list(exp.cells())
        assert exp.size == len(cells) == 48
        assert exp.size == sum(1 for _ in exp.cells())
        # Workload, system, load, replication, then policy innermost:
        # consecutive cells share the seed.
        expected = []
        for workload, system, rho, rep in itertools.product(
            workloads, [SMALL, OTHER], [0.7, 0.9], range(3)
        ):
            seed = exp.cell_seed(workload, system, rho, rep)
            for label in ("scd", "jsq"):
                expected.append(
                    (len(expected), label, system.name, rho, rep, workload.name, seed)
                )
        assert [
            (
                c.index, c.policy.label, c.system.name, c.rho, c.replication,
                c.workload.name, c.seed,
            )
            for c in cells
        ] == expected

    def test_first_cell_memory_independent_of_replications(self):
        """Enumeration holds no per-replication state: the first cell of
        a million-replication grid allocates no more than a small one."""
        small = Experiment(policies="scd", systems=SMALL, loads=0.8, rounds=100)
        next(small.cells())  # warm-up: lazy imports and first-call caches
        huge = Experiment(
            policies="scd", systems=SMALL, loads=0.8, rounds=100, replications=10**6
        )
        tracemalloc.start()
        try:
            next(huge.cells())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"first cell allocated {peak} bytes"

    def test_seeds_policy_independent_and_coordinate_distinct(self):
        exp = Experiment(
            policies=["scd", "jsq"], systems=SMALL, loads=[0.7, 0.9], rounds=100
        )
        seeds = {}
        for cell in exp.cells():
            seeds.setdefault(cell.rho, set()).add(cell.seed)
        assert all(len(s) == 1 for s in seeds.values())  # common across policies
        assert seeds[0.7] != seeds[0.9]  # distinct across loads

    def test_validation(self):
        with pytest.raises(ValueError):
            Experiment(policies=[], systems=SMALL, loads=0.8)
        with pytest.raises(ValueError):
            Experiment(policies="scd", systems=SMALL, loads=0.8, replications=0)
        with pytest.raises(ValueError):
            Experiment(policies="scd", systems=SMALL, loads=0.8, rounds=0)
        with pytest.raises(ValueError):
            Experiment(
                policies="scd", systems=SMALL, loads=0.8, rounds=10, warmup=10
            )
        with pytest.raises(ValueError):
            Experiment(policies=["scd", "scd"], systems=SMALL, loads=0.8)
        with pytest.raises(ValueError, match="replications must be an integer"):
            Experiment(policies="scd", systems=SMALL, loads=0.8, replications=2.0)
        with pytest.raises(ValueError, match="rounds must be an integer"):
            Experiment(policies="scd", systems=SMALL, loads=0.8, rounds=100.5)

    def test_numpy_integer_sizes_stored_as_int(self):
        exp = Experiment(
            policies="scd", systems=SMALL, loads=0.8,
            replications=np.int64(2), rounds=np.int32(100), warmup=np.int64(10),
        )
        for name in ("replications", "rounds", "warmup"):
            assert type(getattr(exp, name)) is int
        assert exp.size == 2

    @pytest.mark.parametrize(
        "policies, loads",
        [
            (["scd", "nope"], 0.8),
            ([PolicySpec.of("scd-sized", mean_size=0)], 0.8),
            ([PolicySpec.of("scd", bogus=1)], 0.8),
            ("scd", -0.1),
            ("scd", float("nan")),
            ("scd", float("inf")),
        ],
    )
    def test_bad_policy_or_load_rejected_at_construction(self, policies, loads):
        """Unknown policies, bad policy kwargs and bad loads fail when the
        grid is declared, not after the valid cells have run."""
        with pytest.raises(ValueError):
            Experiment(policies=policies, systems=SMALL, loads=loads, rounds=3000)

    @pytest.mark.parametrize(
        "backend", ["sharded:2", "sharded:2:process", "compiled"]
    )
    def test_removed_backends_rejected_by_name(self, backend):
        """Backends this code no longer has fail when the grid is
        declared or rebuilt from a saved descriptor, naming the backend."""
        message = f"unknown engine backend '{backend}'"
        with pytest.raises(ValueError, match=message):
            Experiment(policies="jsq", systems=SMALL, loads=0.8, backend=backend)
        descriptor = Experiment(
            policies="jsq", systems=SMALL, loads=0.8, backend="fast"
        ).describe()
        with pytest.raises(ValueError, match=message):
            experiment_from_descriptor({**descriptor, "backend": backend})

    def test_policy_kwargs_label_and_build(self):
        spec = PolicySpec.of("jsq(d)", d=3)
        assert spec.label == "jsq(d)[d=3]"
        assert spec.build().name == "jsq(3)"


class TestLegacyEquivalence:
    """The historical seed scheme, pinned directly."""

    def test_historical_seed_scheme_and_golden_mean(self):
        exp = Experiment(
            policies=["scd", "jsq"],
            systems=SMALL,
            loads=[0.7, 0.9],
            replications=2,
            rounds=ROUNDS,
            base_seed=5,
        )
        for cell in exp.cells():
            assert cell.seed == derive_seed(
                5 + 1_000_003 * cell.replication,
                SMALL.name,
                round(cell.rho * 10_000),
            )
        # Golden values of one small cell: a change here means every
        # published result moved.
        record = Experiment("scd", SMALL, 0.9, rounds=ROUNDS).run().only()
        assert record.seed == 411329600224239353
        assert record.metrics["mean"] == 3.2444646860986546
        assert record.metrics["arrived"] == 14313

    def test_common_random_numbers_across_policies(self):
        exp = Experiment(
            policies=["scd", "jsq", "wr"], systems=SMALL, loads=0.8, rounds=ROUNDS
        )
        arrived = {r.metrics["arrived"] for r in exp.run().records}
        assert len(arrived) == 1


class TestExecutors:
    def test_parallel_records_identical_to_serial(self):
        """Acceptance criterion: process pool == serial, order included."""
        exp = Experiment(
            policies=["scd", "jsq"],
            systems=SMALL,
            loads=[0.7, 0.9],
            replications=2,
            rounds=200,
        )
        serial = exp.run(executor=SerialExecutor())
        parallel = exp.run(executor=ProcessPoolExecutor(workers=2))
        assert serial.records == parallel.records
        assert [r.seed for r in serial.records] == [r.seed for r in parallel.records]

    def test_workers_shorthand(self):
        exp = Experiment(policies="scd", systems=SMALL, loads=0.8, rounds=100)
        assert exp.run(workers=2).records == exp.run().records

    def test_resolve_executor(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(None, workers=4), ProcessPoolExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("process", workers=2), ProcessPoolExecutor)
        with pytest.raises(ValueError):
            resolve_executor("threads")
        with pytest.raises(ValueError):
            resolve_executor(SerialExecutor(), workers=2)
        with pytest.raises(ValueError):
            ProcessPoolExecutor(workers=0)

    def test_progress_callback(self):
        exp = Experiment(policies=["scd", "wr"], systems=SMALL, loads=0.8, rounds=100)
        seen = []
        exp.run(progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_keep_results_false_drops_payload_not_metrics(self):
        exp = Experiment(policies="scd", systems=SMALL, loads=0.8, rounds=100)
        with_payload = exp.run(keep_results=True)
        without = exp.run(keep_results=False)
        assert with_payload.records == without.records
        assert without.records[0].result is None
        assert with_payload.records[0].result is not None


class TestWorkloads:
    def test_paper_default_contributes_no_seed_components(self):
        assert WorkloadSpec().seed_components() == ()
        assert WorkloadSpec.skewed(3.0).seed_components() == ("skew3",)

    def test_skewed_changes_results_but_not_total_load(self):
        base = Experiment(policies="scd", systems=SMALL, loads=0.9, rounds=ROUNDS)
        skew = Experiment(
            policies="scd",
            systems=SMALL,
            loads=0.9,
            rounds=ROUNDS,
            workloads=WorkloadSpec.skewed(4.0),
        )
        a, b = base.run().records[0], skew.run().records[0]
        assert a.seed != b.seed
        assert a.metrics != b.metrics
        lambdas = WorkloadSpec.skewed(4.0).build_arrivals(SMALL, 0.9).lambdas
        np.testing.assert_allclose(lambdas.sum(), SMALL.lambdas(0.9).sum())

    def test_explicit_weights_validated_per_system(self):
        spec = WorkloadSpec(name="w", dispatcher_weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            spec.build_arrivals(SMALL, 0.8)  # SMALL has 3 dispatchers

    def test_skew_and_weights_mutually_exclusive(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", skew=2.0, dispatcher_weights=(1.0, 1.0, 1.0))

    def test_bursty_workload_runs_at_equal_average_load(self):
        spec = WorkloadSpec.bursty(surge_factor=3.0)
        assert make_scenario(spec.scenario).curve.mean_factor == 1.0
        exp = Experiment(
            policies="scd", systems=SMALL, loads=0.9, rounds=200, workloads=spec
        )
        assert exp.run().records[0].metrics["mean"] >= 1.0

    def test_bursty_is_a_regime_scenario(self):
        spec = WorkloadSpec.bursty(1.5, 0.1)
        assert spec.name == "bursty1.5"
        assert spec.arrivals is None
        assert spec.scenario == "regime:calm=0.8,surge=1.2,mean_dwell=10.0"
        curve = make_scenario(spec.scenario).curve
        assert (curve.calm, curve.surge, curve.mean_dwell) == (0.8, 1.2, 10.0)
        with pytest.raises(ValueError, match="switch_prob"):
            WorkloadSpec.bursty(3.0, 0.0)
        with pytest.raises(ValueError, match="surge_factor"):
            WorkloadSpec.bursty(-1.0)

    def test_bursty_records_equal_across_kernels(self):
        def records(backend):
            return Experiment(
                policies=["jsq", "rr"],
                systems=SMALL,
                loads=0.85,
                replications=2,
                rounds=600,
                workloads=WorkloadSpec.bursty(3.0),
                backend=backend,
            ).run(keep_results=False).records

        assert records("fast") == records("reference")

    def test_mild_bursty_cell_runs_on_meanfield(self):
        system = SystemSpec(
            num_servers=1000, num_dispatchers=20, profile="homogeneous"
        )

        def mean(backend):
            return Experiment(
                policies="jsq(2)",
                systems=system,
                loads=0.7,
                rounds=1000,
                workloads=WorkloadSpec.bursty(1.5),
                backend=backend,
            ).run().records[0].metrics["mean"]

        fluid, sampled = mean("meanfield"), mean("fast")
        assert fluid == pytest.approx(sampled, rel=0.1)

    def test_sized_workload_uses_sized_engine(self):
        exp = Experiment(
            policies="scd",
            systems=SMALL,
            loads=0.5,
            rounds=200,
            workloads=WorkloadSpec.sized(GeometricSize(mean_size=2.0)),
        )
        record = exp.run().records[0]
        assert "jobs" in record.metrics
        assert record.metrics["arrived"] >= record.metrics["jobs"]  # units >= jobs

    def test_multi_workload_grid(self):
        exp = Experiment(
            policies=["scd", "sed"],
            systems=SMALL,
            loads=0.9,
            rounds=150,
            workloads=[WorkloadSpec.paper(), WorkloadSpec.skewed(3.0)],
        )
        result = exp.run()
        assert len(result) == 4
        assert {r.workload for r in result.records} == {"paper", "skew3"}
        paper = result.filter(workload="paper")
        assert len(paper) == 2


class TestResults:
    def make_result(self):
        return Experiment(
            policies=["scd", "wr"],
            systems=SMALL,
            loads=[0.7, 0.9],
            replications=2,
            rounds=150,
        ).run()

    def test_filter_and_only(self):
        result = self.make_result()
        assert len(result.filter(policy="scd")) == 4
        assert len(result.filter(policy=["scd", "wr"], rho=0.9)) == 4
        record = result.only(policy="scd", rho=0.9, replication=1)
        assert record.policy == "scd" and record.replication == 1
        with pytest.raises(ValueError):
            result.only(policy="scd")  # four matches

    def test_aggregate_over_replications(self):
        result = self.make_result()
        stats = result.aggregate("mean")
        key = ("scd", SMALL.name, 0.9, "paper")
        assert stats[key]["n"] == 2
        reps = [
            r.metrics["mean"]
            for r in result.filter(policy="scd", rho=0.9).records
        ]
        assert stats[key]["mean"] == pytest.approx(sum(reps) / 2)
        assert stats[key]["stderr"] >= 0.0

    def test_best_policy_at(self):
        result = self.make_result()
        assert result.best_policy_at(0.9) == "scd"

    def test_as_rows_tidy(self):
        rows = self.make_result().as_rows()
        assert len(rows) == 8
        assert {"policy", "system", "rho", "replication", "workload", "seed", "mean"} <= set(
            rows[0]
        )


class TestPersistence:
    def test_round_trip_with_full_results(self, tmp_path):
        result = Experiment(
            policies=["scd"], systems=SMALL, loads=0.8, rounds=150
        ).run()
        path = result.save(tmp_path / "result.json")
        loaded = repro.ExperimentResult.load(path)
        assert loaded.records == result.records
        assert loaded.experiment == result.experiment
        # Full payload survives too.
        np.testing.assert_array_equal(
            loaded.records[0].result.histogram.counts,
            result.records[0].result.histogram.counts,
        )

    def test_round_trip_metrics_only(self):
        result = Experiment(
            policies=["scd"],
            systems=SMALL,
            loads=0.8,
            rounds=150,
            workloads=WorkloadSpec.skewed(2.0),
        ).run(keep_results=False)
        payload = experiment_result_to_dict(result)
        loaded = experiment_result_from_dict(payload)
        assert loaded.records == result.records
        assert loaded.experiment.workloads[0].skew == 2.0

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            experiment_result_from_dict({"kind": "nope", "format_version": 1})

    def test_loaded_registered_factory_workload_reruns(self):
        """Bursty workloads are scenario strings and survive JSON: a
        loaded bursty experiment re-runs and reproduces the original
        records exactly."""
        result = Experiment(
            policies="scd",
            systems=SMALL,
            loads=0.8,
            rounds=100,
            workloads=WorkloadSpec.bursty(3.0),
        ).run(keep_results=False)
        loaded = experiment_result_from_dict(experiment_result_to_dict(result))
        assert loaded.records == result.records  # records stay usable
        assert loaded.experiment == result.experiment
        rerun = loaded.experiment.run(keep_results=False)
        assert rerun.records == result.records

    def test_legacy_factory_descriptor_reloads_as_placeholder(self):
        """Older files wrote bursty as a ``{"factory": ...}`` descriptor;
        they load, but re-running them raises."""
        result = Experiment(
            policies="scd", systems=SMALL, loads=0.8, rounds=100
        ).run(keep_results=False)
        payload = experiment_result_to_dict(result)
        payload["experiment"]["workloads"] = [
            {
                "name": "bursty3",
                "arrivals": {
                    "factory": "bursty",
                    "kwargs": {"surge_factor": 3.0, "switch_prob": 0.05},
                },
            }
        ]
        loaded = experiment_result_from_dict(payload)
        assert loaded.records == result.records
        with pytest.raises(ValueError, match="loaded from JSON"):
            loaded.experiment.run()

    def test_loaded_unregistered_workload_rerun_fails_loudly(self):
        """Custom components (here a job-size distribution) do not
        survive JSON; re-running must raise, not silently simulate the
        default workload under the old name."""
        result = Experiment(
            policies="scd",
            systems=SMALL,
            loads=0.8,
            rounds=100,
            workloads=WorkloadSpec.sized(GeometricSize(mean_size=2.0)),
        ).run(keep_results=False)
        loaded = experiment_result_from_dict(experiment_result_to_dict(result))
        assert loaded.records == result.records  # records stay usable
        with pytest.raises(ValueError, match="loaded from JSON"):
            loaded.experiment.run()
