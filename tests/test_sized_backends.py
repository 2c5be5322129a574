"""One parity suite for every backend, parametrized over job sizes.

Every simulation kernel runs unit jobs (``sizes=None``) and sized jobs
through the same engine, so the parity contract is stated once over the
size distributions ``None``, ``DeterministicSize(3)``, ``GeometricSize``
and ``BimodalSize``:

* the one backend registry carries every kernel, names its errors, and
  marks which backends run sized workloads;
* ``"fast"`` is *bit-identical* to ``"reference"``
  -- same seeds give the same :class:`SimulationResult`, including
  histograms, queue series, per-server arrays and unit accounting --
  for deterministic policies (native batch paths included) and for
  every policy on the base-class ``dispatch_round`` fallback;
* ``DeterministicSize(1)`` is the unit workload, field for field, on
  every kernel;
* stochastic policies with native batch paths, whose draws are pooled
  across dispatchers, are bit-identical too and keep exact accounting;
* ``wrr``'s native smooth-credit batch path is bit-identical to the
  per-dispatcher fallback loop (counts *and* carried credit state);
* the one block store resolves sized blocks like the reference queues:
  records in FIFO order, partly served heads, overdrain, empty blocks;
* sizes are plumbed end-to-end: ``Simulation(sizes=...)``,
  ``simulate_cell``, ``Experiment`` grids and JSON persistence.
"""

import dataclasses
import json

import numpy as np
import pytest
from _helpers import (
    DETERMINISM_SETTINGS,
    assert_store_matches_reference,
    random_store_blocks,
)
from hypothesis import given
from hypothesis import strategies as st

from repro.policies.scd import SCDPolicy
from repro.policies.base import Policy, SystemContext, has_native_dispatch_round, make_policy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.backends import (
    FastBackend,
    ReferenceBackend,
    available_backends,
    backend_capabilities,
    backend_descriptions,
    make_backend,
)
from repro.sim.batchstore import BatchQueueStore
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.metrics import ResponseTimeHistogram
from repro.sim.service import GeometricService
from repro.sim.sized import BimodalSize, DeterministicSize, GeometricSize

#: Policies whose decisions involve no randomness (native batch paths
#: included): identical runs on every backend are required bit-for-bit.
DETERMINISTIC_POLICIES = ["jsq", "sed", "rr", "wrr"]
#: Stateful / stochastic policies, bit-identical across backends on every
#: size distribution. SCD's native batch path -- shared by its TWF and
#: size-aware subclasses -- draws one broadcast multinomial per round,
#: the identical stream.
STATEFUL_POLICIES = ["scd", "twf", "scd-sized"]
#: An SCD configuration whose batch path defers to the base
#: per-dispatcher loop (a connectivity mask, here a full one for
#: ``run_once``'s 3 x 8 system); each entry builds a fresh policy per run.
FALLBACK_POLICIES = {
    "scd-connectivity": lambda: SCDPolicy(connectivity=np.ones((3, 8), dtype=bool)),
}
#: Stochastic native batch paths that pool their draws across a round's
#: dispatchers (one broadcast ``multinomial`` or one pooled ``integers``
#: draw, consumed exactly like the per-dispatcher calls).
POOLED_DRAW_POLICIES = ["wr", "random", "jsq(2)", "hjsq(2)"]
#: Native batch paths that restructure no RNG consumption (LSQ/LED's
#: vectorized sampled refreshes, JIQ's fused empty-idle fallback draw and
#: the pooled draws above draw the identical stream): these must also
#: stay bit-identical across backends.
NATIVE_BIT_IDENTICAL_POLICIES = [
    "lsq", "hlsq", "led", "hled", "jiq", "hjiq",
] + POOLED_DRAW_POLICIES

SIZE_DISTRIBUTIONS = {
    "unit": None,
    "det3": DeterministicSize(3),
    "geom2.5": GeometricSize(2.5),
    "bimodal": BimodalSize(small=1, large=20, large_prob=0.05),
}


def mean_size(sizes) -> float:
    return 1.0 if sizes is None else sizes.mean


def run_once(policy, sizes, backend, seed=0, rates=None, m=3, rho=0.85, rounds=400, n=8):
    """One run; ``backend`` is a registry name or a backend instance."""
    if rates is None:
        rates = np.random.default_rng(123).uniform(2.0, 10.0, size=n)
    jobs_per_round = rho * rates.sum() / mean_size(sizes)
    name = backend if isinstance(backend, str) else backend.name
    sim = Simulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(np.full(m, jobs_per_round / m)),
        service=GeometricService(rates),
        config=SimulationConfig(rounds=rounds, seed=seed, backend=name),
        sizes=sizes,
    )
    return sim.run() if isinstance(backend, str) else backend.run(sim)


def summaries(result) -> str:
    """Every probe summary, NaN-safe comparable (NaN != NaN as floats)."""
    return json.dumps(result.probe_summaries(), sort_keys=True)


def assert_conserved(result):
    assert result.total_arrived == result.total_departed + result.final_queued
    if result.total_jobs is not None:
        assert result.histogram.total <= result.total_jobs


def assert_identical(a, b):
    """Both results describe the exact same run, field by field."""
    assert a.total_jobs == b.total_jobs
    assert a.total_arrived == b.total_arrived
    assert a.total_departed == b.total_departed
    assert a.final_queued == b.final_queued
    for name in ("final_queues", "server_received", "server_departed"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)
    assert a.histogram.max_response_time == b.histogram.max_response_time
    np.testing.assert_array_equal(a.queue_series.values, b.queue_series.values)
    assert summaries(a) == summaries(b)


class TestRegistry:
    def test_both_backends_registered(self):
        assert {"reference", "fast"} <= set(available_backends())

    def test_sized_capability_marks_simulation_kernels(self):
        """Every simulation kernel runs sized jobs; analytic backends
        integrate a fluid limit with no job-size dimension and say so."""
        for name in available_backends():
            caps = backend_capabilities(name)
            assert caps.supports_sized == (not caps.analytic), name
            assert ("unit-only" in caps.describe()) == caps.analytic
        assert not backend_capabilities("meanfield").supports_sized

    def test_descriptions_cover_all(self):
        descriptions = backend_descriptions()
        assert set(descriptions) == set(available_backends())
        assert all(descriptions.values())

    def test_make_backend_by_name_and_passthrough(self):
        assert isinstance(make_backend("reference"), ReferenceBackend)
        assert isinstance(make_backend("FAST"), FastBackend)
        instance = FastBackend()
        assert make_backend(instance) is instance

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_backend("warp-drive")

    def test_simulation_rejects_empty_backend(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_once("jsq", GeometricSize(2.0), backend="", rounds=10)

    def test_unknown_backend_fails_at_run(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            run_once("jsq", GeometricSize(2.0), backend="warp-drive", rounds=10)

    def test_meanfield_refuses_sized_workloads(self):
        with pytest.raises(ValueError, match="unit jobs only"):
            run_once("jsq", GeometricSize(2.0), backend="meanfield", rounds=10)


class TestBitExactness:
    @pytest.mark.parametrize("dist", sorted(SIZE_DISTRIBUTIONS))
    @pytest.mark.parametrize("policy", DETERMINISTIC_POLICIES)
    def test_deterministic_policies_identical(self, policy, dist):
        sizes = SIZE_DISTRIBUTIONS[dist]
        a = run_once(policy, sizes, "reference", seed=5)
        b = run_once(policy, sizes, "fast", seed=5)
        assert_identical(a, b)

    @pytest.mark.parametrize("dist", sorted(SIZE_DISTRIBUTIONS))
    @pytest.mark.parametrize("policy", STATEFUL_POLICIES + list(FALLBACK_POLICIES))
    def test_fallback_policies_identical(self, policy, dist):
        # Every SCD variant overrides the batch protocol; a connectivity
        # mask makes the override take the base loop.
        build = FALLBACK_POLICIES.get(policy, lambda: policy)
        assert has_native_dispatch_round(make_policy(build()))
        sizes = SIZE_DISTRIBUTIONS[dist]
        a = run_once(build(), sizes, "reference", seed=11, rounds=300)
        b = run_once(build(), sizes, "fast", seed=11, rounds=300)
        assert_identical(a, b)

    @pytest.mark.parametrize("policy", NATIVE_BIT_IDENTICAL_POLICIES)
    def test_native_bit_identical_policies(self, policy):
        """LSQ's native path draws the identical refresh stream, so it
        stays bit-identical with sized jobs too."""
        assert has_native_dispatch_round(make_policy(policy))
        sizes = GeometricSize(2.5)
        a = run_once(policy, sizes, "reference", seed=11, rounds=300)
        b = run_once(policy, sizes, "fast", seed=11, rounds=300)
        assert_identical(a, b)

    def test_non_chunk_aligned_rounds(self):
        """Rounds not divisible by the block size exercise the tail block."""
        sizes = GeometricSize(3.0)
        a = run_once("sed", sizes, "reference", seed=3, rounds=259)
        b = run_once("sed", sizes, "fast", seed=3, rounds=259)
        assert_identical(a, b)

    def test_multi_block_carry(self):
        """Several full blocks force jobs (and partial heads) across
        block boundaries at high load."""
        sizes = BimodalSize(small=2, large=40, large_prob=0.1)
        a = run_once("jsq", sizes, "reference", seed=17, rounds=600, rho=1.02)
        b = run_once("jsq", sizes, "fast", seed=17, rounds=600, rho=1.02)
        assert_identical(a, b)

    def test_unit_sizes_match_base_model(self):
        """DeterministicSize(1) is normalised to the unit workload."""
        a = run_once("jsq", DeterministicSize(1), "fast", seed=2)
        b = run_once("jsq", None, "fast", seed=2)
        assert a.total_jobs is None
        assert_identical(a, b)


class TestUnitSizeProperty:
    """``DeterministicSize(1)`` equals the unit workload field for field."""

    @given(
        backend=st.sampled_from(["reference", "fast"]),
        policy=st.sampled_from(DETERMINISTIC_POLICIES + ["scd", "jsq(2)"]),
        seed=st.integers(0, 2**20),
        n=st.integers(2, 7),
        m=st.integers(1, 4),
        rho=st.floats(0.3, 1.05),
        rounds=st.integers(1, 300),
    )
    @DETERMINISM_SETTINGS
    def test_unit_size_equals_unit_workload(
        self, backend, policy, seed, n, m, rho, rounds
    ):
        rates = np.random.default_rng(seed % 1000).uniform(0.5, 12.0, size=n)
        results = [
            run_once(policy, sizes, backend, seed=seed, rates=rates, m=m,
                     rho=rho, rounds=rounds)
            for sizes in (DeterministicSize(1), None)
        ]
        for field in dataclasses.fields(results[0]):
            if field.name == "probes":
                continue
            a, b = (getattr(r, field.name) for r in results)
            if isinstance(a, np.ndarray):
                np.testing.assert_array_equal(a, b)
            elif field.name == "histogram":
                np.testing.assert_array_equal(a.counts, b.counts)
            elif field.name == "queue_series":
                np.testing.assert_array_equal(a.values, b.values)
            else:
                assert a == b, field.name
        assert summaries(results[0]) == summaries(results[1])


class TestStochasticNativePaths:
    @pytest.mark.parametrize("policy", POOLED_DRAW_POLICIES)
    def test_native_override_present(self, policy):
        assert has_native_dispatch_round(make_policy(policy))

    @pytest.mark.parametrize("policy", POOLED_DRAW_POLICIES)
    def test_exact_unit_accounting(self, policy):
        result = run_once(policy, GeometricSize(2.5), "fast", seed=7, rounds=500)
        assert_conserved(result)

    @pytest.mark.parametrize("policy", POOLED_DRAW_POLICIES)
    def test_identical_workload_realization(self, policy):
        """Arrival and size streams are untouched by the policy's path."""
        a = run_once(policy, GeometricSize(2.5), "reference", seed=9)
        b = run_once(policy, GeometricSize(2.5), "fast", seed=9)
        assert a.total_jobs == b.total_jobs
        assert a.total_arrived == b.total_arrived


class TestSizedBackendPropertyBased:
    @given(
        policy=st.sampled_from(DETERMINISTIC_POLICIES + ["scd"]),
        dist=st.sampled_from(sorted(SIZE_DISTRIBUTIONS)),
        seed=st.integers(0, 2**20),
        n=st.integers(2, 7),
        m=st.integers(1, 4),
        rho=st.floats(0.3, 1.05),
        rounds=st.integers(1, 120),
    )
    @DETERMINISM_SETTINGS
    def test_backends_agree_and_conserve_units(
        self, policy, dist, seed, n, m, rho, rounds
    ):
        """Hypothesis sweep: identical records + exact accounting over
        random sizes, loads (including slightly inadmissible ones), and
        heterogeneous rate draws."""
        sizes = SIZE_DISTRIBUTIONS[dist]
        rates = np.random.default_rng(seed % 1000).uniform(0.5, 12.0, size=n)
        results = []
        for backend in ("reference", "fast"):
            result = run_once(policy, sizes, backend, seed=seed, rates=rates,
                              m=m, rho=rho, rounds=rounds)
            assert_conserved(result)
            results.append(result)
        assert_identical(*results)


class TestWRRNativeBatchPath:
    """Satellite: the smooth-credit loop batched across dispatchers."""

    def _bound_pair(self, n, m, seed):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.5, 10.0, size=n)
        native, fallback = make_policy("wrr"), make_policy("wrr")
        for policy in (native, fallback):
            policy.bind(
                SystemContext(
                    rates=rates,
                    num_dispatchers=m,
                    rng=np.random.default_rng(1),
                )
            )
        return native, fallback

    def test_native_override_present(self):
        assert has_native_dispatch_round(make_policy("wrr"))

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 8),
        m=st.integers(1, 5),
    )
    @DETERMINISM_SETTINGS
    def test_counts_and_credit_state_bit_identical(self, seed, n, m):
        native, fallback = self._bound_pair(n, m, seed)
        rng = np.random.default_rng(seed + 1)
        for _ in range(4):
            batch = rng.integers(0, 9, size=m)
            queues = rng.integers(0, 30, size=n)
            totals_native = native.dispatch_round(batch, queues)
            totals_fallback = Policy.dispatch_round(fallback, batch, queues)
            np.testing.assert_array_equal(totals_native, totals_fallback)
            np.testing.assert_array_equal(native._credits, fallback._credits)

    def test_empty_round_leaves_credits_untouched(self):
        native, _ = self._bound_pair(4, 3, seed=0)
        before = native._credits.copy()
        totals = native.dispatch_round(np.zeros(3, dtype=np.int64), np.zeros(4))
        np.testing.assert_array_equal(totals, np.zeros(4, dtype=np.int64))
        np.testing.assert_array_equal(native._credits, before)


class TestSizedBatchQueueStore:
    """The one block resolver on sized blocks: jobs of several units,
    partly served heads carried across rounds and blocks."""

    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 5),
        blocks=st.integers(1, 3),
        block_len=st.integers(1, 10),
        warmup=st.integers(0, 6),
        max_size=st.integers(1, 9),
    )
    @DETERMINISM_SETTINGS
    def test_matches_sized_server_queue_semantics(
        self, seed, n, blocks, block_len, warmup, max_size
    ):
        stream = random_store_blocks(
            np.random.default_rng(seed), n, block_len, [max_size] * blocks
        )
        assert_store_matches_reference(n, block_len, stream, warmup)

    def test_fifo_across_jobs_and_servers(self):
        store = BatchQueueStore(2)
        histogram = ResponseTimeHistogram()
        records = []

        def sink(rounds, times, counts, servers):
            records.extend(zip(servers, rounds, times, counts))

        # Server 0: jobs of 2 and 1 units (round 0); server 1: 3 units.
        store.process_block(
            0,
            np.array([[2, 1]]),
            np.array([2, 1, 3]),
            np.array([[3, 3]], dtype=np.int64),
            histogram,
            response_sink=sink,
        )
        # All three jobs complete in round 0 -> response 1 each, one
        # (server, round, time, count) record per job, server-major.
        np.testing.assert_array_equal(histogram.counts, [0, 3])
        assert [tuple(map(int, r)) for r in records] == [
            (0, 0, 1, 1),
            (0, 0, 1, 1),
            (1, 0, 1, 1),
        ]

    def test_overdrain_detected(self):
        store = BatchQueueStore(2)
        with pytest.raises(RuntimeError, match="drained past"):
            store.process_block(
                0,
                np.array([[1, 0]]),
                np.array([3]),
                np.array([[4, 0]], dtype=np.int64),
                ResponseTimeHistogram(),
            )

    def test_empty_block_is_noop(self):
        store = BatchQueueStore(3)
        zero = np.zeros((4, 3), dtype=np.int64)
        store.process_block(0, zero, np.empty(0, dtype=np.int64), zero, None)
        np.testing.assert_array_equal(store.queued_units(), np.zeros(3, np.int64))
        np.testing.assert_array_equal(store.queued_jobs(), np.zeros(3, np.int64))


class TestEndToEndPlumbing:
    def test_simulate_cell_runs_sized_fast(self):
        from repro.experiments.executor import simulate_cell
        from repro.experiments.workload import WorkloadSpec
        from repro.workloads.scenarios import SystemSpec

        system = SystemSpec(6, 2)
        workload = WorkloadSpec.sized(GeometricSize(2.0))
        results = [
            simulate_cell(
                "jsq", system, 0.8, workload, seed=3, rounds=300, backend=backend
            )
            for backend in ("reference", "fast")
        ]
        assert_identical(*results)

    def test_simulate_cell_unknown_sized_backend_uses_registry_error(self):
        from repro.experiments.executor import simulate_cell
        from repro.experiments.workload import WorkloadSpec
        from repro.workloads.scenarios import SystemSpec

        with pytest.raises(ValueError, match="unknown engine backend"):
            simulate_cell(
                "jsq",
                SystemSpec(4, 1),
                0.5,
                WorkloadSpec.sized(DeterministicSize(2)),
                seed=0,
                rounds=10,
                backend="warp-drive",
            )

    def test_experiment_grid_identical_records_across_backends(self):
        from repro.experiments import Experiment, WorkloadSpec
        from repro.workloads.scenarios import SystemSpec

        def grid(backend):
            return Experiment(
                policies=["jsq", "scd"],
                systems=SystemSpec(6, 2),
                loads=[0.7],
                rounds=250,
                workloads=(WorkloadSpec.sized(GeometricSize(2.0)),),
                backend=backend,
            ).run(keep_results=False)

        reference, fast = grid("reference"), grid("fast")
        assert reference.records == fast.records
        assert {"jobs", "arrived"} <= set(fast.records[0].metrics)

    def test_sized_fast_experiment_json_round_trip(self, tmp_path):
        from repro.experiments.persistence import load_experiment, save_experiment
        from repro.experiments import Experiment, WorkloadSpec
        from repro.workloads.scenarios import SystemSpec

        result = Experiment(
            policies="jsq",
            systems=SystemSpec(5, 2),
            loads=0.6,
            rounds=120,
            workloads=(WorkloadSpec.sized(GeometricSize(2.0)),),
            backend="fast",
        ).run()
        path = save_experiment(result, tmp_path / "sized.json")
        loaded = load_experiment(path)
        assert loaded.experiment.backend == "fast"
        assert loaded.records == result.records
        # Sized results now serialize in full, job count included.
        assert loaded.records[0].result.total_jobs == result.records[0].result.total_jobs
