"""Tests for the pluggable engine backends and the vectorized kernel.

The contract under test (ISSUE 2 acceptance):

* the backend registry mirrors the policy registry (names, errors);
* the fast backend is *bit-identical* to the reference backend --
  same seeds give the same ``SimulationResult`` including histograms,
  queue series, and per-server accounting -- for deterministic policies
  and for any policy using the base-class ``dispatch_round`` fallback;
* stochastic policies with native batch paths preserve exact job
  accounting and are statistically equivalent;
* the block-resolved :class:`BatchQueueStore` reproduces the reference
  :class:`SizedServerQueue` drain of unit jobs exactly, batch by batch;
* ``ResponseTimeHistogram.record_many`` equals the equivalent sequence
  of ``record`` calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.base import has_native_dispatch_round, make_policy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.backends import (
    FastBackend,
    ReferenceBackend,
    available_backends,
    backend_descriptions,
    make_backend,
)
from repro.sim.batchstore import BatchQueueStore
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.metrics import ResponseTimeHistogram
from repro.sim.backends import SizedServerQueue
from repro.sim.service import GeometricService

#: Policies whose decisions involve no randomness: identical runs on both
#: backends are required bit-for-bit.
DETERMINISTIC_POLICIES = ["jsq", "sed", "rr", "wrr"]
#: Stateful / stochastic policies without a native batch path: they run
#: through the fallback, so they must also be bit-identical.
FALLBACK_POLICIES = ["twf"]
#: Native batch paths that restructure no RNG consumption (SCD's one
#: broadcast multinomial per round, LSQ/LED's vectorized sampled refreshes
#: and JIQ's fused empty-idle fallback draw the identical stream): these
#: must also stay bit-identical across backends.
NATIVE_BIT_IDENTICAL_POLICIES = ["scd", "lsq", "hlsq", "led", "jiq"]
#: Stochastic policies with native batch paths: exact accounting plus
#: statistical equivalence only.
NATIVE_STOCHASTIC_POLICIES = ["wr", "random", "jsq(2)", "hjsq(2)"]


def run_once(policy, backend, seed=0, n=8, m=3, rho=0.85, rounds=400, warmup=0):
    rng = np.random.default_rng(123)
    rates = rng.uniform(1.0, 8.0, size=n)
    lambdas = np.full(m, rho * rates.sum() / m)
    return Simulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(lambdas),
        service=GeometricService(rates),
        config=SimulationConfig(
            rounds=rounds, seed=seed, warmup=warmup, backend=backend
        ),
    ).run()


def forced_compiled():
    """A ``compiled`` backend running the compiled control flow even
    without numba (the plain-Python twins of the jitted functions)."""
    backend = make_backend("compiled")
    backend.force = True
    return backend


def assert_identical(a, b):
    """Both SimulationResults describe the exact same run."""
    assert a.total_arrived == b.total_arrived
    assert a.total_departed == b.total_departed
    assert a.final_queued == b.final_queued
    np.testing.assert_array_equal(a.final_queues, b.final_queues)
    np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)
    assert a.histogram.max_response_time == b.histogram.max_response_time
    np.testing.assert_array_equal(a.server_received, b.server_received)
    np.testing.assert_array_equal(a.server_departed, b.server_departed)
    np.testing.assert_array_equal(a.queue_series.values, b.queue_series.values)


class TestRegistry:
    def test_both_backends_registered(self):
        assert {"reference", "fast"} <= set(available_backends())

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

    def test_config_rejects_empty_backend(self):
        with pytest.raises(ValueError):
            SimulationConfig(backend="")

    def test_unknown_backend_fails_at_run(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            run_once("jsq", backend="warp-drive", rounds=10)

    def test_legacy_wrappers_honor_backend(self):
        """Every ExperimentConfig consumer forwards config.backend."""
        from repro.analysis.replication import replicated_runs
        from repro.analysis.runner import (
            ExperimentConfig,
            mean_response_sweep,
            run_simulation,
            tail_experiment,
        )
        from repro.workloads.scenarios import SystemSpec

        system = SystemSpec(6, 2)
        config = ExperimentConfig(rounds=150, backend="fast")
        reference = ExperimentConfig(rounds=150, backend="reference")
        fast = run_simulation("jsq", system, 0.8, config)
        assert fast.config.backend == "fast"
        assert (
            fast.mean_response_time
            == run_simulation("jsq", system, 0.8, reference).mean_response_time
        )
        sweep = mean_response_sweep(["jsq"], system, (0.8,), config)
        assert sweep.row("jsq") == mean_response_sweep(
            ["jsq"], system, (0.8,), reference
        ).row("jsq")
        tails = tail_experiment(["jsq"], system, 0.8, config)
        assert tails["jsq"].config.backend == "fast"
        reps = replicated_runs("jsq", system, 0.8, config, replications=2)
        assert reps.replication_means == replicated_runs(
            "jsq", system, 0.8, reference, replications=2
        ).replication_means
        # Forwarding is observable via validation: a bogus backend in the
        # config must reach the Experiment and be rejected there.
        for wrapper in (
            lambda c: run_simulation("jsq", system, 0.8, c),
            lambda c: mean_response_sweep(["jsq"], system, (0.8,), c),
            lambda c: tail_experiment(["jsq"], system, 0.8, c),
            lambda c: replicated_runs("jsq", system, 0.8, c, replications=2),
        ):
            with pytest.raises(ValueError, match="unknown engine backend"):
                wrapper(ExperimentConfig(rounds=150, backend="bogus"))

    def test_experiment_validates_backend_per_registry(self):
        """Sized and unit cells resolve the backend in the one registry:
        known names (fast included) construct, unknown names fail at
        construction with the registry's own error message, and a
        unit-only backend refuses sized workloads."""
        from repro.experiments import Experiment, WorkloadSpec
        from repro.sim.sized import GeometricSize
        from repro.workloads.scenarios import SystemSpec

        sized = dict(
            policies=["jsq"],
            systems=SystemSpec(4, 1),
            loads=[0.5],
            rounds=50,
            workloads=(WorkloadSpec.sized(GeometricSize(2.0)),),
        )
        assert Experiment(**sized, backend="fast").backend == "fast"
        with pytest.raises(ValueError, match="unknown engine backend"):
            Experiment(**sized, backend="warp-drive")
        with pytest.raises(ValueError, match="cannot run sized workloads"):
            Experiment(**sized, backend="meanfield")
        with pytest.raises(ValueError, match="unknown engine backend"):
            Experiment(
                policies=["jsq"],
                systems=SystemSpec(4, 1),
                loads=[0.5],
                rounds=50,
                backend="warp-drive",
            )


class TestBitExactness:
    @pytest.mark.parametrize("policy", DETERMINISTIC_POLICIES)
    def test_deterministic_policies_identical(self, policy):
        a = run_once(policy, "reference", seed=5)
        b = run_once(policy, "fast", seed=5)
        assert_identical(a, b)

    @pytest.mark.parametrize("policy", FALLBACK_POLICIES)
    def test_fallback_policies_identical(self, policy):
        assert not has_native_dispatch_round(make_policy(policy))
        a = run_once(policy, "reference", seed=11)
        b = run_once(policy, "fast", seed=11)
        assert_identical(a, b)

    @pytest.mark.parametrize("policy", NATIVE_BIT_IDENTICAL_POLICIES)
    def test_native_bit_identical_policies(self, policy):
        """LSQ's native path (vectorized sampled refreshes: one RNG draw
        per round across dispatchers) must not perturb the stream."""
        assert has_native_dispatch_round(make_policy(policy))
        a = run_once(policy, "reference", seed=11)
        b = run_once(policy, "fast", seed=11)
        assert_identical(a, b)

    def test_warmup_boundary_identical(self):
        """The warmup cut falls mid-block; gating must match per round."""
        a = run_once("jsq", "reference", seed=2, rounds=600, warmup=300)
        b = run_once("jsq", "fast", seed=2, rounds=600, warmup=300)
        assert_identical(a, b)

    def test_non_chunk_aligned_rounds(self):
        """Rounds not divisible by the block size exercise the tail block."""
        a = run_once("sed", "reference", seed=3, rounds=259)
        b = run_once("sed", "fast", seed=3, rounds=259)
        assert_identical(a, b)


class TestCompiledBitExactness:
    """The ``compiled`` kernel against ``fast``, compiled control flow
    forced on so numba-less hosts cover the jitted functions' exact
    (plain-Python) bodies."""

    def test_registered_with_description(self):
        assert "compiled" in available_backends()
        assert backend_descriptions()["compiled"]

    @pytest.mark.parametrize(
        "policy",
        DETERMINISTIC_POLICIES
        + FALLBACK_POLICIES
        + NATIVE_BIT_IDENTICAL_POLICIES,
    )
    def test_bit_identical_to_fast(self, policy):
        a = run_once(policy, "fast", seed=5)
        b = run_once(policy, forced_compiled(), seed=5)
        assert_identical(a, b)

    def test_warmup_boundary_identical(self):
        """The warmup cut falls mid-block; the compiled resolver gates
        record emission per departure round exactly like the store."""
        a = run_once("rr", "fast", seed=2, rounds=600, warmup=300)
        b = run_once("rr", forced_compiled(), seed=2, rounds=600, warmup=300)
        assert_identical(a, b)

    def test_non_chunk_aligned_rounds(self):
        a = run_once("wrr", "fast", seed=3, rounds=259)
        b = run_once("wrr", forced_compiled(), seed=3, rounds=259)
        assert_identical(a, b)

    @given(
        policy=st.sampled_from(DETERMINISTIC_POLICIES),
        seed=st.integers(0, 2**20),
        n=st.integers(2, 7),
        m=st.integers(1, 4),
        rho=st.floats(0.3, 1.05),
        rounds=st.integers(1, 120),
    )
    @settings(max_examples=25, deadline=None)
    def test_compiled_agrees_with_fast(self, policy, seed, n, m, rho, rounds):
        rng = np.random.default_rng(seed % 1000)
        rates = rng.uniform(0.5, 6.0, size=n)
        lambdas = np.full(m, rho * rates.sum() / m)
        results = []
        for backend in ("fast", forced_compiled()):
            result = Simulation(
                rates=rates,
                policy=make_policy(policy),
                arrivals=PoissonArrivals(lambdas),
                service=GeometricService(rates),
                config=SimulationConfig(rounds=rounds, seed=seed, backend=backend),
            ).run()
            assert (
                result.total_arrived
                == result.total_departed + result.final_queued
            )
            results.append(result)
        assert_identical(*results)


class TestStochasticNativePaths:
    @pytest.mark.parametrize("policy", NATIVE_STOCHASTIC_POLICIES)
    def test_native_override_present(self, policy):
        assert has_native_dispatch_round(make_policy(policy))

    @pytest.mark.parametrize("policy", NATIVE_STOCHASTIC_POLICIES)
    def test_exact_job_accounting(self, policy):
        result = run_once(policy, "fast", seed=7, rounds=500)
        assert result.total_arrived == result.total_departed + result.final_queued
        assert result.final_queued == int(result.final_queues.sum())
        assert result.histogram.total == result.total_departed
        np.testing.assert_array_equal(
            result.server_received - result.server_departed, result.final_queues
        )

    @pytest.mark.parametrize("policy", NATIVE_STOCHASTIC_POLICIES)
    def test_identical_workload_realization(self, policy):
        """Arrival/departure streams are untouched by the policy's path."""
        a = run_once(policy, "reference", seed=9)
        b = run_once(policy, "fast", seed=9)
        assert a.total_arrived == b.total_arrived

    @pytest.mark.parametrize("policy", ["wr", "jsq(2)"])
    def test_distributional_equivalence(self, policy):
        """Replicated means agree within a loose statistical tolerance."""
        ref = np.mean(
            [
                run_once(policy, "reference", seed=s, rounds=1500).mean_response_time
                for s in range(3)
            ]
        )
        fast = np.mean(
            [
                run_once(policy, "fast", seed=s, rounds=1500).mean_response_time
                for s in range(3)
            ]
        )
        assert fast == pytest.approx(ref, rel=0.25)


class TestBackendPropertyBased:
    @given(
        policy=st.sampled_from(DETERMINISTIC_POLICIES),
        seed=st.integers(0, 2**20),
        n=st.integers(2, 7),
        m=st.integers(1, 4),
        rho=st.floats(0.3, 1.05),
        rounds=st.integers(1, 120),
    )
    @settings(max_examples=25, deadline=None)
    def test_backends_agree_and_conserve_jobs(self, policy, seed, n, m, rho, rounds):
        """Hypothesis sweep: identical records + exact accounting.

        Covers the deterministic policy set over random small systems,
        loads (including slightly inadmissible ones), and horizons that
        exercise block-boundary effects.
        """
        rng = np.random.default_rng(seed % 1000)
        rates = rng.uniform(0.5, 6.0, size=n)
        lambdas = np.full(m, rho * rates.sum() / m)
        results = []
        for backend in ("reference", "fast"):
            result = Simulation(
                rates=rates,
                policy=make_policy(policy),
                arrivals=PoissonArrivals(lambdas),
                service=GeometricService(rates),
                config=SimulationConfig(rounds=rounds, seed=seed, backend=backend),
            ).run()
            assert (
                result.total_arrived
                == result.total_departed + result.final_queued
            )
            assert result.histogram.total == result.total_departed
            results.append(result)
        assert_identical(*results)


class TestBatchQueueStore:
    """The block resolver against the reference per-server deques."""

    def reference_drain(self, n, received_blocks, done_blocks, warmup):
        """Replay the same admissions/completions through SizedServerQueues."""
        servers = [SizedServerQueue() for _ in range(n)]
        histogram = ResponseTimeHistogram()
        t = 0
        for received_block, done_block in zip(received_blocks, done_blocks):
            for i in range(received_block.shape[0]):
                for s in np.flatnonzero(received_block[i]):
                    servers[s].admit(t, int(received_block[i, s]))
                sink = histogram if t >= warmup else None
                for s in np.flatnonzero(done_block[i]):
                    completed = servers[s].complete(int(done_block[i, s]), t, sink)
                    assert completed == int(done_block[i, s])
                t += 1
        return histogram, np.array([q.units for q in servers], dtype=np.int64)

    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 6),
        blocks=st.integers(1, 3),
        block_len=st.integers(1, 12),
        warmup=st.integers(0, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_server_queue_semantics(self, seed, n, blocks, block_len, warmup):
        rng = np.random.default_rng(seed)
        store = BatchQueueStore(n)
        histogram = ResponseTimeHistogram()
        queued = np.zeros(n, dtype=np.int64)
        received_blocks, done_blocks = [], []
        start = 0
        for _ in range(blocks):
            received = rng.integers(0, 5, size=(block_len, n))
            done = np.zeros_like(received)
            for i in range(block_len):
                queued += received[i]
                # Any feasible completion vector (<= queued) is legal.
                done[i] = rng.integers(0, queued + 1)
                queued -= done[i]
            store.process_block(start, received, done, histogram, warmup)
            received_blocks.append(received)
            done_blocks.append(done)
            start += block_len
        expected_hist, expected_queued = self.reference_drain(
            n, received_blocks, done_blocks, warmup
        )
        np.testing.assert_array_equal(histogram.counts, expected_hist.counts)
        np.testing.assert_array_equal(store.queued_jobs(), expected_queued)
        assert int(store.queued_jobs().sum()) == int(queued.sum())

    def test_overdrain_detected(self):
        store = BatchQueueStore(2)
        received = np.array([[3, 0]], dtype=np.int64)
        done = np.array([[4, 0]], dtype=np.int64)
        with pytest.raises(RuntimeError, match="drained past"):
            store.process_block(0, received, done, ResponseTimeHistogram(), 0)

    def test_empty_block_is_noop(self):
        store = BatchQueueStore(3)
        zero = np.zeros((4, 3), dtype=np.int64)
        store.process_block(0, zero, zero, ResponseTimeHistogram(), 0)
        np.testing.assert_array_equal(store.queued_jobs(), np.zeros(3, np.int64))
        np.testing.assert_array_equal(store.batch_counts(), np.zeros(3, np.int64))

    def test_carry_preserves_fifo_order(self):
        """Jobs left over at a block boundary keep their arrival rounds."""
        store = BatchQueueStore(1)
        received = np.array([[2], [3]], dtype=np.int64)
        done = np.zeros_like(received)
        store.process_block(0, received, done, None, 0)
        assert store.batch_counts()[0] == 2
        # Next block: drain 4 of the 5 -- the round-0 batch (2 jobs at
        # response 3) and part of the round-1 batch (2 jobs at response 2).
        histogram = ResponseTimeHistogram()
        store.process_block(
            2,
            np.zeros((1, 1), dtype=np.int64),
            np.array([[4]], dtype=np.int64),
            histogram,
            0,
        )
        np.testing.assert_array_equal(histogram.counts, [0, 0, 2, 2])
        assert store.queued_jobs()[0] == 1


class TestRecordMany:
    @given(
        times=st.lists(st.integers(1, 40), min_size=0, max_size=30),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_sequential_record(self, times, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 4, size=len(times))
        bulk = ResponseTimeHistogram()
        bulk.record_many(np.asarray(times), counts)
        sequential = ResponseTimeHistogram()
        for value, count in zip(times, counts):
            sequential.record(value, int(count))
        np.testing.assert_array_equal(bulk.counts, sequential.counts)
        assert bulk.total == sequential.total
        assert bulk.max_response_time == sequential.max_response_time

    def test_rejects_nonpositive_times_with_positive_count(self):
        histogram = ResponseTimeHistogram()
        with pytest.raises(ValueError):
            histogram.record_many(np.array([0]), np.array([1]))

    def test_zero_count_entries_ignored(self):
        histogram = ResponseTimeHistogram()
        histogram.record_many(np.array([-5, 3]), np.array([0, 2]))
        assert histogram.total == 2
        assert histogram.max_response_time == 3

    def test_shape_mismatch_rejected(self):
        histogram = ResponseTimeHistogram()
        with pytest.raises(ValueError):
            histogram.record_many(np.array([1, 2]), np.array([1]))
