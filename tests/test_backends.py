"""Tests for the pluggable engine backends and the vectorized kernel.

The contract under test (ISSUE 2 acceptance):

* the backend registry mirrors the policy registry (names, errors);
* the fast backend is *bit-identical* to the reference backend --
  same seeds give the same ``SimulationResult`` including histograms,
  queue series, and per-server accounting -- for deterministic policies
  and for any policy using the base-class ``dispatch_round`` fallback;
* stochastic policies with native batch paths, whose draws are pooled
  across dispatchers, are bit-identical too and keep exact job
  accounting;
* the block-resolved :class:`BatchQueueStore` reproduces the reference
  :class:`SizedServerQueue` drain of unit and sized jobs exactly, record
  by record and in FIFO order, including partly served head jobs carried
  across blocks;
* the store resolves each block in a borrowed scratch workspace: a
  block's transient allocations stay small, a pickled store holds only
  its state, and concurrent or resumed resolves record exactly what
  serial ones do;
* ``ResponseTimeHistogram.record_many`` equals the equivalent sequence
  of ``record`` calls.
"""

import numpy as np
import pytest
from _helpers import (
    DETERMINISM_SETTINGS,
    assert_store_matches_reference,
    random_store_blocks,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.scd import SCDPolicy
from repro.policies.base import Policy, has_native_dispatch_round, make_policy
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
from repro.sim.service import GeometricService

#: Policies whose decisions involve no randomness: identical runs on both
#: backends are required bit-for-bit.
DETERMINISTIC_POLICIES = ["jsq", "sed", "rr", "wrr"]
#: Stochastic configurations whose batch path defers to the base
#: per-dispatcher loop (SCD with a connectivity mask, here a full one for
#: ``run_once``'s 3 x 8 system): they run through the fallback, so they
#: must also be bit-identical.  Each entry builds a fresh policy per run.
FALLBACK_POLICIES = {
    "scd-connectivity": lambda: SCDPolicy(connectivity=np.ones((3, 8), dtype=bool)),
}
#: Stochastic native batch paths that pool their draws across a round's
#: dispatchers: numpy's broadcast ``multinomial`` and one pooled
#: ``integers`` draw consume the stream exactly like the per-dispatcher
#: calls.
POOLED_DRAW_POLICIES = ["wr", "random", "jsq(2)", "hjsq(2)"]
#: Native batch paths that restructure no RNG consumption (SCD's one
#: broadcast multinomial per round -- shared by its rate-oblivious TWF and
#: size-aware subclasses --, LSQ/LED's vectorized sampled refreshes,
#: JIQ's fused empty-idle fallback draw and the pooled draws above draw
#: the identical stream): these must also stay bit-identical across
#: backends.
NATIVE_BIT_IDENTICAL_POLICIES = [
    "scd", "twf", "scd-sized", "lsq", "hlsq", "led", "hled", "jiq", "hjiq",
] + POOLED_DRAW_POLICIES


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

    @pytest.mark.parametrize("policy", list(FALLBACK_POLICIES))
    def test_fallback_policies_identical(self, policy, monkeypatch):
        calls = []
        base_loop = Policy.dispatch_round

        def spy(self, batch, queues):
            calls.append(1)
            return base_loop(self, batch, queues)

        monkeypatch.setattr(Policy, "dispatch_round", spy)
        build = FALLBACK_POLICIES[policy]
        a = run_once(build(), "reference", seed=11)
        b = run_once(build(), "fast", seed=11)
        assert calls, "the fast run never took the base per-dispatcher loop"
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


class TestStochasticNativePaths:
    @pytest.mark.parametrize("policy", POOLED_DRAW_POLICIES)
    def test_native_override_present(self, policy):
        assert has_native_dispatch_round(make_policy(policy))

    @pytest.mark.parametrize("policy", POOLED_DRAW_POLICIES)
    def test_exact_job_accounting(self, policy):
        result = run_once(policy, "fast", seed=7, rounds=500)
        assert result.total_arrived == result.total_departed + result.final_queued
        assert result.final_queued == int(result.final_queues.sum())
        assert result.histogram.total == result.total_departed
        np.testing.assert_array_equal(
            result.server_received - result.server_departed, result.final_queues
        )

    @pytest.mark.parametrize("policy", POOLED_DRAW_POLICIES)
    def test_identical_workload_realization(self, policy):
        """Arrival/departure streams are untouched by the policy's path."""
        a = run_once(policy, "reference", seed=9)
        b = run_once(policy, "fast", seed=9)
        assert a.total_arrived == b.total_arrived


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


def captured_store_blocks(monkeypatch, workload, rho, rounds=3 * 256):
    """The ``(start, jobs, sizes, done)`` blocks a fast ``rr`` cell on
    100 homogeneous servers x 50 dispatchers hands its batch store."""
    from repro.experiments.executor import build_cell_simulation
    from repro.workloads.scenarios import SystemSpec

    blocks = []
    process_block = BatchQueueStore.process_block

    def spy(self, start, jobs, sizes, done, *args, **kwargs):
        blocks.append(
            (start, jobs.copy(), None if sizes is None else sizes.copy(), done.copy())
        )
        return process_block(self, start, jobs, sizes, done, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(BatchQueueStore, "process_block", spy)
        build_cell_simulation(
            "rr", SystemSpec(100, 50, "homogeneous"), rho, workload,
            seed=17, rounds=rounds, warmup=0, backend="fast",
        ).run()
    return blocks


def transient_peak_of_third_block(blocks) -> int:
    """Bytes allocated at peak by a store's third ``process_block`` call,
    beyond what was live before it (tracemalloc sees numpy's buffers)."""
    import tracemalloc

    def replay(count):
        store = BatchQueueStore(100)
        for block in blocks[:count]:
            store.process_block(*block, ResponseTimeHistogram(), 0)
        return store

    replay(3)  # size the workspace for the measured block
    store = replay(2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        store.process_block(*blocks[2], ResponseTimeHistogram(), 0)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestBatchQueueStore:
    """The one block resolver against the reference per-server deques."""

    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 6),
        block_len=st.integers(1, 12),
        warmup=st.integers(0, 8),
        max_sizes=st.lists(
            st.one_of(st.none(), st.integers(1, 9)), min_size=1, max_size=3
        ),
    )
    @DETERMINISM_SETTINGS
    def test_matches_server_queue_semantics(
        self, seed, n, block_len, warmup, max_sizes
    ):
        """Unit blocks (max size None), sized blocks and streams mixing
        both: the same records in FIFO order, the same histogram and the
        same leftover work."""
        blocks = random_store_blocks(
            np.random.default_rng(seed), n, block_len, max_sizes
        )
        assert_store_matches_reference(n, block_len, blocks, warmup)

    def test_overdrain_detected(self):
        store = BatchQueueStore(2)
        received = np.array([[3, 0]], dtype=np.int64)
        done = np.array([[4, 0]], dtype=np.int64)
        with pytest.raises(RuntimeError, match="drained past"):
            store.process_block(0, received, None, done, ResponseTimeHistogram(), 0)

    def test_empty_block_is_noop(self):
        import pickle

        store = BatchQueueStore(3)
        zero = np.zeros((4, 3), dtype=np.int64)
        before = pickle.dumps(store)
        store.process_block(0, zero, None, zero, ResponseTimeHistogram(), 0)
        store.process_block(
            0, zero, np.empty(0, dtype=np.int64), zero, ResponseTimeHistogram(), 0
        )
        assert pickle.dumps(store) == before
        np.testing.assert_array_equal(store.queued_units(), np.zeros(3, np.int64))
        np.testing.assert_array_equal(store.run_counts(), np.zeros(3, np.int64))

    def test_carry_preserves_fifo_order(self):
        """Jobs left over at a block boundary keep their arrival rounds."""
        store = BatchQueueStore(1)
        received = np.array([[2], [3]], dtype=np.int64)
        done = np.zeros_like(received)
        store.process_block(0, received, None, done, None, 0)
        assert store.run_counts()[0] == 2
        # Next block: drain 4 of the 5 -- the round-0 run (2 jobs at
        # response 3) and part of the round-1 run (2 jobs at response 2).
        histogram = ResponseTimeHistogram()
        store.process_block(
            2,
            np.zeros((1, 1), dtype=np.int64),
            None,
            np.array([[4]], dtype=np.int64),
            histogram,
            0,
        )
        np.testing.assert_array_equal(histogram.counts, [0, 0, 2, 2])
        assert store.queued_jobs()[0] == 1

    def test_partial_head_job_carries_across_blocks(self):
        """A job half-served at a block boundary finishes with the
        response time of its *last* unit's round."""
        store = BatchQueueStore(1)
        histogram = ResponseTimeHistogram()
        # Round 0: one job of 5 units; rounds 0-1 drain 2+2 units.
        store.process_block(
            0,
            np.array([[1], [0]]),
            np.array([5]),
            np.array([[2], [2]], dtype=np.int64),
            histogram,
        )
        assert histogram.total == 0
        assert store.queued_units()[0] == 1
        assert store.queued_jobs()[0] == 1
        # Round 2: the final unit drains -> response 2 - 0 + 1 = 3.
        store.process_block(
            2, np.zeros((1, 1), dtype=np.int64), None, np.array([[1]]), histogram
        )
        np.testing.assert_array_equal(histogram.counts, [0, 0, 0, 1])
        assert store.queued_units()[0] == 0
        assert store.run_counts()[0] == 0

    def test_sizes_checked(self):
        store = BatchQueueStore(2)
        jobs = np.array([[1, 1]])
        done = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="one size per admitted job"):
            store.process_block(0, jobs, np.array([1, 2, 3]), done, None)
        with pytest.raises(ValueError, match="sizes must be >= 1"):
            store.process_block(0, jobs, np.array([1, 0]), done, None)

    def test_unit_block_transient_peak_under_1_mib(self, monkeypatch):
        """A federated-rr-shaped block (rr 100x50, rho 0.9, unit jobs)
        peaked at 4.76 MiB of fresh temporaries before the workspace."""
        from repro.experiments.workload import WorkloadSpec

        blocks = captured_store_blocks(monkeypatch, WorkloadSpec.paper(), 0.9)
        assert transient_peak_of_third_block(blocks) <= 1 << 20

    def test_sized_block_transient_peak_under_0_7_mib(self, monkeypatch):
        """GeometricSize(3) jobs at 0.9 of the work capacity: 1.38 MiB
        before the workspace."""
        from repro.experiments.workload import WorkloadSpec
        from repro.sim.sized import GeometricSize

        blocks = captured_store_blocks(
            monkeypatch, WorkloadSpec.sized(GeometricSize(3.0)), 0.3
        )
        assert transient_peak_of_third_block(blocks) <= int(0.7 * (1 << 20))


class TestBlockWorkspace:
    """The store resolves blocks in a reused workspace: scratch, not state."""

    STATE_KEYS = {
        "_n", "_rounds", "_sizes", "_counts", "_lengths", "_units", "_capacity_mask",
    }

    def test_pickled_store_holds_exactly_its_state(self):
        import pickle

        store = BatchQueueStore(3)
        jobs = np.array([[2, 0, 1], [1, 3, 0]], dtype=np.int64)
        done = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.int64)
        store.process_block(0, jobs, None, done, ResponseTimeHistogram())
        restored = pickle.loads(pickle.dumps(store))
        assert set(restored.__dict__) == self.STATE_KEYS
        np.testing.assert_array_equal(restored.queued_jobs(), store.queued_jobs())

    def test_concurrent_resolves_borrow_separate_workspaces(self):
        """More threads than cores (and than the free list keeps), all
        inside ``process_block`` at once -- a barrier in the sinks holds
        every call open -- record what they record serially."""
        import sys
        import threading

        threads_count = 6
        streams = [
            random_store_blocks(np.random.default_rng(seed), 5, 12, [None, 3] * 3)
            for seed in range(threads_count)
        ]

        def drain(blocks, barrier=None):
            store = BatchQueueStore(5)
            records = []

            def sink(rounds, times, counts, servers):
                if barrier is not None:
                    barrier.wait(timeout=30)
                records.append(np.stack([rounds, times, counts, servers]).copy())

            for start, jobs, sizes, done in blocks:
                store.process_block(start, jobs, sizes, done, None, 0, sink)
            return records

        serial = [drain(blocks) for blocks in streams]
        assert len({len(records) for records in serial}) == 1
        barrier = threading.Barrier(threads_count)
        concurrent = [None] * threads_count

        def worker(index):
            concurrent[index] = drain(streams[index], barrier)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, expected in zip(concurrent, serial):
            assert got is not None and len(got) == len(expected)
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)

    def test_concurrent_rr_cells_equal_serial_runs(self):
        import threading

        def cell(seed):
            return run_once("rr", "fast", seed=seed, n=20, m=5, rounds=700)

        serial = [cell(seed) for seed in (3, 4)]
        concurrent = [None, None]

        def worker(index):
            concurrent[index] = cell(3 + index)

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for got, expected in zip(concurrent, serial):
            assert_identical(got, expected)

    def test_killed_fast_run_resumes_with_a_fresh_workspace(self, tmp_path):
        from repro.experiments.executor import build_cell_simulation
        from repro.experiments.workload import WorkloadSpec
        from repro.runs import Run
        from repro.sim import batchstore
        from repro.workloads.scenarios import SystemSpec

        def sim():
            return build_cell_simulation(
                "rr", SystemSpec(20, 5), 0.9, WorkloadSpec.paper(),
                seed=7, rounds=800, warmup=256, backend="fast",
            )

        baseline = sim().run()
        run = Run.create(sim(), tmp_path / "run")
        assert run.execute(max_legs=1) is None
        batchstore._IDLE_WORKSPACES.clear()  # as in a new process
        resumed = Run.open(tmp_path / "run").execute()
        assert resumed.histogram.state_dict() == baseline.histogram.state_dict()
        np.testing.assert_array_equal(
            resumed.queue_series.values, baseline.queue_series.values
        )
        assert resumed.total_departed == baseline.total_departed


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
