"""Tests for the compiled kernel module itself (ISSUE 7 acceptance).

The backend-level bit-identity lives in the three parity suites
(``test_backends``, ``test_sized_backends``, ``test_sharding``); this
file covers the pieces those run through indirectly:

* the jitted two-pointer resolvers against the numpy stores directly,
  over randomized block streams (records, order, carry, and state);
* import-time fallback: with numba absent the ``compiled`` name still
  resolves to a working, correctly-labeled backend that runs the numpy
  paths and reports ``jit_active = False``;
* checkpoint round-trips between compiled and numpy stores (pickled
  state is interchangeable, so kill/resume may switch kernels);
* the store-level error contract (overdrain, sized validation) is
  preserved verbatim on the compiled path;
* ``make_shard_store`` / ``compiled_round_kernel_for`` selection rules.

Everything runs with ``force=True`` where the compiled control flow is
under test, so numba-less hosts execute the exact plain-Python twins of
the jitted functions.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.base import make_policy
from repro.sim import compiled
from repro.sim.backends import available_backends, make_backend
from repro.sim.batchstore import BatchQueueStore, SizedBatchQueueStore
from repro.sim.compiled import (
    CompiledBackend,
    CompiledBatchQueueStore,
    CompiledSizedBatchQueueStore,
    compiled_round_kernel_for,
    make_shard_store,
)
from repro.sim.metrics import ResponseTimeHistogram


class Recorder:
    """Collects response_sink callbacks for exact comparison."""

    def __init__(self):
        self.calls = []

    def __call__(self, rounds, times, counts, servers):
        self.calls.append(
            (rounds.copy(), times.copy(), counts.copy(), servers.copy())
        )


def random_blocks(rng, n, num_blocks, block_len, load=2.0):
    """A plausible admission/completion stream: completions never exceed
    what is present (tracked per server), arrivals are bursty."""
    queued = np.zeros(n, dtype=np.int64)
    blocks = []
    for _ in range(num_blocks):
        received = rng.poisson(load, size=(block_len, n)).astype(np.int64)
        done = np.zeros((block_len, n), dtype=np.int64)
        for i in range(block_len):
            queued += received[i]
            drain = np.minimum(queued, rng.integers(0, 4, size=n))
            done[i] = drain
            queued -= drain
        blocks.append((received, done))
    return blocks


def assert_store_states_equal(a, b):
    np.testing.assert_array_equal(a._rounds, b._rounds)
    np.testing.assert_array_equal(a._counts, b._counts)
    np.testing.assert_array_equal(a._lengths, b._lengths)
    np.testing.assert_array_equal(a._jobs, b._jobs)


class TestUnsizedResolverParity:
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 6),
           num_blocks=st.integers(1, 4), block_len=st.integers(1, 40),
           warmup=st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_store(self, seed, n, num_blocks, block_len, warmup):
        """Identical records (values AND order), histogram, and carry."""
        rng = np.random.default_rng(seed)
        blocks = random_blocks(rng, n, num_blocks, block_len)
        numpy_store, numpy_hist, numpy_rec = (
            BatchQueueStore(n), ResponseTimeHistogram(), Recorder())
        comp_store, comp_hist, comp_rec = (
            CompiledBatchQueueStore(n, force=True),
            ResponseTimeHistogram(), Recorder())
        start = 0
        for received, done in blocks:
            numpy_store.process_block(
                start, received, done, numpy_hist, warmup,
                response_sink=numpy_rec)
            comp_store.process_block(
                start, received, done, comp_hist, warmup,
                response_sink=comp_rec)
            start += block_len
        np.testing.assert_array_equal(numpy_hist.counts, comp_hist.counts)
        assert len(numpy_rec.calls) == len(comp_rec.calls)
        for call_a, call_b in zip(numpy_rec.calls, comp_rec.calls):
            for array_a, array_b in zip(call_a, call_b):
                np.testing.assert_array_equal(array_a, array_b)
        assert_store_states_equal(numpy_store, comp_store)

    def test_overdrain_error_preserved(self):
        store = CompiledBatchQueueStore(2, force=True)
        received = np.zeros((1, 2), dtype=np.int64)
        done = np.ones((1, 2), dtype=np.int64)
        with pytest.raises(RuntimeError, match="drained past its contents"):
            store.process_block(0, received, done, ResponseTimeHistogram())

    def test_empty_block_leaves_state_untouched(self):
        store = CompiledBatchQueueStore(2, force=True)
        zeros = np.zeros((3, 2), dtype=np.int64)
        before = pickle.dumps(store)
        store.process_block(0, zeros, zeros, ResponseTimeHistogram())
        assert pickle.dumps(store) == before


class TestSizedResolverParity:
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 5),
           num_blocks=st.integers(1, 3), block_len=st.integers(1, 30),
           warmup=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_store(self, seed, n, num_blocks, block_len, warmup):
        rng = np.random.default_rng(seed)
        numpy_store, numpy_hist, numpy_rec = (
            SizedBatchQueueStore(n), ResponseTimeHistogram(), Recorder())
        comp_store, comp_hist, comp_rec = (
            CompiledSizedBatchQueueStore(n, force=True),
            ResponseTimeHistogram(), Recorder())
        unit_queues = np.zeros(n, dtype=np.int64)
        start = 0
        for _ in range(num_blocks):
            jobs_per_round = [
                np.sort(rng.integers(0, n, size=rng.integers(0, 5)))
                for _ in range(block_len)
            ]
            servers, rounds_arr, sizes = [], [], []
            for i, row in enumerate(jobs_per_round):
                for server in row:
                    servers.append(server)
                    rounds_arr.append(start + i)
                    sizes.append(int(rng.integers(1, 7)))
            order = np.lexsort(
                (np.arange(len(servers)), np.asarray(servers, dtype=np.int64))
            ) if servers else np.empty(0, dtype=np.int64)
            job_servers = np.asarray(servers, dtype=np.int64)[order]
            job_rounds = np.asarray(rounds_arr, dtype=np.int64)[order]
            job_sizes = np.asarray(sizes, dtype=np.int64)[order]
            done = np.zeros((block_len, n), dtype=np.int64)
            # conservative completion stream: never drain more than present
            arrived_by_round = np.zeros((block_len, n), dtype=np.int64)
            for server, round_index, size in zip(
                job_servers, job_rounds, job_sizes
            ):
                arrived_by_round[round_index - start, server] += size
            for i in range(block_len):
                unit_queues += arrived_by_round[i]
                drain = np.minimum(unit_queues, rng.integers(0, 6, size=n))
                done[i] = drain
                unit_queues -= drain
            numpy_store.process_block(
                start, job_servers, job_rounds, job_sizes, done,
                numpy_hist, warmup, response_sink=numpy_rec)
            comp_store.process_block(
                start, job_servers, job_rounds, job_sizes, done,
                comp_hist, warmup, response_sink=comp_rec)
            start += block_len
        np.testing.assert_array_equal(numpy_hist.counts, comp_hist.counts)
        assert len(numpy_rec.calls) == len(comp_rec.calls)
        for call_a, call_b in zip(numpy_rec.calls, comp_rec.calls):
            for array_a, array_b in zip(call_a, call_b):
                np.testing.assert_array_equal(array_a, array_b)
        np.testing.assert_array_equal(numpy_store._rounds, comp_store._rounds)
        np.testing.assert_array_equal(
            numpy_store._remaining, comp_store._remaining)
        np.testing.assert_array_equal(
            numpy_store._lengths, comp_store._lengths)
        np.testing.assert_array_equal(numpy_store._units, comp_store._units)

    def test_validation_errors_preserved(self):
        store = CompiledSizedBatchQueueStore(2, force=True)
        histogram = ResponseTimeHistogram()
        ok = np.asarray([0, 1], dtype=np.int64)
        done = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="parallel 1-D"):
            store.process_block(0, ok, ok[:1], ok, done, histogram)
        with pytest.raises(ValueError, match="sizes must be >= 1"):
            store.process_block(0, ok, ok, np.asarray([0, 1]), done, histogram)
        with pytest.raises(ValueError, match="sorted server-major"):
            store.process_block(
                0, ok[::-1].copy(), ok, np.asarray([1, 1]), done, histogram)
        with pytest.raises(RuntimeError, match="drained past its contents"):
            store.process_block(
                0, ok[:0], ok[:0], ok[:0], np.ones((1, 2), dtype=np.int64),
                histogram)


class TestFallback:
    def test_import_time_fallback_yields_working_backend(self, monkeypatch):
        """With numba (simulated) absent, the registered name still runs
        and labels itself honestly."""
        monkeypatch.setattr(compiled, "_FORCE_DISABLED", True)
        assert not compiled.numba_enabled()
        backend = make_backend("compiled")
        assert isinstance(backend, CompiledBackend)
        assert backend.name == "compiled"
        assert backend.jit_active is False
        assert "fallback" in backend.description
        assert isinstance(backend._make_store(3, True), CompiledSizedBatchQueueStore)
        # The store delegates to the numpy resolver...
        store = backend._make_store(3, False)
        assert isinstance(store, CompiledBatchQueueStore)
        histogram = ResponseTimeHistogram()
        block = np.ones((2, 3), dtype=np.int64)
        store.process_block(0, block, block, histogram)
        assert histogram.total == 6
        # ...and no round kernel is installed.
        assert backend._round_kernel(_FakeSim(make_policy("rr"))) is None

    def test_registered_in_both_registries(self):
        """One registry now serves unit and sized jobs alike."""
        from repro.sim.backends import backend_capabilities

        assert "compiled" in available_backends()
        assert backend_capabilities("compiled").supports_sized

    def test_compiled_takes_no_parameters(self):
        with pytest.raises(ValueError, match="takes no ':' parameters"):
            make_backend("compiled:2")


class _FakeSim:
    def __init__(self, policy):
        self.policy = policy


class TestRoundKernelSelection:
    def _bound(self, name, n=4, m=2):
        from repro.policies.base import SystemContext

        policy = make_policy(name)
        policy.bind(SystemContext(
            rates=np.linspace(1.0, 2.0, n),
            num_dispatchers=m,
            rng=np.random.default_rng(0)))
        return policy

    def test_rr_and_wrr_have_kernels(self):
        assert compiled_round_kernel_for(self._bound("rr")) is not None
        assert compiled_round_kernel_for(self._bound("wrr")) is not None

    def test_other_policies_do_not(self):
        for name in ("jsq", "sed", "lsq", "scd"):
            assert compiled_round_kernel_for(self._bound(name)) is None

    def test_subclasses_excluded(self):
        from repro.policies.round_robin import RoundRobinPolicy

        class Tweaked(RoundRobinPolicy):
            pass

        policy = Tweaked()
        assert compiled_round_kernel_for(policy) is None

    def test_backend_installs_kernel_only_when_active(self):
        backend = make_backend("compiled")
        policy = self._bound("rr")
        if compiled.numba_enabled():
            assert backend._round_kernel(_FakeSim(policy)) is not None
        else:
            assert backend._round_kernel(_FakeSim(policy)) is None
        backend.force = True
        assert backend._round_kernel(_FakeSim(policy)) is not None


class TestShardStoreSelection:
    def test_fallback_uses_numpy_stores(self, monkeypatch):
        monkeypatch.setattr(compiled, "_FORCE_DISABLED", True)
        monkeypatch.setattr(compiled, "_FORCE_STORES", False)
        assert type(make_shard_store(3, sized=False)) is BatchQueueStore
        assert type(make_shard_store(3, sized=True)) is SizedBatchQueueStore

    def test_forced_uses_compiled_stores(self, monkeypatch):
        monkeypatch.setattr(compiled, "_FORCE_STORES", True)
        store = make_shard_store(3, sized=False)
        assert isinstance(store, CompiledBatchQueueStore) and store.force
        sized = make_shard_store(3, sized=True)
        assert isinstance(sized, CompiledSizedBatchQueueStore) and sized.force


class TestCheckpointInterchange:
    def test_store_state_round_trips_across_implementations(self):
        """A pickled compiled store restores as-is, and its state arrays
        match the numpy store's after identical traffic -- kill/resume
        may therefore switch between ``fast`` and ``compiled``."""
        rng = np.random.default_rng(7)
        numpy_store = BatchQueueStore(3)
        comp_store = CompiledBatchQueueStore(3, force=True)
        histogram_a, histogram_b = (
            ResponseTimeHistogram(), ResponseTimeHistogram())
        for start, (received, done) in enumerate(
            random_blocks(rng, 3, 4, 32)
        ):
            numpy_store.process_block(start * 32, received, done, histogram_a)
            comp_store.process_block(start * 32, received, done, histogram_b)
        revived = pickle.loads(pickle.dumps(comp_store))
        assert isinstance(revived, CompiledBatchQueueStore)
        assert revived.force  # instance attr survives pickling
        assert_store_states_equal(numpy_store, revived)
        # Cross-adoption: the numpy store's arrays drive the compiled
        # resolver (and vice versa) without translation.
        received = np.ones((8, 3), dtype=np.int64)
        done = np.ones((8, 3), dtype=np.int64)
        numpy_store.process_block(200, received, done, histogram_a)
        revived.process_block(200, received, done, histogram_b)
        np.testing.assert_array_equal(histogram_a.counts, histogram_b.counts)
        assert_store_states_equal(numpy_store, revived)

    def test_backend_checkpoint_resume_bit_identical(self, tmp_path):
        """Kill/resume through the Run lifecycle on the compiled backend."""
        from repro.runs import Run
        from test_runs import build_sim, fingerprint

        directory = tmp_path / "run"
        run = Run.create(build_sim("compiled", sized=False), directory)
        run.execute(max_legs=1)  # stop after the first checkpoint
        resumed = Run.open(directory).execute()
        plain = build_sim("compiled", sized=False).run()
        assert fingerprint(resumed) == fingerprint(plain)
