"""Tests for the compiled kernel module itself (ISSUE 7 acceptance).

The backend-level bit-identity lives in the three parity suites
(``test_backends``, ``test_sized_backends``, ``test_sharding``); this
file covers the pieces those run through indirectly:

* the jitted walk against the numpy store directly, over randomized
  unit and sized block streams (records, order, carry, and state);
* import-time fallback: with numba absent the ``compiled`` name still
  resolves to a working, correctly-labeled backend that runs the numpy
  paths and reports ``jit_active = False``;
* checkpoint round-trips between the compiled and numpy stores (pickled
  state is interchangeable, so kill/resume may switch kernels);
* the store-level error contract (overdrain, size validation) is
  preserved verbatim on the compiled path;
* ``make_shard_store`` / ``compiled_round_kernel_for`` selection rules.

Everything runs with ``force=True`` where the compiled control flow is
under test, so numba-less hosts execute the exact plain-Python twins of
the jitted functions.
"""

import pickle

import numpy as np
import pytest
from _helpers import DETERMINISM_SETTINGS, random_store_blocks
from hypothesis import given
from hypothesis import strategies as st

from repro.policies.base import make_policy
from repro.sim import compiled
from repro.sim.backends import available_backends, make_backend
from repro.sim.batchstore import BatchQueueStore
from repro.sim.compiled import (
    CompiledBackend,
    CompiledBatchQueueStore,
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


def assert_store_states_equal(a, b):
    for name in ("_rounds", "_sizes", "_counts", "_lengths", "_units"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def parity_property(max_size):
    """The jitted walk against the numpy store as a Hypothesis test;
    ``max_size`` is ``None`` for unit blocks, else the largest job size
    of sized blocks."""

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 6),
           num_blocks=st.integers(1, 4), block_len=st.integers(1, 40),
           warmup=st.integers(0, 60))
    @DETERMINISM_SETTINGS
    def test_matches_numpy_store(self, seed, n, num_blocks, block_len, warmup):
        """Identical records (values AND order), histogram, and carry."""
        blocks = random_store_blocks(
            np.random.default_rng(seed), n, block_len, [max_size] * num_blocks
        )
        numpy_store, numpy_hist, numpy_rec = (
            BatchQueueStore(n), ResponseTimeHistogram(), Recorder())
        comp_store, comp_hist, comp_rec = (
            CompiledBatchQueueStore(n, force=True),
            ResponseTimeHistogram(), Recorder())
        for start, jobs, sizes, done in blocks:
            numpy_store.process_block(
                start, jobs, sizes, done, numpy_hist, warmup,
                response_sink=numpy_rec)
            comp_store.process_block(
                start, jobs, sizes, done, comp_hist, warmup,
                response_sink=comp_rec)
        np.testing.assert_array_equal(numpy_hist.counts, comp_hist.counts)
        assert len(numpy_rec.calls) == len(comp_rec.calls)
        for call_a, call_b in zip(numpy_rec.calls, comp_rec.calls):
            for array_a, array_b in zip(call_a, call_b):
                np.testing.assert_array_equal(array_a, array_b)
                assert array_a.dtype == array_b.dtype
        assert_store_states_equal(numpy_store, comp_store)

    return test_matches_numpy_store


class TestUnsizedResolverParity:
    test_matches_numpy_store = parity_property(None)

    def test_overdrain_error_preserved(self):
        store = CompiledBatchQueueStore(2, force=True)
        received = np.zeros((1, 2), dtype=np.int64)
        done = np.ones((1, 2), dtype=np.int64)
        with pytest.raises(RuntimeError, match="drained past its contents"):
            store.process_block(0, received, None, done, ResponseTimeHistogram())

    def test_empty_block_leaves_state_untouched(self):
        store = CompiledBatchQueueStore(2, force=True)
        zeros = np.zeros((3, 2), dtype=np.int64)
        before = pickle.dumps(store)
        store.process_block(0, zeros, None, zeros, ResponseTimeHistogram())
        store.process_block(
            0, zeros, np.empty(0, dtype=np.int64), zeros, ResponseTimeHistogram())
        assert pickle.dumps(store) == before


class TestSizedResolverParity:
    test_matches_numpy_store = parity_property(6)

    def test_validation_errors_preserved(self):
        store = CompiledBatchQueueStore(2, force=True)
        histogram = ResponseTimeHistogram()
        jobs = np.ones((1, 2), dtype=np.int64)
        done = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="one size per admitted job"):
            store.process_block(0, jobs, np.asarray([1]), done, histogram)
        with pytest.raises(ValueError, match="sizes must be >= 1"):
            store.process_block(0, jobs, np.asarray([0, 1]), done, histogram)
        with pytest.raises(RuntimeError, match="drained past its contents"):
            store.process_block(
                0, jobs, np.asarray([1, 2]), np.asarray([[1, 3]]), histogram)


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
        # The store delegates to the numpy resolver...
        store = backend._make_store(3)
        assert isinstance(store, CompiledBatchQueueStore)
        histogram = ResponseTimeHistogram()
        block = np.ones((2, 3), dtype=np.int64)
        store.process_block(0, block, None, block, histogram)
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
        assert type(make_shard_store(3)) is BatchQueueStore

    def test_forced_uses_compiled_stores(self, monkeypatch):
        monkeypatch.setattr(compiled, "_FORCE_STORES", True)
        store = make_shard_store(3)
        assert isinstance(store, CompiledBatchQueueStore) and store.force


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
        for start, jobs, sizes, done in random_store_blocks(rng, 3, 32, [5] * 4):
            numpy_store.process_block(start, jobs, sizes, done, histogram_a)
            comp_store.process_block(start, jobs, sizes, done, histogram_b)
        revived = pickle.loads(pickle.dumps(comp_store))
        assert isinstance(revived, CompiledBatchQueueStore)
        assert revived.force  # instance attr survives pickling
        assert_store_states_equal(numpy_store, revived)
        # Cross-adoption: the numpy store's arrays drive the compiled
        # resolver (and vice versa) without translation.
        received = np.ones((8, 3), dtype=np.int64)
        done = np.ones((8, 3), dtype=np.int64)
        numpy_store.process_block(200, received, None, done, histogram_a)
        revived.process_block(200, received, None, done, histogram_b)
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
