"""Contract tests every registered policy must satisfy.

These are the framework's behavioral guarantees, asserted uniformly over
the whole registry (including policies added later -- the parametrization
reads the registry):

* dispatch returns non-negative integer counts of the right shape that
  sum to the batch size;
* the shared queue snapshot is never mutated (the engine hands the live
  array to every dispatcher -- a write would leak information across
  dispatchers and corrupt accounting);
* zero-job dispatches return all-zero vectors;
* repeated rounds never raise, whatever the queue state;
* the batch protocol ``dispatch_round`` returns the round's per-server
  admissions, an ``(n,)`` vector summing to the round's jobs, and the
  native overrides of deterministic policies reproduce the
  per-dispatcher loop's totals exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.base import (
    Policy,
    SystemContext,
    available_policies,
    has_native_dispatch_round,
    make_policy,
)

#: Policies whose constructor needs no arguments (the whole registry).
ALL_POLICIES = available_policies()


def bind(name, rates, m=3, seed=0):
    policy = make_policy(name)
    policy.bind(
        SystemContext(
            rates=np.asarray(rates, dtype=np.float64),
            num_dispatchers=m,
            rng=np.random.default_rng(seed),
        )
    )
    return policy


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestUniversalContracts:
    def test_counts_shape_total_and_sign(self, name):
        rates = np.array([1.0, 4.0, 2.0, 8.0, 3.0])
        policy = bind(name, rates)
        queues = np.array([7, 0, 3, 1, 12], dtype=np.int64)
        policy.begin_round(0, queues)
        for d in range(3):
            counts = policy.dispatch(d, 13)
            assert counts.shape == (5,)
            assert counts.dtype.kind == "i"
            assert counts.sum() == 13
            assert np.all(counts >= 0)
        policy.end_round(0, queues)

    def test_snapshot_never_mutated(self, name):
        rates = np.array([2.0, 1.0, 5.0, 3.0])
        policy = bind(name, rates)
        queues = np.array([4, 9, 0, 2], dtype=np.int64)
        pristine = queues.copy()
        policy.begin_round(0, queues)
        for d in range(3):
            policy.dispatch(d, 8)
        np.testing.assert_array_equal(queues, pristine)
        policy.end_round(0, queues)
        np.testing.assert_array_equal(queues, pristine)

    def test_zero_jobs_gives_zero_vector(self, name):
        rates = np.ones(3)
        policy = bind(name, rates)
        policy.begin_round(0, np.zeros(3, dtype=np.int64))
        counts = policy.dispatch(0, 0)
        np.testing.assert_array_equal(counts, [0, 0, 0])

    @given(
        queues=st.lists(st.integers(0, 40), min_size=4, max_size=4),
        batch=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_states_never_raise(self, name, queues, batch):
        rates = np.array([0.5, 2.0, 7.0, 1.0])
        policy = bind(name, rates)
        snapshot = np.asarray(queues, dtype=np.int64)
        for t in range(3):
            policy.begin_round(t, snapshot)
            counts = policy.dispatch(t % 3, batch)
            assert counts.sum() == batch
            policy.end_round(t, snapshot)


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestBatchProtocolContracts:
    """Every policy must honor dispatch_round, native or fallback."""

    def test_rows_shape_sums_and_sign(self, name):
        rates = np.array([1.0, 4.0, 2.0, 8.0, 3.0])
        policy = bind(name, rates, m=4)
        queues = np.array([7, 0, 3, 1, 12], dtype=np.int64)
        policy.begin_round(0, queues)
        batch = np.array([13, 0, 1, 6], dtype=np.int64)
        totals = policy.dispatch_round(batch, queues)
        assert totals.shape == (5,)
        assert totals.dtype.kind == "i"
        assert totals.sum() == batch.sum()
        assert np.all(totals >= 0)
        policy.end_round(0, queues)

    def test_snapshot_never_mutated(self, name):
        rates = np.array([2.0, 1.0, 5.0, 3.0])
        policy = bind(name, rates, m=3)
        queues = np.array([4, 9, 0, 2], dtype=np.int64)
        pristine = queues.copy()
        policy.begin_round(0, queues)
        policy.dispatch_round(np.array([8, 2, 5], dtype=np.int64), queues)
        np.testing.assert_array_equal(queues, pristine)

    def test_all_zero_batches_give_zero_matrix(self, name):
        rates = np.ones(3)
        policy = bind(name, rates, m=2)
        queues = np.zeros(3, dtype=np.int64)
        policy.begin_round(0, queues)
        totals = policy.dispatch_round(np.zeros(2, dtype=np.int64), queues)
        np.testing.assert_array_equal(totals, np.zeros(3, dtype=np.int64))


#: Policies whose dispatch uses no randomness: a native dispatch_round
#: must match the per-dispatcher fallback bit-for-bit, including carried
#: state (round-robin positions) across rounds.
DETERMINISTIC_NATIVE = [
    name
    for name in ALL_POLICIES
    if name in {"jsq", "sed", "rr", "wrr"}
    and has_native_dispatch_round(make_policy(name))
]


@pytest.mark.parametrize("name", DETERMINISTIC_NATIVE)
def test_native_batch_path_matches_fallback(name):
    rates = np.array([1.0, 4.0, 2.0, 8.0, 3.0])
    native = bind(name, rates, m=4, seed=0)
    looped = bind(name, rates, m=4, seed=0)
    rng = np.random.default_rng(5)
    queues = np.zeros(5, dtype=np.int64)
    for t in range(6):
        batch = rng.integers(0, 12, size=4)
        native.begin_round(t, queues)
        looped.begin_round(t, queues)
        totals_native = native.dispatch_round(batch, queues)
        totals_looped = Policy.dispatch_round(looped, batch, queues)
        np.testing.assert_array_equal(totals_native, totals_looped)
        queues = rng.integers(0, 30, size=5)


class TestRegistryHygiene:
    def test_names_are_lowercase_and_stable(self):
        for name in ALL_POLICIES:
            assert name == name.lower()
            assert make_policy(name).name  # every instance carries a name

    def test_instances_are_fresh(self):
        """The factory must not hand out shared mutable instances."""
        a = make_policy("lsq")
        b = make_policy("lsq")
        assert a is not b
