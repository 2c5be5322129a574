"""Tests for the greedy batch assignment (the JSQ/SED inner loop)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import DETERMINISM_SETTINGS, dispatch_instances, edge_case_snapshots
from repro.policies.greedy import (
    greedy_batch_assign,
    greedy_batch_assign_heap,
    greedy_certificate_ok,
    greedy_rows_for_batches,
)


class TestHeapReference:
    def test_fills_shortest_first(self):
        counts = greedy_batch_assign_heap([0, 5], np.ones(2), 3)
        np.testing.assert_array_equal(counts, [3, 0])

    def test_balances_equal_queues(self):
        counts = greedy_batch_assign_heap([0, 0], np.ones(2), 4)
        np.testing.assert_array_equal(counts, [2, 2])

    def test_sed_prefers_fast_server(self):
        # Server 0: marginals 1/10, 2/10, ...; server 1: 1, 2, ...
        # The first nine go to the fast server outright; the tenth ties
        # (1.0 vs 1.0) and may break either way.
        counts = greedy_batch_assign_heap([0, 0], np.array([10.0, 1.0]), 10)
        assert counts[0] >= 9
        assert counts.sum() == 10
        assert greedy_certificate_ok([0, 0], np.array([10.0, 1.0]), counts)

    def test_zero_jobs(self):
        counts = greedy_batch_assign_heap([1, 2], np.ones(2), 0)
        np.testing.assert_array_equal(counts, [0, 0])

    def test_exact_sequential_equivalence(self):
        """Heap result equals a literal one-job-at-a-time simulation."""
        rng = np.random.default_rng(7)
        queues = rng.integers(0, 20, size=8).astype(np.float64)
        rates = rng.uniform(0.5, 8.0, size=8)
        k = 37
        expected = np.zeros(8, dtype=np.int64)
        for _ in range(k):
            marginals = (queues + expected + 1) / rates
            expected[int(np.argmin(marginals))] += 1
        got = greedy_batch_assign_heap(queues, rates, k)
        # Tie-breaking may differ; certificate + totals are the contract.
        assert got.sum() == k
        assert greedy_certificate_ok(queues, rates, got)
        assert greedy_certificate_ok(queues, rates, expected)


class TestVectorizedAssign:
    @given(dispatch_instances(max_servers=20, max_arrivals=300))
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_certificate(self, instance):
        queues, rates, k = instance
        counts = greedy_batch_assign(queues, rates, k)
        assert counts.sum() == k
        assert np.all(counts >= 0)
        assert greedy_certificate_ok(queues, rates, counts)

    @given(dispatch_instances(max_servers=16, max_arrivals=120))
    @settings(max_examples=150, deadline=None)
    def test_matches_heap_final_loads(self, instance):
        """Both implementations select the same multiset of marginals.

        Their count vectors can differ on ties, but the sorted multiset of
        chosen marginal values -- hence the objective -- is unique.
        """
        queues, rates, k = instance
        fast = greedy_batch_assign(queues, rates, k)
        slow = greedy_batch_assign_heap(queues, rates, k)

        def chosen_marginals(counts):
            values = []
            for s in range(queues.size):
                for j in range(1, int(counts[s]) + 1):
                    values.append((queues[s] + j) / rates[s])
            return np.sort(values)

        np.testing.assert_allclose(
            chosen_marginals(fast), chosen_marginals(slow), rtol=1e-9
        )

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_empty_servers_split_evenly(self, k, n):
        counts = greedy_batch_assign(np.zeros(n), np.ones(n), k)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == k

    def test_jsq_semantics_on_integer_queues(self):
        queues = np.array([5, 0, 3])
        counts = greedy_batch_assign(queues, np.ones(3), 6)
        # Final queue lengths should be as balanced as integers allow.
        final = queues + counts
        assert final.max() - final.min() <= 1

    def test_large_batch_waterfill_path(self):
        rng = np.random.default_rng(11)
        queues = rng.integers(0, 50, size=100)
        rates = rng.uniform(1.0, 10.0, size=100)
        k = 5_000
        counts = greedy_batch_assign(queues, rates, k)
        assert counts.sum() == k
        assert greedy_certificate_ok(queues, rates, counts)

    def test_certificate_rejects_bad_assignment(self):
        queues = np.array([0, 10])
        rates = np.ones(2)
        bad = np.array([0, 3])  # piling onto the long queue is not greedy
        assert not greedy_certificate_ok(queues, rates, bad)

    def test_certificate_rejects_negative_counts(self):
        assert not greedy_certificate_ok(np.zeros(2), np.ones(2), np.array([-1, 2]))


class TestRowsForBatches:
    """The whole-round path shares one water fill across batch sizes; each
    row must be exactly the per-dispatcher assignment."""

    @given(
        edge_case_snapshots(),
        st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=12),
    )
    @DETERMINISM_SETTINGS
    def test_equals_per_dispatcher_assign(self, snapshot, batch):
        queues, rates = snapshot
        rows = greedy_rows_for_batches(queues, rates, np.array(batch))
        assert rows.shape == (len(batch), queues.size)
        for row, k in zip(rows, batch):
            np.testing.assert_array_equal(row, greedy_batch_assign(queues, rates, k))

    def test_all_zero_batches(self):
        batch = np.zeros(3, dtype=np.int64)
        rows = greedy_rows_for_batches(np.array([2, 0]), np.ones(2), batch)
        np.testing.assert_array_equal(rows, np.zeros((3, 2), dtype=np.int64))
