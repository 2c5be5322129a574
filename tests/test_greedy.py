"""Tests for the greedy batch assignment (the JSQ/SED inner loop)."""

import numpy as np
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import DETERMINISM_SETTINGS, dispatch_instances, edge_case_snapshots
from repro.policies import greedy
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
        # (1.0 vs 1.0) and goes to the lowest index, server 0.
        counts = greedy_batch_assign_heap([0, 0], np.array([10.0, 1.0]), 10)
        np.testing.assert_array_equal(counts, [10, 0])
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
        # np.argmin takes the first minimum: the lowest-index tie-break.
        np.testing.assert_array_equal(got, expected)
        assert greedy_certificate_ok(queues, rates, got)


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
        """The bulk path and the heap return the same count vector."""
        queues, rates, k = instance
        np.testing.assert_array_equal(
            greedy_batch_assign(queues, rates, k),
            greedy_batch_assign_heap(queues, rates, k),
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


batch_lists = st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=12)


@st.composite
def drained_estimates(draw):
    """LSQ/LED-style float estimates: a snapshot drained by ``t * mu``.

    LED drains every local estimate by the server's rate each round and
    floors it at zero, so estimates are non-integer and often exactly 0.
    """
    queues, rates = draw(edge_case_snapshots())
    rounds = draw(st.integers(min_value=0, max_value=3))
    return np.maximum(queues - rounds * rates, 0.0), rates


def heap_totals(queues, rates, batch):
    """The heap's rows for ``batch``, summed."""
    totals = np.zeros(np.size(queues), dtype=np.int64)
    for k in batch:
        totals += greedy_batch_assign_heap(queues, rates, k)
    return totals


def assert_totals_equal_heap(queues, rates, batch):
    """One snapshot's totals over ``batch`` equal the heap's summed rows."""
    totals = greedy_batch_assign(queues, rates, np.array(batch))
    assert totals.shape == (np.size(queues),)
    np.testing.assert_array_equal(totals, heap_totals(queues, rates, batch))


def assert_rows_and_totals_equal_heap(queues, rates, batch):
    """Every one-batch row, and the batches' totals, equal the heap's."""
    for k in batch:
        np.testing.assert_array_equal(
            greedy_batch_assign(queues, rates, k), greedy_batch_assign_heap(queues, rates, k)
        )
    assert_totals_equal_heap(queues, rates, batch)


class TestTieBreakContract:
    """Every row, and so every total, equals the heap exactly: ties go to
    the lowest server index."""

    @given(edge_case_snapshots(), batch_lists)
    @DETERMINISM_SETTINGS
    def test_integer_queues(self, snapshot, batch):
        assert_rows_and_totals_equal_heap(*snapshot, batch)

    @given(drained_estimates(), batch_lists)
    @DETERMINISM_SETTINGS
    def test_float_estimates(self, snapshot, batch):
        assert_rows_and_totals_equal_heap(*snapshot, batch)

    def test_tied_servers_fill_lowest_index_first(self):
        queues, rates = np.zeros(4), np.ones(4)
        rows = [greedy_batch_assign(queues, rates, k) for k in (1, 2, 3, 5)]
        np.testing.assert_array_equal(
            rows, [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [2, 1, 1, 1]]
        )
        totals = greedy_batch_assign(queues, rates, np.array([1, 2, 3, 5]))
        np.testing.assert_array_equal(totals, [5, 3, 2, 1])

    def test_candidates_use_the_heap_float_expression(self):
        # Server 0's 25th marginal (q_0 + 24) + 1.0 rounds to exactly
        # server 1's first, so the tie goes to server 0; q_0 + 25 would
        # round one ulp higher and hand the job to server 1.
        queues = np.array([7.980617758728532, 31.980617758728528])
        row = greedy_batch_assign(queues, np.ones(2), 25)
        np.testing.assert_array_equal(row, [25, 0])
        heap = greedy_batch_assign_heap(queues, np.ones(2), 25)
        np.testing.assert_array_equal(heap, [25, 0])

    def test_one_sort_per_round(self, monkeypatch):
        """However many distinct batch sizes or views, the module sorts once."""
        calls = []

        def counting(sort):
            def wrapped(*args, **kwargs):
                if sys._getframe(1).f_globals["__name__"] == greedy.__name__:
                    calls.append(sort.__name__)
                return sort(*args, **kwargs)

            return wrapped

        for name in ("argsort", "lexsort", "sort", "argpartition", "partition"):
            monkeypatch.setattr(np, name, counting(getattr(np, name)))
        rng = np.random.default_rng(5)
        queues, rates = rng.integers(0, 20, size=30), rng.uniform(1, 10, size=30)
        greedy_batch_assign(queues, rates, np.arange(41))
        assert calls == ["argsort"]
        views = queues + rng.integers(0, 5, size=(12, 30))
        greedy_rows_for_batches(views, rates, rng.integers(0, 40, size=12))
        assert calls == ["argsort", "lexsort"]


class TestFallbacks:
    """Whatever the bulk sort cannot certify is answered by the heap."""

    @pytest.fixture
    def heap_calls(self, monkeypatch):
        calls = []
        heap_totals = greedy._heap_totals

        def spy(queues, rates, sizes):
            calls.append(sizes.tolist())
            return heap_totals(queues, rates, sizes)

        monkeypatch.setattr(greedy, "_heap_totals", spy)
        return calls

    @staticmethod
    def fixed_levels(monkeypatch, levels):
        """Replace the snapshot's water fill by ``levels``, as if it had
        float error.

        The bulk path asks for the levels of k_min, k_max and k_max + n.
        """
        monkeypatch.setattr(
            greedy.LoadSnapshot, "levels", lambda self, arrivals: np.array(levels)
        )

    def test_candidate_cap(self, monkeypatch, heap_calls):
        monkeypatch.setattr(greedy, "_MAX_CANDIDATES", 1)
        assert_totals_equal_heap(np.array([3, 0, 1]), np.array([1.0, 2.0, 4.0]), [4, 9, 0, 4])
        assert heap_calls == [[4, 9, 4]]

    def test_wide_spread_of_batch_sizes(self, heap_calls):
        rng = np.random.default_rng(2)
        queues = rng.integers(0, 30, size=100)
        rates = rng.uniform(1.0, 10.0, size=100)
        assert_totals_equal_heap(queues, rates, [1, 60_000, 0, 7])
        assert heap_calls == []

    def test_base_above_smallest_batch(self, monkeypatch, heap_calls):
        queues, rates = np.array([0, 5]), np.ones(2)
        self.fixed_levels(monkeypatch, [6.5, 6.5, 6.5])  # true: 2.0, 5.5, 6.5
        totals = greedy_batch_assign(queues, rates, np.array([2, 6]))
        np.testing.assert_array_equal(totals, [8, 0])
        assert heap_calls == [[2, 6]]

    def test_base_fills_the_batch(self, monkeypatch, heap_calls):
        # Below the true level the base holds strictly fewer than k_min
        # jobs; a level with float error can make it hold all of them.
        self.fixed_levels(monkeypatch, [3.5, 3.5, 5.5])  # true: 3.0, 3.0, 5.0
        row = greedy_batch_assign(np.array([0, 5]), np.ones(2), 3)
        np.testing.assert_array_equal(row, [3, 0])
        assert heap_calls == [[3]]

    def test_base_not_a_prefix(self, monkeypatch, heap_calls):
        # Just above 1.0, the level puts the fast servers' 1000th jobs
        # (marginal 1.0) into the base but not the slow servers' first
        # (also 1.0).  The heap gives those ties to servers 0, 1 and 2.
        queues, rates = np.zeros(4), np.array([1.0, 1.0, 1000.0, 1000.0])
        self.fixed_levels(monkeypatch, [1.0 + 5e-10, 1.1, 1.1])
        row = greedy_batch_assign(queues, rates, 2001)
        np.testing.assert_array_equal(row, [1, 1, 1000, 999])
        assert heap_calls == [[2001]]

    def test_window_short_of_picks(self, monkeypatch, heap_calls):
        # Levels far too low leave the windows (marginals up to the lower
        # of k_max + n's level and one step above k_max's) short of the
        # three picks.
        self.fixed_levels(monkeypatch, [0.0, 0.0, 0.0])
        totals = greedy_batch_assign(np.array([0, 1]), np.ones(2), np.array([1, 3]))
        np.testing.assert_array_equal(totals, [3, 1])  # rows [1, 0] and [2, 1]
        assert heap_calls == [[1, 3]]

    def test_window_edge_on_a_tie(self, monkeypatch, heap_calls):
        # The window edge lands exactly on server 0's third marginal 3/0.7,
        # which floor(0.7 * edge) counts out; server 1's fifteenth, 15/3.5,
        # equals it and is inside.  The heap gives that tie to server 0.
        queues, rates = np.zeros(2), np.array([0.7, 3.5])
        edge = 3.0 / 0.7
        self.fixed_levels(monkeypatch, [0.0, edge - 1.0 / 0.7, np.inf])
        row = greedy_batch_assign(queues, rates, 17)
        np.testing.assert_array_equal(row, [3, 14])
        assert heap_calls == [[17]]


class TestRowsForBatches:
    """The whole-round path shares one water fill and one sort across batch
    sizes; its totals must be exactly the per-dispatcher assignments'
    sum."""

    @given(
        edge_case_snapshots(),
        st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=12),
    )
    @DETERMINISM_SETTINGS
    def test_equals_per_dispatcher_assign(self, snapshot, batch):
        queues, rates = snapshot
        totals = greedy_batch_assign(queues, rates, np.array(batch))
        assert totals.shape == (queues.size,)
        expected = np.zeros(queues.size, dtype=np.int64)
        for k in batch:
            expected += greedy_batch_assign(queues, rates, k)
        np.testing.assert_array_equal(totals, expected)

    def test_all_zero_batches(self):
        batch = np.zeros(3, dtype=np.int64)
        totals = greedy_batch_assign(np.array([2, 0]), np.ones(2), batch)
        np.testing.assert_array_equal(totals, np.zeros(2, dtype=np.int64))
        views = np.array([[2, 0], [0, 1], [5, 5]])
        rows = greedy_rows_for_batches(views, np.ones(2), batch)
        np.testing.assert_array_equal(rows, np.zeros((3, 2), dtype=np.int64))

    def test_shapes_are_checked(self):
        # A shared snapshot has no rows: only local views do.
        with pytest.raises(ValueError, match="one local view per row"):
            greedy_rows_for_batches(np.array([2, 0]), np.ones(2), np.array([1, 2]))
        with pytest.raises(ValueError, match="1-D"):
            greedy_batch_assign(np.array([2, 0]), np.ones(2), np.ones((2, 2), dtype=int))
        with pytest.raises(ValueError, match="non-negative"):
            greedy_batch_assign(np.array([2, 0]), np.ones(2), np.array([1, -1]))


@st.composite
def local_views(draw):
    """Per-dispatcher local views (LSQ/LED estimates) of one snapshot.

    Each row adds its own integer self-increments to the snapshot; half the
    draws then drain every row by ``t * mu`` as LED does, giving floats.
    """
    queues, rates = draw(edge_case_snapshots())
    m = draw(st.integers(min_value=1, max_value=8))
    bumps = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=queues.size, max_size=queues.size),
            min_size=m,
            max_size=m,
        )
    )
    views = queues + np.array(bumps, dtype=np.float64)
    if draw(st.booleans()):
        views = np.maximum(views - draw(st.integers(1, 3)) * rates, 0.0)
    batch = draw(st.lists(st.integers(0, 200), min_size=m, max_size=m))
    return views, rates, batch


class TestLocalViews:
    """A 2-D ``queues`` is one view per dispatcher: row ``i`` is the heap
    greedy of ``views[i]``, from one sort over every view's windows."""

    @given(local_views())
    @DETERMINISM_SETTINGS
    def test_rows_equal_heap_per_view(self, instance):
        views, rates, batch = instance
        rows = greedy_rows_for_batches(views, rates, np.array(batch))
        assert rows.shape == views.shape
        for view, row, k in zip(views, rows, batch):
            np.testing.assert_array_equal(row, greedy_batch_assign_heap(view, rates, k))

    @pytest.mark.parametrize(
        ("view", "levels", "expected"),
        [
            # Levels five above the true ones: the base would hold more
            # than the view's three jobs.
            ([1.0, 0.0, 0.0], lambda true: true + 5.0, [1, 1, 1]),
            # A k level of 3.5 (true: 3.0) puts exactly the three jobs
            # into the base.
            ([0.0, 5.0, 5.0], lambda true: np.array([3.5, 5.5]), [3, 0, 0]),
            # Levels far too low leave the windows short of the picks.
            ([10.0, 10.0, 10.0], lambda true: np.zeros(2), [1, 1, 1]),
        ],
    )
    def test_uncertified_view_takes_the_heap_alone(
        self, monkeypatch, view, levels, expected
    ):
        """One view's levels carry float error: that row alone comes from
        the heap, and every row is still the heap's."""
        heap_views = []
        heap = greedy.greedy_batch_assign_heap

        def spy(queues, rates, num_jobs):
            heap_views.append(np.asarray(queues).tolist())
            return heap(queues, rates, num_jobs)

        compute_iwl = greedy.compute_iwl

        def skewed(queues, rates, arrivals):
            true = compute_iwl(queues, rates, arrivals)
            return levels(true) if np.asarray(queues).tolist() == view else true

        monkeypatch.setattr(greedy, "greedy_batch_assign_heap", spy)
        monkeypatch.setattr(greedy, "compute_iwl", skewed)
        views = np.array([[0.0, 1.0, 0.0], view, [0.0, 2.0, 0.0]])
        rows = greedy_rows_for_batches(views, np.ones(3), np.array([3, 3, 3]))
        np.testing.assert_array_equal(rows, [[2, 0, 1], expected, [2, 0, 1]])
        assert heap_views == [view]

    def test_candidate_cap_takes_the_heap(self, monkeypatch):
        monkeypatch.setattr(greedy, "_MAX_CANDIDATES", 1)
        views = np.array([[3.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        rows = greedy_rows_for_batches(views, np.array([1.0, 2.0, 4.0]), np.array([4, 9]))
        for view, row, k in zip(views, rows, [4, 9]):
            np.testing.assert_array_equal(
                row, greedy_batch_assign_heap(view, np.array([1.0, 2.0, 4.0]), k)
            )
