"""Tests for the reference kernel's FIFO server queue with unit jobs.

Unit jobs admitted in one round share one cell of the queue, so these
are the batch-compression semantics; sized jobs are covered in
``test_sized``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import ResponseTimeHistogram
from repro.sim.backends import SizedServerQueue


class TestBasics:
    def test_starts_empty(self):
        q = SizedServerQueue()
        assert len(q) == 0
        assert q.complete(5, now=0, histogram=None) == 0

    def test_admit_accumulates(self):
        q = SizedServerQueue()
        q.admit(0, 3)
        q.admit(1, 2)
        assert len(q) == 5

    def test_admit_nonpositive_is_noop(self):
        q = SizedServerQueue()
        q.admit(0, 0)
        q.admit(0, -2)
        assert len(q) == 0

    def test_complete_caps_at_queue_length(self):
        q = SizedServerQueue()
        q.admit(0, 2)
        assert q.complete(10, now=0, histogram=None) == 2
        assert len(q) == 0

    def test_complete_caps_at_capacity(self):
        q = SizedServerQueue()
        q.admit(0, 10)
        assert q.complete(4, now=0, histogram=None) == 4
        assert len(q) == 6


class TestFIFOAndResponseTimes:
    def test_same_round_completion_takes_one_round(self):
        q = SizedServerQueue()
        hist = ResponseTimeHistogram()
        q.admit(5, 1)
        q.complete(1, now=5, histogram=hist)
        assert hist.counts[1] == 1  # arrived round 5, done round 5 -> 1 round

    def test_fifo_order_across_batches(self):
        q = SizedServerQueue()
        hist = ResponseTimeHistogram()
        q.admit(0, 2)  # two old jobs
        q.admit(3, 2)  # two newer jobs
        q.complete(3, now=3, histogram=hist)
        # The two round-0 jobs (response 4) depart before one round-3 job.
        assert hist.counts[4] == 2
        assert hist.counts[1] == 1
        assert len(q) == 1

    def test_partial_batch_consumption(self):
        q = SizedServerQueue()
        hist = ResponseTimeHistogram()
        q.admit(0, 5)
        q.complete(2, now=1, histogram=hist)
        q.complete(2, now=2, histogram=hist)
        q.complete(2, now=3, histogram=hist)
        assert hist.counts[2] == 2  # done at round 1
        assert hist.counts[3] == 2
        assert hist.counts[4] == 1
        assert len(q) == 0

    def test_none_histogram_discards_but_still_serves(self):
        q = SizedServerQueue()
        q.admit(0, 3)
        assert q.complete(3, now=0, histogram=None) == 3
        assert len(q) == 0


class TestPropertyConservation:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),  # admitted per round
                st.integers(min_value=0, max_value=20),  # capacity per round
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=150)
    def test_jobs_conserved_and_lengths_consistent(self, rounds):
        q = SizedServerQueue()
        hist = ResponseTimeHistogram()
        admitted = 0
        completed = 0
        for t, (arrivals, capacity) in enumerate(rounds):
            q.admit(t, arrivals)
            admitted += arrivals
            done = q.complete(capacity, now=t, histogram=hist)
            completed += done
            assert done <= capacity
            assert len(q) == admitted - completed
        assert hist.total == completed
        assert admitted == completed + len(q)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.integers(min_value=0, max_value=10),
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_response_times_nondecreasing_within_run(self, rounds):
        """FIFO means a later departure never belongs to a later arrival
        than an earlier departure -- response times per round are valid."""
        q = SizedServerQueue()
        for t, (arrivals, capacity) in enumerate(rounds):
            hist = ResponseTimeHistogram()
            q.admit(t, arrivals)
            q.complete(capacity, now=t, histogram=hist)
            if hist.total:
                assert hist.max_response_time <= t + 1
                # every response time is at least one round
                assert hist.counts[:1].sum() == 0
