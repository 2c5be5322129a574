"""The block tail: one queue trajectory per block, everything else derived.

``drive_blocks`` turns every block into its ``(length, n)`` post-round
queues and derives completions, the queue-length series and the probes'
``queues`` field from them.  Queue-oblivious blocks solve the queue
recurrence ``q_t = max(q_{t-1} + r_t - c_t, 0)`` in closed form (the
Lindley identity).  These properties pin that the closed form changes
no number:

* :func:`~repro.sim.blockdriver.queue_trajectory` and
  :func:`~repro.sim.blockdriver.trajectory_done` equal the round-by-round
  recurrence bit for bit, on random blocks of 1 to 256 rounds with empty
  queues, empty rounds, zero capacities and capacities far above the
  queue;
* ``rr`` cells (closed form) and ``wrr`` cells (stepped per round) give
  ``fast`` the queue series and ``server_stats`` / ``windowed_stability``
  summaries of ``reference``, unit and sized, over horizons that end
  mid-block and with a warmup.
"""

import json

import numpy as np
from _helpers import DETERMINISM_SETTINGS
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.policies.base import make_policy, supports_round_batching
from repro.sim import GeometricService, PoissonArrivals, Simulation, SimulationConfig
from repro.sim.blockdriver import BLOCK_ROUNDS, queue_trajectory, trajectory_done
from repro.sim.probes import ProbeSpec
from repro.sim.sized import GeometricSize


def stepped(start: np.ndarray, received: np.ndarray, capacity: np.ndarray):
    """The recurrence one round at a time: ``(trajectory, done)``."""
    queues = start.copy()
    trajectory = np.empty_like(received)
    done = np.empty_like(received)
    for t in range(received.shape[0]):
        queues += received[t]
        done[t] = np.minimum(queues, capacity[t])
        queues -= done[t]
        trajectory[t] = queues
    return trajectory, done


@st.composite
def blocks(draw):
    """Start queues, admitted work and capacities of one random block.

    Entries are small or huge, so queues empty and refill; whole rows are
    zeroed (rounds without arrivals, rounds without service).
    """
    length = draw(st.integers(1, BLOCK_ROUNDS))
    n = draw(st.integers(1, 8))
    amount = st.one_of(st.integers(0, 4), st.just(0), st.integers(0, 10**6))
    start = draw(arrays(np.int64, n, elements=amount))
    received = draw(arrays(np.int64, (length, n), elements=amount))
    capacity = draw(arrays(np.int64, (length, n), elements=amount))
    for matrix in (received, capacity):
        zero_rows = draw(st.lists(st.integers(0, length - 1), max_size=4))
        matrix[zero_rows] = 0
    return start, received, capacity


class TestClosedForm:
    @given(block=blocks())
    @DETERMINISM_SETTINGS
    def test_trajectory_and_done_equal_the_stepped_recurrence(self, block):
        start, received, capacity = block
        want_trajectory, want_done = stepped(start, received, capacity)
        trajectory = queue_trajectory(start, received, capacity)
        assert trajectory.dtype == np.int64
        np.testing.assert_array_equal(trajectory, want_trajectory)
        np.testing.assert_array_equal(
            trajectory_done(start, received, trajectory), want_done
        )

    def test_inputs_are_not_modified(self):
        start = np.array([3, 0])
        received = np.array([[1, 0], [0, 5]])
        capacity = np.array([[9, 1], [0, 2]])
        copies = [a.copy() for a in (start, received, capacity)]
        trajectory = queue_trajectory(start, received, capacity)
        trajectory_done(start, received, trajectory)
        for array, copy in zip((start, received, capacity), copies):
            np.testing.assert_array_equal(array, copy)


PROBES = ("server_stats", ProbeSpec.of("windowed_stability", window=100))


def run_cell(policy, rates, m, rho, seed, rounds, warmup, sized, backend):
    size = GeometricSize(3.0) if sized else None
    job_rate = rho * rates.sum() / (3.0 if sized else 1.0)
    return Simulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(np.full(m, job_rate / m)),
        service=GeometricService(rates),
        config=SimulationConfig(
            rounds=rounds, warmup=warmup, seed=seed, backend=backend, probes=PROBES
        ),
        sizes=size,
    ).run()


def trajectory_outputs(result) -> str:
    """The queue series and the trajectory-reading probes' summaries."""
    return json.dumps(
        {
            "series": result.queue_series.values.tolist(),
            "final": result.final_queues.tolist(),
            "departed": result.server_departed.tolist(),
            "probes": {
                label: result.probes[label].summary()
                for label in ("server_stats", "windowed_stability[window=100]")
            },
        },
        sort_keys=True,
    )


class TestCellsMatchReference:
    def test_rr_takes_the_closed_form(self):
        assert supports_round_batching(make_policy("rr"))
        assert not supports_round_batching(make_policy("wrr"))

    @given(
        policy=st.sampled_from(["rr", "wrr"]),
        rates=arrays(
            np.float64, st.integers(1, 10), elements=st.sampled_from([1.0, 2.0, 5.0, 10.0])
        ),
        m=st.integers(1, 4),
        rho=st.floats(0.3, 1.3),
        seed=st.integers(0, 2**16),
        rounds=st.integers(1, 700).filter(lambda r: r % BLOCK_ROUNDS),
        warmup_share=st.floats(0.0, 0.9),
        sized=st.booleans(),
    )
    @DETERMINISM_SETTINGS
    def test_fast_equals_reference(
        self, policy, rates, m, rho, seed, rounds, warmup_share, sized
    ):
        warmup = int(warmup_share * rounds)
        got = [
            trajectory_outputs(
                run_cell(policy, rates, m, rho, seed, rounds, warmup, sized, backend)
            )
            for backend in ("reference", "fast")
        ]
        assert got[0] == got[1]
