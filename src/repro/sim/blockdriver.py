"""The 256-round block driver behind the ``fast`` and ``compiled`` kernels.

Both kernels run their rounds in blocks: pre-sample a block of
workload randomness, run each round's dispatch against the live queue
totals, resolve the block's FIFO departures in the batch store at block
end, feed the block to the probe set, and hand the lifecycle controller
the kernel's checkpoint state (``store``, ``probes``, ``run``) at the
block boundary.  The kernel supplies the run's state objects, fresh or
restored from a checkpoint, and which store implementation resolves the
blocks; this module owns the loop.

**Dispatch.**  On the per-round path every round with arrivals makes
exactly one :meth:`~repro.policies.base.Policy.dispatch_round` call,
which returns the round's per-server admissions as an int64 ``(n,)``
vector; the driver checks its shape and that it conserves the round's
jobs, and raises ``ValueError`` otherwise.  The driver has no per-dispatcher loop
of its own: a policy without a native batch path gets the base
implementation, which sums the ``dispatch`` rows the reference kernel
computes, in the same dispatcher order.

**Job sizes.**  Policies never see realized sizes, so a sized run
dispatches exactly like a unit run and every dispatch path below is
shared.  The block's sizes are drawn from the ``sizes`` stream in one
call, as many as the block has arrivals, and assigned to each round's
admissions in server-index order after dispatch -- the order the
reference kernel draws them in, one server at a time (split numpy draws
equal one whole draw).  A prefix sum over the block's sizes turns the
per-server job counts into admitted work units; that segment sum is the
only extra work a sized round does.  At block end the sizes are permuted
into server-major order, the order the one batch store admits them in.

The driver also owns the two cross-round accelerations:

* **Cross-round dispatch batching.**  When the policy passes
  :func:`repro.policies.base.supports_round_batching` (queue-oblivious,
  no round hooks), the whole block's admissions come from one
  :meth:`~repro.policies.base.Policy.dispatch_rounds` call --
  bit-identical by that method's contract, with no per-round Python
  loop at all.
* **A compiled round-kernel seam.**  Unit-job runs accept an optional
  ``round_kernel`` object (see :mod:`repro.sim.compiled`) that runs the
  *entire* block -- dispatch state, queue recurrence and completion
  matrix -- in one native call.

**The block tail.**  Each of the three paths -- per-round dispatch,
batched dispatch, round kernel -- yields the block's *trajectory*, the ``(length, n)`` post-round queues,
and one shared tail derives the rest from it once per block:
completions ``done_t = q_{t-1} + r_t - q_t`` (the first row from the
block's start queues), the queue-length series (row sums) and the
probes' ``queues`` field (the trajectory itself).  The per-round path
steps ``q_t = max(q_{t-1} + r_t - c_t, 0)`` because its policy reads
every round's queues; the round kernel's trajectory is the prefix sum
of its ``received - done``.  The batched path never needs an intermediate
queue, so it solves the recurrence -- a Lindley recursion -- in closed
form: with ``S_t`` the prefix sum of ``r - c`` over the block and
``q_0`` the start queues,

    ``q_t = S_t - min(min_{j <= t} S_j, -q_0)``.

Unrolling the recursion gives ``q_t = max(q_0 + S_t, max_{j <= t}
(S_t - S_j))``, since the queue last emptied at some round ``j`` or
never did in the block; the ``j = t`` term is the ``0`` floor.  Every
quantity is an int64 sum, so the closed form is exact, not an
approximation: it reproduces the stepped values bit for bit.

Bit-identity is the invariant throughout: for a given policy and seed,
every path through this driver produces the same admission matrix,
completion matrix, queue trajectory and checkpoint state as the
per-round reference loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.policies.base import Policy, supports_round_batching

from .batchstore import BatchQueueStore
from .lifecycle import RunController
from .probes import ProbeBlock, ProbeSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulation

__all__ = [
    "BLOCK_ROUNDS",
    "RunState",
    "RoundKernel",
    "drive_blocks",
    "queue_trajectory",
    "trajectory_done",
]

#: Rounds pre-sampled per block (bounds the memory of the ``(chunk, m)``
#: / ``(chunk, n)`` workload blocks and sets the checkpoint granularity).
BLOCK_ROUNDS = 256

_NO_SIZES = np.empty(0, dtype=np.int64)


class RunState:
    """The kernels' mutable run accumulators, in work units.

    ``queues`` is the live array the checkpoint dicts reference -- the
    driver mutates it in place and never rebinds it.  The state object
    itself is checkpointed, so every kernel resumes from the same shape.
    """

    __slots__ = (
        "queues",
        "total_arrived",
        "total_jobs",
        "server_received",
        "server_departed",
    )

    def __init__(self, num_servers: int) -> None:
        self.queues = np.zeros(num_servers, dtype=np.int64)
        self.total_arrived = 0
        self.total_jobs = 0
        self.server_received = np.zeros(num_servers, dtype=np.int64)
        self.server_departed = np.zeros(num_servers, dtype=np.int64)


class RoundKernel(Protocol):
    """A native whole-block round loop (the compiled kernel's seam).

    ``run_block`` owns dispatch state, the queue recurrence and the
    completion matrix for one block: it fills ``received`` and ``done``
    and advances ``queues`` in place, leaving the policy's carried state
    exactly as the per-round loop would.  The driver rebuilds the queue
    trajectory from the matrices and runs the shared block tail on it.
    """

    def run_block(
        self,
        batch: np.ndarray,  # (length, m) arrivals, read-only
        capacity: np.ndarray,  # (length, n) capacities, read-only
        queues: np.ndarray,  # (n,) live queue totals, advanced in place
        received: np.ndarray,  # (length, n) zeros on entry, filled
        done: np.ndarray,  # (length, n) zeros on entry, filled
    ) -> None: ...


def _check_received_block(
    policy: Policy, received: np.ndarray, batch: np.ndarray, n: int
) -> None:
    """Vectorized analogue of the per-round shape / conservation checks."""
    if received.shape != (batch.shape[0], n):
        raise ValueError(
            f"{policy.name}.dispatch_rounds returned shape {received.shape}, "
            f"expected ({batch.shape[0]}, {n})"
        )
    round_totals = batch.sum(axis=1)
    got = received.sum(axis=1)
    if not np.array_equal(got, round_totals):
        bad = int(np.flatnonzero(got != round_totals)[0])
        raise ValueError(
            f"{policy.name} assigned {int(got[bad])} jobs for a round "
            f"of {int(round_totals[bad])}"
        )


def _check_admissions(policy: Policy, job_block: np.ndarray, start_round: int) -> None:
    """Refuse a block in which the policy admitted negative jobs anywhere."""
    if job_block.min() < 0:
        i, s = (int(x) for x in np.argwhere(job_block < 0)[0])
        raise ValueError(
            f"{policy.name} admitted {int(job_block[i, s])} jobs to server {s} "
            f"in round {start_round + i}; admissions must be non-negative"
        )


def queue_trajectory(
    start: np.ndarray, received: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """A block's ``(length, n)`` post-round queues, in closed form.

    Row ``t`` equals ``max(q_{t-1} + received[t] - capacity[t], 0)``
    stepped from ``q_{-1} = start``: the Lindley identity of the module
    docstring, exact in integer arithmetic.
    """
    trajectory = np.cumsum(received - capacity, axis=0)
    floor = np.minimum.accumulate(trajectory, axis=0)
    np.minimum(floor, -start, out=floor)
    trajectory -= floor
    return trajectory


def trajectory_done(
    start: np.ndarray, received: np.ndarray, trajectory: np.ndarray
) -> np.ndarray:
    """A block's per-round completions, ``q_{t-1} + received[t] - q_t``."""
    done = received - trajectory
    done[0] += start
    done[1:] += trajectory[:-1]
    return done


def _server_major_sizes(job_block: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """A block's job sizes permuted from admission into server-major order.

    ``sizes`` lists the block's jobs round-major, in server-index order
    within a round -- the C order of the ``(length, n)`` job matrix.
    Walking the transposed matrix instead gives every server's jobs in
    admission order.
    """
    length, n = job_block.shape
    counts = job_block.ravel()
    starts = np.cumsum(counts) - counts
    by_server = job_block.T.ravel()
    first = starts.reshape(length, n).T.ravel()
    offsets = np.cumsum(by_server) - by_server
    index = np.repeat(first - offsets, by_server) + np.arange(sizes.size)
    return sizes[index]


def drive_blocks(
    sim: "Simulation",
    *,
    start_round: int,
    state: RunState,
    store: BatchQueueStore,
    probes: ProbeSet,
    controller: RunController | None = None,
    round_kernel: RoundKernel | None = None,
) -> None:
    """Run ``sim``'s rounds from ``start_round`` to the end.

    ``state``, ``store`` and ``probes`` are the run's accumulators, its
    batch store and its probe set.  The store resolves each block's
    departures and records their response times into the probe set's
    histogram (and response feed, when a probe wants it); the block
    tail extends the probe set's queue-length series (when it tracks
    one) by the row sums of each block's trajectory.  ``round_kernel``
    is honored for unit jobs only.

    Every block's admitted jobs must be non-negative; a block that
    admits a negative count anywhere raises ``ValueError`` before it
    reaches the store.
    """
    policy: Policy = sim.policy
    arrivals = sim.arrivals
    service = sim.service
    sizes = sim.sizes
    streams = sim._streams
    rounds = sim.config.rounds
    warmup = sim.config.warmup
    histogram = probes.histogram
    response_sink = probes.observe_responses if probes.wants_responses else None
    # Churn scenarios wrap the policy in an adapter exposing the block's
    # capacity mask; stamping it onto the store arms the
    # no-admissions-while-masked corruption guard (and checkpoints then
    # carry the mask with the store).
    mask_source = getattr(policy, "capacity_mask", None)

    def export_state() -> dict:
        return {"store": store, "probes": probes, "run": state}

    queues = state.queues
    n = queues.size
    batching = supports_round_batching(policy)
    fields = probes.fields
    wants_blocks = probes.wants_blocks
    series = probes.queue_series
    sized = sizes is not None
    if sized:
        round_kernel = None

    for chunk_start in range(start_round, rounds, BLOCK_ROUNDS):
        chunk = min(BLOCK_ROUNDS, rounds - chunk_start)
        arrival_block = arrivals.sample_many(streams.arrivals, chunk_start, chunk)
        capacity_block = service.sample_many(streams.departures, chunk_start, chunk)
        received_block = np.zeros((chunk, n), dtype=np.int64)
        start_queues = queues.copy()
        block_jobs = int(arrival_block.sum())
        state.total_jobs += block_jobs
        if sized:
            # The block's sizes, in admission order; work(a, b) is the
            # total size of jobs a..b-1 of the block.
            job_block = np.zeros((chunk, n), dtype=np.int64)
            block_sizes = (
                sizes.sample(streams.sizes, block_jobs) if block_jobs else _NO_SIZES
            )
            work = np.concatenate(([0], np.cumsum(block_sizes)))
            round_jobs = arrival_block.sum(axis=1)
            round_offsets = np.cumsum(round_jobs) - round_jobs
        else:
            job_block = received_block

        batched = None
        if batching and round_kernel is None:
            batched = policy.dispatch_rounds(arrival_block)
        if round_kernel is not None:
            kernel_done = np.zeros((chunk, n), dtype=np.int64)
            round_kernel.run_block(
                arrival_block, capacity_block, queues, received_block, kernel_done
            )
            trajectory = np.cumsum(received_block - kernel_done, axis=0)
            trajectory += start_queues
        elif batched is not None:
            _check_received_block(policy, batched, arrival_block, n)
            job_block[:] = batched
            if sized:
                ends = np.cumsum(batched.ravel())
                received_block[:] = (
                    work[ends] - work[ends - batched.ravel()]
                ).reshape(chunk, n)
            # The policy is out of the loop, so no round needs its
            # queues: the whole block's recurrence in closed form.
            trajectory = queue_trajectory(
                start_queues, received_block, capacity_block
            )
            queues[:] = trajectory[-1]
        else:
            trajectory = np.empty((chunk, n), dtype=np.int64)
            for i in range(chunk):
                t = chunk_start + i

                # Phase 1: arrivals (pre-sampled).
                batch = arrival_block[i]
                round_total = int(batch.sum())

                # Phase 2: one batched dispatch for the whole round.
                policy.begin_round(t, queues)
                if round_total:
                    policy.observe_total_arrivals(round_total)
                    jobs = policy.dispatch_round(batch, queues)
                    if jobs.shape != (n,):
                        raise ValueError(
                            f"{policy.name}.dispatch_round returned shape "
                            f"{jobs.shape}; the batch protocol returns the "
                            f"round's per-server admissions, shape ({n},)"
                        )
                    if int(jobs.sum()) != round_total:
                        raise ValueError(
                            f"{policy.name} assigned {int(jobs.sum())} "
                            f"jobs for a round of {round_total}"
                        )
                    if sized:
                        job_block[i] = jobs
                        ends = round_offsets[i] + np.cumsum(jobs)
                        received = work[ends] - work[ends - jobs]
                    else:
                        received = jobs
                    received_block[i] = received
                    queues += received

                # Phase 3: departures -- the queue recurrence now,
                # completions in the block tail, FIFO resolution at
                # block end.
                queues -= capacity_block[i]
                np.maximum(queues, 0, out=queues)
                trajectory[i] = queues

                policy.end_round(t, queues)

        # The block tail: everything else follows from the trajectory.
        _check_admissions(policy, job_block, chunk_start)
        done_block = trajectory_done(start_queues, received_block, trajectory)
        if series is not None:
            series.record_many(trajectory.sum(axis=1))
        block_received = received_block.sum(axis=0)
        state.server_received += block_received
        state.total_arrived += int(block_received.sum())
        state.server_departed += done_block.sum(axis=0)
        if mask_source is not None:
            store.set_capacity_mask(mask_source())
        store.process_block(
            chunk_start,
            job_block,
            _server_major_sizes(job_block, block_sizes) if sized else None,
            done_block,
            histogram,
            warmup,
            response_sink,
        )
        if wants_blocks:
            probes.observe_block(
                ProbeBlock(
                    start_round=chunk_start,
                    length=chunk,
                    batch=arrival_block if "batch" in fields else None,
                    received=received_block if "received" in fields else None,
                    done=done_block if "done" in fields else None,
                    queues=trajectory if "queues" in fields else None,
                )
            )
        if controller is not None:
            controller.after_block(chunk_start + chunk, export_state)
