"""The 256-round block driver behind the ``fast`` kernel.

The kernel runs its rounds in blocks: pre-sample a block of workload
randomness, run each round's dispatch against the live queue totals,
resolve the block's FIFO departures in the batch store at block end,
feed the block to the probe set, and hand the lifecycle controller the
kernel's checkpoint state (``store``, ``probes``, ``run``) at the block
boundary.  The kernel supplies the run's state objects, fresh or
restored from a checkpoint; this module owns the loop.

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

**Cross-round dispatch batching.**  When the policy passes
:func:`repro.policies.base.supports_round_batching` (queue-oblivious,
no round hooks), the whole block's admissions come from one
:meth:`~repro.policies.base.Policy.dispatch_rounds` call --
bit-identical by that method's contract, with no per-round Python loop
at all.

**The block tail.**  Both paths -- per-round dispatch and batched
dispatch -- yield the block's *trajectory*, the ``(length, n)``
post-round queues, and one shared tail derives the rest from it once
per block: completions ``done_t = q_{t-1} + r_t - q_t`` (the first row
from the block's start queues), the queue-length series (row sums) and
the probes' ``queues`` array (the trajectory itself).  The per-round path
steps ``q_t = max(q_{t-1} + r_t - c_t, 0)`` because its policy reads
every round's queues.  The batched path never needs an intermediate
queue, so it solves the recurrence -- a Lindley recursion -- in closed
form: with ``S_t`` the prefix sum of ``r - c`` over the block and
``q_0`` the start queues,

    ``q_t = S_t - min(min_{j <= t} S_j, -q_0)``.

Unrolling the recursion gives ``q_t = max(q_0 + S_t, max_{j <= t}
(S_t - S_j))``, since the queue last emptied at some round ``j`` or
never did in the block; the ``j = t`` term is the ``0`` floor.  Every
quantity is an int64 sum, so the closed form is exact, not an
approximation: it reproduces the stepped values bit for bit.

**Drawing ahead.**  The ``arrivals``, ``departures`` and ``sizes``
streams never depend on the policy (:mod:`repro.sim.seeding`), so block
``b + 1``'s workload -- its arrival and capacity blocks, its sizes, and
what follows from them alone (the job count, the sized work prefix and
the round offsets) -- can be drawn before block ``b`` has finished.  A
run of two or more blocks draws each next block on one helper thread,
made for the ``drive_blocks`` call and shut down before it returns.
The helper draws on *copies* of the three generators, set to the live
generators' states when the draw is submitted; a copy's state is handed
to the simulation's own generator only when block ``b + 1`` starts.
The live generators therefore advance exactly as an inline draw would
advance them, and a checkpoint, a paused run or a failed run sees them
at its own block boundary.  Only processes whose own class declares
``stateless = True`` qualify -- their block draw reads and writes no
state of the instance -- and only when the arrival and service
processes and the size distribution all do (see
:func:`declares_stateless`); any other run, and any subclass that does
not repeat the declaration, draws inline at block start.  So does a run
without a CPU to spare (:func:`_has_spare_cpu`): a process limited to
one CPU, or a worker of a multiprocessing pool.  The gain comes from a
second CPU that would otherwise sit idle; in a grid on a process pool
(one worker per CPU by default) every CPU already runs a cell, and a
helper there only competes with them.  Sixteen 16,384-round sized
``rr`` cells on two workers (2 CPUs) took about 4% longer with a helper
in each worker than drawn inline (inline won 8 of 10 alternating
pairs).  The draw is submitted at the start of block ``b``'s tail, not
at block start: the helper's Python glue competes with the round loop
for the GIL.  On a 100 x 50 ``jsq`` cell (2 CPUs) a submission at
block start made runs about 12% slower than one at the tail; at the
tail the draw overlaps the batch store's numpy work, and the main
thread waited about 0.04 ms per block for it on a sized ``rr`` cell.
numpy's distribution fills release the GIL while they run.

Bit-identity is the invariant throughout: for a given policy and seed,
both paths through this driver produce the same admission matrix,
completion matrix, queue trajectory and checkpoint state as the
per-round reference loop, whether a block was drawn inline or ahead.
"""

from __future__ import annotations

import copy
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, NamedTuple

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
    "declares_stateless",
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


def declares_stateless(process) -> bool:
    """True when ``process``'s own class declares ``stateless = True``.

    An arrival process, service process or job-size distribution makes
    that declaration when its ``sample``/``sample_many`` read and write no
    state of the instance, so a block may be drawn ahead of time.  The
    declaration is read from the class's own namespace, never inherited:
    a subclass may add state to its draw, so it draws inline until it
    declares itself stateless too.
    """
    return vars(type(process)).get("stateless", False) is True


def _has_spare_cpu() -> bool:
    """True when a helper thread can count on a CPU the run leaves idle.

    That needs two usable CPUs and a process that is not a worker of a
    multiprocessing pool, whose sibling workers keep the other CPUs busy.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without CPU affinity
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return False
    # A multiprocessing worker has the package imported before its first
    # task; a process without it is no worker, and need not import it.
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is None or multiprocessing.parent_process() is None


class _BlockDraw(NamedTuple):
    """One block's workload and what depends on it alone."""

    arrivals: np.ndarray
    capacity: np.ndarray
    jobs: int
    #: The block's job sizes in admission order (sized runs only).
    sizes: np.ndarray
    #: ``work[b] - work[a]`` is the total size of jobs ``a..b-1``.
    work: np.ndarray | None
    #: Index of each round's first job in the block.
    round_offsets: np.ndarray | None


def _draw_block(sim: "Simulation", rngs: tuple, start: int, length: int) -> _BlockDraw:
    """Draw rounds ``[start, start + length)`` from ``rngs``: the
    ``(arrivals, departures, sizes)`` generators, live or copies."""
    arrival_rng, departure_rng, size_rng = rngs
    arrival_block = sim.arrivals.sample_many(arrival_rng, start, length)
    capacity_block = sim.service.sample_many(departure_rng, start, length)
    block_jobs = int(arrival_block.sum())
    if sim.sizes is None:
        return _BlockDraw(arrival_block, capacity_block, block_jobs, _NO_SIZES, None, None)
    block_sizes = sim.sizes.sample(size_rng, block_jobs) if block_jobs else _NO_SIZES
    round_jobs = arrival_block.sum(axis=1)
    return _BlockDraw(
        arrival_block,
        capacity_block,
        block_jobs,
        block_sizes,
        np.concatenate(([0], np.cumsum(block_sizes))),
        np.cumsum(round_jobs) - round_jobs,
    )


class _BlockDraws:
    """Each block's draw for :func:`drive_blocks`, inline or drawn ahead.

    Without ``ahead`` every block is drawn from the live generators when
    it starts.  With it, :meth:`submit` draws a block on one helper
    thread from copies of the live generators, and :meth:`take` hands
    the copies' states to the live generators when that block starts
    (see "Drawing ahead").  Used as a context manager: leaving it waits
    for the helper, so no thread outlives the driver.
    """

    def __init__(self, sim: "Simulation", ahead: bool) -> None:
        streams = sim._streams
        self._sim = sim
        self._live = (streams.arrivals, streams.departures, streams.sizes)
        self._copies = tuple(copy.deepcopy(rng) for rng in self._live) if ahead else ()
        # The executor starts its thread on the first submit.
        self._helper = ThreadPoolExecutor(1, "repro-draw-ahead") if ahead else None
        self._pending: Future | None = None

    def __enter__(self) -> "_BlockDraws":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._helper is not None:
            self._helper.shutdown(wait=True, cancel_futures=True)

    def take(self, start: int, length: int) -> _BlockDraw:
        """Block ``[start, start + length)``: the draw submitted for it, or
        one made inline when none was."""
        if self._pending is None:
            return _draw_block(self._sim, self._live, start, length)
        draw = self._pending.result()
        self._pending = None
        for live, ahead in zip(self._live, self._copies):
            live.bit_generator.state = ahead.bit_generator.state
        return draw

    def submit(self, start: int, length: int) -> None:
        """Start drawing block ``[start, start + length)`` on the helper."""
        if self._helper is None or length <= 0:
            return
        for live, ahead in zip(self._live, self._copies):
            ahead.bit_generator.state = live.bit_generator.state
        self._pending = self._helper.submit(
            _draw_block, self._sim, self._copies, start, length
        )


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
) -> None:
    """Run ``sim``'s rounds from ``start_round`` to the end.

    ``state``, ``store`` and ``probes`` are the run's accumulators, its
    batch store and its probe set.  The store resolves each block's
    departures and records their response times into the probe set's
    histogram (and response feed, when a probe wants it); the block
    tail extends the probe set's queue-length series (when it tracks
    one) by the row sums of each block's trajectory.

    Every block's admitted jobs must be non-negative; a block that
    admits a negative count anywhere raises ``ValueError`` before it
    reaches the store.
    """
    policy: Policy = sim.policy
    sizes = sim.sizes
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
    series = probes.queue_series
    sized = sizes is not None
    ahead = (
        start_round + BLOCK_ROUNDS < rounds
        and all(
            declares_stateless(process)
            for process in (sim.arrivals, sim.service, sizes)
            if process is not None
        )
        and _has_spare_cpu()
    )

    with _BlockDraws(sim, ahead) as draws:
        for chunk_start in range(start_round, rounds, BLOCK_ROUNDS):
            chunk = min(BLOCK_ROUNDS, rounds - chunk_start)
            next_start = chunk_start + chunk
            draw = draws.take(chunk_start, chunk)
            arrival_block = draw.arrivals
            capacity_block = draw.capacity
            received_block = np.zeros((chunk, n), dtype=np.int64)
            start_queues = queues.copy()
            state.total_jobs += draw.jobs
            if sized:
                job_block = np.zeros((chunk, n), dtype=np.int64)
                work = draw.work
                round_offsets = draw.round_offsets
            else:
                job_block = received_block

            batched = policy.dispatch_rounds(arrival_block) if batching else None
            if batched is not None:
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
            # The next block's draw overlaps it (see "Drawing ahead").
            draws.submit(next_start, min(BLOCK_ROUNDS, rounds - next_start))
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
                _server_major_sizes(job_block, draw.sizes) if sized else None,
                done_block,
                histogram,
                warmup,
                response_sink,
            )
            probes.observe_block(
                ProbeBlock(
                    start_round=chunk_start,
                    length=chunk,
                    batch=arrival_block,
                    received=received_block,
                    done=done_block,
                    queues=trajectory,
                )
            )
            if controller is not None:
                controller.after_block(next_start, export_state)
