"""Array-backed FIFO job storage, resolved one round-block at a time.

The reference kernel keeps one :class:`repro.sim.backends.SizedServerQueue`
per server: a deque of ``[arrival_round, size, count]`` cells, runs of
``count`` jobs of ``size`` work units that arrived in one round, drained
one Python call per server per round.  :class:`BatchQueueStore` holds the
same cells for the whole pool as flat server-major arrays, FIFO within a
server, and exploits that a round's *queue dynamics* need only the
per-server totals: the engine runs a whole block of rounds updating
``queues += received - done`` and hands the store the block's admitted
jobs and ``(rounds, servers)`` completion matrix afterwards.  FIFO
response times are then recovered for every server at once by a
prefix-sum argument:

* Within one server, work units occupy FIFO *positions* ``1..N``; a run
  covers the interval ``(start, start + size * count]`` and its ``i``-th
  job ends at ``start + i * size``.  The departures of round ``u`` cover
  ``(D_{u-1}, D_u]`` of the cumulative completions.
* Laying the servers' position axes end-to-end, the boundaries form one
  ``(servers, rounds + 1)`` matrix whose last column is a per-server
  sentinel ending at the server's total ("still queued").  Flattened it
  is one nondecreasing sequence, and the first boundary at or past a
  position of server ``s`` lies in row ``s``.
* A job finishes in the round whose boundary is the first at or past its
  last unit: one ``searchsorted`` of each run's last-job end, and a
  second one of its first-job end for runs of more than one job, bound
  the departure rounds a run spans.  Each ``(run, round)`` piece of that
  span completes ``floor((min(D_u, end) - start) / size) -
  floor((max(D_{u-1}, start) - start) / size)`` jobs -- the
  ``(response_time, count)`` records the reference engine records one at
  a time.
* Pieces in the sentinel column are the carry, re-stored in server-major
  FIFO order for the next block.  A partly served head job is carried as
  a ``(round, remaining, 1)`` run.

Unit jobs arrive as one ``(round, 1, count)`` run per nonzero admission
cell and sized jobs as ``(round, size, 1)`` runs, so a run of more than
one job always has unit size and a carried run never needs splitting.
Total work per block is a handful of numpy operations of size O(runs +
records).  The result is bit-identical to draining the reference
queues: both produce the same multiset of (response time, count)
records and the same leftover work.

**Workspace.**  A store's *state* is its attributes: the pending runs,
the per-server run counts and queued units, and the capacity mask.
Checkpoints pickle exactly these.  Everything a block computes on the
way -- the block's runs, the merged runs, the boundaries, the pieces and
the records -- is *scratch*, written into the int64 and bool buffers of
a workspace that grow to the largest block seen and are reused block
after block.  A long cell therefore does not hand several megabytes of
temporaries back to the allocator at the end of every block, only to
fault them in again at the next one.  :meth:`BatchQueueStore.process_block`
borrows a workspace from a small module-level free list when it starts
and puts it back before it returns, after the histogram and the
response sink have consumed the records (which live in the workspace).
So one workspace serves every store a process runs, cell after cell,
and resolves that run at the same time in different threads each
borrow their own.  No store ever holds a workspace.  What a block
still allocates is ``(n,)`` vectors, the carry, and the arrays numpy
cannot write into a given buffer: the ``searchsorted`` results (and
the multi-job runs' first-job ends they search), the ``np.repeat``
expansions (each carried run's server, each piece's run and, for sized
jobs, each job's server and arrival round) and the records' index from
``np.flatnonzero``.  Their buffer-writing equivalents, markers and a
running sum, cost up to five times the CPU, and these allocations are
small enough for the allocator to reuse without returning them to the
system.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .metrics import ResponseTimeHistogram

__all__ = ["BatchQueueStore"]

_EMPTY = np.empty(0, dtype=np.int64)

#: Workspaces not lent out.  The list holds one for each resolve that
#: ever ran at the same time as others, up to this cap.
_MAX_IDLE_WORKSPACES = 4
_IDLE_WORKSPACES: list["_Workspace"] = []


class _Workspace:
    """Scratch buffers one block resolution writes its intermediates into.

    ``ints(slot, size)`` and ``flags(slot, size)`` return the first
    ``size`` entries of the slot's int64 or bool buffer, which grows to
    exactly ``size`` when a block needs more; ``arange(size)`` is
    ``np.arange(size)``.  Contents never outlive one
    :meth:`BatchQueueStore.process_block` call.
    """

    __slots__ = ("_ints", "_flags", "_arange")

    def __init__(self) -> None:
        self._ints: dict[int, np.ndarray] = {}
        self._flags: dict[int, np.ndarray] = {}
        self._arange = _EMPTY

    def ints(self, slot: int, size: int) -> np.ndarray:
        return _grown(self._ints, slot, size, np.int64)

    def flags(self, slot: int, size: int) -> np.ndarray:
        return _grown(self._flags, slot, size, np.bool_)

    def arange(self, size: int) -> np.ndarray:
        if self._arange.size < size:
            self._arange = np.arange(size, dtype=np.int64)
        return self._arange[:size]


def _grown(buffers: dict, slot: int, size: int, dtype) -> np.ndarray:
    buffer = buffers.get(slot)
    if buffer is None or buffer.size < size:
        buffer = buffers[slot] = np.empty(size, dtype=dtype)
    return buffer[:size]


@contextmanager
def _borrowed_workspace():
    """A workspace for the length of one call, then back to the free list."""
    try:
        workspace = _IDLE_WORKSPACES.pop()
    except IndexError:
        workspace = _Workspace()
    try:
        yield workspace
    finally:
        # A soft cap: returns racing past the check overshoot it, which
        # costs memory only.
        if len(_IDLE_WORKSPACES) < _MAX_IDLE_WORKSPACES:
            _IDLE_WORKSPACES.append(workspace)


def _segment_sums(
    values: np.ndarray, lengths: np.ndarray, totals: np.ndarray | None = None
) -> np.ndarray:
    """Sums of consecutive segments of ``values`` with the given lengths.

    ``totals`` is optional scratch of ``values.size + 1`` entries.
    """
    if totals is None:
        totals = np.empty(values.size + 1, dtype=np.int64)
    totals[0] = 0
    np.cumsum(values, out=totals[1:])
    ends = np.cumsum(lengths)
    return totals[ends] - totals[ends - lengths]


class BatchQueueStore:
    """Pending ``(arrival_round, size, count)`` runs for ``n`` servers.

    State between blocks is three flat server-major arrays (arrival
    rounds, job sizes and job counts of the pending runs, FIFO within a
    server) plus the per-server run counts and queued work units.
    :meth:`process_block` advances the store over a block of rounds given
    the block's admitted jobs and completion matrix.
    """

    def __init__(self, num_servers: int) -> None:
        if num_servers < 1:
            raise ValueError("need at least one server")
        self._n = int(num_servers)
        self._rounds = _EMPTY
        self._sizes = _EMPTY
        self._counts = _EMPTY
        self._lengths = np.zeros(self._n, dtype=np.int64)
        self._units = np.zeros(self._n, dtype=np.int64)
        self._capacity_mask: np.ndarray | None = None

    # -- state inspection (tests, debugging) -------------------------------

    @property
    def num_servers(self) -> int:
        return self._n

    def run_counts(self) -> np.ndarray:
        """Number of pending runs per server."""
        return self._lengths.copy()

    def queued_jobs(self) -> np.ndarray:
        """Queued jobs per server (a partly served head job counts)."""
        return _segment_sums(self._counts, self._lengths)

    def queued_units(self) -> np.ndarray:
        """Queued work units per server."""
        return self._units.copy()

    # -- capacity mask (server churn) --------------------------------------

    def capacity_mask(self) -> np.ndarray | None:
        """The availability mask in force, or ``None`` (full fleet)."""
        return self._capacity_mask

    def set_capacity_mask(self, mask: np.ndarray | None) -> None:
        """Stamp the block's churn mask (``True`` = accepts dispatches).

        Masked servers may still *drain* -- departures are legal on any
        server holding work -- but :meth:`process_block` rejects blocks
        that admit jobs to them, turning a churn-adapter bug into a loud
        corruption error instead of silently wrong results.  The mask is
        a plain attribute, so checkpoints pickle and restore it.
        """
        if mask is None:
            self._capacity_mask = None
            return
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n,):
            raise ValueError(
                f"capacity mask has shape {mask.shape}, expected ({self._n},)"
            )
        self._capacity_mask = mask

    # -- block resolution --------------------------------------------------

    def process_block(
        self,
        start_round: int,
        jobs_block: np.ndarray,
        sizes: np.ndarray | None,
        done_block: np.ndarray,
        histogram: ResponseTimeHistogram | None,
        warmup: int = 0,
        response_sink=None,
    ) -> None:
        """Advance the store over rounds ``start_round .. start_round+L-1``.

        Parameters
        ----------
        jobs_block:
            ``(L, n)`` jobs admitted per round per server (round ``t``'s
            arrivals are FIFO-behind everything queued before it).
        sizes:
            The block's job sizes in work units, server-major and in
            admission order within a server (the order
            :meth:`repro.sim.backends.SizedServerQueue.admit` sees them);
            ``None`` for unit jobs.
        done_block:
            ``(L, n)`` work units completed per round per server.  The
            engine guarantees the per-round feasibility ``done <= queued``;
            block totals are re-checked here as a corruption guard.
        histogram:
            Destination for each completed job's response time
            ``last_unit_round - arrival_round + 1``; ``None`` discards.
        warmup:
            Jobs finishing in rounds ``< warmup`` are not recorded (unit
            accounting still includes them), matching the reference
            engine's per-round sink gating.
        response_sink:
            Optional callable ``(departure_rounds, times, counts,
            servers)`` receiving the same post-warmup records the
            histogram gets, stamped with the serving server of each
            record (the probe feed; see :mod:`repro.sim.probes`).

        The record arrays passed to ``histogram`` and ``response_sink``
        are borrowed for the call: they live in the store's workspace and
        are overwritten by the next block, so a sink that keeps records
        must copy them.  Every sink in this package consumes them at once.
        """
        new_jobs = jobs_block.sum(axis=0)
        mask = self._capacity_mask
        if mask is not None and np.any(new_jobs[~mask]):
            raise RuntimeError(
                "batch store admitted jobs to churn-masked servers; "
                "the churn adapter failed to redirect them"
            )
        with _borrowed_workspace() as workspace:
            if sizes is None:
                new_units = new_jobs
            else:
                sizes = np.asarray(sizes, dtype=np.int64)
                if sizes.shape != (int(new_jobs.sum()),):
                    raise ValueError(
                        f"sizes has shape {sizes.shape}, expected one size per "
                        f"admitted job ({int(new_jobs.sum())},)"
                    )
                if sizes.size and int(sizes.min()) < 1:
                    raise ValueError("job sizes must be >= 1")
                new_units = _segment_sums(
                    sizes, new_jobs, workspace.ints(0, sizes.size + 1)
                )
            server_units = self._units + new_units
            dep_totals = done_block.sum(axis=0)
            if np.any(dep_totals > server_units):
                raise RuntimeError(
                    "batch store drained past its contents; "
                    "engine accounting is corrupt"
                )
            if not server_units.any():
                return
            leftover_units = server_units - dep_totals
            records = self._resolve(
                start_round,
                jobs_block,
                sizes,
                done_block,
                leftover_units,
                warmup,
                histogram is not None or response_sink is not None,
                workspace,
            )
            self._units = leftover_units
            if records is None:
                return
            dep_rounds, times, counts, servers = records
            if histogram is not None:
                histogram.record_many(times, counts)
            if response_sink is not None:
                response_sink(dep_rounds, times, counts, servers)

    def _resolve(
        self,
        start_round: int,
        jobs_block: np.ndarray,
        sizes: np.ndarray | None,
        done_block: np.ndarray,
        leftover_units: np.ndarray,
        warmup: int,
        want_records: bool,
        workspace: _Workspace,
    ):
        """Drain one validated block; returns its records (or ``None``).

        Updates the pending runs; the caller updates the unit totals.
        Intermediates and the returned records live in ``workspace``,
        whose numbered int slots are reused as their contents die: 0-5
        hold the block's cells and the merge scratch, then the pieces'
        scratch, then columns and servers, and last the records; 6-8 the
        merged runs, 9-10 their starts and ends, and 11 the boundaries.
        The pieces of multi-job runs are gathered into slots 6-10 as
        their sources die.  Subclasses swap in another resolver with the
        same contract.
        """
        n = self._n
        length = done_block.shape[0]
        if not length:
            return None  # nothing arrives or departs: every run stays
        width = length + 1
        num_cells = n * length
        ints, flags = workspace.ints, workspace.flags

        # The block's runs, server-major (cell s * length + c is server
        # s's column c): one (round, 1, count) run per nonzero cell, or
        # one (round, size, 1) run per job.  ``server_ends`` counts the
        # new runs of servers up to and including each server.
        per_cell = ints(0, num_cells)
        per_cell.reshape(n, length)[:] = jobs_block.T
        if sizes is None:
            occupied = ints(3, num_cells)
            np.copyto(occupied, np.not_equal(per_cell, 0, out=flags(0, num_cells)))
            cell_ends = np.cumsum(occupied, out=ints(1, num_cells))
            server_ends = cell_ends[length - 1 :: length]
            new_lengths = server_ends.copy()
            new_lengths[1:] -= server_ends[:-1]
        else:
            new_lengths = per_cell.reshape(n, length).sum(axis=1)
            server_ends = np.cumsum(new_lengths)
        new_before = server_ends - new_lengths
        old_upto = np.cumsum(self._lengths)
        num_new = int(server_ends[-1])
        num_old = self._rounds.size
        num_runs = num_old + num_new
        cell_rounds = ints(2, num_cells)
        np.add(
            workspace.arange(length), start_round, out=cell_rounds.reshape(n, length)
        )

        # Merge into server-major FIFO order, each server's carried runs
        # before its new ones, by scattering to 1-based slots of buffers
        # whose slot 0 is a dump for the empty cells.  Carried run i of
        # server s goes to slot i + 1 + (new runs of servers < s), new
        # run j of server s to slot j + 1 + (carried runs of servers <= s).
        rounds_at, sizes_at, counts_at = (
            ints(slot, num_runs + 1) for slot in (6, 7, 8)
        )
        if sizes is None:
            slots = cell_ends
            np.add(
                slots.reshape(n, length),
                old_upto[:, None],
                out=slots.reshape(n, length),
            )
            slots *= occupied
            rounds_at[slots] = cell_rounds
            counts_at[slots] = per_cell
            sizes_at.fill(1)
        else:
            slots = np.take(
                old_upto,
                np.repeat(workspace.arange(n), new_lengths),
                out=ints(5, num_new),
                mode="clip",
            )
            slots += workspace.arange(num_new + 1)[1:]
            rounds_at[slots] = np.repeat(cell_rounds, per_cell)
            sizes_at[slots] = sizes
            counts_at.fill(1)
        old_slots = np.take(
            new_before,
            np.repeat(workspace.arange(n), self._lengths),
            out=ints(4, num_old),
            mode="clip",
        )
        old_slots += workspace.arange(num_old + 1)[1:]
        rounds_at[old_slots] = self._rounds
        sizes_at[old_slots] = self._sizes
        counts_at[old_slots] = self._counts
        run_rounds, run_sizes, run_counts = rounds_at[1:], sizes_at[1:], counts_at[1:]

        # Global unit-position axis: server s occupies the half-open
        # interval (base_s, base_s + units_s] and runs follow each other
        # in server-major FIFO order.
        multi = np.greater(run_counts, 1, out=flags(1, num_runs))
        if multi.any():
            run_units = np.multiply(run_sizes, run_counts, out=ints(9, num_runs))
        else:
            multi = None
            run_units = run_sizes
        run_ends = np.cumsum(run_units, out=ints(10, num_runs))
        run_starts = np.subtract(run_ends, run_units, out=ints(9, num_runs))

        # Departure boundaries, flattened from the (n, L+1) matrix of
        # cumulative completions with a sentinel column per server, after
        # a leading 0: boundary k closes the interval (bounds[k-1],
        # bounds[k]] of column k - 1 - s * (L + 1) of server s's row, and
        # the last column is the sentinel, "still queued".  A round without
        # completions repeats the previous boundary, so it is never the
        # first one at or past a position.  ``below[k]`` is bounds[k-1].
        padded = ints(11, n * width + 2)
        padded[:2] = 0
        bounds, below = padded[1:], padded[:-1]
        matrix = bounds[1:].reshape(n, width)
        matrix[:, :length] = done_block.T
        matrix[:, length] = leftover_units
        np.cumsum(bounds, out=bounds)

        # A job finishes in the interval of the first boundary at or past
        # its last unit.  A run of one job is one piece.  A run of several
        # spans the intervals from its first job's to its last job's, one
        # (run, interval) piece per interval; its jobs have unit size (see
        # the module docstring), so the floored job counts at a piece's
        # two ends differ by the run's units inside the interval.  In a
        # block mixing both, a single-job run's one piece completes 1.
        last = np.searchsorted(bounds, run_ends, side="left")
        if multi is not None:
            first = ints(0, num_runs)
            first[:] = last
            first_job_ends = np.add(run_starts, run_sizes, out=ints(1, num_runs))
            first[multi] = np.searchsorted(
                bounds, first_job_ends[multi], side="left"
            )
            # Run r's pieces are pieces piece_ends[r-1] .. piece_ends[r]-1,
            # and its p-th piece is interval first[r] + p, so piece q of
            # the block is interval q + last[r] + 1 - piece_ends[r].
            span = np.subtract(last, first, out=ints(1, num_runs))
            span += 1
            piece_ends = np.cumsum(span, out=ints(2, num_runs))
            num_pieces = int(piece_ends[-1])
            piece_run = np.repeat(workspace.arange(num_runs), span)
            offsets = np.subtract(last, piece_ends, out=piece_ends)
            offsets += 1
            piece = np.take(offsets, piece_run, out=ints(3, num_pieces), mode="clip")
            piece += workspace.arange(num_pieces)

            # Each gather lands in the slot the previous one's source
            # (or the dead counts) vacated.
            def gather(source, slot):
                return np.take(
                    source, piece_run, out=ints(slot, num_pieces), mode="clip"
                )

            starts = gather(run_starts, 8)
            ends = gather(run_ends, 9)
            piece_rounds = gather(run_rounds, 10)
            piece_sizes = gather(run_sizes, 6)
            # starts becomes max(bounds[piece - 1], start).
            bound = np.take(below, piece, out=ints(7, num_pieces), mode="clip")
            np.maximum(bound, starts, out=starts)
            piece_counts = np.take(bounds, piece, out=bound, mode="clip")
            np.minimum(piece_counts, ends, out=piece_counts)
            piece_counts -= starts
            np.copyto(
                piece_counts,
                1,
                where=np.greater(piece_sizes, 1, out=flags(2, num_pieces)),
            )
            nonempty = np.greater(piece_counts, 0, out=flags(3, num_pieces))
        else:
            num_pieces = num_runs
            piece, starts, ends = last, run_starts, run_ends
            piece_rounds, piece_sizes = run_rounds, run_sizes
            piece_counts, nonempty = run_counts, None
        column = np.subtract(piece, 1, out=ints(4, num_pieces))
        piece_server = np.floor_divide(column, width, out=ints(5, num_pieces))
        column -= np.multiply(piece_server, width, out=ints(0, num_pieces))

        # Sentinel pieces are the carry, still server-major FIFO: the
        # jobs left of the run, the first of them possibly partly served.
        pending = np.equal(column, length, out=flags(2, num_pieces))
        carry = np.flatnonzero(pending)
        carried = piece_counts[carry]
        remaining = ends[carry] - np.maximum(below[piece[carry]], starts[carry])
        self._rounds = piece_rounds[carry]
        self._counts = carried
        self._sizes = remaining - (carried - 1) * piece_sizes[carry]
        self._lengths = np.bincount(piece_server[carry], minlength=n)

        if not want_records:
            return None
        keep = np.logical_not(pending, out=pending)
        if nonempty is not None:
            keep &= nonempty
        if warmup > start_round:
            keep &= np.greater_equal(
                column, warmup - start_round, out=flags(4, num_pieces)
            )
        record_at = np.flatnonzero(keep)
        num_records = record_at.size

        def pick(source, slot):
            return np.take(
                source, record_at, out=ints(slot, num_records), mode="clip"
            )

        dep_round = pick(column, 2)
        dep_round += start_round
        times = pick(piece_rounds, 3)
        np.subtract(dep_round, times, out=times)
        times += 1
        return dep_round, times, pick(piece_counts, 0), pick(piece_server, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BatchQueueStore servers={self._n} "
            f"runs={int(self._lengths.sum())} "
            f"units={int(self._units.sum())}>"
        )
