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
"""

from __future__ import annotations

import numpy as np

from .metrics import ResponseTimeHistogram

__all__ = ["BatchQueueStore"]

_EMPTY = np.empty(0, dtype=np.int64)


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of consecutive segments of ``values`` with the given lengths."""
    ends = np.cumsum(lengths)
    totals = np.concatenate(([0], np.cumsum(values)))
    return totals[ends] - totals[ends - lengths]


def _merge_slots(old_lengths: np.ndarray, new_lengths: np.ndarray):
    """Destination slots that put each server's old runs before its new ones.

    Returns ``(old_slots, new_slots)`` into the server-major merged
    sequence of ``old_lengths + new_lengths`` runs per server.
    """
    total_lengths = old_lengths + new_lengths
    dest_base = np.cumsum(total_lengths) - total_lengths
    slots = []
    for lengths, offset in (
        (old_lengths, dest_base),
        (new_lengths, dest_base + old_lengths),
    ):
        base = np.cumsum(lengths) - lengths
        slots.append(np.repeat(offset - base, lengths) + np.arange(lengths.sum()))
    return slots


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
        """
        new_jobs = jobs_block.sum(axis=0)
        mask = self._capacity_mask
        if mask is not None and np.any(new_jobs[~mask]):
            raise RuntimeError(
                "batch store admitted jobs to churn-masked servers; "
                "the churn adapter failed to redirect them"
            )
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
            new_units = _segment_sums(sizes, new_jobs)
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
    ):
        """Drain one validated block; returns its records (or ``None``).

        Updates the pending runs; the caller updates the unit totals.
        Subclasses swap in another resolver with the same contract.
        """
        n = self._n
        length = done_block.shape[0]

        # The block's runs, server-major: one (round, 1, count) run per
        # nonzero admission cell, or one (round, size, 1) run per job.
        per_cell = jobs_block.T.ravel()
        if sizes is None:
            cells = np.flatnonzero(per_cell)
            new_srv = cells // length
            new_col = cells - new_srv * length
            new_sizes, new_counts = 1, per_cell[cells]
            new_lengths = np.bincount(new_srv, minlength=n)
        else:
            new_col = np.repeat(np.tile(np.arange(length), n), per_cell)
            new_sizes, new_counts = sizes, 1
            new_lengths = jobs_block.sum(axis=0)
        old_slots, new_slots = _merge_slots(self._lengths, new_lengths)
        num_runs = old_slots.size + new_slots.size
        merged = []
        for old, new in (
            (self._rounds, start_round + new_col),
            (self._sizes, new_sizes),
            (self._counts, new_counts),
        ):
            values = np.empty(num_runs, dtype=np.int64)
            values[old_slots] = old
            values[new_slots] = new
            merged.append(values)
        run_rounds, run_sizes, run_counts = merged

        # Global unit-position axis: server s occupies the half-open
        # interval (base_s, base_s + units_s] and runs follow each other
        # in server-major FIFO order.
        multi = np.flatnonzero(run_counts > 1)
        run_units = run_sizes * run_counts if multi.size else run_sizes
        run_ends = np.cumsum(run_units)
        run_starts = run_ends - run_units
        run_server = np.repeat(np.arange(n), self._lengths + new_lengths)

        # Departure boundaries, flattened from the (n, L+1) matrix of
        # cumulative completions with a sentinel column per server, after
        # a leading 0: boundary k closes the interval (bounds[k-1],
        # bounds[k]] of column k - 1 - s * (L + 1) of server s's row, and
        # the last column is the sentinel, "still queued".  A round without
        # completions repeats the previous boundary, so it is never the
        # first one at or past a position.
        width = length + 1
        bounds = np.empty(n * width + 1, dtype=np.int64)
        bounds[0] = 0
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
        if multi.size:
            first = last.copy()
            first[multi] = np.searchsorted(
                bounds, run_starts[multi] + run_sizes[multi], side="left"
            )
            span = last - first + 1
            piece_run = np.repeat(np.arange(span.size), span)
            piece = np.arange(piece_run.size) + np.repeat(
                first - (np.cumsum(span) - span), span
            )
            starts = run_starts[piece_run]
            ends = run_ends[piece_run]
            piece_rounds = run_rounds[piece_run]
            piece_sizes = run_sizes[piece_run]
            piece_server = run_server[piece_run]
            piece_counts = np.minimum(bounds[piece], ends) - np.maximum(
                bounds[piece - 1], starts
            )
            piece_counts[piece_sizes > 1] = 1
            nonempty = piece_counts > 0
        else:
            piece, starts, ends = last, run_starts, run_ends
            piece_rounds, piece_sizes = run_rounds, run_sizes
            piece_server, piece_counts = run_server, run_counts
            nonempty = True
        column = piece - 1 - piece_server * width
        completed = column < length

        # Sentinel pieces are the carry, still server-major FIFO: the
        # jobs left of the run, the first of them possibly partly served.
        carry = np.flatnonzero(~completed)
        carried = piece_counts[carry]
        remaining = ends[carry] - np.maximum(bounds[piece[carry] - 1], starts[carry])
        self._rounds = piece_rounds[carry]
        self._counts = carried
        self._sizes = remaining - (carried - 1) * piece_sizes[carry]
        self._lengths = np.bincount(piece_server[carry], minlength=n)

        if not want_records:
            return None
        dep_round = start_round + column
        record = np.flatnonzero(completed & (dep_round >= warmup) & nonempty)
        dep_round = dep_round[record]
        times = dep_round - piece_rounds[record]
        times += 1
        return dep_round, times, piece_counts[record], piece_server[record]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BatchQueueStore servers={self._n} "
            f"runs={int(self._lengths.sum())} "
            f"units={int(self._units.sum())}>"
        )
