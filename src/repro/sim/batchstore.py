"""Array-backed FIFO batch storage, resolved one round-block at a time.

The reference kernel keeps one :class:`repro.sim.backends.SizedServerQueue`
(a deque of ``[arrival_round, size, count]`` cells) per server and drains
them one Python call per server per round.  :class:`BatchQueueStore` holds
the same information for the whole pool as flat server-major arrays --
a structure of ``(arrival_round, count)`` pairs -- and exploits that a
round's *queue dynamics* need only the per-server totals: the engine can
run a whole block of rounds updating ``queues += received - done`` and
hand the store the block's ``(rounds, servers)`` admission and
completion matrices afterwards.  FIFO response times are then recovered
for every server at once by a prefix-sum argument:

* Within one server, jobs occupy FIFO *positions* ``1..N``; batch ``j``
  covers the position interval ``(B_{j-1}, B_j]`` of the cumulative
  batch counts, and the departures of round ``u`` cover
  ``(D_{u-1}, D_u]`` of the cumulative completion counts.
* Laying the servers' position axes end-to-end turns both families into
  global sorted boundary sequences; merging them decomposes the block's
  completions into segments, each belonging to exactly one batch and
  one departure round -- precisely the ``(response_time, count)`` pairs
  the reference engine records one at a time.
* Segments not covered by any departure (guarded by per-server sentinel
  boundaries) are the carry: batches still queued when the block ends,
  re-stored in server-major FIFO order for the next block.

Total work per block is a handful of numpy operations of size
O(batches + completions) -- the same asymptotic count as the pairs the
reference records -- with none of the per-round small-array overhead.
The result is bit-identical to draining the reference queues: both
produce the same multiset of (response time, count) records and the
same leftover batches.

:class:`SizedBatchQueueStore` is the unit-denominated analog for sized
jobs (``Simulation(sizes=...)``): the FIFO position axis counts
*work units* instead of jobs, each pending entry is one job ``(arrival
round, remaining units)``, and a job's response time is attributed to
the round its *last* unit drains -- one ``searchsorted`` of the jobs'
cumulative unit boundaries into the block's ``(servers, rounds + 1)``
matrix of cumulative departures (one sentinel column per server)
recovers every completion at once.
"""

from __future__ import annotations

import numpy as np

from .metrics import ResponseTimeHistogram

__all__ = ["BatchQueueStore", "SizedBatchQueueStore"]


class BatchQueueStore:
    """Pending ``(arrival_round, count)`` batches for ``n`` servers.

    State between blocks is three flat arrays: per-server batch counts
    and arrival rounds (server-major, FIFO within server) plus the
    per-server batch- and job-totals.  :meth:`process_block` advances
    the store over a block of rounds given the block's admission and
    completion matrices.
    """

    def __init__(self, num_servers: int) -> None:
        if num_servers < 1:
            raise ValueError("need at least one server")
        self._n = int(num_servers)
        self._rounds = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._lengths = np.zeros(self._n, dtype=np.int64)
        self._jobs = np.zeros(self._n, dtype=np.int64)
        self._capacity_mask: np.ndarray | None = None

    # -- state inspection (tests, debugging) -------------------------------

    @property
    def num_servers(self) -> int:
        return self._n

    def batch_counts(self) -> np.ndarray:
        """Number of pending batches per server."""
        return self._lengths.copy()

    def queued_jobs(self) -> np.ndarray:
        """Total queued jobs per server (sum of pending batch counts)."""
        return self._jobs.copy()

    # -- capacity mask (server churn) --------------------------------------

    def capacity_mask(self) -> np.ndarray | None:
        """The availability mask in force, or ``None`` (full fleet)."""
        # getattr: checkpoints written before churn existed lack the slot.
        return getattr(self, "_capacity_mask", None)

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

    def _check_capacity_mask(self, received_totals: np.ndarray) -> None:
        mask = self.capacity_mask()
        if mask is not None and np.any(received_totals[~mask]):
            raise RuntimeError(
                "batch store admitted jobs to churn-masked servers; "
                "the churn adapter failed to redirect them"
            )

    # -- block resolution --------------------------------------------------

    def process_block(
        self,
        start_round: int,
        received_block: np.ndarray,
        done_block: np.ndarray,
        histogram: ResponseTimeHistogram | None,
        warmup: int = 0,
        response_sink=None,
    ) -> None:
        """Advance the store over rounds ``start_round .. start_round+L-1``.

        Parameters
        ----------
        received_block:
            ``(L, n)`` jobs admitted per round per server (round ``t``'s
            arrivals are FIFO-behind everything queued before it).
        done_block:
            ``(L, n)`` jobs completed per round per server.  The engine
            guarantees the per-round feasibility ``done <= queued``;
            block totals are re-checked here as a corruption guard.
        histogram:
            Destination for the response times ``depart - arrive + 1``
            of every completion in the block; ``None`` discards them.
        warmup:
            Completions in rounds ``< warmup`` are not recorded (queue
            accounting still includes them), matching the reference
            engine's per-round sink gating.
        response_sink:
            Optional callable ``(departure_rounds, times, counts,
            servers)`` receiving the same post-warmup records the
            histogram gets, stamped with the serving server of each
            record (the probe feed; see :mod:`repro.sim.probes`).
        """
        n = self._n
        new_totals = received_block.sum(axis=0)
        self._check_capacity_mask(new_totals)
        server_totals = self._jobs + new_totals
        dep_totals = done_block.sum(axis=0)
        if np.any(dep_totals > server_totals):
            raise RuntimeError(
                "batch store drained past its contents; "
                "engine accounting is corrupt"
            )
        if not server_totals.any():
            return

        # Batch sequence per server: carried batches first, then the
        # block's admissions in round order (server-major throughout).
        received_by_server = received_block.T
        new_srv, new_col = np.nonzero(received_by_server)
        new_counts = received_by_server[new_srv, new_col]
        new_rounds = start_round + new_col
        new_lengths = np.bincount(new_srv, minlength=n)
        old_lengths = self._lengths
        total_lengths = old_lengths + new_lengths
        num_batches = int(total_lengths.sum())
        batch_rounds = np.empty(num_batches, dtype=np.int64)
        batch_counts = np.empty(num_batches, dtype=np.int64)
        dest_base = np.cumsum(total_lengths) - total_lengths
        old_total = self._rounds.size
        if old_total:
            old_base = np.cumsum(old_lengths) - old_lengths
            old_dest = (
                np.repeat(dest_base, old_lengths)
                + np.arange(old_total)
                - np.repeat(old_base, old_lengths)
            )
            batch_rounds[old_dest] = self._rounds
            batch_counts[old_dest] = self._counts
        if new_counts.size:
            new_base = np.cumsum(new_lengths) - new_lengths
            new_dest = (
                np.repeat(dest_base + old_lengths, new_lengths)
                + np.arange(new_counts.size)
                - np.repeat(new_base, new_lengths)
            )
            batch_rounds[new_dest] = new_rounds
            batch_counts[new_dest] = new_counts
        batch_server = np.repeat(np.arange(n), total_lengths)

        # Global position axis: server s occupies the half-open interval
        # (server_base[s], server_base[s] + server_totals[s]].
        server_base = np.cumsum(server_totals) - server_totals
        batch_ends = np.cumsum(batch_counts)

        # Departure boundaries on the same axis, plus one sentinel per
        # server with jobs left over so every position maps to either a
        # departure round or "still queued".
        done_by_server = done_block.T
        dep_srv, dep_col = np.nonzero(done_by_server)
        dep_counts = done_by_server[dep_srv, dep_col]
        dep_base = np.cumsum(dep_totals) - dep_totals
        dep_ends = (
            server_base[dep_srv] + np.cumsum(dep_counts) - dep_base[dep_srv]
        )
        leftover_jobs = server_totals - dep_totals
        sentinel_srv = np.flatnonzero(leftover_jobs)
        sentinel_ends = server_base[sentinel_srv] + server_totals[sentinel_srv]
        num_deps = dep_ends.size
        all_dep_ends = np.concatenate([dep_ends, sentinel_ends])
        all_dep_rounds = np.concatenate(
            [
                start_round + dep_col,
                np.zeros(sentinel_srv.size, dtype=np.int64),
            ]
        )
        still_queued = np.concatenate(
            [
                np.zeros(num_deps, dtype=bool),
                np.ones(sentinel_srv.size, dtype=bool),
            ]
        )
        order = np.argsort(all_dep_ends, kind="stable")
        all_dep_ends = all_dep_ends[order]
        all_dep_rounds = all_dep_rounds[order]
        still_queued = still_queued[order]

        # Merge both boundary families into elementary segments; each
        # non-empty segment lies in exactly one batch and one departure
        # interval (duplicate boundaries yield empty segments, dropped).
        ends = np.sort(np.concatenate([batch_ends, all_dep_ends]))
        starts = np.concatenate([[0], ends[:-1]])
        seg_len = ends - starts
        nonempty = seg_len > 0
        starts = starts[nonempty]
        seg_len = seg_len[nonempty]
        seg_batch = np.searchsorted(batch_ends, starts, side="right")
        seg_dep = np.searchsorted(all_dep_ends, starts, side="right")

        if histogram is not None or response_sink is not None:
            dep_round = all_dep_rounds[seg_dep]
            record = ~still_queued[seg_dep] & (dep_round >= warmup)
            times = dep_round[record] - batch_rounds[seg_batch[record]] + 1
            counts = seg_len[record]
            if histogram is not None:
                histogram.record_many(times, counts)
            if response_sink is not None:
                response_sink(
                    dep_round[record],
                    times,
                    counts,
                    batch_server[seg_batch[record]],
                )

        # Segments mapped to a sentinel are the carry; global segment
        # order is server-major FIFO, and each pending batch contributes
        # at most one segment (no departure boundary splits it), so the
        # carry stays batch-granular.
        left = still_queued[seg_dep]
        left_batches = seg_batch[left]
        self._rounds = batch_rounds[left_batches]
        self._counts = seg_len[left]
        self._lengths = np.bincount(batch_server[left_batches], minlength=n)
        self._jobs = leftover_jobs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BatchQueueStore servers={self._n} "
            f"batches={int(self._lengths.sum())} "
            f"jobs={int(self._jobs.sum())}>"
        )


class SizedBatchQueueStore:
    """Pending sized jobs for ``n`` servers, on a work-unit position axis.

    The sized-job analog of :class:`BatchQueueStore`: each pending
    entry is one job ``(arrival_round, remaining_units)``, kept
    server-major in FIFO order, and the per-server position axis is
    denominated in work units.  :meth:`process_block` advances the store
    over a block of rounds given the block's admitted jobs and the
    ``(rounds, servers)`` matrix of per-round unit completions, recording
    each job's response time at the round its *last* unit drains --
    exactly the semantics of
    :meth:`repro.sim.backends.SizedServerQueue.complete`, including partial
    service of the head job across block boundaries.
    """

    def __init__(self, num_servers: int) -> None:
        if num_servers < 1:
            raise ValueError("need at least one server")
        self._n = int(num_servers)
        self._rounds = np.empty(0, dtype=np.int64)
        self._remaining = np.empty(0, dtype=np.int64)
        self._lengths = np.zeros(self._n, dtype=np.int64)
        self._units = np.zeros(self._n, dtype=np.int64)
        self._capacity_mask: np.ndarray | None = None

    # -- state inspection (tests, debugging) -------------------------------

    @property
    def num_servers(self) -> int:
        return self._n

    def job_counts(self) -> np.ndarray:
        """Number of pending jobs per server."""
        return self._lengths.copy()

    def queued_units(self) -> np.ndarray:
        """Total queued work units per server (head jobs may be partial)."""
        return self._units.copy()

    # -- capacity mask (server churn) --------------------------------------

    def capacity_mask(self) -> np.ndarray | None:
        """The availability mask in force, or ``None`` (full fleet)."""
        return getattr(self, "_capacity_mask", None)

    def set_capacity_mask(self, mask: np.ndarray | None) -> None:
        """Stamp the block's churn mask, as in :class:`BatchQueueStore`."""
        if mask is None:
            self._capacity_mask = None
            return
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n,):
            raise ValueError(
                f"capacity mask has shape {mask.shape}, expected ({self._n},)"
            )
        self._capacity_mask = mask

    def _check_capacity_mask(self, job_servers: np.ndarray) -> None:
        mask = self.capacity_mask()
        if mask is not None and job_servers.size and np.any(~mask[job_servers]):
            raise RuntimeError(
                "sized batch store admitted jobs to churn-masked servers; "
                "the churn adapter failed to redirect them"
            )

    # -- block resolution --------------------------------------------------

    def process_block(
        self,
        start_round: int,
        job_servers: np.ndarray,
        job_rounds: np.ndarray,
        job_sizes: np.ndarray,
        done_block: np.ndarray,
        histogram: ResponseTimeHistogram | None,
        warmup: int = 0,
        response_sink=None,
    ) -> None:
        """Advance the store over rounds ``start_round .. start_round+L-1``.

        Parameters
        ----------
        job_servers, job_rounds, job_sizes:
            The block's admitted jobs as parallel flat arrays, sorted
            server-major and, within a server, in admission order
            (arrival round ascending, then dispatcher order -- the order
            :meth:`repro.sim.backends.SizedServerQueue.admit` sees them).
        done_block:
            ``(L, n)`` work units completed per round per server.  The
            engine guarantees per-round feasibility ``done <= queued``;
            block totals are re-checked here as a corruption guard.
        histogram:
            Destination for each completed job's response time
            ``last_unit_round - arrival_round + 1``; ``None`` discards.
        warmup:
            Jobs finishing in rounds ``< warmup`` are not recorded
            (unit accounting still includes them).
        response_sink:
            Optional callable ``(departure_rounds, times, counts,
            servers)`` receiving the same post-warmup records the
            histogram gets, stamped with the serving server of each
            record (the probe feed; see :mod:`repro.sim.probes`).
        """
        n = self._n
        job_servers = np.asarray(job_servers, dtype=np.int64)
        job_rounds = np.asarray(job_rounds, dtype=np.int64)
        job_sizes = np.asarray(job_sizes, dtype=np.int64)
        if not (job_servers.shape == job_rounds.shape == job_sizes.shape):
            raise ValueError("job arrays must be parallel 1-D arrays")
        if job_sizes.size and int(job_sizes.min()) < 1:
            raise ValueError("job sizes must be >= 1")
        if job_servers.size and np.any(np.diff(job_servers) < 0):
            raise ValueError("jobs must be sorted server-major")
        self._check_capacity_mask(job_servers)
        new_units = np.zeros(n, dtype=np.int64)
        if job_sizes.size:
            np.add.at(new_units, job_servers, job_sizes)
        server_units = self._units + new_units
        dep_totals = done_block.sum(axis=0)
        if np.any(dep_totals > server_units):
            raise RuntimeError(
                "sized batch store drained past its contents; "
                "engine accounting is corrupt"
            )
        if not server_units.any():
            return

        # Job sequence per server: carried jobs first (the head may be
        # partially served), then the block's admissions (server-major).
        new_lengths = np.bincount(job_servers, minlength=n)
        old_lengths = self._lengths
        total_lengths = old_lengths + new_lengths
        num_jobs = int(total_lengths.sum())
        rounds_merged = np.empty(num_jobs, dtype=np.int64)
        units_merged = np.empty(num_jobs, dtype=np.int64)
        dest_base = np.cumsum(total_lengths) - total_lengths
        old_total = self._rounds.size
        if old_total:
            old_base = np.cumsum(old_lengths) - old_lengths
            old_dest = (
                np.repeat(dest_base, old_lengths)
                + np.arange(old_total)
                - np.repeat(old_base, old_lengths)
            )
            rounds_merged[old_dest] = self._rounds
            units_merged[old_dest] = self._remaining
        if job_sizes.size:
            new_base = np.cumsum(new_lengths) - new_lengths
            new_dest = (
                np.repeat(dest_base + old_lengths, new_lengths)
                + np.arange(job_sizes.size)
                - np.repeat(new_base, new_lengths)
            )
            rounds_merged[new_dest] = job_rounds
            units_merged[new_dest] = job_sizes
        job_server = np.repeat(np.arange(n), total_lengths)

        # Global unit-position axis: server s occupies the half-open
        # interval (server_base[s], server_base[s] + server_units[s]];
        # job j ends at the cumulative unit count through j.
        server_base = np.cumsum(server_units) - server_units
        job_ends = np.cumsum(units_merged)

        # Departure boundaries on the same axis: row s holds server s's
        # cumulative completions after each round of the block, then one
        # sentinel column ending at its total units.  Flattened, the rows
        # are one nondecreasing sequence, and the first boundary at or
        # past a position of server s lies in row s: a round with
        # completions (a round without any repeats the previous boundary,
        # so it is never first) or the sentinel, "still queued".
        length = done_block.shape[0]
        leftover_units = server_units - dep_totals
        dep_ends = np.empty((n, length + 1), dtype=np.int64)
        dep_ends[:, :length] = done_block.T
        dep_ends[:, length] = leftover_units
        np.cumsum(dep_ends, axis=1, out=dep_ends)
        dep_ends += server_base[:, None]

        # A job finishes in the departure interval containing its last
        # unit: the first boundary >= its cumulative end position.
        column = np.searchsorted(dep_ends.ravel(), job_ends, side="left")
        column %= length + 1
        completed = column < length

        if histogram is not None or response_sink is not None:
            dep_round = start_round + column
            record = completed & (dep_round >= warmup)
            times = dep_round[record] - rounds_merged[record] + 1
            counts = np.ones(int(record.sum()), dtype=np.int64)
            if histogram is not None:
                histogram.record_many(times, counts)
            if response_sink is not None:
                response_sink(
                    dep_round[record], times, counts, job_server[record]
                )

        # Carry: jobs whose last unit outlives the block's completions;
        # the head job of each leftover server may be partially served.
        carried = ~completed
        drained_end = server_base + dep_totals
        job_starts = job_ends - units_merged
        carried_srv = job_server[carried]
        self._rounds = rounds_merged[carried]
        self._remaining = job_ends[carried] - np.maximum(
            job_starts[carried], drained_end[carried_srv]
        )
        self._lengths = np.bincount(carried_srv, minlength=n)
        self._units = leftover_units

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SizedBatchQueueStore servers={self._n} "
            f"jobs={int(self._lengths.sum())} "
            f"units={int(self._units.sum())}>"
        )
