"""Greedy batch assignment: the JSQ / SED inner loop, done in bulk.

In the round-based model a dispatcher receives a *batch* of ``k`` jobs and
(under JSQ-style policies) assigns them one at a time, each to the server
minimizing the post-assignment criterion.  For SED the criterion for the
``j``-th extra job on server ``s`` is the resulting load
``(q_s + j) / mu_s``; JSQ is the special case ``mu == 1``.

Because the per-server marginal costs ``(q_s + j)/mu_s`` are increasing in
``j``, the sequential greedy is equivalent to taking the ``k`` smallest
marginals in the order ``(marginal, server)``.  One sort of the marginals
therefore answers every batch size of a round at once.

**Shared snapshot (JSQ/SED).**  :class:`GreedySnapshot` holds one trusted
round snapshot: float queues, rates, the load order's water-fill prefix
sums (:class:`~repro.core.iwl.LoadSnapshot`) and one step of the slowest
server.  :meth:`GreedySnapshot.assign` answers all of a round's batch
sizes against it and returns their per-server *totals*, the only thing
the engine admits:

1. One water fill gives the levels of the smallest and the largest batch
   size ``k_min`` and ``k_max``.  Every marginal strictly below the
   ``k_min`` level is selected by every batch size, giving per-server
   base counts.
2. The ``k_max`` smallest marginals all lie below the lower of one step of
   the slowest server above the ``k_max`` level and the level of
   ``k_max + n`` jobs, so each server contributes a *window* of its
   marginals past the base up to there.  The windows are built with the
   heap's own float expression ``((q_s + c) + 1.0) / mu_s`` and sorted
   once, stably and server-major.
3. Batch ``k`` takes the base plus the first ``k - base.sum()`` ranked
   picks, so the totals are ``base`` times the number of batches plus
   every pick weighted by how many batches reach it.

No per-dispatcher row is ever formed.  :func:`greedy_batch_assign` is the
validated public entry to the same kernel: one batch size gives that
dispatcher's row, an array of them gives the totals.

**Local views (LSQ/LED).**  Dispatchers that rank against their own local
view need their own rows (each view absorbs its own assignments).
:func:`greedy_rows_for_batches` gives each view its own base and windows,
and one stable sort by (view, marginal) answers every dispatcher of the
round.

**Tie-break contract.**  Every row, and so every total, equals
:func:`greedy_batch_assign_heap` exactly: equal marginals go to the
lowest server index.  The bulk path certifies each answer -- every base
marginal lies strictly below the first pick and every marginal outside
the windows strictly above the last one -- and the heap answers whatever
it cannot certify (a water level off by floating-point error) or would
make too large (over ``_MAX_CANDIDATES`` candidates).
:func:`greedy_certificate_ok` is an independent optimality check (no
selected marginal exceeds any unselected one); it accepts any tie-break.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.iwl import LoadSnapshot, _validate, compute_iwl

__all__ = [
    "GreedySnapshot",
    "greedy_batch_assign",
    "greedy_batch_assign_heap",
    "greedy_rows_for_batches",
    "greedy_certificate_ok",
]

#: Above this many candidate marginals the sort would allocate too much;
#: the heap answers instead.
_MAX_CANDIDATES = 4_000_000


def greedy_batch_assign_heap(
    queues: np.ndarray,
    rates: np.ndarray,
    num_jobs: int,
) -> np.ndarray:
    """Reference implementation: ``k`` heap pops, exactly the sequential greedy.

    Ties go to the lowest server index; this is the contract every other
    path reproduces exactly.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    n = queues.size
    counts = np.zeros(n, dtype=np.int64)
    if num_jobs <= 0:
        return counts
    q_list = queues.tolist()
    mu_list = rates.tolist()
    heap = [((q_list[s] + 1.0) / mu_list[s], s) for s in range(n)]
    heapq.heapify(heap)
    for _ in range(int(num_jobs)):
        _, s = heap[0]
        counts[s] += 1
        next_marginal = (q_list[s] + counts[s] + 1.0) / mu_list[s]
        heapq.heapreplace(heap, (next_marginal, s))
    return counts


class GreedySnapshot:
    """One trusted snapshot the shared greedy answers a round from.

    Built from float queues, rates and ``step = 1 / rates.min()``; the
    load order's water-fill prefix sums are computed once here.  Inputs
    are trusted: :func:`greedy_batch_assign` validates before building
    one, and the JSQ/SED policies check their rates once at bind and
    their queues once per round.
    """

    __slots__ = ("queues", "rates", "step", "water")

    def __init__(self, queues: np.ndarray, rates: np.ndarray, step: float) -> None:
        self.queues = queues
        self.rates = rates
        self.step = step
        loads = queues / rates
        self.water = LoadSnapshot(queues, rates, loads, loads.argsort(kind="stable"))

    def assign(self, sizes: np.ndarray) -> np.ndarray:
        """Per-server totals of the positive int64 batch sizes ``sizes``.

        Equal to the sum of ``greedy_batch_assign_heap(queues, rates, k)``
        over ``k`` in ``sizes``; one size gives that batch's row.
        """
        queues, rates = self.queues, self.rates
        n = queues.size
        k_min = int(sizes.min())
        k_max = int(sizes.max())
        level_min, level_max, level_over = self.water.levels(
            np.array([k_min, k_max, k_max + n], dtype=np.float64)
        ).tolist()
        base = _base(queues, rates, level_min)
        taken = int(base.sum())
        if taken >= k_min:
            return _heap_totals(queues, rates, sizes)
        width = k_max - taken
        span = _span(queues, rates, base, min(level_max + self.step, level_over), width)
        total = int(span.sum())
        if total > _MAX_CANDIDATES:
            return _heap_totals(queues, rates, sizes)
        cell, window = _windows(queues, rates, base, span, total)
        # Server-major and stable: equal marginals keep server order.
        order = np.argsort(window, kind="stable")[:width]
        if order.size < width or not _certified(
            queues, rates, base, span, window[order[0]], window[order[-1]]
        ):
            return _heap_totals(queues, rates, sizes)

        picked = cell[order]
        if sizes.size == 1:  # one batch: the base plus every pick
            return base + np.bincount(picked, minlength=n)
        # Pick j (0-based, in rank order) is taken by every batch with
        # more than j picks past the base.
        reach = sizes.size - np.bincount(sizes - taken, minlength=width + 1).cumsum()
        totals = np.bincount(picked, weights=reach[:width], minlength=n).astype(np.int64)
        totals += base * sizes.size
        return totals


def greedy_batch_assign(
    queues: np.ndarray,
    rates: np.ndarray,
    num_jobs: int | np.ndarray,
) -> np.ndarray:
    """Sequential-greedy batch assignment against one snapshot.

    Validates its inputs, then runs :meth:`GreedySnapshot.assign`.

    Parameters
    ----------
    queues:
        Queue lengths (or load estimates) the greedy ranks on.
    rates:
        Service rates; pass an all-ones array for plain JSQ ranking.
    num_jobs:
        Batch size ``k``, or a 1-D array of non-negative batch sizes
        (zeros allowed) that all rank against the same snapshot.

    Returns
    -------
    numpy.ndarray
        Int64 counts per server.  For one batch size they sum to it and
        equal :func:`greedy_batch_assign_heap`; for an array they are the
        totals over its batches, equal to the sum of those rows.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if np.ndim(num_jobs) == 0:
        if num_jobs <= 0:
            return np.zeros(queues.size, dtype=np.int64)
        sizes = np.array([int(num_jobs)], dtype=np.int64)
    else:
        sizes = np.asarray(num_jobs, dtype=np.int64)
        if sizes.ndim != 1:
            raise ValueError("batch sizes must be a scalar or a 1-D array")
    _validate(queues, rates, sizes)
    sizes = sizes[sizes > 0]
    if sizes.size == 0:
        return np.zeros(queues.size, dtype=np.int64)
    return GreedySnapshot(queues, rates, 1.0 / rates.min()).assign(sizes)


def greedy_rows_for_batches(
    views: np.ndarray,
    rates: np.ndarray,
    batch: np.ndarray,
) -> np.ndarray:
    """Per-view greedy rows: one ``(m, n)`` matrix of counts.

    ``views`` holds one local view per dispatcher, shape ``(m, n)`` --
    LSQ/LED, where one sort covers every dispatcher's own window (see the
    module docstring).  Row ``i`` equals
    ``greedy_batch_assign_heap(views[i], rates, batch[i])``.
    """
    batch = np.asarray(batch, dtype=np.int64)
    views = np.asarray(views, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if views.ndim != 2:
        raise ValueError("views must be an (m, n) array, one local view per row")
    rows = np.zeros((batch.size, rates.size), dtype=np.int64)
    active = batch > 0
    if active.any():
        rows[active] = _view_rows(views[active], rates, batch[active])
    return rows


def _view_rows(views: np.ndarray, rates: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Rows for positive batch sizes ``sizes``, row ``i`` against ``views[i]``."""
    m, n = views.shape
    levels = np.array(
        [
            compute_iwl(view, rates, np.array([k, k + n], dtype=np.float64))
            for view, k in zip(views, sizes.tolist())
        ]
    )
    base = _base(views, rates, levels[:, :1])
    taken = base.sum(axis=1)
    ok = taken < sizes
    width = np.where(ok, sizes - taken, 0)
    threshold = np.minimum(levels[:, :1] + 1.0 / rates.min(), levels[:, 1:])
    span = _span(views, rates, base, threshold, width[:, None])
    total = int(span.sum())
    counts = base.copy()
    if 0 < total <= _MAX_CANDIDATES:
        cell, window = _windows(views, rates, base, span, total)
        # One stable sort by view, then marginal; each view's windows are
        # server-major, so equal marginals keep server order.
        row = cell // n
        order = np.lexsort((window, row))
        ranked = window[order]
        held = span.sum(axis=1)
        start = np.cumsum(held) - held
        ok &= held >= width
        ok &= _certified(
            views,
            rates,
            base,
            span,
            ranked[np.minimum(start, total - 1)],
            ranked[np.clip(start + width - 1, 0, total - 1)],
        )
        within = np.arange(total) - start[row[order]] < width[row[order]]
        counts += np.bincount(cell[order[within]], minlength=m * n).reshape(m, n)
    else:
        ok[:] = False
    for i in np.flatnonzero(~ok).tolist():
        counts[i] = greedy_batch_assign_heap(views[i], rates, sizes[i])
    return counts


def _base(queues: np.ndarray, rates: np.ndarray, level: float | np.ndarray) -> np.ndarray:
    """Per server, the marginals strictly below ``level``.

    At the water level of ``k`` jobs they are among the ``k`` smallest,
    and fewer than ``k`` unless the level carries float error.
    """
    base = np.ceil(rates * level - queues - 1e-9).astype(np.int64) - 1
    np.maximum(base, 0, out=base)
    return base


def _span(
    queues: np.ndarray,
    rates: np.ndarray,
    base: np.ndarray,
    threshold: float | np.ndarray,
    width: int | np.ndarray,
) -> np.ndarray:
    """Per server, the window length: marginals past ``base`` up to ``threshold``.

    At most ``width`` of them.  The callers' threshold is the lower of one
    step of the slowest server above the ``k`` level and the level of
    ``k + n`` jobs (flooring loses under one job per server): at least
    ``k`` marginals lie under either.
    """
    span = np.floor(rates * threshold - queues).astype(np.int64) - base
    np.maximum(span, 0, out=span)
    np.minimum(span, width, out=span)
    return span


def _windows(
    queues: np.ndarray, rates: np.ndarray, base: np.ndarray, span: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every window's marginals, flattened cell-major, and each one's cell.

    A cell is a server, or for a 2-D ``queues`` a (row, server) pair in
    row-major order; its window holds the marginals of jobs
    ``base + 1 ... base + span`` there.
    """
    spans = span.ravel()
    cell = np.repeat(np.arange(spans.size), spans)
    steps = np.arange(total) + np.repeat(base.ravel() - (np.cumsum(spans) - spans), spans)
    return cell, _marginals(queues.ravel()[cell], rates[cell % rates.size], steps)


def _certified(
    queues: np.ndarray,
    rates: np.ndarray,
    base: np.ndarray,
    span: np.ndarray,
    first: float | np.ndarray,
    last: float | np.ndarray,
) -> bool | np.ndarray:
    """Whether the base and the picks are exactly the heap's first pops.

    True (per row for 2-D ``queues``) when every marginal past a window
    lies strictly above the ``last`` pick and every base marginal strictly
    below the ``first``.
    """
    certified = last < _marginals(queues, rates, base + span).min(axis=-1)
    if base.any():
        below = np.where(base > 0, _marginals(queues, rates, base - 1), -np.inf)
        certified &= below.max(axis=-1) < first
    return certified


def _marginals(queues: np.ndarray, rates: np.ndarray, jobs: np.ndarray) -> np.ndarray:
    """Marginal of one more job on servers already holding ``jobs`` extra.

    The heap's exact float expression, so that ties compare identically.
    """
    return ((queues + jobs) + 1.0) / rates


def _heap_totals(
    queues: np.ndarray,
    rates: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """Greedy totals for ``sizes`` from the heap, once per distinct size."""
    distinct, repeats = np.unique(sizes, return_counts=True)
    totals = np.zeros(queues.size, dtype=np.int64)
    for k, times in zip(distinct.tolist(), repeats.tolist()):
        totals += times * greedy_batch_assign_heap(queues, rates, k)
    return totals


def greedy_certificate_ok(
    queues: np.ndarray,
    rates: np.ndarray,
    counts: np.ndarray,
    *,
    rtol: float = 1e-9,
) -> bool:
    """Check the exchange-optimality certificate of a greedy assignment.

    ``counts`` is *an* optimal greedy outcome iff moving any assigned job to
    any other server cannot lower its marginal: for all ``s`` with
    ``counts_s > 0`` and all ``u``,

        (q_s + counts_s) / mu_s  <=  (q_u + counts_u + 1) / mu_u.

    This is an independent optimality check that any tie-break passes; it
    is not the equality contract of this module, which is exact agreement
    with :func:`greedy_batch_assign_heap` (lowest index wins ties).
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    counts = np.asarray(counts)
    if np.any(counts < 0):
        return False
    assigned = counts > 0
    if not assigned.any():
        return True
    max_selected = float(np.max((queues[assigned] + counts[assigned]) / rates[assigned]))
    min_next = float(np.min((queues + counts + 1.0) / rates))
    return max_selected <= min_next * (1.0 + rtol) + rtol
