"""Greedy batch assignment: the JSQ / SED inner loop, done in bulk.

In the round-based model a dispatcher receives a *batch* of ``k`` jobs and
(under JSQ-style policies) assigns them one at a time, each to the server
minimizing the post-assignment criterion.  For SED the criterion for the
``j``-th extra job on server ``s`` is the resulting load
``(q_s + j) / mu_s``; JSQ is the special case ``mu == 1``.

Because the per-server marginal costs ``(q_s + j)/mu_s`` are increasing in
``j``, the sequential greedy is equivalent to taking the ``k`` smallest
marginals in the order ``(marginal, server)``.  One sort of the marginals
therefore answers every batch size of a round at once:

1. Water-fill (:func:`repro.core.iwl.compute_iwl`) to the levels of the
   smallest and the largest batch size ``k_min`` and ``k_max``.  Every
   marginal strictly below the ``k_min`` level is selected by every batch
   size, giving per-server base counts.
2. The ``k_max`` smallest marginals all lie below the lower of one step of
   the slowest server above the ``k_max`` level and the level of
   ``k_max + n`` jobs, so each server contributes a *window* of its
   marginals past the base up to there.  The windows are built with the
   heap's own float expression ``((q_s + c) + 1.0) / mu_s`` and sorted
   once, stably and server-major; prefix counts of the first ranks give
   the row of every batch size ``k``.

LSQ/LED dispatchers each rank against their own local view instead of a
shared snapshot.  For them each view gets its own base and windows, and one
stable sort by (view, marginal) answers every dispatcher of the round.

**Tie-break contract.**  Every row equals :func:`greedy_batch_assign_heap`
exactly: equal marginals go to the lowest server index.  The bulk path
certifies each answer -- every base marginal lies strictly below the first
pick and every marginal outside the windows strictly above the last one --
and the heap answers whatever it cannot certify (a water level off by
floating-point error) or would make too large (over ``_MAX_CANDIDATES``
candidates).  :func:`greedy_certificate_ok` is an independent optimality
check (no selected marginal exceeds any unselected one); it accepts any
tie-break.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.iwl import compute_iwl

__all__ = [
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


def greedy_batch_assign(
    queues: np.ndarray,
    rates: np.ndarray,
    num_jobs: int,
) -> np.ndarray:
    """Sequential-greedy batch assignment of one dispatcher.

    The one-row case of :func:`greedy_rows_for_batches` (the same sort).

    Parameters
    ----------
    queues:
        Queue lengths (or load estimates) the greedy ranks on.
    rates:
        Service rates; pass an all-ones array for plain JSQ ranking.
    num_jobs:
        Batch size ``k``.

    Returns
    -------
    numpy.ndarray
        Int64 counts per server summing to ``num_jobs``, equal to
        :func:`greedy_batch_assign_heap`.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if num_jobs <= 0:
        return np.zeros(queues.size, dtype=np.int64)
    return _shared_rows(queues, rates, np.array([int(num_jobs)]))[0]


def greedy_rows_for_batches(
    queues: np.ndarray,
    rates: np.ndarray,
    batch: np.ndarray,
) -> np.ndarray:
    """Whole-round greedy assignment: one ``(m, n)`` matrix of counts.

    ``queues`` is either the snapshot every dispatcher shares, shape
    ``(n,)`` -- JSQ/SED, where one water fill and one sort serve every
    batch size of the round -- or one local view per dispatcher, shape
    ``(m, n)`` -- LSQ/LED, where one sort covers every dispatcher's own
    window (see the module docstring).  Row ``i`` equals
    ``greedy_batch_assign_heap(view, rates, batch[i])``, where ``view`` is
    the shared snapshot or row ``i`` of ``queues``.
    """
    batch = np.asarray(batch, dtype=np.int64)
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    rows = np.zeros((batch.size, rates.size), dtype=np.int64)
    active = batch > 0
    if active.any():
        if queues.ndim == 1:
            rows[active] = _shared_rows(queues, rates, batch[active])
        else:
            rows[active] = _view_rows(queues[active], rates, batch[active])
    return rows


def _shared_rows(queues: np.ndarray, rates: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Rows for the positive batch sizes ``sizes`` against one snapshot."""
    n = queues.size
    k_min = int(sizes.min())
    k_max = int(sizes.max())
    level_min, level_max, level_over = compute_iwl(
        queues, rates, np.array([k_min, k_max, k_max + n], dtype=np.float64)
    ).tolist()
    base = _base(queues, rates, level_min)
    taken = int(base.sum())
    if taken >= k_min:
        return _heap_rows(queues, rates, sizes)
    width = k_max - taken
    span = _span(queues, rates, base, min(level_max + 1.0 / rates.min(), level_over), width)
    total = int(span.sum())
    if total > _MAX_CANDIDATES:
        return _heap_rows(queues, rates, sizes)
    cell, window = _windows(queues, rates, base, span, total)
    # Server-major and stable: equal marginals keep server order.
    order = np.argsort(window, kind="stable")[:width]
    if order.size < width or not _certified(
        queues, rates, base, span, window[order[0]], window[order[-1]]
    ):
        return _heap_rows(queues, rates, sizes)

    picked = cell[order]
    if sizes.size == 1:  # one row: the base plus every pick
        return (base + np.bincount(picked, minlength=n))[None]
    # Row i counts the first ``prefix[i]`` picks on top of the base: count
    # the picks between consecutive distinct prefixes, then accumulate.
    prefix = np.flatnonzero(np.bincount(sizes - taken))
    block = np.searchsorted(prefix, np.arange(width), side="right")
    counts = np.bincount(block * n + picked, minlength=prefix.size * n)
    counts = counts.reshape(prefix.size, n)
    np.add.accumulate(counts, axis=0, out=counts)
    counts += base
    return counts[np.searchsorted(prefix, sizes - taken)]


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


def _heap_rows(
    queues: np.ndarray,
    rates: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """Greedy rows for ``sizes`` from the heap, once per distinct size."""
    distinct, inverse = np.unique(sizes, return_inverse=True)
    table = np.stack(
        [greedy_batch_assign_heap(queues, rates, k) for k in distinct.tolist()]
    )
    return table[inverse]


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
