"""The ``compiled`` round kernels: numba-jitted hot paths, graceful fallback.

ROADMAP item 1.  The fast kernels spend their time in two places: the
per-block FIFO departure resolution (:mod:`repro.sim.batchstore` -- a
dozen numpy passes over the block's runs and departure boundaries) and,
for cheap deterministic policies, the per-round ``dispatch_round``
Python overhead.  This module compiles both:

* :class:`CompiledBatchQueueStore` subclasses the numpy store and
  resolves each block, unit or sized, with one jitted walk per server
  over the reference queue's ``(round, size, count)`` runs
  (:func:`_resolve_runs`, the arithmetic of
  ``SizedServerQueue.complete``).  The walk emits the **same response
  records in the same server-major, position-ascending order** as the
  prefix-sum implementation, and leaves the identical carry arrays, so
  the stores are drop-in bit-identical -- checkpoints round-trip
  between them.
* :func:`compiled_round_kernel_for` provides whole-block native round
  loops for the two queue-oblivious deterministic policies (``rr``,
  ``wrr``): one jitted call advances dispatch state, the queue
  recurrence and the completion matrix for 256 rounds (the
  :class:`repro.sim.blockdriver.RoundKernel` seam).  Integer rotation
  arithmetic and elementwise float64 credit updates reproduce the
  per-round paths bit-for-bit.

**Detection and fallback.**  numba is probed once at import; when it is
missing (or tests force it off via :data:`_FORCE_DISABLED`) every jitted
function is a plain-Python function, the ``compiled`` backend runs the
fast kernels' numpy store, and no warning is emitted -- the backend
stays registered, works, and reports ``jit_active = False``.  The
plain-Python bodies are themselves numba-compatible, so the test suite
exercises the exact compiled control flow even on hosts without numba
(via the stores' ``force`` flag).

The backend registers as ``"compiled"``.  The round kernels serve unit
jobs only; sized runs get the compiled store and the shared driver.
"""

from __future__ import annotations

import numpy as np

from .backends import FastBackend, register_backend
from .batchstore import BatchQueueStore

__all__ = [
    "HAVE_NUMBA",
    "numba_enabled",
    "CompiledBatchQueueStore",
    "compiled_round_kernel_for",
    "CompiledBackend",
]

try:  # pragma: no cover - exercised as a whole, not per-branch
    import numba as _numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _numba = None
    HAVE_NUMBA = False

#: Test hook: pretend numba is absent (fallback behavior on hosts that
#: have it installed).  Checked at call time, never cached.
_FORCE_DISABLED = False

def numba_enabled() -> bool:
    """True when the jitted paths are live (numba present, not forced off)."""
    return HAVE_NUMBA and not _FORCE_DISABLED


def _maybe_jit(function):
    """``numba.njit`` when available, the plain function otherwise.

    The plain function is the fallback *and* the specification: its body
    is restricted to numba-supported constructs so both variants execute
    the same control flow.
    """
    if HAVE_NUMBA:  # pragma: no cover - jitted only where numba exists
        return _numba.njit(cache=True)(function)
    return function


# ---------------------------------------------------------------------------
# Compiled departure resolution.
# ---------------------------------------------------------------------------


@_maybe_jit
def _resolve_runs(
    old_rounds,  # carried run arrival rounds, server-major FIFO
    old_sizes,  # carried run job sizes, parallel
    old_counts,  # carried run job counts, parallel
    old_lengths,  # (n,) carried runs per server
    jobs_block,  # (L, n) admitted jobs
    sizes,  # the block's job sizes, server-major (unused for unit jobs)
    sized,
    done_block,  # (L, n) completed work units
    start_round,
    warmup,
):
    """FIFO drain of one block, per server, in the reference queue's cells.

    Each server walks its runs (carried first, then the block's
    admissions in round order) against its completion stream with the
    arithmetic of ``SizedServerQueue.complete``: the head job finishes,
    then as many whole jobs as the round's remaining budget holds.  The
    walk emits one record per (run, departure round) in the order the
    numpy resolver does, and leaves the identical carry.
    """
    length, n = done_block.shape
    old_total = old_rounds.shape[0]
    num_new = 0
    num_deps = 0
    for i in range(length):
        for s in range(n):
            if sized:
                num_new += jobs_block[i, s]
            elif jobs_block[i, s] > 0:
                num_new += 1
            if done_block[i, s] > 0:
                num_deps += 1

    # Merged per-server run sequences (carried, then new), server-major.
    total_runs = old_total + num_new
    run_rounds = np.empty(total_runs, np.int64)
    run_sizes = np.empty(total_runs, np.int64)
    run_counts = np.empty(total_runs, np.int64)
    run_start = np.empty(n + 1, np.int64)
    pos = 0
    old = 0
    new = 0
    for s in range(n):
        run_start[s] = pos
        for _ in range(old_lengths[s]):
            run_rounds[pos] = old_rounds[old]
            run_sizes[pos] = old_sizes[old]
            run_counts[pos] = old_counts[old]
            pos += 1
            old += 1
        for i in range(length):
            count = jobs_block[i, s]
            if sized:
                for _ in range(count):
                    run_rounds[pos] = start_round + i
                    run_sizes[pos] = sizes[new]
                    run_counts[pos] = 1
                    pos += 1
                    new += 1
            elif count > 0:
                run_rounds[pos] = start_round + i
                run_sizes[pos] = 1
                run_counts[pos] = count
                pos += 1
    run_start[n] = pos

    # Each record ends a run or exhausts one departure round, so their
    # total bounds the record count.
    max_records = total_runs + num_deps
    rec_dep = np.empty(max_records, np.int64)
    rec_time = np.empty(max_records, np.int64)
    rec_count = np.empty(max_records, np.int64)
    rec_server = np.empty(max_records, np.int64)
    carry_rounds = np.empty(total_runs, np.int64)
    carry_sizes = np.empty(total_runs, np.int64)
    carry_counts = np.empty(total_runs, np.int64)
    carry_lengths = np.zeros(n, np.int64)
    r = 0
    c = 0
    for s in range(n):
        dep_i = 0
        budget = 0
        dep_round = -1
        for ri in range(run_start[s], run_start[s + 1]):
            arrived = run_rounds[ri]
            size = run_sizes[ri]
            count = run_counts[ri]
            head_left = size
            while count > 0:
                if budget == 0:
                    while dep_i < length and done_block[dep_i, s] == 0:
                        dep_i += 1
                    if dep_i == length:
                        break
                    budget = done_block[dep_i, s]
                    dep_round = start_round + dep_i
                    dep_i += 1
                if head_left > budget:
                    head_left -= budget
                    budget = 0
                    continue
                # The head job finishes, then as many whole jobs as fit.
                fit = (budget - head_left) // size
                finished = 1 + (count - 1 if count - 1 < fit else fit)
                budget -= head_left + (finished - 1) * size
                count -= finished
                head_left = size
                if dep_round >= warmup:
                    rec_dep[r] = dep_round
                    rec_time[r] = dep_round - arrived + 1
                    rec_count[r] = finished
                    rec_server[r] = s
                    r += 1
            if count > 0:
                carry_rounds[c] = arrived
                carry_sizes[c] = head_left
                carry_counts[c] = count
                carry_lengths[s] += 1
                c += 1
    return (
        rec_dep[:r],
        rec_time[:r],
        rec_count[:r],
        rec_server[:r],
        carry_rounds[:c],
        carry_sizes[:c],
        carry_counts[:c],
        carry_lengths,
    )


def _as_block(array: np.ndarray) -> np.ndarray:
    """Contiguous int64 view/copy of a block array."""
    return np.ascontiguousarray(array, dtype=np.int64)


_NO_SIZES = np.empty(0, dtype=np.int64)


class CompiledBatchQueueStore(BatchQueueStore):
    """A :class:`BatchQueueStore` resolved by the jitted walk.

    Same state arrays, same records, same carry -- checkpoints pickle
    and restore interchangeably with the numpy store.  When numba is
    unavailable each call falls back to the numpy implementation unless
    ``force`` runs the (plain-Python) compiled control flow anyway,
    which is how the parity tests cover it on numba-less hosts.
    """

    def __init__(self, num_servers: int, force: bool = False) -> None:
        super().__init__(num_servers)
        self.force = bool(force)

    def _resolve(
        self,
        start_round,
        jobs_block,
        sizes,
        done_block,
        leftover_units,
        warmup,
        want_records,
        workspace,
    ):
        if not (self.force or numba_enabled()):
            return super()._resolve(
                start_round,
                jobs_block,
                sizes,
                done_block,
                leftover_units,
                warmup,
                want_records,
                workspace,
            )
        (
            rec_dep,
            rec_time,
            rec_count,
            rec_server,
            self._rounds,
            self._sizes,
            self._counts,
            self._lengths,
        ) = _resolve_runs(
            self._rounds,
            self._sizes,
            self._counts,
            self._lengths,
            _as_block(jobs_block),
            _NO_SIZES if sizes is None else sizes,
            sizes is not None,
            _as_block(done_block),
            start_round,
            warmup,
        )
        return rec_dep, rec_time, rec_count, rec_server


# ---------------------------------------------------------------------------
# Compiled whole-block round loops (the blockdriver.RoundKernel seam).
# ---------------------------------------------------------------------------


@_maybe_jit
def _rr_run_block(batch, capacity, queues, received, done, positions):
    """256 rounds of round-robin dispatch + the queue recurrence, natively.

    Integer rotation arithmetic identical to
    ``RoundRobinPolicy.dispatch`` / ``dispatch_round``: dispatcher ``d``
    hands every server ``k // n`` jobs plus one to each of the ``k % n``
    servers from its carried position.
    """
    length, m = batch.shape
    n = queues.shape[0]
    for i in range(length):
        for d in range(m):
            k = batch[i, d]
            if k == 0:
                continue
            p = positions[d]
            base = k // n
            rem = k - base * n
            if base > 0:
                for s in range(n):
                    received[i, s] += base
            for j in range(rem):
                s = p + j
                if s >= n:
                    s -= n
                received[i, s] += 1
            positions[d] = (p + k) % n
        for s in range(n):
            q = queues[s] + received[i, s]
            cap = capacity[i, s]
            dn = cap if cap < q else q
            done[i, s] = dn
            queues[s] = q - dn


@_maybe_jit
def _wrr_run_block(batch, capacity, queues, received, done, credits, rates, total_weight):
    """256 rounds of smooth weighted round-robin, natively.

    Per job: every credit gains its rate (independent elementwise float64
    adds, bit-equal to the numpy vectorized update), the first-largest
    credit wins (strict ``>`` scan == ``np.argmax``) and pays the total
    weight -- exactly ``WeightedRoundRobinPolicy.dispatch``.
    """
    length, m = batch.shape
    n = queues.shape[0]
    for i in range(length):
        for d in range(m):
            k = batch[i, d]
            for _ in range(k):
                for s in range(n):
                    credits[d, s] += rates[s]
                best = 0
                best_credit = credits[d, 0]
                for s in range(1, n):
                    if credits[d, s] > best_credit:
                        best_credit = credits[d, s]
                        best = s
                credits[d, best] -= total_weight
                received[i, best] += 1
        for s in range(n):
            q = queues[s] + received[i, s]
            cap = capacity[i, s]
            dn = cap if cap < q else q
            done[i, s] = dn
            queues[s] = q - dn


class _RoundRobinBlockKernel:
    """RoundKernel adapter owning ``rr``'s carried rotation positions."""

    def __init__(self, policy) -> None:
        self._policy = policy

    def run_block(self, batch, capacity, queues, received, done) -> None:
        _rr_run_block(
            _as_block(batch),
            _as_block(capacity),
            queues,
            received,
            done,
            self._policy._position,
        )


class _WeightedRoundRobinBlockKernel:
    """RoundKernel adapter owning ``wrr``'s carried credit matrix."""

    def __init__(self, policy) -> None:
        self._policy = policy

    def run_block(self, batch, capacity, queues, received, done) -> None:
        _wrr_run_block(
            _as_block(batch),
            _as_block(capacity),
            queues,
            received,
            done,
            self._policy._credits,
            self._policy.rates,
            self._policy._total_weight,
        )


def compiled_round_kernel_for(policy):
    """A whole-block kernel for ``policy``, or ``None``.

    Exact-type checks: a subclass may override hooks or dispatch
    behavior the kernels hard-code, so only the two known
    queue-oblivious deterministic classes qualify.
    """
    from repro.policies.round_robin import (
        RoundRobinPolicy,
        WeightedRoundRobinPolicy,
    )

    if type(policy) is RoundRobinPolicy:
        return _RoundRobinBlockKernel(policy)
    if type(policy) is WeightedRoundRobinPolicy:
        return _WeightedRoundRobinBlockKernel(policy)
    return None


# ---------------------------------------------------------------------------
# The registered backends.
# ---------------------------------------------------------------------------


@register_backend("compiled")
class CompiledBackend(FastBackend):
    """The fast kernel with jitted departure resolution and block dispatch.

    Identical round loop (it *is* the shared block driver), so results
    are bit-identical to ``"fast"`` for every deterministic policy and
    every policy on the base-class dispatch fallback.  Sized runs use
    the same compiled store and the shared driver.  When numba is
    missing the backend still registers and runs -- the store delegates
    to the numpy resolver and no round kernel is installed, making it
    the fast kernel under another name (``jit_active`` says which).
    """

    name = "compiled"
    description = (
        "numba-jitted kernel: compiled FIFO departure resolution plus "
        "whole-block native dispatch for rr/wrr; bit-exact vs fast, "
        "warning-free fallback to the fast kernel when numba is missing"
    )

    #: Test hook (per instance): run the compiled control flow un-jitted
    #: even when numba is absent.
    force = False

    @property
    def jit_active(self) -> bool:
        """True when this backend's hot paths are actually jitted."""
        return numba_enabled()

    def _active(self) -> bool:
        return self.force or numba_enabled()

    def _make_store(self, num_servers: int):
        return CompiledBatchQueueStore(num_servers, force=self.force)

    def _round_kernel(self, sim):
        if not self._active():
            return None
        return compiled_round_kernel_for(sim.policy)
