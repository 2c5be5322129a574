"""The ``compiled`` round kernels: numba-jitted hot paths, graceful fallback.

ROADMAP item 1.  The fast kernels spend their time in two places: the
per-block FIFO departure resolution (:mod:`repro.sim.batchstore` -- a
dozen numpy passes building merged boundary arrays) and, for cheap
deterministic policies, the per-round ``dispatch_round`` Python
overhead.  This module compiles both:

* :class:`CompiledBatchQueueStore` / :class:`CompiledSizedBatchQueueStore`
  subclass the numpy stores and resolve each block with a single jitted
  two-pointer walk per server (:func:`_resolve_unsized` /
  :func:`_resolve_sized`).  The walk emits the **same multiset of
  response records in the same server-major, position-ascending order**
  as the prefix-sum implementation, and leaves the identical carry
  arrays, so the stores are drop-in bit-identical -- checkpoints
  round-trip between them and the numpy stores.
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
fast kernels' numpy stores, and no warning is emitted -- the backend
stays registered, works, and reports ``jit_active = False``.  The
plain-Python bodies are themselves numba-compatible, so the test suite
exercises the exact compiled control flow even on hosts without numba
(via the stores' ``force`` flag).

The backend registers as ``"compiled"``; the sharded kernel reuses the
pieces through the ``sharded:N[:strategy][:compiled]`` resolver
parameter (compiled shard-side stores plus a compiled coordinator round
kernel where the policy permits).  The round kernels serve unit jobs
only; sized runs get the compiled per-job store.
"""

from __future__ import annotations

import numpy as np

from .backends import FastBackend, register_backend
from .batchstore import BatchQueueStore, SizedBatchQueueStore

__all__ = [
    "HAVE_NUMBA",
    "numba_enabled",
    "CompiledBatchQueueStore",
    "CompiledSizedBatchQueueStore",
    "compiled_round_kernel_for",
    "make_shard_store",
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

#: Test hook: make ``sharded:N[:strategy]:compiled`` shard stores and the
#: coordinator round kernel run their compiled control flow un-jitted
#: when numba is absent (serial strategy / in-process workers only).
_FORCE_STORES = False


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
def _resolve_unsized(
    old_rounds,  # carried batch arrival rounds, server-major FIFO
    old_counts,  # carried batch job counts, parallel
    old_lengths,  # (n,) carried batches per server
    received_block,  # (L, n) admissions
    done_block,  # (L, n) completions
    start_round,
    warmup,
):
    """Two-pointer FIFO drain of one block, per server.

    Walking batches (carried first, then admissions in round order)
    against the completion stream visits exactly the elementary segments
    the numpy store's merged-boundary construction enumerates, in the
    same global position order; each segment becomes one response record
    or one carried batch.
    """
    length, n = received_block.shape
    old_total = old_rounds.shape[0]
    num_new = 0
    num_deps = 0
    for i in range(length):
        for s in range(n):
            if received_block[i, s] > 0:
                num_new += 1
            if done_block[i, s] > 0:
                num_deps += 1

    # Merged per-server batch sequences (carried, then new), server-major.
    total_batches = old_total + num_new
    batch_rounds = np.empty(total_batches, np.int64)
    batch_counts = np.empty(total_batches, np.int64)
    batch_start = np.empty(n + 1, np.int64)
    pos = 0
    old_base = 0
    for s in range(n):
        batch_start[s] = pos
        for _ in range(old_lengths[s]):
            batch_rounds[pos] = old_rounds[old_base]
            batch_counts[pos] = old_counts[old_base]
            pos += 1
            old_base += 1
        for i in range(length):
            count = received_block[i, s]
            if count > 0:
                batch_rounds[pos] = start_round + i
                batch_counts[pos] = count
                pos += 1
    batch_start[n] = pos

    # Each emitted record ends at a batch boundary or exhausts one
    # departure round, so their total bounds the record count.
    max_records = total_batches + num_deps
    rec_dep = np.empty(max_records, np.int64)
    rec_time = np.empty(max_records, np.int64)
    rec_count = np.empty(max_records, np.int64)
    rec_server = np.empty(max_records, np.int64)
    carry_rounds = np.empty(total_batches, np.int64)
    carry_counts = np.empty(total_batches, np.int64)
    carry_lengths = np.zeros(n, np.int64)
    r = 0
    c = 0
    for s in range(n):
        dep_i = 0
        dep_left = 0
        dep_round = -1
        for bi in range(batch_start[s], batch_start[s + 1]):
            remaining = batch_counts[bi]
            b_round = batch_rounds[bi]
            while remaining > 0:
                if dep_left == 0:
                    while dep_i < length and done_block[dep_i, s] == 0:
                        dep_i += 1
                    if dep_i == length:
                        break
                    dep_left = done_block[dep_i, s]
                    dep_round = start_round + dep_i
                    dep_i += 1
                take = remaining if remaining < dep_left else dep_left
                remaining -= take
                dep_left -= take
                if dep_round >= warmup:
                    rec_dep[r] = dep_round
                    rec_time[r] = dep_round - b_round + 1
                    rec_count[r] = take
                    rec_server[r] = s
                    r += 1
            if remaining > 0:
                carry_rounds[c] = b_round
                carry_counts[c] = remaining
                carry_lengths[s] += 1
                c += 1
    return (
        rec_dep[:r],
        rec_time[:r],
        rec_count[:r],
        rec_server[:r],
        carry_rounds[:c],
        carry_counts[:c],
        carry_lengths,
    )


@_maybe_jit
def _resolve_sized(
    old_rounds,  # carried job arrival rounds, server-major FIFO
    old_remaining,  # carried job remaining units, parallel
    old_lengths,  # (n,) carried jobs per server
    job_servers,  # block admissions, sorted server-major
    job_rounds,
    job_sizes,
    done_block,  # (L, n) unit completions
    start_round,
    warmup,
):
    """Unit-denominated drain: a job completes when its last unit drains."""
    length, n = done_block.shape
    old_total = old_rounds.shape[0]
    new_total = job_servers.shape[0]
    total_jobs = old_total + new_total

    rounds_merged = np.empty(total_jobs, np.int64)
    units_merged = np.empty(total_jobs, np.int64)
    job_start = np.empty(n + 1, np.int64)
    pos = 0
    old_base = 0
    new_base = 0
    for s in range(n):
        job_start[s] = pos
        for _ in range(old_lengths[s]):
            rounds_merged[pos] = old_rounds[old_base]
            units_merged[pos] = old_remaining[old_base]
            pos += 1
            old_base += 1
        while new_base < new_total and job_servers[new_base] == s:
            rounds_merged[pos] = job_rounds[new_base]
            units_merged[pos] = job_sizes[new_base]
            pos += 1
            new_base += 1
    job_start[n] = pos

    rec_dep = np.empty(total_jobs, np.int64)
    rec_time = np.empty(total_jobs, np.int64)
    rec_server = np.empty(total_jobs, np.int64)
    carry_rounds = np.empty(total_jobs, np.int64)
    carry_units = np.empty(total_jobs, np.int64)
    carry_lengths = np.zeros(n, np.int64)
    r = 0
    c = 0
    for s in range(n):
        dep_i = 0
        dep_left = 0
        dep_round = -1
        for ji in range(job_start[s], job_start[s + 1]):
            need = units_merged[ji]
            b_round = rounds_merged[ji]
            while need > 0:
                if dep_left == 0:
                    while dep_i < length and done_block[dep_i, s] == 0:
                        dep_i += 1
                    if dep_i == length:
                        break
                    dep_left = done_block[dep_i, s]
                    dep_round = start_round + dep_i
                    dep_i += 1
                take = need if need < dep_left else dep_left
                need -= take
                dep_left -= take
            if need == 0:
                if dep_round >= warmup:
                    rec_dep[r] = dep_round
                    rec_time[r] = dep_round - b_round + 1
                    rec_server[r] = s
                    r += 1
            else:
                carry_rounds[c] = b_round
                carry_units[c] = need
                carry_lengths[s] += 1
                c += 1
    return (
        rec_dep[:r],
        rec_time[:r],
        rec_server[:r],
        carry_rounds[:c],
        carry_units[:c],
        carry_lengths,
    )


def _as_block(array: np.ndarray) -> np.ndarray:
    """Contiguous int64 view/copy (shard slices arrive non-contiguous)."""
    return np.ascontiguousarray(array, dtype=np.int64)


class CompiledBatchQueueStore(BatchQueueStore):
    """A :class:`BatchQueueStore` resolved by the jitted two-pointer walk.

    Same state arrays, same records, same carry -- checkpoints pickle
    and restore interchangeably with the numpy store.  When numba is
    unavailable each call falls back to the numpy implementation unless
    ``force`` runs the (plain-Python) compiled control flow anyway,
    which is how the parity tests cover it on numba-less hosts.
    """

    def __init__(self, num_servers: int, force: bool = False) -> None:
        super().__init__(num_servers)
        self.force = bool(force)

    def process_block(
        self,
        start_round: int,
        received_block: np.ndarray,
        done_block: np.ndarray,
        histogram,
        warmup: int = 0,
        response_sink=None,
    ) -> None:
        if not (self.force or numba_enabled()):
            return super().process_block(
                start_round,
                received_block,
                done_block,
                histogram,
                warmup,
                response_sink=response_sink,
            )
        received_block = _as_block(received_block)
        done_block = _as_block(done_block)
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
        (
            rec_dep,
            rec_time,
            rec_count,
            rec_server,
            carry_rounds,
            carry_counts,
            carry_lengths,
        ) = _resolve_unsized(
            self._rounds,
            self._counts,
            self._lengths,
            received_block,
            done_block,
            start_round,
            warmup,
        )
        if histogram is not None:
            histogram.record_many(rec_time, rec_count)
        if response_sink is not None:
            response_sink(rec_dep, rec_time, rec_count, rec_server)
        self._rounds = carry_rounds
        self._counts = carry_counts
        self._lengths = carry_lengths
        self._jobs = server_totals - dep_totals


class CompiledSizedBatchQueueStore(SizedBatchQueueStore):
    """A :class:`SizedBatchQueueStore` resolved by the jitted unit walk."""

    def __init__(self, num_servers: int, force: bool = False) -> None:
        super().__init__(num_servers)
        self.force = bool(force)

    def process_block(
        self,
        start_round: int,
        job_servers: np.ndarray,
        job_rounds: np.ndarray,
        job_sizes: np.ndarray,
        done_block: np.ndarray,
        histogram,
        warmup: int = 0,
        response_sink=None,
    ) -> None:
        if not (self.force or numba_enabled()):
            return super().process_block(
                start_round,
                job_servers,
                job_rounds,
                job_sizes,
                done_block,
                histogram,
                warmup,
                response_sink=response_sink,
            )
        n = self._n
        job_servers = np.ascontiguousarray(job_servers, dtype=np.int64)
        job_rounds = np.ascontiguousarray(job_rounds, dtype=np.int64)
        job_sizes = np.ascontiguousarray(job_sizes, dtype=np.int64)
        if not (job_servers.shape == job_rounds.shape == job_sizes.shape):
            raise ValueError("job arrays must be parallel 1-D arrays")
        if job_sizes.size and int(job_sizes.min()) < 1:
            raise ValueError("job sizes must be >= 1")
        if job_servers.size and np.any(np.diff(job_servers) < 0):
            raise ValueError("jobs must be sorted server-major")
        self._check_capacity_mask(job_servers)
        done_block = _as_block(done_block)
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
        (
            rec_dep,
            rec_time,
            rec_server,
            carry_rounds,
            carry_units,
            carry_lengths,
        ) = _resolve_sized(
            self._rounds,
            self._remaining,
            self._lengths,
            job_servers,
            job_rounds,
            job_sizes,
            done_block,
            start_round,
            warmup,
        )
        counts = np.ones(rec_time.size, dtype=np.int64)
        if histogram is not None:
            histogram.record_many(rec_time, counts)
        if response_sink is not None:
            response_sink(rec_dep, rec_time, counts, rec_server)
        self._rounds = carry_rounds
        self._remaining = carry_units
        self._lengths = carry_lengths
        self._units = server_units - dep_totals


def make_shard_store(num_servers: int, sized: bool):
    """The store a ``:compiled``-resolver shard worker should use.

    Compiled stores when the jitted paths are live (or tests force the
    compiled control flow), the plain numpy stores otherwise -- the
    graceful-fallback rule, applied per worker at construction.
    """
    if numba_enabled() or _FORCE_STORES:
        force = _FORCE_STORES
        if sized:
            return CompiledSizedBatchQueueStore(num_servers, force=force)
        return CompiledBatchQueueStore(num_servers, force=force)
    if sized:
        return SizedBatchQueueStore(num_servers)
    return BatchQueueStore(num_servers)


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
    the compiled per-job store and the shared driver.  When numba is
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

    def _make_store(self, num_servers: int, sized: bool):
        if sized:
            return CompiledSizedBatchQueueStore(num_servers, force=self.force)
        return CompiledBatchQueueStore(num_servers, force=self.force)

    def _round_kernel(self, sim):
        if not self._active():
            return None
        return compiled_round_kernel_for(sim.policy)
