"""Run-lifecycle seam: block-aligned pause/export for checkpointing.

Every simulation kernel advances the simulation in
blocks of :data:`~repro.sim.blockdriver.BLOCK_ROUNDS` (256) rounds -- the
fast kernels because they pre-sample workload randomness per block, the
reference kernels because the probe :class:`~repro.sim.probes.BlockRecorder`
buffers exactly that many rounds.  Block boundaries are therefore the
one place where *all* kernel state is at rest: the recorder buffer is
empty, every batch store has resolved its FIFO bookkeeping, and the RNG
streams sit at a position that depends only on the number of completed
rounds.  That makes them natural checkpoint points.

A :class:`RunController` rides along a kernel invocation through the
optional ``controller`` argument of ``EngineBackend.run``:

* ``start_round`` tells the kernel to *skip* rounds ``[0, start_round)``
  entirely -- the caller guarantees the simulation object (policy, RNG
  streams, arrival/service processes) is already advanced past them,
  which is what unpickling a checkpointed simulation provides.
* ``initial_state()`` returns the kernel-local state exported by a
  previous run's :meth:`after_block` (queues, stores, probes, counters),
  or ``None`` for a fresh start.
* ``after_block(next_round, export)`` is called synchronously at every
  completed block boundary; ``export()`` materializes the *live* kernel
  state on demand.  Controllers that
  persist the state must call ``export()`` and serialize its result
  before returning -- the kernel keeps mutating those objects
  afterwards.

The orchestration layer built on this seam lives in :mod:`repro.runs`.
"""

from __future__ import annotations

__all__ = ["RunController", "validate_start_round"]


class RunController:
    """Base controller: observes block boundaries, optionally seeds state.

    The default implementation is a no-op fresh run; subclasses override
    what they need (``repro.runs`` provides the checkpointing one).
    """

    #: First round the kernel should execute.  Must be 0 or a multiple
    #: of the 256-round block size, and at most the run's round count.
    start_round: int = 0

    def initial_state(self) -> dict | None:
        """Kernel-local state to resume from, or ``None`` to start fresh.

        The dict is whatever the same kernel exported via
        :meth:`after_block`; each kernel documents its own keys.  When
        this returns a dict, ``start_round`` must be positive.
        """
        return None

    def after_block(self, next_round: int, export) -> None:
        """Called at each completed block boundary.

        ``next_round`` is the first round not yet executed (a multiple
        of 256, or the final round count for a trailing partial block).
        ``export`` is a zero-argument callable returning the kernel's
        state dict; it holds live references into the kernel, so call
        it -- and serialize the result -- before returning if
        persistence is needed.
        """


def validate_start_round(start: int, rounds: int, block: int) -> int:
    """Check a controller's ``start_round`` against a kernel's geometry.

    Returns the validated start.  A resumed kernel can only take over at
    a block boundary (RNG block draws must align with the original
    run's) and cannot start past the end of the run.
    """
    start = int(start)
    if start < 0 or start > rounds:
        raise ValueError(
            f"start_round {start} outside [0, {rounds}]"
        )
    if start % block:
        raise ValueError(
            f"start_round {start} is not a multiple of the "
            f"{block}-round block size"
        )
    return start
