"""Pluggable round-kernel backends for the simulation engine.

The three-phase round model (arrivals, dispatching, departures) admits
more than one execution strategy, and this module is the seam between
the model and its implementations.  Every backend runs unit-job and
sized workloads alike (``Simulation(sizes=...)``); queues count work
units, which are jobs when jobs have unit size.

``reference``
    The original per-object loop -- one ``policy.dispatch`` call per
    dispatcher, one :class:`SizedServerQueue` per server.  Simple,
    obviously correct, and the bit-exact default.

``fast``
    The vectorized kernel: a whole round's dispatching is one call of
    the batch protocol :meth:`repro.policies.base.Policy.dispatch_round`,
    which returns the round's per-server admissions; arrivals land in an
    array-backed batch store, and the departure phase drains *all* busy
    servers in lock-step with
    :meth:`~repro.sim.metrics.ResponseTimeHistogram.record_many` bulk
    recording.  Unit and sized jobs share one
    :class:`~repro.sim.batchstore.BatchQueueStore` of the reference
    queue's ``(round, size, count)`` runs.
    Bit-identical to ``reference`` for every policy: native batched
    sampling paths draw the identical RNG stream, and the rest use the
    base-class ``dispatch_round`` fallback.

``compiled`` / ``meanfield``
    The numba-jitted kernel (:mod:`repro.sim.compiled`) and the
    analytical fluid-limit engine (:mod:`repro.meanfield`).

Backends are registered by name (mirroring the policy registry) so
experiments and the CLI can select them as plain strings;
:class:`BackendCapabilities` records what each one honestly supports.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from ._registry import BackendCapabilities, BackendRegistry
from .batchstore import BatchQueueStore
from .blockdriver import BLOCK_ROUNDS, RunState, drive_blocks
from .lifecycle import RunController, validate_start_round
from .metrics import ResponseTimeHistogram
from .probes import (
    BlockRecorder,
    ProbeContext,
    ProbeSet,
    ResponseTee,
    build_probe_set,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine resolves us)
    from .engine import Simulation, SimulationResult

__all__ = [
    "BackendCapabilities",
    "EngineBackend",
    "ReferenceBackend",
    "FastBackend",
    "SizedServerQueue",
    "register_backend",
    "make_backend",
    "available_backends",
    "backend_descriptions",
    "backend_capabilities",
]


class EngineBackend(ABC):
    """One way of executing all rounds of a bound :class:`Simulation`."""

    #: Registry name, e.g. ``"reference"`` or ``"fast"``.
    name: str = "abstract"
    #: One-line description shown by ``repro backends``.
    description: str = ""

    @abstractmethod
    def run(
        self, sim: "Simulation", controller: RunController | None = None
    ) -> "SimulationResult":
        """Execute ``sim.config.rounds`` rounds and collect the metrics.

        ``controller`` is the optional run-lifecycle seam
        (:mod:`repro.sim.lifecycle`): kernels honor its ``start_round``
        / ``initial_state()`` to resume mid-run and call its
        ``after_block`` at every 256-round block boundary with their
        exportable state.
        """

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        """Capability flags (checkpointing, probes) this backend honors.

        The simulation kernels inherit the all-True defaults; analytical
        backends override this to declare what they genuinely support so
        experiments and runs can fail fast at construction.
        """
        return BackendCapabilities()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: BackendRegistry[EngineBackend] = BackendRegistry(
    "engine backend", "backends", EngineBackend
)

#: Class decorator registering an engine backend under a name.
register_backend = _REGISTRY.register
#: Instantiate a backend from its registry name (or pass one through).
make_backend = _REGISTRY.make
#: Names accepted by :func:`make_backend`, sorted.
available_backends = _REGISTRY.available
#: Name -> one-line description, for CLI listings.
backend_descriptions = _REGISTRY.descriptions
#: Capability flags for a backend name (or instance), without building it.
backend_capabilities = _REGISTRY.capabilities


class SizedServerQueue:
    """One server's FIFO queue of jobs, accounted in work units.

    The queue is a deque of ``[arrival_round, size, count]`` cells: runs
    of jobs that arrived in the same round with the same size.  All
    jobs of a round are interchangeable for response-time purposes
    (same arrival round, FIFO service, arbitrary intra-round order per
    the model's footnote 3), so unit jobs admitted together occupy one
    cell and draining them touches one cell per arrival round.  Only
    the head job can be partly served; ``_head_done`` counts its
    completed units.

    Attributes
    ----------
    units:
        Current queued work units (kept consistent by the methods).
    """

    __slots__ = ("_cells", "_head_done", "units")

    def __init__(self) -> None:
        self._cells: deque[list[int]] = deque()
        self._head_done = 0
        self.units = 0

    def admit(
        self, round_index: int, count: int, sizes: np.ndarray | None = None
    ) -> None:
        """Append ``count`` jobs that arrived in round ``round_index``.

        ``sizes`` gives the jobs' work units in FIFO order; ``None``
        means unit jobs.  Non-positive counts are a no-op.
        """
        if count <= 0:
            return
        cells = self._cells
        if sizes is None:
            cells.append([round_index, 1, int(count)])
            self.units += int(count)
            return
        for size in sizes.tolist():
            last = cells[-1] if cells else None
            if last is not None and last[0] == round_index and last[1] == size:
                last[2] += 1
            else:
                cells.append([round_index, size, 1])
            self.units += size

    def complete(
        self,
        capacity: int,
        now: int,
        histogram: ResponseTimeHistogram | None,
    ) -> int:
        """Serve up to ``capacity`` work units FIFO; returns units served.

        A job's response time is recorded when its last unit completes:
        a job arriving in round ``t`` and finishing in round ``now``
        spent ``now - t + 1`` rounds in the system (the minimum is one
        round: arrive, get dispatched, get served).  ``histogram`` may
        be ``None`` to discard the samples (used during warm-up).
        """
        if capacity <= 0 or self.units == 0:
            return 0
        budget = min(int(capacity), self.units)
        served = budget
        cells = self._cells
        while budget > 0:
            head = cells[0]
            arrived, size, count = head
            left = size - self._head_done
            if left > budget:
                self._head_done += budget
                break
            # The head job finishes, then as many whole jobs as fit.
            finished = 1 + min(count - 1, (budget - left) // size)
            budget -= left + (finished - 1) * size
            self._head_done = 0
            if histogram is not None:
                histogram.record(now - arrived + 1, finished)
            if finished == count:
                cells.popleft()
            else:
                head[2] -= finished
        self.units -= served
        return served

    def __len__(self) -> int:
        return self.units

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SizedServerQueue units={self.units} cells={len(self._cells)}>"


def _make_result(sim: "Simulation", state: RunState, probes: dict) -> "SimulationResult":
    """Assemble a SimulationResult from a finished kernel's accumulators."""
    from .engine import SimulationResult

    queue_series = probes.get("queue_series")
    return SimulationResult(
        policy_name=sim.policy.name,
        config=sim.config,
        histogram=probes["responses"].histogram,
        queue_series=queue_series.series if queue_series is not None else None,
        total_arrived=state.total_arrived,
        total_departed=int(state.server_departed.sum()),
        final_queued=int(state.queues.sum()),
        final_queues=state.queues,
        server_received=state.server_received,
        server_departed=state.server_departed,
        total_jobs=state.total_jobs if sim.sizes is not None else None,
        probes=probes,
    )


def _probe_context(sim: "Simulation") -> ProbeContext:
    """The run coordinates every probe of ``sim`` binds to."""
    return ProbeContext(
        num_servers=sim.rates.size,
        num_dispatchers=sim.arrivals.num_dispatchers,
        rates=sim.rates,
        rounds=sim.config.rounds,
        warmup=sim.config.warmup,
        sized=sim.sizes is not None,
    )


def _probe_set_for(sim: "Simulation") -> ProbeSet:
    """Default collectors plus the config's extra probes, bound to the run."""
    return build_probe_set(
        _probe_context(sim),
        sim.config.probes,
        track_queue_series=sim.config.track_queue_series,
    )


def _start(sim: "Simulation", controller: RunController | None) -> tuple[int, dict | None]:
    """``(start_round, resumed kernel state or None)`` for a kernel run."""
    if controller is None:
        return 0, None
    start_round = validate_start_round(
        controller.start_round, sim.config.rounds, BLOCK_ROUNDS
    )
    return start_round, controller.initial_state()


def _checked_row(
    policy, row: np.ndarray, num_jobs: int, n: int, round_index: int
) -> np.ndarray:
    """One ``dispatch`` row, refused unless it is ``(n,)``, sums to
    ``num_jobs`` and admits no negative count."""
    if row.shape != (n,):
        raise ValueError(
            f"{policy.name}.dispatch returned shape {row.shape}, expected ({n},)"
        )
    if int(row.sum()) != num_jobs:
        raise ValueError(
            f"{policy.name} assigned {int(row.sum())} jobs for a batch of {num_jobs}"
        )
    if row.min() < 0:
        s = int(np.argmax(row < 0))
        raise ValueError(
            f"{policy.name} admitted {int(row[s])} jobs to server {s} "
            f"in round {round_index}; admissions must be non-negative"
        )
    return row


@register_backend("reference")
class ReferenceBackend(EngineBackend):
    """The original per-dispatcher / per-server Python loop (bit-exact default).

    Every ``dispatch`` row is checked before it is admitted: shape
    ``(n,)``, summing to the dispatcher's batch, no negative count.
    """

    name = "reference"
    description = (
        "per-dispatcher dispatch calls and per-server queue objects; "
        "the simple, bit-exact default"
    )

    def run(
        self, sim: "Simulation", controller: RunController | None = None
    ) -> "SimulationResult":
        config = sim.config
        policy = sim.policy
        arrivals = sim.arrivals
        service = sim.service
        sizes = sim.sizes
        streams = sim._streams

        n = sim.rates.size
        m = arrivals.num_dispatchers
        start_round, state = _start(sim, controller)
        if state is not None:
            servers = state["servers"]
            probes = state["probes"]
            run = state["run"]
        else:
            servers = [SizedServerQueue() for _ in range(n)]
            probes = _probe_set_for(sim)
            run = RunState(n)
        queues = run.queues
        histogram = probes.histogram
        series = probes.queue_series
        # A fresh recorder is correct on resume: its buffer is empty at
        # every block boundary (it auto-flushes exactly there).
        recorder = BlockRecorder(probes, BLOCK_ROUNDS)
        tee = ResponseTee(probes, histogram) if probes.wants_responses else None

        for t in range(start_round, config.rounds):
            # Phase 1: arrivals.
            batch = arrivals.sample(streams.arrivals, t)
            round_total = int(batch.sum())
            run.total_jobs += round_total

            # Phase 2: dispatching (independent decisions, shared snapshot).
            policy.begin_round(t, queues)
            received = None
            if round_total:
                policy.observe_total_arrivals(round_total)
                jobs = np.zeros(n, dtype=np.int64)
                for d in range(m):
                    k = int(batch[d])
                    if k == 0:
                        continue
                    jobs += _checked_row(policy, policy.dispatch(d, k), k, n, t)
                # Sizes are workload randomness, drawn after placement
                # from their own stream server by server, so the
                # realized sizes do not depend on the policy.
                received = jobs if sizes is None else np.zeros(n, dtype=np.int64)
                for s in np.flatnonzero(jobs):
                    k = int(jobs[s])
                    if sizes is None:
                        servers[s].admit(t, k)
                    else:
                        drawn = sizes.sample(streams.sizes, k)
                        servers[s].admit(t, k, drawn)
                        received[s] = int(drawn.sum())
                queues += received
                run.server_received += received
                run.total_arrived += int(received.sum())

            # Phase 3: departures.
            capacities = service.sample(streams.departures, t)
            sink = histogram if t >= config.warmup else None
            if tee is not None and sink is not None:
                sink = tee
            done_row = (
                np.zeros(n, dtype=np.int64) if recorder.needs_done else None
            )
            busy = np.flatnonzero((queues > 0) & (capacities > 0))
            for s in busy:
                if tee is not None and sink is tee:
                    tee.server = int(s)
                done = servers[s].complete(int(capacities[s]), t, sink)
                queues[s] -= done
                run.server_departed[s] += done
                if done_row is not None:
                    done_row[s] = done

            policy.end_round(t, queues)
            if series is not None:
                series.record(int(queues.sum()))
            recorder.record(t, batch, received, done_row, queues)
            if tee is not None and sink is tee:
                tee.flush(t)
            if controller is not None and (t + 1) % BLOCK_ROUNDS == 0:
                controller.after_block(
                    t + 1,
                    lambda: {"servers": servers, "probes": probes, "run": run},
                )
        recorder.flush()
        return _make_result(sim, run, probes.as_dict())


@register_backend("fast")
class FastBackend(EngineBackend):
    """Vectorized round kernel: batch dispatching, block-resolved departures.

    Workload randomness is pre-sampled in blocks of
    :data:`~repro.sim.blockdriver.BLOCK_ROUNDS` rounds (numpy block draws consume the RNG streams exactly like
    per-round draws, so the realization is the one the reference backend
    sees).  Within a block, each round makes one ``dispatch_round`` call,
    which returns the round's per-server admissions -- native policies
    compute them with a few numpy operations, and the base
    implementation sums the same per-dispatcher ``dispatch`` rows the
    reference backend computes -- and steps only the per-server queue
    totals; queue-oblivious policies answer the whole block with one
    ``dispatch_rounds`` call and their queue totals come from the
    closed-form recurrence instead.  Either way the block ends in the
    driver's block tail, which derives completions, the queue series and
    the probes' queues from the block's queue trajectory.  The FIFO
    bookkeeping (which job departed when) is deferred and resolved for
    the whole block at once by the batch store's ``process_block``,
    including bulk histogram recording.
    """

    name = "fast"
    description = (
        "vectorized kernel: batch dispatch protocol, array-backed queues, "
        "block-resolved departures (bit-exact for deterministic policies)"
    )

    def _make_store(self, num_servers: int):
        """Subclass seam: which departure resolver backs a fresh run."""
        return BatchQueueStore(num_servers)

    def _round_kernel(self, sim: "Simulation"):
        """Subclass seam: an optional whole-block native round loop."""
        return None

    def run(
        self, sim: "Simulation", controller: RunController | None = None
    ) -> "SimulationResult":
        start_round, state = _start(sim, controller)
        if state is not None:
            store = state["store"]
            probes = state["probes"]
            run = state["run"]
        else:
            store = self._make_store(sim.rates.size)
            probes = _probe_set_for(sim)
            run = RunState(sim.rates.size)
        drive_blocks(
            sim,
            start_round=start_round,
            state=run,
            store=store,
            probes=probes,
            controller=controller,
            round_kernel=self._round_kernel(sim),
        )
        return _make_result(sim, run, probes.as_dict())


# The compiled and meanfield kernels register themselves on import;
# keep this at the bottom so the registry machinery above exists when
# they do.
from . import compiled  # noqa: E402,F401  (registration side effect)
from ..meanfield import backend as _meanfield  # noqa: E402,F401  (registration side effect)
