"""The sharded round kernel: one simulation across server-partitioned stores.

The fast kernel (:mod:`repro.sim.backends`) already splits each round
into a *dispatch* phase that needs only the per-server queue totals and
a *departure-resolution* phase
(``BatchQueueStore.process_block``) that is embarrassingly parallel
across servers.  This module exploits that split: the server axis is
partitioned into contiguous **shards**, each owning an independent batch
store and its own probe set, while a coordinator runs the round loop --
sampling the workload, dispatching against the **full global queue
view**, and exchanging per-round queue-length vectors -- exactly as the
fast kernel does.  Once per 256-round block the coordinator hands every
shard its slice of the admission/completion matrices; shards resolve
FIFO departures, record response times into their own histograms, and
reconstruct their queue slices independently.  End of run, shard probe
states fold back into global statistics via
:meth:`repro.sim.probes.Probe.merge_partition` (per-server arrays
concatenate, event multisets add).

Because all randomness and all policy decisions live in the coordinator,
the sharded kernel is **bit-identical to "fast"** for deterministic
policies at every shard count -- the partition changes where work is
resolved, never what happens.

Two execution strategies sit behind one shard-plan abstraction:

``serial``
    The deterministic in-process loop: shard workers are plain objects
    fed synchronously.  Zero IPC, runs anywhere (the 1-CPU CI
    container included), and the bit-identity reference for the
    process strategy.

``process``
    One worker process per shard, fed blocks over pipes (the same
    seed-stable pattern as :mod:`repro.experiments.executor`: workers
    hold no RNG, so scheduling cannot perturb results).  Departure
    resolution and probe accumulation overlap with the coordinator's
    dispatch loop; probe states return as ``state_dict`` payloads and
    fold exactly like the serial strategy's.

Probe routing: probes with ``partitionable = True`` (the default
collectors, ``server_stats``, ``windowed_mean``) replicate into every
shard and fold via ``merge_partition``; everything else -- e.g.
``dispatcher_stats``, ``herding``, and custom probes -- is fed the full
global block stream by the coordinator, unchanged from the fast kernel.
Response-event probes must be partitionable (the events exist only
inside the shards).

The kernel registers as ``"sharded"`` and parameterizes through the
name itself: ``sharded`` (2 shards, serial),
``sharded:4``, ``sharded:4:process``.  A
trailing ``:compiled`` token
(``sharded:4:compiled``, ``sharded:4:process:compiled``) swaps each
worker's departure resolver for the jitted walk of
:mod:`repro.sim.compiled` (numpy fallback per worker when numba is
missing) and, for unit jobs, runs the compiled whole-block round loop
in the coordinator for the policies that have one.

Every worker holds the one :class:`~repro.sim.batchstore.BatchQueueStore`,
for unit and sized jobs alike.  A sized block reaches each shard as its
columns of the job matrix plus its cut of the server-major sizes; the
cuts fall at the cumulative per-server job counts.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .backends import (
    EngineBackend,
    _make_result,
    _probe_context,
    _start,
    register_backend,
)
from .batchstore import BatchQueueStore
from .blockdriver import Block, RunState, drive_blocks
from .lifecycle import RunController
from .probes import (
    Probe,
    ProbeBlock,
    ProbeContext,
    ProbeSet,
    ProbeSpec,
    QueueSeriesProbe,
    ResponseTimeProbe,
    probe_from_state,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulation, SimulationResult

__all__ = [
    "ShardPlan",
    "ShardInit",
    "ShardWorker",
    "ShardStrategy",
    "SerialShardStrategy",
    "MultiprocessShardStrategy",
    "ShardedBackend",
    "resolve_shard_strategy",
    "split_probe_specs",
]


@dataclass(frozen=True)
class ShardPlan:
    """A partition of the server axis into contiguous, non-empty shards.

    ``bounds`` is the prefix form ``(0, n_1, ..., n)``: shard ``i`` owns
    the half-open server range ``[bounds[i], bounds[i+1])``.  Contiguity
    is what makes the fold order-preserving: concatenating shard arrays
    left to right restores the global server order.
    """

    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bounds) < 2 or self.bounds[0] != 0:
            raise ValueError("bounds must start at 0 and define >= 1 shard")
        if any(hi <= lo for lo, hi in zip(self.bounds, self.bounds[1:])):
            raise ValueError("shard bounds must be strictly increasing")

    @classmethod
    def balanced(cls, num_servers: int, shards: int) -> "ShardPlan":
        """Near-equal contiguous split; the shard count is clamped to
        the server count so every shard owns at least one server."""
        if num_servers < 1:
            raise ValueError("need at least one server")
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        shards = min(int(shards), int(num_servers))
        sizes = np.full(shards, num_servers // shards, dtype=np.int64)
        sizes[: num_servers % shards] += 1
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        return cls(bounds=tuple(int(x) for x in bounds))

    @property
    def num_shards(self) -> int:
        return len(self.bounds) - 1

    @property
    def num_servers(self) -> int:
        return self.bounds[-1]

    def ranges(self) -> list[tuple[int, int]]:
        """Per-shard ``(lo, hi)`` server ranges, in shard order."""
        return list(zip(self.bounds, self.bounds[1:]))


@dataclass(frozen=True)
class ShardInit:
    """Everything a shard worker needs, picklable for the process strategy.

    ``rates`` is the shard's own slice of the rate vector;  ``start`` is
    the global index of its first server (diagnostics only -- workers
    operate entirely in shard-local server coordinates).  ``sized``
    tells the shard's probes that work units are not jobs.  ``resolver``
    selects the departure-resolution implementation: ``"numpy"`` (the
    prefix-sum store) or ``"compiled"`` (the jitted walk, falling back to
    numpy per worker when numba is unavailable).
    """

    index: int
    start: int
    rates: np.ndarray
    num_dispatchers: int
    rounds: int
    warmup: int
    sized: bool
    track_queue_series: bool
    probe_specs: tuple[ProbeSpec, ...]
    resolver: str = "numpy"

    def probe_labels(self) -> tuple[str, ...]:
        """Labels of the worker's probes, in construction order."""
        labels = ["responses"]
        if self.track_queue_series:
            labels.append("queue_series")
        labels.extend(spec.label for spec in self.probe_specs)
        return tuple(labels)


class ShardWorker:
    """One shard's private state: a batch store plus a bound probe set.

    The same object serves both strategies -- the serial strategy calls
    it in-process, the process strategy hosts it in a child process.
    Workers see only shard-local arrays: ``received``/``done``/``jobs``
    slices of the coordinator's block matrices and, for sized jobs, the
    shard's cut of the server-major sizes.  Queue slices are
    reconstructed here from those deltas, so the per-block exchange
    stays minimal.
    """

    def __init__(self, init: ShardInit) -> None:
        n = int(init.rates.size)
        ctx = ProbeContext(
            num_servers=n,
            num_dispatchers=init.num_dispatchers,
            rates=init.rates,
            rounds=init.rounds,
            warmup=init.warmup,
            sized=init.sized,
        )
        pairs: list[tuple[str, Probe]] = [("responses", ResponseTimeProbe())]
        if init.track_queue_series:
            pairs.append(("queue_series", QueueSeriesProbe()))
        for spec in init.probe_specs:
            pairs.append((spec.label, spec.build()))
        self.warmup = init.warmup
        self.probes = ProbeSet(pairs, ctx)
        if init.resolver == "compiled":
            # Imported lazily: repro.sim.compiled registers backends and
            # must not be pulled in while the registries are mid-import.
            from .compiled import make_shard_store

            self.store = make_shard_store(n)
        else:
            self.store = BatchQueueStore(n)
        self.queues = np.zeros(n, dtype=np.int64)
        self._sink = (
            self.probes.observe_responses if self.probes.wants_responses else None
        )

    def _advance_queues(self, received: np.ndarray, done: np.ndarray) -> np.ndarray:
        """Replay the block's queue dynamics for this shard's slice."""
        queue_block = np.cumsum(received - done, axis=0)
        queue_block += self.queues
        self.queues = queue_block[-1].copy()
        series = self.probes.queue_series
        if series is not None:
            series.record_many(queue_block.sum(axis=1))
        return queue_block

    def process_block(
        self,
        start_round: int,
        received: np.ndarray,
        done: np.ndarray,
        jobs: np.ndarray,
        sizes: np.ndarray | None,
    ) -> None:
        """Resolve one block of this shard's FIFO departures.

        ``jobs`` is the shard's ``(length, n)`` admitted jobs (``received``
        itself for unit jobs) and ``sizes`` their sizes, server-major, or
        ``None`` for unit jobs.
        """
        queue_block = self._advance_queues(received, done)
        self.store.process_block(
            start_round,
            jobs,
            sizes,
            done,
            self.probes.histogram,
            self.warmup,
            self._sink,
        )
        self._observe(start_round, received, done, queue_block)

    def _observe(
        self,
        start_round: int,
        received: np.ndarray,
        done: np.ndarray,
        queue_block: np.ndarray,
    ) -> None:
        if not self.probes.wants_blocks:
            return
        fields = self.probes.fields
        self.probes.observe_block(
            ProbeBlock(
                start_round=start_round,
                length=received.shape[0],
                batch=None,  # dispatcher axis; partitionable probes never ask
                received=received if "received" in fields else None,
                done=done if "done" in fields else None,
                queues=queue_block if "queues" in fields else None,
            )
        )

    def probe_states(self) -> list[dict]:
        """``state_dict`` of every probe, in :meth:`ShardInit.probe_labels` order."""
        return [probe.state_dict() for probe in self.probes.as_dict().values()]

    def snapshot_state(self) -> dict:
        """Everything that varies over a run, for block-aligned checkpoints.

        Returns live references (serial strategy) or the payload that
        crosses the pipe (process strategy); either way the caller
        serializes before the worker processes another block.
        """
        return {
            "store": self.store,
            "queues": self.queues,
            "probes": self.probes,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` payload (resume mid-run)."""
        self.store = state["store"]
        self.queues = state["queues"]
        self.probes = state["probes"]
        self._sink = (
            self.probes.observe_responses if self.probes.wants_responses else None
        )


def split_probe_specs(
    specs: Sequence["str | ProbeSpec"],
) -> tuple[tuple[ProbeSpec, ...], tuple[ProbeSpec, ...]]:
    """Route each extra probe to the shards or the coordinator.

    Returns ``(shard_specs, coordinator_specs)``.  A probe rides inside
    the shards iff its class opts in via ``Probe.partitionable`` (its
    state then folds through ``merge_partition``); everything else runs
    in the coordinator against the full global block stream, exactly as
    on the fast kernel.  Two shapes cannot work and raise here:
    partitionable probes reading the ``batch`` field (it has no server
    axis to slice) and non-partitionable probes wanting response events
    (those exist only inside the shards).
    """
    shard_specs: list[ProbeSpec] = []
    coordinator_specs: list[ProbeSpec] = []
    for spec in specs:
        spec = ProbeSpec.of(spec)
        prototype = spec.build()
        if prototype.partitionable:
            if "batch" in prototype.fields:
                raise ValueError(
                    f"probe {spec.label!r} is partitionable but reads the "
                    f"'batch' block field, which has no server axis to "
                    f"partition across shards"
                )
            shard_specs.append(spec)
        elif prototype.wants_responses:
            raise ValueError(
                f"probe {spec.label!r} wants response events but is not "
                f"partitionable; on the sharded backend response events are "
                f"recorded inside the shards, so such probes must define a "
                f"partition-safe merge and set partitionable = True"
            )
        else:
            coordinator_specs.append(spec)
    return tuple(shard_specs), tuple(coordinator_specs)


# ---------------------------------------------------------------------------
# Execution strategies.
# ---------------------------------------------------------------------------


class ShardStrategy(ABC):
    """Where shard workers live and how the per-block exchange reaches them."""

    #: Parameter name, e.g. ``"serial"`` in ``sharded:4:serial``.
    name: str = "abstract"

    @abstractmethod
    def start(
        self,
        inits: Sequence[ShardInit],
        states: Sequence[dict] | None = None,
    ) -> None:
        """Materialize one worker per :class:`ShardInit`.

        ``states`` (one :meth:`ShardWorker.snapshot_state` payload per
        shard, from a checkpoint) restores each worker mid-run.
        """

    @abstractmethod
    def feed(self, shard: int, payload: tuple) -> None:
        """Hand one block's shard-local arrays to a worker.

        ``payload`` is the positional argument tuple of
        :meth:`ShardWorker.process_block`.
        """

    @abstractmethod
    def snapshot(self) -> list[dict]:
        """Every shard's :meth:`ShardWorker.snapshot_state`, in shard order.

        Synchronous: a worker answers only after consuming every block
        fed so far, so the snapshot is exactly the state at the current
        block boundary.  Serial-strategy payloads are live references --
        serialize before feeding another block.
        """

    @abstractmethod
    def finish(self) -> list[dict[str, Probe]]:
        """Collect every shard's probes as label -> probe maps."""

    def close(self) -> None:
        """Release workers (idempotent; called on success and failure)."""


class SerialShardStrategy(ShardStrategy):
    """In-process shard loop: deterministic, zero IPC.

    The strategy the 1-CPU CI container exercises, and the reference
    the process strategy must reproduce exactly (workers run identical
    integer arithmetic either way).
    """

    name = "serial"

    def start(
        self,
        inits: Sequence[ShardInit],
        states: Sequence[dict] | None = None,
    ) -> None:
        self._workers = [ShardWorker(init) for init in inits]
        if states is not None:
            for worker, state in zip(self._workers, states):
                worker.restore_state(state)

    def feed(self, shard: int, payload: tuple) -> None:
        self._workers[shard].process_block(*payload)

    def snapshot(self) -> list[dict]:
        return [worker.snapshot_state() for worker in self._workers]

    def finish(self) -> list[dict[str, Probe]]:
        return [worker.probes.as_dict() for worker in self._workers]


def _shard_worker_main(conn, init: ShardInit) -> None:
    """Child-process loop of the process strategy (module-level: picklable)."""
    try:
        worker = ShardWorker(init)
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "block":
                worker.process_block(*message[1:])
            elif kind == "restore":
                worker.restore_state(message[1])
            elif kind == "snapshot":
                conn.send(("state", worker.snapshot_state()))
            elif kind == "finish":
                conn.send(("done", worker.probe_states()))
                return
            else:  # pragma: no cover - defensive; parent sends only the above
                raise RuntimeError(f"unknown shard message {kind!r}")
    except EOFError:  # pragma: no cover - parent died; nothing to report to
        pass
    except BaseException as error:
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except OSError:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


#: Feeder-thread shutdown sentinel (identity-compared, never pickled).
_STOP = object()


class MultiprocessShardStrategy(ShardStrategy):
    """One worker process per shard, fed blocks over an async pipeline.

    Seed-stable by the same construction as the experiment executor's
    process pool: workers hold no RNG and no policy state -- every
    random draw and every dispatch decision happens in the coordinator
    -- so scheduling and interleaving cannot perturb any result; the
    probe states that come back are the ones the serial strategy
    produces, moved through ``state_dict`` (exact integer payloads).

    ``feed`` never blocks on the pipe: each shard gets a daemon feeder
    thread draining a small bounded queue, so the coordinator starts
    dispatching round ``t+1`` while shards still resolve block ``t`` --
    ``Connection.send`` of a multi-megabyte block would otherwise stall
    the coordinator whenever a block outgrows the OS pipe buffer.  The
    queue bound (a few blocks) keeps backpressure: a dead-slow shard
    still throttles the coordinator instead of accumulating blocks in
    memory.  Feeder threads are the **only** block senders; control
    messages (restore/snapshot/finish) go from the coordinator thread
    strictly after :meth:`_drain` proves the feeder idle, so exactly one
    thread writes a pipe at any time.  Send failures are recorded, not
    raised, in the feeder (it keeps draining so ``join`` cannot hang)
    and surface on the next ``feed``/``snapshot``/``finish``.
    """

    name = "process"

    #: Blocks a shard's feeder queue may hold before ``feed`` blocks.
    PIPELINE_DEPTH = 4

    def start(
        self,
        inits: Sequence[ShardInit],
        states: Sequence[dict] | None = None,
    ) -> None:
        context = multiprocessing.get_context()
        self._inits = list(inits)
        self._conns = []
        self._processes = []
        for init in inits:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main, args=(child_conn, init), daemon=True
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)
        if states is not None:
            for shard, state in enumerate(states):
                try:
                    self._conns[shard].send(("restore", state))
                except (BrokenPipeError, OSError):
                    self._raise_shard_failure(shard)
        # Feeders start only after any restore: no block may precede it.
        self._send_errors: list[BaseException | None] = [None] * len(
            self._inits
        )
        self._queues = [
            queue.Queue(maxsize=self.PIPELINE_DEPTH) for _ in self._inits
        ]
        self._feeders = []
        for shard, (feed_queue, conn) in enumerate(
            zip(self._queues, self._conns)
        ):
            thread = threading.Thread(
                target=self._feeder_main,
                args=(shard, feed_queue, conn),
                name=f"shard-feeder-{shard}",
                daemon=True,
            )
            thread.start()
            self._feeders.append(thread)

    def _feeder_main(self, shard: int, feed_queue, conn) -> None:
        while True:
            item = feed_queue.get()
            try:
                if item is _STOP:
                    return
                if self._send_errors[shard] is None:
                    try:
                        conn.send(item)
                    except (BrokenPipeError, OSError) as error:
                        self._send_errors[shard] = error
            finally:
                feed_queue.task_done()

    def _drain(self, shard: int) -> None:
        """Wait until shard's feeder is idle; surface any send failure."""
        self._queues[shard].join()
        if self._send_errors[shard] is not None:
            self._raise_shard_failure(shard)

    def feed(self, shard: int, payload: tuple) -> None:
        if self._send_errors[shard] is not None:
            self._raise_shard_failure(shard)
        self._queues[shard].put(("block",) + payload)

    def snapshot(self) -> list[dict]:
        states: list[dict] = []
        for shard, conn in enumerate(self._conns):
            self._drain(shard)
            try:
                conn.send(("snapshot",))
                kind, payload = conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                self._raise_shard_failure(shard)
            if kind == "error":
                raise RuntimeError(f"shard {shard} failed: {payload}")
            states.append(payload)
        return states

    def finish(self) -> list[dict[str, Probe]]:
        shard_maps: list[dict[str, Probe]] = []
        for shard, conn in enumerate(self._conns):
            self._drain(shard)
            try:
                conn.send(("finish",))
                kind, payload = conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                self._raise_shard_failure(shard)
            if kind == "error":
                raise RuntimeError(f"shard {shard} failed: {payload}")
            labels = self._inits[shard].probe_labels()
            shard_maps.append(
                {
                    label: probe_from_state(state)
                    for label, state in zip(labels, payload)
                }
            )
        return shard_maps

    def _raise_shard_failure(self, shard: int) -> None:
        detail = ""
        try:
            if self._conns[shard].poll(1.0):
                kind, payload = self._conns[shard].recv()
                if kind == "error":
                    detail = f": {payload}"
        except (EOFError, OSError):
            pass
        raise RuntimeError(f"shard {shard} worker died{detail}")

    def close(self) -> None:
        # Conns first: a feeder blocked mid-send fails fast instead of
        # waiting on a worker that will never drain the pipe.
        for conn in getattr(self, "_conns", ()):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for feed_queue in getattr(self, "_queues", ()):
            feed_queue.put(_STOP)
        for thread in getattr(self, "_feeders", ()):
            thread.join(timeout=5)
        for process in getattr(self, "_processes", ()):
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        self._conns = []
        self._processes = []
        self._queues = []
        self._feeders = []


_STRATEGIES = {
    SerialShardStrategy.name: SerialShardStrategy,
    MultiprocessShardStrategy.name: MultiprocessShardStrategy,
}

def resolve_shard_strategy(name: str) -> type[ShardStrategy]:
    """Strategy class for a registry-grammar token."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(_STRATEGIES))
        raise ValueError(
            f"unknown shard strategy {name!r}; known strategies: {known}"
        ) from None


def _fold_shards(shard_maps: list[dict[str, Probe]]) -> dict[str, Probe]:
    """Fold shard probe maps left to right via ``merge_partition``."""
    first, *rest = shard_maps
    for other in rest:
        for label, probe in first.items():
            probe.merge_partition(other[label])
    return first


# ---------------------------------------------------------------------------
# The sharded kernel.
# ---------------------------------------------------------------------------


class _ShardedParams:
    """Constructor and registry-parameter parsing of the sharded kernel."""

    def __init__(
        self,
        shards: int = 2,
        strategy: str = "serial",
        resolver: str = "numpy",
    ) -> None:
        shards = int(shards)
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        resolve_shard_strategy(strategy)  # fail fast with the known list
        if resolver not in ("numpy", "compiled"):
            raise ValueError(
                f"unknown shard resolver {resolver!r}; "
                f"known resolvers: compiled, numpy"
            )
        self.shards = shards
        self.strategy = strategy
        self.resolver = resolver

    @classmethod
    def from_param(cls, param: str):
        """Registry-name parameters: ``"4"``, ``"4:process"``,
        ``"4:compiled"``, ``"4:process:compiled"``.

        A trailing ``compiled`` token selects the compiled departure
        resolver (and, for unit jobs, the compiled coordinator round loop);
        any other token in strategy position is validated as a strategy,
        so ``sharded:2:quantum`` still reports an unknown strategy.
        """
        parts = param.split(":")
        try:
            shards = int(parts[0])
        except ValueError:
            raise ValueError(
                f"invalid shard count {parts[0]!r}; parameterize as "
                f"'sharded:N' or 'sharded:N:serial|process'"
            ) from None
        rest = [token for token in parts[1:] if token]
        resolver = "numpy"
        if rest and rest[-1] == "compiled":
            resolver = "compiled"
            rest = rest[:-1]
        if len(rest) > 1:
            raise ValueError(
                f"too many shard parameters in {param!r}; parameterize as "
                f"'sharded:N[:serial|process][:compiled]'"
            )
        strategy = rest[0] if rest else "serial"
        return cls(shards=shards, strategy=strategy, resolver=resolver)

    def _shard_inits(
        self,
        plan: ShardPlan,
        rates: np.ndarray,
        num_dispatchers: int,
        rounds: int,
        warmup: int,
        sized: bool,
        track_queue_series: bool,
        probe_specs: tuple[ProbeSpec, ...],
    ) -> list[ShardInit]:
        return [
            ShardInit(
                index=index,
                start=lo,
                rates=rates[lo:hi].copy(),
                num_dispatchers=num_dispatchers,
                rounds=rounds,
                warmup=warmup,
                sized=sized,
                track_queue_series=track_queue_series,
                probe_specs=probe_specs,
                resolver=self.resolver,
            )
            for index, (lo, hi) in enumerate(plan.ranges())
        ]

    def _round_kernel(self, sim):
        """Subclass/param seam: an optional whole-block native round loop.

        With the ``compiled`` resolver and live jitted paths, the
        coordinator also runs the compiled whole-block round loop for
        the policies that have one -- same rule as the ``compiled``
        backend, so sharded results stay bit-identical.
        """
        if self.resolver != "compiled":
            return None
        from . import compiled

        if not (compiled.numba_enabled() or compiled._FORCE_STORES):
            return None
        return compiled.compiled_round_kernel_for(sim.policy)

    @staticmethod
    def _assemble_probes(
        config_specs: tuple[ProbeSpec, ...],
        folded: dict[str, Probe],
        coordinator: dict[str, Probe],
    ) -> dict[str, Probe]:
        """Final label -> probe map in the fast kernel's order."""
        probes = {"responses": folded["responses"]}
        if "queue_series" in folded:
            probes["queue_series"] = folded["queue_series"]
        for spec in config_specs:
            label = ProbeSpec.of(spec).label
            probes[label] = folded[label] if label in folded else coordinator[label]
        return probes


@register_backend("sharded")
class ShardedBackend(_ShardedParams, EngineBackend):
    """Server-partitioned fast kernel (see the module docstring).

    The round loop is the fast kernel's, verbatim: identical RNG
    consumption, identical dispatch calls, identical queue arithmetic
    -- only the block resolution and the partitionable probes are
    pushed into the shards.  Sized blocks reach each shard with their
    server-major sizes cut at the shard bounds.  Bit-identical to
    ``"fast"`` for deterministic policies at every shard count and under
    either strategy.
    """

    name = "sharded"
    description = (
        "server-partitioned fast kernel: per-shard batch stores and probe "
        "sets, folded via Probe.merge_partition; parameterize as "
        "sharded:N[:serial|process] (bit-exact vs fast for deterministic "
        "policies)"
    )

    def run(
        self, sim: "Simulation", controller: RunController | None = None
    ) -> "SimulationResult":
        config = sim.config
        n = sim.rates.size
        plan = ShardPlan.balanced(n, self.shards)
        ranges = plan.ranges()
        bounds = np.asarray(plan.bounds, dtype=np.int64)
        shard_specs, coordinator_specs = split_probe_specs(config.probes)
        start_round, state = _start(sim, controller)
        if state is not None:
            coordinator_probes = state["coordinator_probes"]
            run = state["run"]
            shard_states = state["shards"]
        else:
            coordinator_probes = ProbeSet(
                [(spec.label, spec.build()) for spec in coordinator_specs],
                _probe_context(sim),
            )
            run = RunState(n)
            shard_states = None
        strategy = resolve_shard_strategy(self.strategy)()

        def consume(block: Block) -> None:
            # The per-block exchange: each shard gets its slice of the
            # admission/completion matrices (its queue slice and series
            # follow from those deltas worker-side) and, sized, its jobs
            # and their sizes, cut at the cumulative per-server job counts.
            sizes = block.sizes
            if sizes is not None:
                server_jobs = np.cumsum(block.jobs_block.sum(axis=0))
                cuts = np.concatenate(([0], server_jobs))[bounds]
            for index, (lo, hi) in enumerate(ranges):
                received = block.received[:, lo:hi]
                jobs, shard_sizes = received, None
                if sizes is not None:
                    jobs = block.jobs_block[:, lo:hi]
                    shard_sizes = sizes[cuts[index] : cuts[index + 1]]
                strategy.feed(
                    index,
                    (
                        block.start_round,
                        received,
                        block.done[:, lo:hi],
                        jobs,
                        shard_sizes,
                    ),
                )

        def export_state() -> dict:
            return {
                "coordinator_probes": coordinator_probes,
                "run": run,
                "shards": strategy.snapshot(),
            }

        try:
            strategy.start(
                self._shard_inits(
                    plan,
                    sim.rates,
                    sim.arrivals.num_dispatchers,
                    config.rounds,
                    config.warmup,
                    sized=sim.sizes is not None,
                    track_queue_series=config.track_queue_series,
                    probe_specs=shard_specs,
                ),
                states=shard_states,
            )
            drive_blocks(
                policy=sim.policy,
                arrivals=sim.arrivals,
                service=sim.service,
                sizes=sim.sizes,
                streams=sim._streams,
                rounds=config.rounds,
                start_round=start_round,
                state=run,
                block_probes=coordinator_probes,
                series=None,  # shard workers record their own slices
                consume=consume,
                controller=controller,
                export_state=export_state,
                round_kernel=self._round_kernel(sim),
            )
            folded = _fold_shards(strategy.finish())
        finally:
            strategy.close()

        probes = self._assemble_probes(
            config.probes, folded, coordinator_probes.as_dict()
        )
        return _make_result(sim, run, probes)
