"""Pluggable observability probes: declarative per-experiment metrics.

The engines used to hardwire exactly two collectors -- the response-time
histogram and the total-queue series -- into their results, so every new
question about a run (per-server utilization, herding, windowed trends)
meant engine surgery.  This module makes observability a first-class,
registry-backed axis instead:

* A :class:`Probe` accumulates one family of statistics.  Every round
  kernel -- reference or fast, unit or sized jobs -- feeds
  probes through the same *block-shaped* interface: a :class:`ProbeBlock` of per-round
  arrival counts, per-server admissions, completions and end-of-round
  queue snapshots, plus (for probes that ask) the recorded response
  times stamped with their departure rounds.  Probes are serializable
  (:meth:`Probe.state_dict` / :meth:`Probe.from_state`), which is what
  JSON persistence needs.
* A registry (:func:`register_probe` / :func:`make_probe`) mirrors the
  policy and backend registries, so experiments and the CLI select
  probes as plain strings; :class:`ProbeSpec` freezes a name plus
  constructor kwargs into a picklable, hashable cell coordinate.
* The two legacy collectors live on as the *default probe set*
  (``"responses"`` and ``"queue_series"``): every simulation carries
  them, results expose the same ``histogram`` / ``queue_series``
  objects, and default runs are bit-identical to the pre-probe engine.

Built-in probes beyond the defaults: ``server_stats`` (per-server queue
distribution, utilization, idle fraction), ``dispatcher_stats``
(per-dispatcher batch statistics), ``windowed_mean`` (response-time
means over round windows), ``windowed_stability`` (total-queue means
over round windows, the drift signal for nonstationary scenarios) and
``herding`` (per-round co-targeting spikes, the paper's
coordination-failure mechanism).

Custom probes subclass :class:`Probe`, override :meth:`Probe.on_round`
(simple, per-round) or :meth:`Probe.observe_block` (vectorized), and
register under a name; ``SimulationConfig(probes=[...])`` and
``Experiment(metrics=[...])`` then accept them like any built-in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._registry import BackendRegistry
from .metrics import QueueLengthSeries, ResponseTimeHistogram, restored_int64

__all__ = [
    "PROBE_FIELDS",
    "DEFAULT_PROBE_LABELS",
    "ProbeContext",
    "ProbeBlock",
    "Probe",
    "ProbeSpec",
    "ProbeSet",
    "BlockRecorder",
    "ResponseTee",
    "register_probe",
    "make_probe",
    "available_probes",
    "probe_descriptions",
    "probe_from_state",
    "build_probe_set",
    "ResponseTimeProbe",
    "QueueSeriesProbe",
    "ServerStatsProbe",
    "ServerResponseStatsProbe",
    "DispatcherStatsProbe",
    "WindowedMeanProbe",
    "WindowedStabilityProbe",
    "HerdingSignalProbe",
]

#: Block arrays a probe may request via :attr:`Probe.fields`.  Kernels
#: materialize only the union of the active probes' fields.
PROBE_FIELDS = frozenset({"batch", "received", "done", "queues"})

#: Labels of the probes every simulation carries (the legacy collectors
#: re-homed).  Their statistics surface through the result's dedicated
#: ``histogram`` / ``queue_series`` fields and the legacy metric keys,
#: never through namespaced ``<probe>.<key>`` metrics.
DEFAULT_PROBE_LABELS = ("responses", "queue_series")


@dataclass(frozen=True)
class ProbeContext:
    """Immutable run coordinates handed to every probe at bind time.

    ``sized`` flags a run whose jobs carry sizes: there ``received``,
    ``done`` and ``queues`` count work units while ``batch`` still
    counts jobs, and ``rates`` are unit capacities -- so utilization
    and queue statistics keep their meaning unchanged.
    """

    num_servers: int
    num_dispatchers: int
    rates: np.ndarray
    rounds: int
    warmup: int = 0
    sized: bool = False


@dataclass(frozen=True)
class ProbeBlock:
    """One block of rounds, as parallel per-round arrays.

    Arrays not requested by any active probe are ``None``; the rest are
    only valid for the duration of the :meth:`Probe.observe_block` call
    (kernels reuse the buffers), so probes must reduce, not retain.
    """

    start_round: int
    length: int
    #: ``(length, num_dispatchers)`` jobs each dispatcher received.
    batch: np.ndarray | None = None
    #: ``(length, num_servers)`` jobs/units admitted per server.
    received: np.ndarray | None = None
    #: ``(length, num_servers)`` jobs/units completed per server.
    done: np.ndarray | None = None
    #: ``(length, num_servers)`` end-of-round queue lengths.
    queues: np.ndarray | None = None


class Probe(ABC):
    """One family of run statistics, fed block-wise by the round kernels.

    Life-cycle: constructed fresh per run (from a :class:`ProbeSpec`),
    :meth:`bind`-ed once with the :class:`ProbeContext`, then fed via
    :meth:`observe_block` (and :meth:`observe_responses` when
    :attr:`wants_responses`); afterwards :meth:`summary` reports flat
    floats, and :meth:`state_dict` / :meth:`from_state` move state
    across processes and files.

    Subclasses declare :attr:`fields` -- the block arrays they read --
    so kernels skip materializing everything else.  The default is all
    fields, which keeps naive custom probes correct; built-ins narrow
    it.  Override :meth:`on_round` for a simple per-round probe or
    :meth:`observe_block` for a vectorized one.
    """

    #: Registry name (set by :func:`register_probe`).
    name: str = "abstract"
    #: One-line description shown by ``repro probes``.
    description: str = ""
    #: Which :class:`ProbeBlock` arrays this probe reads.  An
    #: empty-fields probe that overrides a block hook still receives
    #: blocks (with all arrays ``None``) -- only round indices/lengths.
    fields: frozenset[str] = PROBE_FIELDS
    #: True to receive recorded response times via ``observe_responses``.
    wants_responses: bool = False
    #: Attributes holding int64 ``ufunc.at`` targets, re-based on
    #: numpy's own dtype when a pickled probe is restored (see
    #: :func:`~repro.sim.metrics.restored_int64`).
    _at_targets: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.ctx: ProbeContext | None = None

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in self._at_targets:
            setattr(self, name, restored_int64(getattr(self, name)))

    def bind(self, ctx: ProbeContext) -> None:
        """Attach run coordinates; subclasses allocate state here."""
        if self.ctx is not None:
            raise RuntimeError(
                f"probe {self.name!r} is already bound; probes are "
                f"single-run objects -- build a fresh one per simulation"
            )
        self.ctx = ctx

    # -- feeding -----------------------------------------------------------

    def observe_block(self, block: ProbeBlock) -> None:
        """Fold in one block of rounds (default: loop :meth:`on_round`)."""
        for i in range(block.length):
            self.on_round(
                block.start_round + i,
                None if block.batch is None else block.batch[i],
                None if block.received is None else block.received[i],
                None if block.done is None else block.done[i],
                None if block.queues is None else block.queues[i],
            )

    def on_round(
        self,
        round_index: int,
        batch: np.ndarray | None,
        received: np.ndarray | None,
        done: np.ndarray | None,
        queues: np.ndarray | None,
    ) -> None:
        """Per-round hook for simple probes (rows of the block arrays)."""

    def observe_responses(
        self,
        rounds: np.ndarray,
        times: np.ndarray,
        counts: np.ndarray,
        servers: np.ndarray,
    ) -> None:
        """Recorded response times: ``counts[i]`` jobs took ``times[i]``
        rounds, departed in round ``rounds[i]`` and were served by
        server ``servers[i]`` (post-warmup only)."""

    # -- reporting / state -------------------------------------------------

    @abstractmethod
    def summary(self) -> dict[str, float]:
        """Flat headline statistics (floats; NaN where undefined)."""

    def probe_kwargs(self) -> dict:
        """Constructor kwargs needed to rebuild this probe (JSON-able)."""
        return {}

    @abstractmethod
    def get_state(self) -> dict:
        """Accumulated state as a JSON-able dict."""

    @abstractmethod
    def set_state(self, state: dict) -> None:
        """Restore accumulated state written by :meth:`get_state`."""

    def state_dict(self) -> dict:
        """Self-contained JSON-able snapshot (name + kwargs + state)."""
        return {
            "name": self.name,
            "kwargs": self.probe_kwargs(),
            "state": self.get_state(),
        }

    @classmethod
    def from_state(cls, payload: dict) -> "Probe":
        """Rebuild a probe from :meth:`state_dict` output (unbound;
        ready for :meth:`summary`)."""
        probe = cls(**(payload.get("kwargs") or {}))
        probe.set_state(payload.get("state") or {})
        return probe

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------------
# Registry (the shared BackendRegistry machinery, like the engine
# backends -- same case handling, duplicate detection and error shapes).
# ---------------------------------------------------------------------------

_REGISTRY: BackendRegistry[Probe] = BackendRegistry("probe", "probes", Probe)


def register_probe(name: str) -> Callable[[type], type]:
    """Class decorator registering a :class:`Probe` under ``name``."""
    inner = _REGISTRY.register(name)

    def decorator(cls: type) -> type:
        if not (isinstance(cls, type) and issubclass(cls, Probe)):
            raise TypeError(f"{cls!r} is not a Probe subclass")
        cls.name = name.lower()
        return inner(cls)

    return decorator


def make_probe(spec: "str | ProbeSpec | Probe", **kwargs) -> Probe:
    """Instantiate a probe from a registry name (or pass one through)."""
    if isinstance(spec, ProbeSpec):
        if kwargs:
            raise ValueError("cannot pass kwargs with a ProbeSpec")
        return spec.build()
    return _REGISTRY.make(spec, **kwargs)


#: Names accepted by :func:`make_probe`, sorted.
available_probes = _REGISTRY.available
#: Name -> one-line description, for CLI listings.
probe_descriptions = _REGISTRY.descriptions


def probe_from_state(payload: dict) -> Probe:
    """Rebuild any registered probe from its :meth:`Probe.state_dict`."""
    return _REGISTRY.factory(payload.get("name") or "").from_state(payload)


@dataclass(frozen=True)
class ProbeSpec:
    """A probe registry name plus frozen constructor kwargs.

    The declarative, picklable form probes take inside
    ``SimulationConfig`` and ``Experiment`` cells (mirroring
    ``PolicySpec``); each run builds fresh probe instances from it.
    """

    name: str
    kwargs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise TypeError("probe name must be a non-empty registry name")
        # Registry lookups are case-insensitive; normalize here so the
        # duplicate-label and default-collector guards cannot be dodged
        # by case variants.
        object.__setattr__(self, "name", self.name.lower())
        if isinstance(self.kwargs, dict):
            object.__setattr__(self, "kwargs", tuple(sorted(self.kwargs.items())))

    @classmethod
    def of(cls, spec: "str | ProbeSpec | Probe", **kwargs) -> "ProbeSpec":
        """Coerce a string (optionally with kwargs) or probe into a spec.

        A :class:`Probe` instance reduces to its registry name plus
        constructor kwargs -- the spec describes *what to build fresh
        each run*, never the instance's accumulated state.
        """
        if isinstance(spec, ProbeSpec):
            if kwargs:
                raise ValueError("cannot add kwargs to an existing ProbeSpec")
            return spec
        if isinstance(spec, Probe):
            if kwargs:
                raise ValueError("cannot add kwargs to a probe instance")
            return cls(
                name=spec.name, kwargs=tuple(sorted(spec.probe_kwargs().items()))
            )
        if not isinstance(spec, str):
            raise TypeError(
                f"probe spec must be a registry name, ProbeSpec or Probe, "
                f"got {type(spec).__name__}"
            )
        return cls(name=spec, kwargs=tuple(sorted(kwargs.items())))

    @property
    def label(self) -> str:
        """Identity used in result dicts and metric-key prefixes."""
        if not self.kwargs:
            return self.name
        params = ",".join(f"{k}={v}" for k, v in self.kwargs)
        return f"{self.name}[{params}]"

    def build(self) -> Probe:
        """Instantiate a fresh (unbound) probe."""
        return make_probe(self.name, **dict(self.kwargs))


# ---------------------------------------------------------------------------
# The probe set: what a round kernel actually drives.
# ---------------------------------------------------------------------------


class ProbeSet:
    """All probes of one run, bound and indexed for the kernels.

    Exposes the union of the probes' needs (:attr:`fields`,
    :attr:`wants_responses`) so kernels materialize exactly the arrays
    someone is listening to, plus the default collectors' underlying
    objects (:attr:`histogram`, :attr:`queue_series`) for the engines'
    in-line recording fast path.
    """

    def __init__(
        self, probes: Sequence[tuple[str, Probe]], ctx: ProbeContext
    ) -> None:
        labels = [label for label, _ in probes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate probe labels: {labels}")
        self._probes: tuple[tuple[str, Probe], ...] = tuple(probes)
        self.ctx = ctx
        for _, probe in self._probes:
            probe.bind(ctx)
        # A probe joins the block feed when it declares fields OR
        # overrides a block hook (an empty-fields probe may still want
        # round indices/lengths -- it then receives all-None arrays).
        self._block_probes = tuple(
            p
            for _, p in self._probes
            if p.fields
            or type(p).observe_block is not Probe.observe_block
            or type(p).on_round is not Probe.on_round
        )
        self._response_probes = tuple(
            p for _, p in self._probes if p.wants_responses
        )
        self.fields: frozenset[str] = frozenset().union(
            *(p.fields for p in self._block_probes)
        ) if self._block_probes else frozenset()
        unknown = self.fields - PROBE_FIELDS
        if unknown:
            raise ValueError(f"probes request unknown block fields: {sorted(unknown)}")
        self.wants_blocks = bool(self._block_probes)
        self.wants_responses = bool(self._response_probes)
        self.histogram: ResponseTimeHistogram | None = None
        self.queue_series: QueueLengthSeries | None = None
        for _, probe in self._probes:
            if isinstance(probe, ResponseTimeProbe) and self.histogram is None:
                self.histogram = probe.histogram
            if isinstance(probe, QueueSeriesProbe) and self.queue_series is None:
                self.queue_series = probe.series

    def observe_block(self, block: ProbeBlock) -> None:
        """Fan one block out to every block-observing probe."""
        for probe in self._block_probes:
            probe.observe_block(block)

    def observe_responses(
        self,
        rounds: np.ndarray,
        times: np.ndarray,
        counts: np.ndarray,
        servers: np.ndarray,
    ) -> None:
        """Fan recorded response times out to the interested probes."""
        if np.asarray(times).size == 0:
            return
        for probe in self._response_probes:
            probe.observe_responses(rounds, times, counts, servers)

    def as_dict(self) -> dict[str, Probe]:
        """Label -> probe mapping, in declaration order (for results)."""
        return dict(self._probes)


def build_probe_set(
    ctx: ProbeContext,
    specs: Sequence["str | ProbeSpec"] = (),
    track_queue_series: bool = True,
) -> ProbeSet:
    """The default probe set plus per-run extras, bound to ``ctx``.

    Every run carries the ``responses`` probe (the response-time
    histogram) and -- unless ``track_queue_series`` is off -- the
    ``queue_series`` probe, exactly the two collectors the engines
    always had; ``specs`` appends the declaratively requested extras.
    """
    pairs: list[tuple[str, Probe]] = [("responses", ResponseTimeProbe())]
    if track_queue_series:
        pairs.append(("queue_series", QueueSeriesProbe()))
    for spec in specs:
        spec = ProbeSpec.of(spec)
        pairs.append((spec.label, spec.build()))
    return ProbeSet(pairs, ctx)


class BlockRecorder:
    """Accumulates a reference loop's per-round rows into probe blocks.

    The reference kernels produce one row per round; this buffer stores
    only the fields the active probes request and flushes a
    :class:`ProbeBlock` every ``block_rounds`` rounds (matching the fast
    kernels' chunking, so block boundaries -- and thus any block-order
    floating-point accumulation -- are identical across backends).
    """

    def __init__(self, probe_set: ProbeSet, block_rounds: int = 256) -> None:
        if block_rounds < 1:
            raise ValueError("block_rounds must be >= 1")
        ctx = probe_set.ctx
        fields = probe_set.fields
        self._probes = probe_set
        self.active = probe_set.wants_blocks
        self._capacity = block_rounds
        self._start = 0
        self._count = 0
        n, m = ctx.num_servers, ctx.num_dispatchers
        make = lambda cols: np.zeros((block_rounds, cols), dtype=np.int64)
        self._batch = make(m) if "batch" in fields else None
        self._received = make(n) if "received" in fields else None
        self._done = make(n) if "done" in fields else None
        self._queues = make(n) if "queues" in fields else None
        #: The one row the reference loops must assemble specially (a
        #: per-round done vector does not otherwise exist there).
        self.needs_done = self._done is not None

    def record(
        self,
        round_index: int,
        batch: np.ndarray | None,
        received: np.ndarray | None,
        done: np.ndarray | None,
        queues: np.ndarray | None,
    ) -> None:
        """Append one round's rows (``None`` rows mean all-zero)."""
        if not self.active:
            return
        i = self._count
        if i == 0:
            self._start = round_index
        for buffer, row in (
            (self._batch, batch),
            (self._received, received),
            (self._done, done),
            (self._queues, queues),
        ):
            if buffer is None:
                continue
            if row is None:
                buffer[i] = 0
            else:
                buffer[i] = row
        self._count = i + 1
        if self._count == self._capacity:
            self.flush()

    def flush(self) -> None:
        """Emit the buffered rounds as one block (no-op when empty)."""
        length = self._count
        if not length:
            return
        view = lambda buffer: None if buffer is None else buffer[:length]
        self._probes.observe_block(
            ProbeBlock(
                start_round=self._start,
                length=length,
                batch=view(self._batch),
                received=view(self._received),
                done=view(self._done),
                queues=view(self._queues),
            )
        )
        self._count = 0


class ResponseTee:
    """Round-scoped response sink for the reference kernels.

    Drop-in for the histogram in ``SizedServerQueue.complete``: records into
    the real histogram *and* buffers ``(time, count)`` pairs, which
    :meth:`flush` stamps with the departure round and forwards to the
    probes.  The reference loops set :attr:`server` to the server being
    drained before each ``complete`` call, so every buffered record is
    attributed to its serving server (matching the batch stores' native
    server stamping).  Only instantiated when some probe wants response
    events, so the default path keeps its direct histogram writes.
    """

    def __init__(
        self, probe_set: ProbeSet, histogram: ResponseTimeHistogram
    ) -> None:
        self._probes = probe_set
        self._histogram = histogram
        #: Index of the server currently draining (set by the kernel).
        self.server = 0
        self._times: list[int] = []
        self._counts: list[int] = []
        self._servers: list[int] = []

    def record(self, response_time: int, count: int = 1) -> None:
        """Mirror ``ResponseTimeHistogram.record`` while buffering."""
        self._histogram.record(response_time, count)
        self._times.append(response_time)
        self._counts.append(count)
        self._servers.append(self.server)

    def flush(self, round_index: int) -> None:
        """Emit the buffered records as this round's departures."""
        if not self._times:
            return
        times = np.asarray(self._times, dtype=np.int64)
        counts = np.asarray(self._counts, dtype=np.int64)
        servers = np.asarray(self._servers, dtype=np.int64)
        self._probes.observe_responses(
            np.full(times.size, round_index, dtype=np.int64),
            times,
            counts,
            servers,
        )
        self._times.clear()
        self._counts.clear()
        self._servers.clear()


# ---------------------------------------------------------------------------
# Built-in probes.
# ---------------------------------------------------------------------------


@register_probe("responses")
class ResponseTimeProbe(Probe):
    """The exact response-time histogram (the paper's primary metric).

    Default probe.  The engines feed its :attr:`histogram` in-line
    during FIFO resolution (the zero-overhead fast path), so it needs
    no block fields; it exists as a probe so response-time state is
    serializable and summary-addressable like everything else.
    """

    description = (
        "exact integer response-time histogram (mean/percentiles/max); "
        "always on"
    )
    fields = frozenset()

    def __init__(self, histogram: ResponseTimeHistogram | None = None) -> None:
        super().__init__()
        self.histogram = histogram if histogram is not None else ResponseTimeHistogram()

    def summary(self) -> dict[str, float]:
        return {"total": float(self.histogram.total), **self.histogram.summary()}

    def get_state(self) -> dict:
        return self.histogram.state_dict()

    def set_state(self, state: dict) -> None:
        self.histogram.load_state(state)


@register_probe("queue_series")
class QueueSeriesProbe(Probe):
    """Per-round total queue length (stability diagnostics).

    Default probe (gated by ``track_queue_series``).  Like the
    ``responses`` probe, the engines feed its :attr:`series` in-line
    (one scalar total per round -- the zero-overhead fast path), so it
    requests no block fields and default runs never materialize queue
    snapshots just for this collector.
    """

    description = (
        "per-round total queue length series (stability diagnostics); "
        "on unless track_queue_series=False"
    )
    fields = frozenset()

    def __init__(self, series: QueueLengthSeries | None = None) -> None:
        super().__init__()
        self.series = series

    def bind(self, ctx: ProbeContext) -> None:
        super().bind(ctx)
        if self.series is None:
            self.series = QueueLengthSeries(rounds_hint=ctx.rounds)

    def summary(self) -> dict[str, float]:
        series = self.series if self.series is not None else QueueLengthSeries()
        return {
            "rounds": float(series.values.size),
            "mean": series.mean(),
            "growth_slope": series.growth_slope(),
            "tail_head": series.tail_to_head_ratio(),
        }

    def get_state(self) -> dict:
        values = self.series.values if self.series is not None else ()
        return {"values": np.asarray(values).tolist()}

    def set_state(self, state: dict) -> None:
        values = state.get("values", ())
        if self.series is None:
            self.series = QueueLengthSeries(rounds_hint=max(16, len(values)))
        self.series.record_many(np.asarray(values, dtype=np.int64))


@register_probe("server_stats")
class ServerStatsProbe(Probe):
    """Per-server queue-length distribution, utilization and idle time.

    The heterogeneous-system diagnostics the total-queue series cannot
    see: which servers carry the backlog, how often each sits idle, and
    what fraction of each server's offered capacity did useful work
    (the paper's Section 3.1 under-utilization failure mode).  Also
    pools an exact queue-length histogram over all (server, round)
    pairs.
    """

    description = (
        "per-server queue distribution, utilization and idle fraction "
        "(heterogeneity diagnostics)"
    )
    fields = frozenset({"received", "done", "queues"})

    #: Queue lengths at or above this land in the histogram's overflow
    #: bucket (the last entry).  Bounds memory and JSON size on
    #: overloaded runs -- exactly when this probe gets attached --
    #: while per-server means/max stay exact.
    QUEUE_HIST_CAP = 1 << 16

    def __init__(self) -> None:
        super().__init__()
        self._rates: np.ndarray | None = None
        self._rounds = 0
        self._received: np.ndarray | None = None
        self._done: np.ndarray | None = None
        self._queue_sum: np.ndarray | None = None
        self._max_queue: np.ndarray | None = None
        self._idle: np.ndarray | None = None
        self._queue_hist = np.zeros(1, dtype=np.int64)

    def bind(self, ctx: ProbeContext) -> None:
        super().bind(ctx)
        n = ctx.num_servers
        self._rates = np.asarray(ctx.rates, dtype=np.float64).copy()
        self._received = np.zeros(n, dtype=np.int64)
        self._done = np.zeros(n, dtype=np.int64)
        self._queue_sum = np.zeros(n, dtype=np.int64)
        self._max_queue = np.zeros(n, dtype=np.int64)
        self._idle = np.zeros(n, dtype=np.int64)

    def observe_block(self, block: ProbeBlock) -> None:
        queues = block.queues
        self._rounds += block.length
        self._received += block.received.sum(axis=0)
        self._done += block.done.sum(axis=0)
        self._queue_sum += queues.sum(axis=0)
        np.maximum(self._max_queue, queues.max(axis=0), out=self._max_queue)
        self._idle += (queues == 0).sum(axis=0)
        counts = np.bincount(np.minimum(queues.ravel(), self.QUEUE_HIST_CAP))
        if counts.size > self._queue_hist.size:
            grown = np.zeros(counts.size, dtype=np.int64)
            grown[: self._queue_hist.size] = self._queue_hist
            self._queue_hist = grown
        self._queue_hist[: counts.size] += counts

    # -- derived quantities ------------------------------------------------

    def utilization(self) -> np.ndarray:
        """Per-server completed work over offered capacity."""
        return self._done / (self._rates * max(self._rounds, 1))

    def idle_fraction(self) -> np.ndarray:
        """Per-server fraction of rounds ending with an empty queue."""
        return self._idle / max(self._rounds, 1)

    def mean_queue_lengths(self) -> np.ndarray:
        """Per-server time-averaged queue length."""
        return self._queue_sum / max(self._rounds, 1)

    def queue_length_distribution(self) -> np.ndarray:
        """P(queue length = k) pooled over all (server, round) pairs.

        Lengths >= :attr:`QUEUE_HIST_CAP` pool in the final entry.
        """
        total = self._queue_hist.sum()
        if total == 0:
            return np.zeros(0, dtype=np.float64)
        return self._queue_hist / total

    def summary(self) -> dict[str, float]:
        if self._rounds == 0 or self._rates is None:
            return {
                "rounds": 0.0,
                "mean_queue": float("nan"),
                "max_queue": 0.0,
                "idle_fraction": float("nan"),
                "utilization_mean": float("nan"),
                "utilization_min": float("nan"),
                "utilization_max": float("nan"),
            }
        utilization = self.utilization()
        cells = self._rounds * self._rates.size
        return {
            "rounds": float(self._rounds),
            "mean_queue": float(self._queue_sum.sum() / cells),
            "max_queue": float(self._max_queue.max()),
            "idle_fraction": float(self._idle.sum() / cells),
            "utilization_mean": float(utilization.mean()),
            "utilization_min": float(utilization.min()),
            "utilization_max": float(utilization.max()),
        }

    def get_state(self) -> dict:
        if self._received is None:
            return {"rounds": 0}
        return {
            "rounds": self._rounds,
            "rates": self._rates.tolist(),
            "received": self._received.tolist(),
            "done": self._done.tolist(),
            "queue_sum": self._queue_sum.tolist(),
            "max_queue": self._max_queue.tolist(),
            "idle": self._idle.tolist(),
            "queue_hist": self._queue_hist.tolist(),
        }

    def set_state(self, state: dict) -> None:
        if "rates" not in state:
            return
        self._rounds = int(state["rounds"])
        self._rates = np.asarray(state["rates"], dtype=np.float64)
        self._received = np.asarray(state["received"], dtype=np.int64)
        self._done = np.asarray(state["done"], dtype=np.int64)
        self._queue_sum = np.asarray(state["queue_sum"], dtype=np.int64)
        self._max_queue = np.asarray(state["max_queue"], dtype=np.int64)
        self._idle = np.asarray(state["idle"], dtype=np.int64)
        self._queue_hist = np.asarray(state["queue_hist"], dtype=np.int64)


@register_probe("server_response_stats")
class ServerResponseStatsProbe(Probe):
    """Per-server response-time breakdown: count, mean and max.

    The latency companion to ``server_stats``: queue lengths say where
    backlog *sits*; this probe says what jobs served by each server
    actually *paid* for it, exposing per-server latency asymmetry (slow
    servers with short queues versus fast servers with long ones) that
    the pooled histogram averages away.  Rides the server-attributed
    response feed, so it works identically on every kernel.
    """

    description = (
        "per-server response-time count/mean/max (latency heterogeneity "
        "diagnostics)"
    )
    #: Response events only -- no block arrays needed.
    fields = frozenset()
    wants_responses = True
    _at_targets = ("_count", "_time_sum", "_time_max")

    def __init__(self) -> None:
        super().__init__()
        self._count: np.ndarray | None = None
        self._time_sum: np.ndarray | None = None
        self._time_max: np.ndarray | None = None

    def bind(self, ctx: ProbeContext) -> None:
        super().bind(ctx)
        n = ctx.num_servers
        self._count = np.zeros(n, dtype=np.int64)
        self._time_sum = np.zeros(n, dtype=np.int64)
        self._time_max = np.zeros(n, dtype=np.int64)

    def observe_responses(
        self,
        rounds: np.ndarray,
        times: np.ndarray,
        counts: np.ndarray,
        servers: np.ndarray,
    ) -> None:
        if times.size == 0:
            return
        np.add.at(self._count, servers, counts)
        np.add.at(self._time_sum, servers, times * counts)
        np.maximum.at(self._time_max, servers, times)

    # -- derived quantities ------------------------------------------------

    def response_counts(self) -> np.ndarray:
        """Per-server number of recorded (post-warmup) responses."""
        return self._count.copy()

    def mean_response_times(self) -> np.ndarray:
        """Per-server mean response time (NaN where nothing departed)."""
        with np.errstate(invalid="ignore"):
            return np.where(
                self._count > 0, self._time_sum / self._count, np.nan
            )

    def max_response_times(self) -> np.ndarray:
        """Per-server maximum recorded response time."""
        return self._time_max.copy()

    def summary(self) -> dict[str, float]:
        if self._count is None or self._count.sum() == 0:
            return {
                "responses": 0.0,
                "mean_response": float("nan"),
                "max_response": 0.0,
                "server_mean_min": float("nan"),
                "server_mean_max": float("nan"),
            }
        means = self.mean_response_times()
        served = means[self._count > 0]
        return {
            "responses": float(self._count.sum()),
            "mean_response": float(self._time_sum.sum() / self._count.sum()),
            "max_response": float(self._time_max.max()),
            "server_mean_min": float(served.min()),
            "server_mean_max": float(served.max()),
        }

    def get_state(self) -> dict:
        if self._count is None:
            return {}
        return {
            "count": self._count.tolist(),
            "time_sum": self._time_sum.tolist(),
            "time_max": self._time_max.tolist(),
        }

    def set_state(self, state: dict) -> None:
        if "count" not in state:
            return
        self._count = np.asarray(state["count"], dtype=np.int64)
        self._time_sum = np.asarray(state["time_sum"], dtype=np.int64)
        self._time_max = np.asarray(state["time_max"], dtype=np.int64)


@register_probe("dispatcher_stats")
class DispatcherStatsProbe(Probe):
    """Per-dispatcher arrival-batch statistics.

    How traffic actually split over dispatchers: totals, the largest
    single batch, per-dispatcher active rounds, and a coefficient of
    variation of the totals (0 for the paper's symmetric split).
    """

    description = (
        "per-dispatcher batch statistics: totals, max batch, "
        "traffic-split imbalance"
    )
    fields = frozenset({"batch"})

    def __init__(self) -> None:
        super().__init__()
        self._rounds = 0
        self._jobs: np.ndarray | None = None
        self._max_batch: np.ndarray | None = None
        self._active: np.ndarray | None = None

    def bind(self, ctx: ProbeContext) -> None:
        super().bind(ctx)
        m = ctx.num_dispatchers
        self._jobs = np.zeros(m, dtype=np.int64)
        self._max_batch = np.zeros(m, dtype=np.int64)
        self._active = np.zeros(m, dtype=np.int64)

    def observe_block(self, block: ProbeBlock) -> None:
        batch = block.batch
        self._rounds += block.length
        self._jobs += batch.sum(axis=0)
        np.maximum(self._max_batch, batch.max(axis=0), out=self._max_batch)
        self._active += (batch > 0).sum(axis=0)

    def totals(self) -> np.ndarray:
        """Jobs each dispatcher received over the run."""
        return self._jobs.copy()

    def summary(self) -> dict[str, float]:
        if self._jobs is None or self._rounds == 0:
            return {
                "rounds": 0.0,
                "total_jobs": 0.0,
                "mean_batch": float("nan"),
                "max_batch": 0.0,
                "imbalance": float("nan"),
            }
        total = int(self._jobs.sum())
        active = int(self._active.sum())
        mean_total = total / self._jobs.size
        return {
            "rounds": float(self._rounds),
            "total_jobs": float(total),
            "mean_batch": total / active if active else float("nan"),
            "max_batch": float(self._max_batch.max()),
            "imbalance": (
                float(self._jobs.std() / mean_total) if mean_total else float("nan")
            ),
        }

    def get_state(self) -> dict:
        if self._jobs is None:
            return {"rounds": 0}
        return {
            "rounds": self._rounds,
            "jobs": self._jobs.tolist(),
            "max_batch": self._max_batch.tolist(),
            "active": self._active.tolist(),
        }

    def set_state(self, state: dict) -> None:
        if "jobs" not in state:
            return
        self._rounds = int(state["rounds"])
        self._jobs = np.asarray(state["jobs"], dtype=np.int64)
        self._max_batch = np.asarray(state["max_batch"], dtype=np.int64)
        self._active = np.asarray(state["active"], dtype=np.int64)


class _WindowedProbe(Probe):
    """Integer sums and counts per window of rounds (the windowed probes'
    shared state).  Subclasses decide what a round adds.

    Sums are integer-exact, so reference and fast kernels agree bitwise
    however differently they batch what they feed.
    """

    _at_targets = ("_sums", "_counts")

    def __init__(self, window: int = 1000) -> None:
        super().__init__()
        window = int(window)
        if window < 1:
            raise ValueError("window must be >= 1 round")
        self.window = window
        self._sums: np.ndarray | None = None
        self._counts: np.ndarray | None = None

    def bind(self, ctx: ProbeContext) -> None:
        super().bind(ctx)
        windows = -(-ctx.rounds // self.window)  # ceil
        self._sums = np.zeros(windows, dtype=np.int64)
        self._counts = np.zeros(windows, dtype=np.int64)

    def means(self) -> np.ndarray:
        """Per-window means (NaN for empty windows)."""
        if self._sums is None:
            return np.zeros(0, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self._counts > 0, self._sums / self._counts, float("nan")
            )

    def _ends(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """The means, the filled windows, and the first and last filled mean."""
        means = self.means()
        filled = np.flatnonzero(~np.isnan(means)) if means.size else np.zeros(0, int)
        first = float(means[filled[0]]) if filled.size else float("nan")
        last = float(means[filled[-1]]) if filled.size else float("nan")
        return means, filled, first, last

    def probe_kwargs(self) -> dict:
        return {"window": self.window}

    def get_state(self) -> dict:
        if self._sums is None:
            return {"sums": [], "counts": []}
        return {"sums": self._sums.tolist(), "counts": self._counts.tolist()}

    def set_state(self, state: dict) -> None:
        self._sums = np.asarray(state.get("sums", ()), dtype=np.int64)
        self._counts = np.asarray(state.get("counts", ()), dtype=np.int64)


@register_probe("windowed_mean")
class WindowedMeanProbe(_WindowedProbe):
    """Mean response time per window of rounds (a time series, not one
    number -- the drift between early and late windows is a convergence
    / instability signal the whole-run mean hides).
    """

    description = (
        "mean response time per window of rounds (windowed time series "
        "+ first-to-last drift)"
    )
    fields = frozenset()
    wants_responses = True

    def observe_responses(
        self,
        rounds: np.ndarray,
        times: np.ndarray,
        counts: np.ndarray,
        servers: np.ndarray,
    ) -> None:
        index = np.asarray(rounds, dtype=np.int64) // self.window
        times = np.asarray(times, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        np.add.at(self._sums, index, times * counts)
        np.add.at(self._counts, index, counts)

    def summary(self) -> dict[str, float]:
        means, filled, first, last = self._ends()
        return {
            "window": float(self.window),
            "windows": float(means.size),
            "completed": float(self._counts.sum()) if self._counts is not None else 0.0,
            "first_mean": first,
            "last_mean": last,
            "drift": last / first if filled.size and first else float("nan"),
        }


@register_probe("windowed_stability")
class WindowedStabilityProbe(_WindowedProbe):
    """Mean total queue length per window of rounds -- the time-windowed
    stability indicator for nonstationary scenarios.

    A stationary stable run shows flat window means; a flash crowd shows
    a hump that drains back down; an inadmissible (or churn-starved)
    configuration shows monotone growth.  ``growth`` -- the last window's
    mean over the first's -- is the headline drift number.
    """

    description = (
        "mean total queue length per window of rounds (time-windowed "
        "queue-growth indicator for nonstationary scenarios)"
    )
    fields = frozenset({"queues"})

    def observe_block(self, block: ProbeBlock) -> None:
        index = (
            block.start_round + np.arange(block.length, dtype=np.int64)
        ) // self.window
        np.add.at(self._sums, index, block.queues.sum(axis=1))
        np.add.at(self._counts, index, 1)

    def summary(self) -> dict[str, float]:
        means, filled, first, last = self._ends()
        peak = int(filled[np.argmax(means[filled])]) if filled.size else -1
        return {
            "window": float(self.window),
            "windows": float(means.size),
            "first_mean": first,
            "last_mean": last,
            "peak_mean": float(means[peak]) if peak >= 0 else float("nan"),
            "peak_window": float(peak),
            "growth": last / first if filled.size and first else float("nan"),
        }


@register_probe("herding")
class HerdingSignalProbe(Probe):
    """Per-round co-targeting: the coordination-failure mechanism.

    Measures how hard dispatchers pile onto the same servers within a
    round -- the largest single-server pile-up (``max_spike``), its
    per-round average, and the RMS deviation from rate-proportional
    placement (``mean_imbalance``: the per-round RMS deviation of the
    admissions from ``T * mu_s``, divided by the round total ``T`` and
    averaged over rounds with arrivals).  Every kernel feeds it.  With
    sized jobs the pile-up is measured in admitted work units.

    It keeps per-round sufficient statistics -- the round totals, the
    per-round spike, ``sum(r_s^2)``, and the rate-weighted sum
    ``sum(rates_s * r_s)`` plus the rate sum and ``sum(rates_s^2)`` --
    and :meth:`summary` recovers the deviation algebraically::

        sum_s (r_s - T*mu_s)^2
            = sum(r^2) - 2*(T/R)*sum(rates*r) + (T/R)^2 * sum(rates^2)

    with ``R`` the global rate sum and ``mu_s = rates_s / R`` -- the
    same quantity as the element-wise ``sum_s (r_s - T*mu_s)^2``.
    """

    description = (
        "per-round co-targeting spikes and placement imbalance "
        "(the herding mechanism)"
    )
    fields = frozenset({"received"})

    def __init__(self) -> None:
        super().__init__()
        self._rates: np.ndarray | None = None
        # Per-round component series, as per-block arrays concatenated
        # on demand.
        self._totals: list[np.ndarray] = []  # int64: sum_s r_s
        self._spikes: list[np.ndarray] = []  # int64: max_s r_s
        self._sq: list[np.ndarray] = []  # int64: sum_s r_s^2
        self._rate_w: list[np.ndarray] = []  # float64: sum_s rates_s*r_s
        self._rate_sum = 0.0
        self._rate_sq = 0.0
        self._num_servers = 0

    def bind(self, ctx: ProbeContext) -> None:
        super().bind(ctx)
        rates = np.asarray(ctx.rates, dtype=np.float64)
        self._rates = rates.copy()
        self._rate_sum = float(rates.sum())
        self._rate_sq = float((rates * rates).sum())
        self._num_servers = int(rates.size)

    def observe_block(self, block: ProbeBlock) -> None:
        received = block.received
        self._totals.append(received.sum(axis=1))
        self._spikes.append(received.max(axis=1))
        self._sq.append((received * received).sum(axis=1))
        self._rate_w.append(received @ self._rates)

    def _series(self, which: list[np.ndarray], dtype) -> np.ndarray:
        """A per-block list's concatenated series (the list is left as is,
        so summarizing a live probe never changes its state)."""
        if not which:
            return np.zeros(0, dtype=dtype)
        return np.asarray(np.concatenate(which), dtype=dtype)

    def summary(self) -> dict[str, float]:
        totals = self._series(self._totals, np.int64)
        active = totals > 0
        rounds = int(active.sum())
        if rounds == 0 or self._rate_sum == 0.0 or self._num_servers == 0:
            return {
                "rounds": 0.0,
                "max_spike": 0.0,
                "mean_spike": 0.0,
                "mean_imbalance": 0.0,
            }
        spikes = self._series(self._spikes, np.int64)[active]
        sq = self._series(self._sq, np.int64)[active].astype(np.float64)
        rate_w = self._series(self._rate_w, np.float64)[active]
        t = totals[active].astype(np.float64)
        scale = t / self._rate_sum
        # Sum of squared deviations from the rate-proportional share;
        # clamp tiny negative cancellation residue before the sqrt.
        ss = sq - 2.0 * scale * rate_w + scale * scale * self._rate_sq
        deviation = np.sqrt(np.maximum(ss, 0.0) / self._num_servers)
        return {
            "rounds": float(rounds),
            "max_spike": float(spikes.max()),
            "mean_spike": float(int(spikes.sum()) / rounds),
            "mean_imbalance": float((deviation / t).sum() / rounds),
        }

    def get_state(self) -> dict:
        return {
            "totals": self._series(self._totals, np.int64).tolist(),
            "spikes": self._series(self._spikes, np.int64).tolist(),
            "sq": self._series(self._sq, np.int64).tolist(),
            "rate_weighted": self._series(self._rate_w, np.float64).tolist(),
            "rate_sum": self._rate_sum,
            "rate_sq": self._rate_sq,
            "num_servers": self._num_servers,
        }

    def set_state(self, state: dict) -> None:
        self._totals = [np.asarray(state.get("totals", ()), dtype=np.int64)]
        self._spikes = [np.asarray(state.get("spikes", ()), dtype=np.int64)]
        self._sq = [np.asarray(state.get("sq", ()), dtype=np.int64)]
        self._rate_w = [
            np.asarray(state.get("rate_weighted", ()), dtype=np.float64)
        ]
        self._rate_sum = float(state.get("rate_sum", 0.0))
        self._rate_sq = float(state.get("rate_sq", 0.0))
        self._num_servers = int(state.get("num_servers", 0))

