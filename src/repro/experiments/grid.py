"""The declarative experiment grid: policies x systems x loads x reps x workloads.

An :class:`Experiment` is an immutable description of the paper's
evaluation protocol generalized along every axis: which policies, on
which systems, at which offered loads, replicated how many times, under
which workloads.  ``Experiment.cells()`` enumerates the grid in a fixed
deterministic order and assigns each cell a seed derived *only* from its
workload coordinates -- policies compared at the same coordinates see
identical arrival/departure realizations (the paper's common-seed
methodology), and the seed of a cell never depends on which executor
runs it or in what order (seed-stable scheduling).

Seed scheme (a fixed contract; every published result depends on it):

    base   = base_seed + 1_000_003 * replication
    seed   = derive_seed(base, *workload.seed_components(),
                         system.name, round(rho * 10_000))

The paper-default workload contributes no components, so its cells are
seeded ``derive_seed(base, system.name, round(rho * 10_000))``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.policies.base import Policy, make_policy
from repro.sim.probes import DEFAULT_PROBE_LABELS, Probe, ProbeSpec
from repro.sim.seeding import derive_seed
from repro.workloads.scenarios import SystemSpec

from .workload import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor imports grid)
    from .executor import Executor
    from .results import ExperimentResult

__all__ = ["PolicySpec", "Cell", "Experiment", "REPLICATION_SEED_STRIDE"]

#: Base-seed stride between replications: replication ``r`` runs on
#: base seed ``base_seed + 1_000_003 * r``, the same for every policy,
#: so replicated comparisons stay paired.
REPLICATION_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class PolicySpec:
    """A policy registry name plus frozen constructor kwargs.

    Hashable (kwargs are stored as a sorted tuple of pairs) so it can key
    result lookups; ``label`` is the human identity used in records.
    """

    name: str
    kwargs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.kwargs, dict):
            object.__setattr__(self, "kwargs", tuple(sorted(self.kwargs.items())))

    @classmethod
    def of(cls, spec: "str | PolicySpec", **kwargs) -> "PolicySpec":
        """Coerce a string (optionally with kwargs) into a spec."""
        if isinstance(spec, PolicySpec):
            if kwargs:
                raise ValueError("cannot add kwargs to an existing PolicySpec")
            return spec
        return cls(name=spec, kwargs=tuple(sorted(kwargs.items())))

    @property
    def label(self) -> str:
        """Identity used in records and tables."""
        if not self.kwargs:
            return self.name
        params = ",".join(f"{k}={v}" for k, v in self.kwargs)
        return f"{self.name}[{params}]"

    def build(self) -> Policy:
        """Instantiate a fresh (unbound) policy object."""
        return make_policy(self.name, **dict(self.kwargs))


@dataclass(frozen=True)
class Cell:
    """One fully resolved grid point, ready to execute anywhere.

    Self-contained and picklable: a worker process needs nothing beyond
    the cell itself to run the simulation.
    """

    index: int
    policy: PolicySpec
    system: SystemSpec
    rho: float
    replication: int
    workload: WorkloadSpec
    seed: int
    rounds: int
    warmup: int
    backend: str = "reference"
    metrics: tuple[ProbeSpec, ...] = ()


def _as_tuple(value, scalar_types) -> tuple:
    """Normalize a scalar-or-iterable grid axis into a tuple."""
    if isinstance(value, scalar_types):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class Experiment:
    """Immutable declarative description of a full evaluation grid.

    Scalar axis values are accepted and normalized to 1-tuples, so
    ``Experiment("scd", system, 0.9)`` describes a single cell, and
    ``.run().only().result`` is that cell's bare simulation result.

    Examples
    --------
    >>> from repro.workloads.scenarios import SystemSpec
    >>> exp = Experiment(
    ...     policies=["scd", "jsq"],
    ...     systems=SystemSpec(12, 3),
    ...     loads=[0.7, 0.9],
    ...     rounds=500,
    ... )
    >>> exp.size
    4
    """

    policies: tuple[PolicySpec, ...]
    systems: tuple[SystemSpec, ...]
    loads: tuple[float, ...]
    replications: int = 1
    workloads: tuple[WorkloadSpec, ...] = field(default_factory=lambda: (WorkloadSpec(),))
    rounds: int = 10_000
    warmup: int = 0
    base_seed: int = 0
    #: Engine-backend registry name every cell runs on (see
    #: :mod:`repro.sim.backends`): ``"reference"`` is the bit-exact
    #: default, ``"fast"`` the vectorized kernel and ``"sharded:N"``
    #: the server-partitioned kernel.
    backend: str = "reference"
    #: Extra observability probes run in every cell (registry names or
    #: :class:`~repro.sim.probes.ProbeSpec`); their summaries land in
    #: each record's metrics under ``<label>.<key>`` keys.  The default
    #: collectors are always present regardless.
    metrics: tuple[ProbeSpec, ...] = ()

    def __post_init__(self) -> None:
        policies = tuple(
            PolicySpec.of(p) for p in _as_tuple(self.policies, (str, PolicySpec))
        )
        systems = _as_tuple(self.systems, SystemSpec)
        loads = tuple(float(x) for x in _as_tuple(self.loads, (int, float)))
        workloads = _as_tuple(self.workloads, WorkloadSpec)
        metrics = tuple(
            ProbeSpec.of(p) for p in _as_tuple(self.metrics, (str, ProbeSpec, Probe))
        )
        object.__setattr__(self, "policies", policies)
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "workloads", workloads)
        object.__setattr__(self, "metrics", metrics)
        labels = [s.label for s in metrics]
        for index, label in enumerate(labels):
            if label in labels[:index]:
                raise ValueError(
                    f"probe labels must be unique: duplicate probe {label!r}"
                )
        defaults = {s.name for s in metrics} & set(DEFAULT_PROBE_LABELS)
        if defaults:
            raise ValueError(
                f"probes {sorted(defaults)} are always-on default collectors; "
                f"do not list them in metrics"
            )
        # Fail fast on unknown probe / policy names, bad kwargs and bad
        # loads (the registry's own error) instead of mid-grid on a worker.
        for spec in metrics:
            try:
                spec.build()
            except TypeError as error:
                raise ValueError(f"probe {spec.label!r}: {error}") from None
        for policy in policies:
            try:
                policy.build()
            except TypeError as error:
                raise ValueError(f"policy {policy.label!r}: {error}") from None
        bad_loads = [rho for rho in loads if not (math.isfinite(rho) and rho >= 0)]
        if bad_loads:
            raise ValueError(f"loads must be finite and >= 0, got {bad_loads}")
        if not policies or not systems or not loads or not workloads:
            raise ValueError("every experiment axis needs at least one value")
        if len({p.label for p in policies}) != len(policies):
            raise ValueError("policy labels must be unique")
        if len({w.name for w in workloads}) != len(workloads):
            raise ValueError("workload names must be unique")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.warmup < self.rounds:
            raise ValueError("warmup must be in [0, rounds)")
        # Validate the backend and its capabilities at construction, so
        # unknown names and unsupported probes or sized workloads fail
        # with the registry's own error message instead of mid-grid on
        # a worker.
        from repro.sim.backends import backend_capabilities, make_backend
        from repro.sim.sized import is_unit_size

        try:
            make_backend(self.backend)
        except ValueError as error:
            raise ValueError(f"invalid backend: {error}") from None
        caps = backend_capabilities(self.backend)
        unsupported = [s.label for s in metrics if not caps.allows_probe(s.name)]
        if unsupported:
            allowed = ", ".join(sorted(caps.probe_allowlist)) or "none"
            raise ValueError(
                f"backend {self.backend!r} cannot feed probes "
                f"{unsupported} (capabilities: {caps.describe()}; "
                f"synthesizable probes: {allowed})"
            )
        if not caps.supports_sized and not all(
            is_unit_size(w.job_sizes) for w in workloads
        ):
            raise ValueError(
                f"backend {self.backend!r} cannot run sized workloads "
                f"(capabilities: {caps.describe()})"
            )

    # -- grid enumeration --------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of cells in the grid."""
        return (
            len(self.policies)
            * len(self.systems)
            * len(self.loads)
            * self.replications
            * len(self.workloads)
        )

    def cell_seed(
        self, workload: WorkloadSpec, system: SystemSpec, rho: float, replication: int
    ) -> int:
        """Workload-coordinate seed (policy-independent, order-independent)."""
        base = self.base_seed + REPLICATION_SEED_STRIDE * replication
        return derive_seed(
            base, *workload.seed_components(), system.name, round(rho * 10_000)
        )

    def cells(self) -> Iterator[Cell]:
        """Enumerate the grid in deterministic order (policy innermost)."""
        coords = itertools.product(
            self.workloads, self.systems, self.loads, range(self.replications)
        )
        index = 0
        for workload, system, rho, rep in coords:
            seed = self.cell_seed(workload, system, rho, rep)
            for policy in self.policies:
                yield Cell(
                    index=index,
                    policy=policy,
                    system=system,
                    rho=rho,
                    replication=rep,
                    workload=workload,
                    seed=seed,
                    rounds=self.rounds,
                    warmup=self.warmup,
                    backend=self.backend,
                    metrics=self.metrics,
                )
                index += 1

    # -- execution ---------------------------------------------------------

    def run(
        self,
        executor: "Executor | str | None" = None,
        workers: int | None = None,
        keep_results: bool = True,
        progress: "callable | None" = None,
    ) -> "ExperimentResult":
        """Execute every cell and return the tidy result container.

        Parameters
        ----------
        executor:
            An :class:`Executor` instance, ``"serial"``, ``"process"``,
            or None (serial unless ``workers`` asks for a pool).
        workers:
            Shorthand: ``workers > 1`` selects the process-pool backend
            with that many workers.
        keep_results:
            Attach each cell's full simulation result to its record
            (memory-heavy for large grids; metrics are always kept).
        progress:
            Optional callback ``(done, total) -> None`` invoked as cells
            complete.
        """
        from .executor import resolve_executor
        from .results import ExperimentResult

        backend = resolve_executor(executor, workers)
        records = backend.run(self, keep_results=keep_results, progress=progress)
        return ExperimentResult(experiment=self, records=tuple(records))

    def describe(self) -> dict:
        """JSON-able descriptor of the grid (used by persistence).

        The ``metrics`` key is emitted only when extra probes were
        requested, so files written by probe-free experiments are
        byte-identical to the pre-probe format.
        """
        descriptor = {
            "policies": [
                {"name": p.name, "kwargs": dict(p.kwargs)} for p in self.policies
            ],
            "systems": [
                {
                    "num_servers": s.num_servers,
                    "num_dispatchers": s.num_dispatchers,
                    "profile": s.profile,
                    "rate_seed": s.rate_seed,
                }
                for s in self.systems
            ],
            "loads": list(self.loads),
            "replications": self.replications,
            "workloads": [w.describe() for w in self.workloads],
            "rounds": self.rounds,
            "warmup": self.warmup,
            "base_seed": self.base_seed,
            "backend": self.backend,
        }
        if self.metrics:
            descriptor["metrics"] = [
                {"name": s.name, "kwargs": dict(s.kwargs)} for s in self.metrics
            ]
        return descriptor
