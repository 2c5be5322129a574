"""Pluggable workload specifications for declarative experiments.

A :class:`WorkloadSpec` bundles everything about an experiment cell that
is *workload* rather than *policy or system*: the arrival process, the
service process, how traffic splits over dispatchers, and (optionally) a
job-size distribution.  The default spec is exactly the paper's
evaluation workload -- symmetric Poisson arrivals and geometric service
-- and it contributes no workload seed components, so a cell's seed is
``derive_seed(base, system.name, round(rho * 10_000))`` with ``base``
as defined in :mod:`repro.experiments.grid`.  That is the seed scheme
every published result of this repository was produced under.

Custom workloads contribute their ``name`` to the seed derivation, which
keeps realizations (a) reproducible, (b) common across policies at the
same coordinates, and (c) distinct between workloads.

A workload has one serialisable form: its name, skew, dispatcher
weights and scenario string (:meth:`WorkloadSpec.describe`).  Shaped
arrivals are scenarios: :meth:`WorkloadSpec.bursty` is a ``regime``
rate curve over the default Poisson arrivals.  Custom arrival/service
factories and job-size distributions are in-process extension points:
they must be picklable so the process-pool executor can ship cells to
workers (small classes with ``__call__``, never lambdas), and a JSON
round-trip keeps only their repr, reloading as
:class:`UnreconstructedFactory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sim.arrivals import ArrivalProcess, PoissonArrivals
from repro.sim.service import GeometricService, ServiceProcess
from repro.sim.sized import JobSizeDistribution
from repro.workloads.scenarios import SystemSpec

__all__ = [
    "WorkloadSpec",
    "PAPER_WORKLOAD_NAME",
    "UnreconstructedFactory",
]

#: Name of the paper's default workload; the only name that contributes
#: no seed components (see :meth:`WorkloadSpec.seed_components`).
PAPER_WORKLOAD_NAME = "paper"

#: Builds an arrival process for a (system, offered load) coordinate.
ArrivalFactory = Callable[[SystemSpec, float], ArrivalProcess]
#: Builds a service process for a system.
ServiceFactory = Callable[[SystemSpec], ServiceProcess]


@dataclass(frozen=True)
class UnreconstructedFactory:
    """Placeholder for a custom component lost in a JSON round-trip.

    Saved experiments record only a repr of custom arrival/service
    factories and job-size distributions; a loaded workload that had one
    gets this placeholder so re-*running* it fails loudly instead of
    silently simulating the paper-default workload under the old name.
    """

    workload: str

    def __call__(self, *args, **kwargs):
        raise ValueError(
            f"workload {self.workload!r} was loaded from JSON, which does "
            f"not preserve custom factories/job sizes; re-running it "
            f"requires the original WorkloadSpec object"
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """One pluggable workload of an experiment grid.

    Attributes
    ----------
    name:
        Workload identity.  Enters the seed derivation for every name
        except :data:`PAPER_WORKLOAD_NAME`, so distinct workloads see
        distinct (but reproducible) realizations, while the default
        keeps the seed ``derive_seed(base, system.name, round(rho * 10_000))``.
    arrivals:
        Optional arrival-process factory ``(system, rho) -> process``;
        overrides the default symmetric Poisson arrivals.  Must be
        picklable for the process-pool executor (use a small class, not
        a lambda).
    service:
        Optional service-process factory ``(system) -> process``;
        overrides the default geometric service at the system's rates.
    skew:
        Geometric dispatcher-skew factor: dispatcher ``d`` receives
        traffic proportional to ``skew ** d`` (1.0 = the paper's
        symmetric split).  Applies to the default Poisson arrivals only.
    dispatcher_weights:
        Explicit traffic-split weights, one per dispatcher; mutually
        exclusive with ``skew`` and checked against each system.
    job_sizes:
        Optional job-size distribution.  When set, cells pass it to
        :class:`repro.sim.engine.Simulation` as ``sizes`` and queues
        count work units; ``None`` (the default) means unit jobs.
    scenario:
        Optional scenario spec string ``NAME[:k=v,...]`` (see
        :mod:`repro.sim.scenarios`): nonstationary arrival modulation
        and/or server churn, applied by the engine at simulation
        construction.  Survives JSON round-trips verbatim, so scenario
        experiments can be re-run from saved descriptors.
    """

    name: str = PAPER_WORKLOAD_NAME
    arrivals: ArrivalFactory | None = None
    service: ServiceFactory | None = None
    skew: float | None = None
    dispatcher_weights: tuple[float, ...] | None = None
    job_sizes: JobSizeDistribution | None = None
    scenario: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload name must be non-empty")
        if self.scenario is not None:
            # Fail at grid-definition time, not inside a worker process.
            from repro.sim.scenarios import make_scenario

            make_scenario(self.scenario)
        if self.skew is not None and self.dispatcher_weights is not None:
            raise ValueError("skew and dispatcher_weights are mutually exclusive")
        if self.skew is not None and self.skew <= 0:
            raise ValueError("skew must be positive")
        if self.dispatcher_weights is not None:
            object.__setattr__(
                self, "dispatcher_weights", tuple(float(w) for w in self.dispatcher_weights)
            )
        # A renamed but otherwise-default spec is allowed: it requests a
        # fresh workload realization on purpose (the name seeds it).

    # -- identity ----------------------------------------------------------

    def seed_components(self) -> tuple[str, ...]:
        """Extra coordinates this workload contributes to seed derivation.

        Empty for the paper default, whose cell seed is therefore
        ``derive_seed(base, system.name, round(rho * 10_000))``.
        """
        components: tuple[str, ...] = ()
        if self.name != PAPER_WORKLOAD_NAME:
            components += (self.name,)
        if self.scenario is not None:
            components += (self.scenario,)
        return components

    # -- constructors ------------------------------------------------------

    @classmethod
    def paper(cls) -> "WorkloadSpec":
        """The paper's workload: symmetric Poisson + geometric service."""
        return cls()

    @classmethod
    def skewed(cls, skew: float, name: str | None = None) -> "WorkloadSpec":
        """Geometrically skewed dispatcher traffic at equal total load."""
        return cls(name=name or f"skew{skew:g}", skew=float(skew))

    @classmethod
    def bursty(
        cls,
        surge_factor: float = 3.0,
        switch_prob: float = 0.05,
        name: str | None = None,
    ) -> "WorkloadSpec":
        """Correlated calm/surge arrivals at equal average load.

        A ``regime`` scenario over the default Poisson arrivals: the
        rate factor alternates between ``calm = 2 / (1 + surge_factor)``
        and ``surge = 2 * surge_factor / (1 + surge_factor)``, so the
        50/50 mixture keeps the cell's offered load, with a mean dwell
        of ``1 / switch_prob`` rounds per phase.  The phase is shared by
        all dispatchers (correlated surges, the hard case for herding).
        The floats are written with ``repr``, so the scenario string
        (which seeds the cell) round-trips exactly.
        """
        if surge_factor <= 0:
            raise ValueError("surge_factor must be positive")
        if not 0.0 < switch_prob <= 1.0:
            raise ValueError("switch_prob must be in (0, 1]")
        surge_factor, switch_prob = float(surge_factor), float(switch_prob)
        calm = 2.0 / (1.0 + surge_factor)
        surge = 2.0 * surge_factor / (1.0 + surge_factor)
        return cls(
            name=name or f"bursty{surge_factor:g}",
            scenario=(
                f"regime:calm={calm!r},surge={surge!r},"
                f"mean_dwell={1.0 / switch_prob!r}"
            ),
        )

    @classmethod
    def sized(cls, job_sizes: JobSizeDistribution, name: str | None = None) -> "WorkloadSpec":
        """Jobs carry work-unit sizes drawn from ``job_sizes``."""
        return cls(name=name or "sized", job_sizes=job_sizes)

    # -- builders ----------------------------------------------------------

    def weights_for(self, system: SystemSpec) -> np.ndarray | None:
        """Dispatcher traffic-split weights for ``system`` (None = even)."""
        if self.dispatcher_weights is not None:
            weights = np.asarray(self.dispatcher_weights, dtype=np.float64)
            if weights.shape != (system.num_dispatchers,):
                raise ValueError(
                    f"workload {self.name!r} has {weights.size} dispatcher "
                    f"weights but system {system.name} has "
                    f"{system.num_dispatchers} dispatchers"
                )
            return weights
        if self.skew is not None and self.skew != 1.0:
            return self.skew ** np.arange(system.num_dispatchers, dtype=np.float64)
        return None

    def build_arrivals(self, system: SystemSpec, rho: float) -> ArrivalProcess:
        """Instantiate this workload's arrival process for one cell."""
        if self.arrivals is not None:
            return self.arrivals(system, rho)
        return PoissonArrivals(system.lambdas(rho, self.weights_for(system)))

    def build_service(self, system: SystemSpec) -> ServiceProcess:
        """Instantiate this workload's service process for one cell."""
        if self.service is not None:
            return self.service(system)
        return GeometricService(system.rates())

    def describe(self) -> dict:
        """JSON-able descriptor.

        Name, skew, dispatcher weights and scenario round-trip exactly;
        custom arrival/service factories and job-size distributions
        reduce to their (lossy) repr.
        """
        out: dict = {"name": self.name}
        if self.skew is not None:
            out["skew"] = self.skew
        if self.dispatcher_weights is not None:
            out["dispatcher_weights"] = list(self.dispatcher_weights)
        if self.arrivals is not None:
            out["arrivals"] = repr(self.arrivals)
        if self.service is not None:
            out["service"] = repr(self.service)
        if self.job_sizes is not None:
            out["job_sizes"] = repr(self.job_sizes)
        if self.scenario is not None:
            out["scenario"] = self.scenario
        return out
