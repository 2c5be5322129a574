"""The synchronous-round simulation engine (the model of Section 2).

Each round has three phases, executed for ``config.rounds`` rounds:

1. **Arrivals** -- the arrival process produces each dispatcher's batch.
2. **Dispatching** -- every dispatcher with a non-empty batch independently
   maps its jobs to servers through the policy, all against the same
   start-of-round queue snapshot.
3. **Departures** -- the service process produces each server's capacity;
   servers complete jobs FIFO and response times are recorded.

The engine maintains exact accounting (arrived = departed + queued,
asserted in tests) and draws workload randomness from streams that are
independent of the policy stream, so runs with the same ``seed`` but
different policies experience identical workloads.

Jobs are unit jobs unless ``Simulation(sizes=...)`` gives a
:class:`~repro.sim.sized.JobSizeDistribution` (open problem 1).  Then
each job carries an integer size in work units, servers complete units
per round, and queues and totals count units; a job's response time is
the round its *last* unit completes, minus its arrival round, plus one.
Policies never see realized sizes: they see the unit-denominated queue
vector and return per-server job counts, so sized runs dispatch exactly
like unit runs.  ``DeterministicSize(1)`` is normalised to ``None``.

The round loop itself is pluggable: :class:`SimulationConfig.backend`
names a round kernel from the :mod:`repro.sim.backends` registry
(``"reference"`` -- the bit-exact per-object loop, the default --
``"fast"`` -- the vectorized batch kernel -- and more).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.policies.base import Policy, SystemContext

from .arrivals import ArrivalProcess
from .metrics import QueueLengthSeries, ResponseTimeHistogram
from .probes import Probe, ProbeSpec
from .seeding import spawn_streams
from .service import ServiceProcess
from .sized import JobSizeDistribution, is_unit_size

__all__ = ["SimulationConfig", "SimulationResult", "Simulation", "simulate"]


@dataclass(frozen=True)
class SimulationConfig:
    """Run-length and instrumentation knobs for one simulation.

    Attributes
    ----------
    rounds:
        Number of rounds to simulate (the paper uses 1e5).
    warmup:
        Response times of jobs *completing* during the first ``warmup``
        rounds are discarded (queue accounting still includes them).  The
        paper reports over the full run, hence the default 0.
    seed:
        Master seed; expands into independent arrival/departure/policy
        streams (see :mod:`repro.sim.seeding`).
    track_queue_series:
        Record the per-round total queue length (cheap; needed for
        stability diagnostics).
    backend:
        Engine-backend registry name (see :mod:`repro.sim.backends`).
        ``"reference"`` is the original bit-exact loop; ``"fast"`` is
        the vectorized round kernel; ``"meanfield"`` is the fluid limit
        (:mod:`repro.meanfield`).  Resolved when
        :meth:`Simulation.run` is called, so unknown names fail with
        the list of known backends.
    probes:
        Extra observability probes for this run, as registry names or
        :class:`~repro.sim.probes.ProbeSpec` objects (see
        :mod:`repro.sim.probes`; ``repro probes`` lists them).  The
        default collectors (response histogram, queue series) are
        always present; these are appended and surface their summaries
        under ``<label>.<key>`` metric keys and ``result.probes``.
    scenario:
        Optional scenario spec string ``NAME[:k=v,...]`` (see
        :mod:`repro.sim.scenarios`; ``repro scenarios`` lists them).
        Applied once at :class:`Simulation` construction: the scenario
        may wrap the arrival process (nonstationary rates) and/or the
        policy (server churn).  ``None`` -- the default -- leaves the
        stationary code path byte-for-byte untouched.
    """

    rounds: int = 10_000
    warmup: int = 0
    seed: int = 0
    track_queue_series: bool = True
    backend: str = "reference"
    probes: tuple[ProbeSpec, ...] = ()
    scenario: str | None = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.warmup < self.rounds:
            raise ValueError("warmup must be in [0, rounds)")
        if not self.backend:
            raise ValueError("backend must be a non-empty registry name")
        if self.scenario is not None and not self.scenario:
            raise ValueError("scenario must be a non-empty spec string or None")
        object.__setattr__(
            self, "probes", tuple(ProbeSpec.of(p) for p in self.probes)
        )


@dataclass
class SimulationResult:
    """Everything measured in one run.

    Queues and totals count work units, which are jobs for unit-job
    runs.
    """

    policy_name: str
    config: SimulationConfig
    histogram: ResponseTimeHistogram
    queue_series: QueueLengthSeries | None
    total_arrived: int
    total_departed: int
    final_queued: int
    final_queues: np.ndarray = field(repr=False)
    #: Work each server received / completed over the whole run.
    server_received: np.ndarray | None = field(default=None, repr=False)
    server_departed: np.ndarray | None = field(default=None, repr=False)
    #: Jobs that arrived, for sized runs (whose totals count units);
    #: ``None`` for unit jobs, where it equals ``total_arrived``.
    total_jobs: int | None = None
    #: Label -> probe, every probe of the run (defaults + extras).
    probes: dict[str, Probe] = field(default_factory=dict, repr=False, compare=False)

    @property
    def mean_response_time(self) -> float:
        """Average response time over recorded (post-warmup) jobs."""
        return self.histogram.mean()

    def utilization(self, rates: np.ndarray) -> np.ndarray:
        """Per-server utilization: completed work over offered capacity.

        ``departed_s / (mu_s * rounds)`` -- the fraction of each server's
        expected capacity that did useful work.  Low utilization on fast
        servers is the under-utilization failure mode the paper ascribes
        to heterogeneity-oblivious policies (Section 3.1).
        """
        if self.server_departed is None:
            raise ValueError("per-server accounting was not recorded")
        rates = np.asarray(rates, dtype=np.float64)
        return self.server_departed / (rates * self.config.rounds)

    def summary(self) -> dict[str, float]:
        """Headline numbers for tables: mean, p95/p99/p999, max."""
        hist = self.histogram
        return {
            "mean": hist.mean(),
            "p50": float(hist.percentile(0.50)),
            "p95": float(hist.percentile(0.95)),
            "p99": float(hist.percentile(0.99)),
            "p999": float(hist.percentile(0.999)),
            "max": float(hist.max_response_time),
        }

    def probe_summaries(self) -> dict[str, dict[str, float]]:
        """Label -> summary for every probe carried by this run."""
        return {label: probe.summary() for label, probe in self.probes.items()}


class Simulation:
    """Binds a policy to workload processes and runs the round loop.

    ``sizes`` is the optional job-size distribution (``None``: unit
    jobs); ``rates`` and the service capacities are then in work units
    per round.
    """

    def __init__(
        self,
        rates: np.ndarray,
        policy: Policy,
        arrivals: ArrivalProcess,
        service: ServiceProcess,
        config: SimulationConfig | None = None,
        sizes: JobSizeDistribution | None = None,
    ) -> None:
        self.rates = np.asarray(rates, dtype=np.float64)
        self.config = config or SimulationConfig()
        self.sizes = None if is_unit_size(sizes) else sizes
        if service.num_servers != self.rates.size:
            raise ValueError(
                f"service process drives {service.num_servers} servers "
                f"but {self.rates.size} rates were given"
            )
        if self.config.scenario is not None:
            # Applied before bind and before the objects are stored, so
            # run manifests pickle the wrapped policy/arrivals and every
            # kernel (and resume) sees the identical reshaped pair.
            from .scenarios import apply_scenario

            policy, arrivals = apply_scenario(
                self.config.scenario, policy, arrivals, self.rates.size
            )
        self.policy = policy
        self.arrivals = arrivals
        self.service = service
        self._streams = spawn_streams(self.config.seed)
        policy.bind(
            SystemContext(
                rates=self.rates,
                num_dispatchers=arrivals.num_dispatchers,
                rng=self._streams.policy,
            )
        )
        arrivals.reset()
        service.reset()

    def run(self, controller=None) -> SimulationResult:
        """Execute all rounds via the configured backend (see ``backends``).

        ``controller`` is the optional run-lifecycle seam
        (:class:`repro.sim.lifecycle.RunController`): the checkpointing
        orchestrator in :mod:`repro.runs` uses it to resume mid-run and
        to export block-aligned state.
        """
        from .backends import make_backend

        return make_backend(self.config.backend).run(self, controller)


def simulate(
    rates: np.ndarray,
    policy: Policy,
    arrivals: ArrivalProcess,
    service: ServiceProcess,
    config: SimulationConfig | None = None,
    sizes: JobSizeDistribution | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulation`."""
    return Simulation(rates, policy, arrivals, service, config, sizes).run()
