"""The ``meanfield`` engine backend: fluid limits through the probe seam.

:class:`MeanFieldBackend` consumes the exact same bound
:class:`~repro.sim.engine.Simulation` every simulation kernel consumes
-- policy, arrival process, geometric service, scenario-modulated rate
curves, probes -- but advances the deterministic fluid limit instead of
sampling servers, so its cost is independent of ``n``: a million-server
system integrates as fast as a hundred-server one.

What it honestly supports (and what it refuses):

* policies ``random``, ``rr`` (as a uniform split), ``jsq(d)`` and
  ``jsq`` (as d -> n); rate-aware samplers are rejected because the
  within-class exchangeable limit cannot represent them;
* ``PoissonArrivals`` and scenario-modulated ``ModulatedRateArrivals``
  -- the PR 9 rate curves *are* the time-varying ``lambda(t)`` of the
  drift; churn/elastic scenarios (which rewrite the policy or service)
  are rejected;
* ``GeometricService`` only (the departure update is exact for it);
* probes ``windowed_mean`` / ``windowed_stability`` / ``server_stats``,
  whose summaries it synthesizes from the fluid state; probes needing
  discrete events are rejected;
* unit jobs only: sized workloads are refused;
* no checkpoint/resume: there is no kernel state to export, and the
  whole run costs less than one checkpoint write.  Capability flags
  (:meth:`capabilities`) make every one of these limits visible to
  ``Experiment``, ``Run`` and the CLI before anything executes.

Result synthesis leans on two exact identities of the model: the
expected number of jobs joining queue position ``k`` per server-round
equals the arrival-phase tail increment ``s'_k - s_k`` (feeding the
response histogram via the drain-time map ``T(j, k) = k / mu_j + 1``,
which reproduces Little's law ``T = N / lambda + 1`` for the end-of-round
census), and the expected completions equal the departure flux mass.
"""

from __future__ import annotations

import numpy as np

from ..sim.arrivals import PoissonArrivals
from ..sim.backends import (
    BackendCapabilities,
    EngineBackend,
    _probe_context,
    register_backend,
)
from ..sim.engine import SimulationResult
from ..sim.lifecycle import RunController
from ..sim.metrics import QueueLengthSeries, ResponseTimeHistogram
from ..sim.probes import (
    ProbeSpec,
    QueueSeriesProbe,
    ResponseTimeProbe,
)
from ..sim.scenarios.arrivals import ModulatedRateArrivals
from ..sim.scenarios.churn import ChurnPolicyAdapter
from ..sim.service import GeometricService
from .integrator import METHODS, FixedStepIntegrator, InvariantError
from .odes import FluidModel, ServerClasses, arrival_choices_for_policy

__all__ = ["MeanFieldBackend"]

#: Probe names whose summaries the fluid state can synthesize.
PROBE_ALLOWLIST = frozenset({"windowed_mean", "windowed_stability", "server_stats"})

#: Rounds of rate-curve factors materialized per chunk.
_FACTOR_CHUNK = 16384

#: Mixture mass allowed in the pooled deepest tail before the run is
#: declared untruncatable.  Above this the fluid state is silently
#: capping queues the real system would keep growing (an unstable
#: configuration, or a depth= too shallow for the load), so the honest
#: move is to refuse rather than report a bounded lie.
_TRUNCATION_LIMIT = 0.05


@register_backend("meanfield")
class MeanFieldBackend(EngineBackend):
    """Analytical fluid-limit engine (see module docstring)."""

    name = "meanfield"
    description = (
        "analytical fluid-limit engine: integrates per-class queue-tail "
        "dynamics instead of simulating servers (random/rr/jsq(d)/jsq; "
        "cost independent of n)"
    )

    def __init__(
        self,
        method: str = "rk4",
        dt: float = 0.25,
        depth: int = 128,
        classes: int = 16,
    ) -> None:
        # The integrator constructor owns method/dt validation.
        self.integrator = FixedStepIntegrator(method=method, dt=dt)
        if depth < 2:
            raise ValueError(f"depth must be >= 2, got {depth}")
        if classes < 1:
            raise ValueError(f"classes must be >= 1, got {classes}")
        self.method = method
        self.dt = float(dt)
        self.depth = int(depth)
        self.max_classes = int(classes)

    @classmethod
    def from_param(cls, param: str, **kwargs) -> "MeanFieldBackend":
        """Parse the ``meanfield[:rk4|euler][:key=value...]`` grammar.

        Examples: ``meanfield:rk4:dt=0.1``, ``meanfield:euler``,
        ``meanfield:depth=256:classes=8``.  Keys: ``dt`` (job-time step
        of the choice-arrival integration), ``depth`` (tail truncation),
        ``classes`` (max heterogeneity bins).
        """
        if kwargs:
            raise ValueError("meanfield backend takes no factory kwargs")
        settings: dict = {}
        for token in param.split(":"):
            if not token:
                raise ValueError(f"empty token in meanfield parameters {param!r}")
            if token in METHODS:
                if "method" in settings:
                    raise ValueError(
                        f"integration method given twice in {param!r}"
                    )
                settings["method"] = token
                continue
            key, sep, value = token.partition("=")
            if not sep or key not in ("dt", "depth", "classes"):
                raise ValueError(
                    f"bad meanfield parameter {token!r}; expected one of "
                    f"{'/'.join(METHODS)} or dt=/depth=/classes="
                )
            if key in settings:
                raise ValueError(f"meanfield parameter {key!r} given twice")
            try:
                settings[key] = float(value) if key == "dt" else int(value)
            except ValueError:
                raise ValueError(
                    f"bad value for meanfield parameter {key!r}: {value!r}"
                ) from None
        return cls(**settings)

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        return BackendCapabilities(
            supports_checkpoint=False,
            supports_probes=False,
            probe_allowlist=PROBE_ALLOWLIST,
            analytic=True,
            supports_sized=False,
        )

    # ------------------------------------------------------------------
    def _validate(self, sim) -> tuple[np.ndarray, object, int | None]:
        """Check the bound simulation is inside the fluid model's reach."""
        policy = sim.policy
        if sim.sizes is not None:
            raise ValueError(
                "meanfield backend models unit jobs only (its fluid state "
                "counts jobs, not work units); use a simulation backend "
                "for sized workloads"
            )
        if isinstance(policy, ChurnPolicyAdapter):
            raise ValueError(
                "meanfield backend cannot model churn scenarios (the fluid "
                "limit has no per-server identity to mask); use a "
                "simulation backend"
            )
        choices = arrival_choices_for_policy(policy.name, sim.rates.size)
        arrivals = sim.arrivals
        if isinstance(arrivals, ModulatedRateArrivals):
            lambdas, curve = arrivals.lambdas, arrivals.curve
        elif isinstance(arrivals, PoissonArrivals):
            lambdas, curve = arrivals.lambdas, None
        else:
            raise ValueError(
                f"meanfield backend needs Poisson (optionally rate-curve "
                f"modulated) arrivals, got {type(arrivals).__name__}"
            )
        if not isinstance(sim.service, GeometricService):
            raise ValueError(
                f"meanfield backend needs the geometric service model, "
                f"got {type(sim.service).__name__}"
            )
        for spec in sim.config.probes:
            spec = ProbeSpec.of(spec)
            if spec.name not in PROBE_ALLOWLIST:
                allowed = ", ".join(sorted(PROBE_ALLOWLIST))
                raise ValueError(
                    f"meanfield backend cannot feed probe {spec.name!r} "
                    f"(no discrete events to observe); synthesizable "
                    f"probes: {allowed}"
                )
        return np.asarray(lambdas, dtype=np.float64), curve, choices

    # ------------------------------------------------------------------
    def run(self, sim, controller: RunController | None = None):
        if controller is not None:
            raise ValueError(
                "meanfield backend does not support checkpoint/resume "
                "(no kernel state to export); run it without a lifecycle "
                "controller"
            )
        config = sim.config
        lambdas, curve, choices = self._validate(sim)
        n = sim.rates.size
        rounds = config.rounds
        lam_total = float(lambdas.sum())

        classes = ServerClasses.from_rates(sim.rates, self.max_classes)
        model = FluidModel(classes, depth=self.depth, choices=choices)
        gamma = classes.gamma
        n_class = gamma * n
        J, K = classes.num_classes, model.depth

        # Three arrival regimes: exact Poisson convolution (d = 1 split),
        # exact water-filling (full JSQ: every job sees the true
        # minimum), and the power-of-d ODE in job time for finite d --
        # where the substep shrinks with d because the choice flux
        # steepens with it.
        waterfill = choices is not None and choices >= n
        integrator = None
        if choices is not None and not waterfill:
            integrator = FixedStepIntegrator(
                method=self.method, dt=min(self.dt, 2.0 / choices)
            )
            # Stage evaluations of the choice drift must stay on valid
            # tails, so the projection wraps the derivative itself.
            drift = lambda _t, y: model.arrival_drift(model.project(y))  # noqa: E731
            mass = lambda y: float(gamma @ y.sum(axis=1))  # noqa: E731

        S = model.empty_state()
        # Per-round trajectories (floats; the synthesis rounds at the end).
        queue_totals = np.empty(rounds)
        dep_totals = np.empty(rounds)
        # Time accumulators for the probe synthesis.
        joins_acc = np.zeros((J, K))  # post-warmup, for the histogram
        pmf_time = np.zeros((J, K + 1))
        qsum_class = np.zeros(J)
        idle_class = np.zeros(J)
        recv_class = np.zeros(J)
        done_class = np.zeros(J)
        max_level = np.zeros(J, dtype=np.int64)

        for start in range(0, rounds, _FACTOR_CHUNK):
            count = min(_FACTOR_CHUNK, rounds - start)
            factors = (
                curve.factors(start, count)
                if curve is not None
                else np.ones(count)
            )
            for i in range(count):
                t = start + i
                a = lam_total * float(factors[i]) / n
                if choices is None:
                    S, joins = model.apply_poisson_arrivals(S, a)
                elif waterfill:
                    S, joins = model.apply_waterfill_arrivals(S, a)
                elif a > 0.0:
                    pre = S
                    S = integrator.integrate(
                        drift, S, 0.0, a, project=model.project, mass=mass
                    )
                    joins = S - pre
                else:
                    joins = np.zeros_like(S)
                recv_class += joins.sum(axis=1)
                if t >= config.warmup:
                    joins_acc += joins
                S, dep = model.depart(S)
                dep_class = dep.sum(axis=1)
                done_class += dep_class
                dep_totals[t] = float(n_class @ dep_class)
                q_class = S.sum(axis=1)
                qsum_class += q_class
                queue_totals[t] = float(n_class @ q_class)
                idle_class += 1.0 - S[:, 0]
                pmf_time += model.pmf(S)
                np.maximum(
                    max_level, (S > 1e-9).sum(axis=1), out=max_level
                )
                pooled = float(classes.gamma @ S[:, -1])
                if pooled > _TRUNCATION_LIMIT:
                    raise InvariantError(
                        f"truncation overflow at round {t}: {pooled:.3f} of "
                        f"the mixture mass sits at queue length >= "
                        f"{K} -- the configuration is unstable for the "
                        f"fluid limit (a server class is overloaded) or "
                        f"depth={K} is too shallow; raise it via "
                        f"'meanfield:depth=N'"
                    )

        return self._synthesize(
            sim,
            model=model,
            S=S,
            queue_totals=queue_totals,
            dep_totals=dep_totals,
            joins_acc=joins_acc,
            pmf_time=pmf_time,
            qsum_class=qsum_class,
            idle_class=idle_class,
            recv_class=recv_class,
            done_class=done_class,
            max_level=max_level,
        )

    # ------------------------------------------------------------------
    def _synthesize(
        self,
        sim,
        *,
        model: FluidModel,
        S: np.ndarray,
        queue_totals: np.ndarray,
        dep_totals: np.ndarray,
        joins_acc: np.ndarray,
        pmf_time: np.ndarray,
        qsum_class: np.ndarray,
        idle_class: np.ndarray,
        recv_class: np.ndarray,
        done_class: np.ndarray,
        max_level: np.ndarray,
    ):
        """Shape the fluid trajectory into a SimulationResult."""
        config = sim.config
        classes = model.classes
        n = classes.num_servers
        n_class = classes.gamma * n
        rounds = config.rounds
        K = model.depth

        # Response-time histogram: jobs joining position k at a class-j
        # server drain in ~ k / mu_j + 1 rounds (exact for k = 1, and
        # Little-consistent in aggregate).
        histogram = ResponseTimeHistogram()
        levels = np.arange(1, K + 1)
        times = np.maximum(
            1, np.rint(levels[None, :] / classes.mu[:, None] + 1.0)
        ).astype(np.int64)
        counts = np.rint(joins_acc * n_class[:, None]).astype(np.int64)
        keep = counts > 0
        if np.any(keep):
            histogram.record_many(times[keep], counts[keep])

        series = None
        queue_ints = np.rint(queue_totals).astype(np.int64)
        if config.track_queue_series:
            series = QueueLengthSeries(rounds_hint=rounds)
            series.record_many(queue_ints)

        probes: dict = {"responses": ResponseTimeProbe(histogram)}
        if series is not None:
            probes["queue_series"] = QueueSeriesProbe(series)

        ctx = _probe_context(sim)
        for spec in config.probes:
            spec = ProbeSpec.of(spec)
            probe = spec.build()
            probe.bind(ctx)
            probe.set_state(
                self._probe_state(
                    spec.name,
                    probe,
                    queue_totals=queue_totals,
                    dep_totals=dep_totals,
                    qsum_class=qsum_class,
                    idle_class=idle_class,
                    recv_class=recv_class,
                    done_class=done_class,
                    max_level=max_level,
                    pmf_time=pmf_time,
                    classes=classes,
                    rounds=rounds,
                    warmup=config.warmup,
                )
            )
            probes[spec.label] = probe

        received = np.rint(classes.expand(recv_class)).astype(np.int64)
        departed = np.rint(classes.expand(done_class)).astype(np.int64)
        final_queues = np.rint(classes.expand(S.sum(axis=1))).astype(np.int64)
        return SimulationResult(
            policy_name=sim.policy.name,
            config=config,
            histogram=histogram,
            queue_series=series,
            total_arrived=int(round(float(n_class @ recv_class))),
            total_departed=int(round(float(n_class @ done_class))),
            final_queued=int(queue_ints[-1]) if rounds else 0,
            final_queues=final_queues,
            server_received=received,
            server_departed=departed,
            probes=probes,
        )

    def _probe_state(
        self,
        name: str,
        probe,
        *,
        queue_totals: np.ndarray,
        dep_totals: np.ndarray,
        qsum_class: np.ndarray,
        idle_class: np.ndarray,
        recv_class: np.ndarray,
        done_class: np.ndarray,
        max_level: np.ndarray,
        pmf_time: np.ndarray,
        classes: ServerClasses,
        rounds: int,
        warmup: int,
    ) -> dict:
        """The synthesized ``set_state`` payload for one allowed probe."""
        if name == "windowed_stability":
            # The block feed sees every round, so windows cover the
            # whole run; sums are per-window integrals of the fluid
            # total-queue trajectory.
            window = probe.window
            index = np.arange(rounds, dtype=np.int64) // window
            nwin = int(index[-1]) + 1 if rounds else 0
            sums = np.zeros(nwin, dtype=np.float64)
            np.add.at(sums, index, queue_totals)
            counts = np.bincount(index, minlength=nwin)
            return {
                "sums": np.rint(sums).astype(np.int64).tolist(),
                "counts": counts.astype(np.int64).tolist(),
            }
        if name == "windowed_mean":
            # The response feed is warmup-gated; per-round mean response
            # comes from the census identity T = N / throughput + 1,
            # weighted by that round's completion mass.
            window = probe.window
            index = np.arange(rounds, dtype=np.int64) // window
            nwin = int(index[-1]) + 1 if rounds else 0
            dep = np.where(np.arange(rounds) >= warmup, dep_totals, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                mean_t = np.where(
                    dep_totals > 1e-12, queue_totals / dep_totals + 1.0, 0.0
                )
            sums = np.zeros(nwin, dtype=np.float64)
            counts = np.zeros(nwin, dtype=np.float64)
            np.add.at(sums, index, mean_t * dep)
            np.add.at(counts, index, dep)
            return {
                "sums": np.rint(sums).astype(np.int64).tolist(),
                "counts": np.rint(counts).astype(np.int64).tolist(),
            }
        if name == "server_stats":
            expand = classes.expand
            queue_hist = np.rint(
                (classes.gamma * classes.num_servers) @ pmf_time
            ).astype(np.int64)
            return {
                "rounds": rounds,
                # Class-quantized rates, not the raw per-server rates:
                # the synthesized done counts come from the class mu, so
                # the probe's utilization stays internally consistent.
                "rates": expand(classes.mu).tolist(),
                "received": np.rint(expand(recv_class)).astype(np.int64).tolist(),
                "done": np.rint(expand(done_class)).astype(np.int64).tolist(),
                "queue_sum": np.rint(expand(qsum_class)).astype(np.int64).tolist(),
                "max_queue": expand(max_level).astype(np.int64).tolist(),
                "idle": np.rint(expand(idle_class)).astype(np.int64).tolist(),
                "queue_hist": queue_hist.tolist(),
            }
        raise ValueError(f"no synthesized state for probe {name!r}")
