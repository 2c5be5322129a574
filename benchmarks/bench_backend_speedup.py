"""Engine-backend speedup benchmark: reference vs fast round kernel.

Times identical simulations on both engine backends
(:mod:`repro.sim.backends`) -- with unit jobs *and* with sized jobs
(``Simulation(sizes=...)``) -- over a grid of system sizes and
policies, prints a comparison table, and writes a machine-readable perf
record (``BENCH_engine.json``) so the repo's performance trajectory is
tracked run over run.

Run as a script (CI runs this as a non-gating smoke step)::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --sizes 100x50 --rounds 10000 --policies jsq --sized-sizes 100x50

The default grid includes both acceptance configurations at 100 servers
/ 50 dispatchers and 10^4 rounds: the unsized kernel must clear a 3x
rounds/sec speedup and the sized kernel a 2x speedup (checked by
``--check``; informational otherwise), plus a larger 200x100 point for
the scaling trajectory.  A probe-overhead cell times the fast kernel
with the default probe set against every built-in probe attached
(``--probe-sizes``); ``--check`` also bars that overhead at 15%.
Every cell also records the process peak RSS (``ru_maxrss``, a monotone high-water mark
over the run) so the perf record tracks memory alongside throughput.

A compiled cell (``--compiled-sizes``, default 200x100) times the
``compiled`` kernel against both ``reference`` and ``fast`` on ``rr``
(the policy with a jitted whole-block round loop).  ``--check`` bars the
compiled/reference speedup at 10x at 200x100 **only when numba is
importable**; without numba the cell still runs (recording the
fallback's numbers plus ``numba_active: false``) but the gate
auto-skips -- the fallback *is* the fast kernel, which has its own bar.

A scenario cell (``--scenario-sizes``, default 100x50) times the fast
kernel under the nonstationary built-ins -- a diurnal rate curve and a
server-churn schedule -- against the identical stationary cell;
``--check`` bars the worst scenario overhead at 10% (the block
pre-sampler and capacity-mask adapter must not tax the hot path).

A mean-field cell (``--meanfield-sizes``, default 10000x100) times the
analytical fluid-limit backend against the fast kernel on a homogeneous
``random`` cell -- the regime where the mean-field ODE is provably the
n -> infinity limit and the per-round cost is independent of n --
recording both the wall-clock speedup and the trajectory error between
the two mean response times.  ``--check`` bars the speedup at 100x at
the 10^4-server point and the trajectory error at 15% everywhere the
cell runs.  The cell has its own round budget (``--meanfield-rounds``,
default 2000): the *fast* leg costs ~30 ms/round at 10^4 servers, so it
cannot ride the 10^4-round default grid horizon.

A service cell (``--service-sizes``, default 50x20) stands up the whole
coordination service in-process (job manager, coordinator, HTTP API,
one worker) and times HTTP submit to the first ``cell-finished`` event
on the streaming endpoint, recording the overhead beyond the cell's own
simulation time; ``--check`` bars that overhead at a generous 2s (a
regression guard on polling/buffering, not a noise-sensitive timing).

Under ``pytest benchmarks`` a single smoke cell per engine (compiled
included) runs and validates the record's shape
without asserting timings (CI boxes are too noisy for a gating speedup
threshold).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - Windows has no resource module
    resource = None

import numpy as np

import repro

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
DEFAULT_SIZES = ("20x10", "50x20", "100x50", "200x100")
DEFAULT_POLICIES = ("jsq", "rr", "wr", "scd", "sed", "jsq(2)")
DEFAULT_SIZED_SIZES = ("20x10", "100x50")
DEFAULT_SIZED_POLICIES = ("jsq", "rr", "wrr")
DEFAULT_PROBE_SIZES = ("100x50",)
DEFAULT_COMPILED_SIZES = ("200x100",)
DEFAULT_CHECKPOINT_SIZES = ("100x50",)
DEFAULT_SCENARIO_SIZES = ("100x50",)
DEFAULT_SERVICE_SIZES = ("50x20",)
DEFAULT_MEANFIELD_SIZES = ("10000x100",)
#: Round budget for the mean-field cell -- separate from the grid
#: horizon because the *fast* leg costs ~30 ms/round at 10^4 servers.
MEANFIELD_ROUNDS = 2000
#: Checkpoint cadence for the run-lifecycle overhead cell (blocks).
CHECKPOINT_EVERY = 4
#: Every built-in probe beyond the default collectors (the worst-case
#: observability load for the overhead cell).
ALL_EXTRA_PROBES = ("server_stats", "dispatcher_stats", "windowed_mean", "herding")
#: Acceptance bars: fast/reference rounds-per-second at the 100x50 grid
#: point, per engine.
TARGET_SPEEDUP = 3.0
SIZED_TARGET_SPEEDUP = 2.0
TARGET_SIZE = "100x50"
#: Acceptance bar: running ALL built-in probes on the fast kernel may
#: cost at most this fraction over the default probe set.
PROBE_OVERHEAD_TARGET = 0.15
#: Acceptance bar: a checkpointed run (snapshot every
#: :data:`CHECKPOINT_EVERY` blocks, telemetry streaming) may cost at
#: most this fraction over the plain fast-kernel run it wraps.
CHECKPOINT_OVERHEAD_TARGET = 0.10
#: Acceptance bar: a nonstationary scenario on the fast kernel (diurnal
#: rate modulation or a churn capacity mask) may cost at most this
#: fraction over the identical stationary cell.
SCENARIO_OVERHEAD_TARGET = 0.10
#: The scenario legs the overhead cell times, against a ``None``
#: (stationary) baseline.  jsq deliberately: churn masking disables
#: rr's cross-round dispatch batching, which is a *policy* cost, not
#: the scenario machinery this cell gates.
SCENARIO_BENCH = (
    ("diurnal", "diurnal:period=512"),
    ("churn", "churn:down=0.4,period=2"),
)
#: Acceptance bar: submit-to-first-streamed-metric latency through the
#: whole service stack (HTTP submit -> coordinator lease -> worker cell
#: -> telemetry streamed back over the events endpoint), *excluding*
#: the cell's own simulation time.  Generous: the bound protects
#: against pathological polling/buffering regressions, not noise.
SERVICE_FIRST_METRIC_TARGET = 2.0
#: Acceptance bar: compiled/reference rounds-per-second at the 200x100
#: grid point -- gated by ``--check`` only when numba is importable.
COMPILED_TARGET_SPEEDUP = 10.0
COMPILED_TARGET_SIZE = "200x100"
#: The policy the compiled cell times: deterministic (bit-exact across
#: all three backends) and owner of a jitted whole-block round loop.
COMPILED_POLICY = "rr"
#: Acceptance bar: meanfield/fast rounds-per-second at the
#: 10^4-server grid point.  The analytic backend's cost is independent
#: of n, so the bar is deliberately aggressive -- at 10^4 servers the
#: fast kernel is ~400x slower in practice.
MEANFIELD_TARGET_SPEEDUP = 100.0
MEANFIELD_TARGET_SIZE = "10000x100"
#: Acceptance bar: relative gap between the fast kernel's measured mean
#: response time and the fluid limit's, on the same horizon.  For the
#: homogeneous ``random`` cell the fluid limit is exact as n -> infinity
#: (each server sees an independent thinned Poisson stream), so the gap
#: is finite-n sampling noise plus the O(1/n) correction.
MEANFIELD_TRAJECTORY_TOL = 0.15
#: The policy and rate profile the mean-field cell times.  ``random``
#: deliberately: its fluid arrival map is a closed-form Poisson-tail
#: convolution (the jsq(d) choice drift needs sub-round ODE steps and
#: is not the headline speed path), and ``homogeneous`` deliberately:
#: under random dispatch a heterogeneous fleet is fluid-unstable unless
#: rho < mu_min / mean(mu).
MEANFIELD_POLICY = "random"
MEANFIELD_PROFILE = "homogeneous"


def _parse_size(token: str) -> tuple[int, int]:
    n_text, m_text = token.lower().split("x")
    return int(n_text), int(m_text)


def _peak_rss_kb() -> int | None:
    """Process peak resident set size in KiB (``ru_maxrss``).

    A monotone high-water mark over the process lifetime: per-cell
    values record "the largest footprint seen up to and including this
    cell", so growth between cells attributes added memory while flat
    values mean the cell fit inside an earlier peak.  ``ru_maxrss`` is
    KiB on Linux but bytes on macOS; None where unavailable (Windows).
    """
    if resource is None:
        return None
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak // 1024 if sys.platform == "darwin" else peak


def _build_sim(
    policy: str,
    n: int,
    m: int,
    rho: float,
    rounds: int,
    seed: int,
    backend: str,
    probes: tuple = (),
    scenario: str | None = None,
    profile: str = "u1_10",
    warmup: int = 0,
) -> repro.Simulation:
    system = repro.SystemSpec(num_servers=n, num_dispatchers=m, profile=profile)
    rates = system.rates()
    return repro.Simulation(
        rates=rates,
        policy=repro.make_policy(policy),
        arrivals=repro.PoissonArrivals(system.lambdas(rho)),
        service=repro.GeometricService(rates),
        config=repro.SimulationConfig(
            rounds=rounds, warmup=warmup, seed=seed, backend=backend,
            probes=probes, scenario=scenario,
        ),
    )


def _build_sized_sim(
    policy: str,
    n: int,
    m: int,
    rho: float,
    rounds: int,
    seed: int,
    backend: str,
    mean_size: float,
) -> repro.Simulation:
    system = repro.SystemSpec(num_servers=n, num_dispatchers=m)
    rates = system.rates()
    sizes = repro.GeometricSize(mean_size)
    jobs_per_round = rho * rates.sum() / sizes.mean
    return repro.Simulation(
        rates=rates,
        policy=repro.make_policy(policy),
        arrivals=repro.PoissonArrivals(np.full(m, jobs_per_round / m)),
        service=repro.GeometricService(rates),
        config=repro.SimulationConfig(rounds=rounds, seed=seed, backend=backend),
        sizes=sizes,
    )


def time_cell(
    policy: str,
    n: int,
    m: int,
    rho: float,
    rounds: int,
    seed: int,
    repeats: int,
    engine: str = "unsized",
    mean_size: float = 3.0,
) -> dict:
    """Best-of-``repeats`` wall time per backend for one grid point."""
    cell: dict = {
        "engine": engine,
        "policy": policy,
        "num_servers": n,
        "num_dispatchers": m,
        "rho": rho,
        "rounds": rounds,
        "seed": seed,
    }
    if engine == "sized":
        cell["mean_size"] = mean_size
    means = {}
    for backend in ("reference", "fast"):
        best = float("inf")
        for _ in range(repeats):
            if engine == "sized":
                sim = _build_sized_sim(
                    policy, n, m, rho, rounds, seed, backend, mean_size
                )
            else:
                sim = _build_sim(policy, n, m, rho, rounds, seed, backend)
            start = time.perf_counter()
            result = sim.run()
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
        means[backend] = result.mean_response_time
        cell[f"{backend}_seconds"] = best
        cell[f"{backend}_rounds_per_sec"] = rounds / best
    cell["speedup"] = cell["fast_rounds_per_sec"] / cell["reference_rounds_per_sec"]
    # Native deterministic policies must agree exactly; stochastic native
    # paths are statistically equivalent, so record both means.
    cell["reference_mean_response"] = means["reference"]
    cell["fast_mean_response"] = means["fast"]
    cell["peak_rss_kb"] = _peak_rss_kb()
    return cell


def time_compiled_cell(
    policy: str,
    n: int,
    m: int,
    rho: float,
    rounds: int,
    seed: int,
    repeats: int,
) -> dict:
    """The ``compiled`` kernel against reference AND fast.

    Records whether the jitted paths were actually live
    (``numba_active``): without numba the compiled backend falls back to
    the fast kernel's numpy paths, so the cell then documents fallback
    parity rather than a jit win -- and the ``--check`` gate skips.
    """
    from repro.sim.compiled import numba_enabled

    cell: dict = {
        "engine": "compiled",
        "policy": policy,
        "num_servers": n,
        "num_dispatchers": m,
        "rho": rho,
        "rounds": rounds,
        "seed": seed,
        "numba_active": numba_enabled(),
    }
    means = {}
    for backend in ("reference", "fast", "compiled"):
        best = float("inf")
        for _ in range(repeats):
            sim = _build_sim(policy, n, m, rho, rounds, seed, backend)
            start = time.perf_counter()
            result = sim.run()
            best = min(best, time.perf_counter() - start)
        means[backend] = result.mean_response_time
        cell[f"{backend}_seconds"] = best
        cell[f"{backend}_rounds_per_sec"] = rounds / best
    cell["speedup"] = (
        cell["compiled_rounds_per_sec"] / cell["reference_rounds_per_sec"]
    )
    cell["speedup_vs_fast"] = (
        cell["compiled_rounds_per_sec"] / cell["fast_rounds_per_sec"]
    )
    cell["reference_mean_response"] = means["reference"]
    cell["fast_mean_response"] = means["fast"]
    cell["compiled_mean_response"] = means["compiled"]
    cell["peak_rss_kb"] = _peak_rss_kb()
    return cell


def time_probe_overhead(
    policy: str, n: int, m: int, rho: float, rounds: int, seed: int, repeats: int
) -> dict:
    """Fast-kernel cost of the full built-in probe set vs the default.

    The probe API's acceptance bar: observability must not tax the hot
    path.  Times the same fast-backend simulation with the default
    collectors only and with every built-in probe attached, and reports
    the relative overhead.
    """
    cell: dict = {
        "engine": "probe_overhead",
        "policy": policy,
        "num_servers": n,
        "num_dispatchers": m,
        "rho": rho,
        "rounds": rounds,
        "seed": seed,
        "probes": list(ALL_EXTRA_PROBES),
    }
    for label, probes in (("default", ()), ("all_probes", ALL_EXTRA_PROBES)):
        best = float("inf")
        for _ in range(repeats):
            sim = _build_sim(policy, n, m, rho, rounds, seed, "fast", probes)
            start = time.perf_counter()
            sim.run()
            best = min(best, time.perf_counter() - start)
        cell[f"{label}_seconds"] = best
        cell[f"{label}_rounds_per_sec"] = rounds / best
    cell["overhead_fraction"] = (
        cell["all_probes_seconds"] / cell["default_seconds"] - 1.0
    )
    cell["peak_rss_kb"] = _peak_rss_kb()
    return cell


def time_scenario_overhead(
    policy: str, n: int, m: int, rho: float, rounds: int, seed: int, repeats: int
) -> dict:
    """Scenario tax: nonstationary fast-kernel cells vs the stationary one.

    Runs the identical fast-backend cell three times -- stationary, under
    a diurnal rate curve, and under a server-churn schedule (the legs in
    :data:`SCENARIO_BENCH`) -- and reports each leg's overhead over the
    stationary baseline.  The scenario machinery is a block pre-sampler
    wrapper plus (for churn) a capacity-mask policy adapter, so its cost
    must stay a small fraction of the round loop; ``--check`` bars the
    worst leg at :data:`SCENARIO_OVERHEAD_TARGET`.
    """
    cell: dict = {
        "engine": "scenario_overhead",
        "policy": policy,
        "num_servers": n,
        "num_dispatchers": m,
        "rho": rho,
        "rounds": rounds,
        "seed": seed,
        "scenarios": {label: spec for label, spec in SCENARIO_BENCH},
    }
    for label, scenario in (("stationary", None),) + SCENARIO_BENCH:
        best = float("inf")
        for _ in range(repeats):
            sim = _build_sim(
                policy, n, m, rho, rounds, seed, "fast", scenario=scenario
            )
            start = time.perf_counter()
            result = sim.run()
            best = min(best, time.perf_counter() - start)
        cell[f"{label}_seconds"] = best
        cell[f"{label}_rounds_per_sec"] = rounds / best
        cell[f"{label}_mean_response"] = result.mean_response_time
    for label, _ in SCENARIO_BENCH:
        cell[f"{label}_overhead_fraction"] = (
            cell[f"{label}_seconds"] / cell["stationary_seconds"] - 1.0
        )
    cell["scenario_overhead_fraction"] = max(
        cell[f"{label}_overhead_fraction"] for label, _ in SCENARIO_BENCH
    )
    cell["peak_rss_kb"] = _peak_rss_kb()
    return cell


def time_checkpoint_overhead(
    policy: str, n: int, m: int, rho: float, rounds: int, seed: int, repeats: int
) -> dict:
    """Run-lifecycle tax: a checkpointed fast-kernel run vs a plain one.

    The checkpointed leg pickles the whole simulation plus kernel state
    every :data:`CHECKPOINT_EVERY` blocks (atomic write, hash, probe
    snapshot, telemetry events) -- crash safety must not tax the hot
    path, so ``--check`` bars the overhead at
    :data:`CHECKPOINT_OVERHEAD_TARGET`.
    """
    from repro.runs import Run

    cell: dict = {
        "engine": "checkpoint_overhead",
        "policy": policy,
        "num_servers": n,
        "num_dispatchers": m,
        "rho": rho,
        "rounds": rounds,
        "seed": seed,
        "checkpoint_every": CHECKPOINT_EVERY,
    }
    best = float("inf")
    for _ in range(repeats):
        sim = _build_sim(policy, n, m, rho, rounds, seed, "fast")
        start = time.perf_counter()
        plain_result = sim.run()
        best = min(best, time.perf_counter() - start)
    cell["plain_seconds"] = best
    cell["plain_rounds_per_sec"] = rounds / best
    best = float("inf")
    checkpoints = 0
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            run = Run.create(
                _build_sim(policy, n, m, rho, rounds, seed, "fast"),
                Path(tmp) / "run",
                checkpoint_every=CHECKPOINT_EVERY,
            )
            start = time.perf_counter()
            checkpointed_result = run.execute()
            best = min(best, time.perf_counter() - start)
            checkpoints = len(run.store.rounds())
    cell["checkpointed_seconds"] = best
    cell["checkpointed_rounds_per_sec"] = rounds / best
    cell["checkpoints"] = checkpoints
    cell["checkpoint_overhead_fraction"] = (
        cell["checkpointed_seconds"] / cell["plain_seconds"] - 1.0
    )
    # The checkpointed run replays the identical simulation.
    cell["plain_mean_response"] = plain_result.mean_response_time
    cell["checkpointed_mean_response"] = checkpointed_result.mean_response_time
    cell["peak_rss_kb"] = _peak_rss_kb()
    return cell


def time_service_cell(
    policy: str, n: int, m: int, rho: float, rounds: int, seed: int, repeats: int
) -> dict:
    """Service-stack latency: HTTP submit to first streamed metric.

    Spins up the whole coordination service in-process (job manager,
    federation coordinator, HTTP API, one worker thread), submits a
    single-cell grid by descriptor, and times POST ``/jobs`` until the
    ``cell-finished`` event arrives over the streaming events endpoint.
    The same simulation also runs directly, so the recorded
    ``service_overhead_seconds`` isolates what the service stack itself
    costs (lease round-trips, telemetry polling, HTTP chunking) from
    the cell's simulation time.
    """
    import threading

    from repro.experiments.grid import Experiment
    from repro.service import (
        FederationCoordinator,
        FederationWorker,
        JobManager,
        ServiceAPI,
    )
    from repro.service.client import iter_job_events, submit_job
    from repro.workloads.scenarios import SystemSpec

    cell: dict = {
        "engine": "service_first_metric",
        "policy": policy,
        "num_servers": n,
        "num_dispatchers": m,
        "rho": rho,
        "rounds": rounds,
        "seed": seed,
    }
    experiment = Experiment(
        policies=[policy],
        systems=SystemSpec(n, m),
        loads=[rho],
        rounds=rounds,
        base_seed=seed,
        backend="fast",
    )
    best_plain = float("inf")
    for _ in range(repeats):
        sim = _build_sim(policy, n, m, rho, rounds, seed, "fast")
        start = time.perf_counter()
        sim.run()
        best_plain = min(best_plain, time.perf_counter() - start)
    best = float("inf")
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            manager = JobManager(Path(tmp))
            coordinator = FederationCoordinator(manager, heartbeat_interval=0.5)
            coordinator.start()
            api = ServiceAPI(manager, coordinator)
            api.start()
            # The worker idles until the job lands (it must NOT exit
            # when drained: the queue is empty until the submit below).
            worker = FederationWorker(coordinator.address, poll_interval=0.05)
            thread = threading.Thread(target=worker.run)
            thread.start()
            try:
                start = time.perf_counter()
                created = submit_job(api.url, experiment.describe())
                for event in iter_job_events(api.url, created["job"], follow=True):
                    if event["event"] == "cell-finished":
                        best = min(best, time.perf_counter() - start)
                        break
            finally:
                worker.stop()
                thread.join()
                api.stop()
                coordinator.stop()
                manager.close()
    cell["plain_seconds"] = best_plain
    cell["first_metric_seconds"] = best
    cell["service_overhead_seconds"] = best - best_plain
    cell["peak_rss_kb"] = _peak_rss_kb()
    return cell


def time_meanfield_cell(
    n: int,
    m: int,
    rho: float,
    rounds: int,
    seed: int,
    repeats: int,
) -> dict:
    """The analytic fluid-limit backend against the fast kernel.

    Times the identical :data:`MEANFIELD_POLICY` cell on a
    :data:`MEANFIELD_PROFILE` fleet on both backends (same rounds, same
    ``rounds // 4`` warmup) and records the wall-clock speedup plus the
    relative gap between the two mean response times
    (``trajectory_error``).  The seed only feeds the fast leg -- the
    fluid limit is deterministic -- so the error folds together
    finite-n bias and single-seed sampling noise; ``--check`` bars it
    at :data:`MEANFIELD_TRAJECTORY_TOL`.
    """
    warmup = rounds // 4
    cell: dict = {
        "engine": "meanfield",
        "policy": MEANFIELD_POLICY,
        "profile": MEANFIELD_PROFILE,
        "num_servers": n,
        "num_dispatchers": m,
        "rho": rho,
        "rounds": rounds,
        "warmup": warmup,
        "seed": seed,
    }
    means = {}
    for backend in ("fast", "meanfield"):
        best = float("inf")
        for _ in range(repeats):
            sim = _build_sim(
                MEANFIELD_POLICY, n, m, rho, rounds, seed, backend,
                profile=MEANFIELD_PROFILE, warmup=warmup,
            )
            start = time.perf_counter()
            result = sim.run()
            best = min(best, time.perf_counter() - start)
        means[backend] = result.mean_response_time
        cell[f"{backend}_seconds"] = best
        cell[f"{backend}_rounds_per_sec"] = rounds / best
    cell["speedup"] = (
        cell["meanfield_rounds_per_sec"] / cell["fast_rounds_per_sec"]
    )
    cell["fast_mean_response"] = means["fast"]
    cell["meanfield_mean_response"] = means["meanfield"]
    cell["trajectory_error"] = abs(
        means["fast"] - means["meanfield"]
    ) / abs(means["meanfield"])
    cell["peak_rss_kb"] = _peak_rss_kb()
    return cell


def _best_at_target(cells: list[dict], engine: str) -> float | None:
    at_target = [
        c
        for c in cells
        if c["engine"] == engine
        and f"{c['num_servers']}x{c['num_dispatchers']}" == TARGET_SIZE
    ]
    return max((c["speedup"] for c in at_target), default=None)


def run_grid(
    sizes: tuple[str, ...],
    policies: tuple[str, ...],
    rho: float,
    rounds: int,
    seed: int,
    repeats: int,
    sized_sizes: tuple[str, ...] = (),
    sized_policies: tuple[str, ...] = DEFAULT_SIZED_POLICIES,
    mean_size: float = 3.0,
    probe_sizes: tuple[str, ...] = (),
    checkpoint_sizes: tuple[str, ...] = (),
    compiled_sizes: tuple[str, ...] = (),
    scenario_sizes: tuple[str, ...] = (),
    service_sizes: tuple[str, ...] = (),
    meanfield_sizes: tuple[str, ...] = (),
    meanfield_rounds: int = MEANFIELD_ROUNDS,
) -> dict:
    """Time every (engine, size, policy) cell and assemble the perf record."""
    cells = []
    grid = [("unsized", sizes, policies), ("sized", sized_sizes, sized_policies)]
    for engine, engine_sizes, engine_policies in grid:
        for token in engine_sizes:
            n, m = _parse_size(token)
            for policy in engine_policies:
                cell = time_cell(
                    policy, n, m, rho, rounds, seed, repeats,
                    engine=engine, mean_size=mean_size,
                )
                cells.append(cell)
                print(
                    f"{engine:7s} n={n:4d} m={m:3d} {policy:6s} "
                    f"ref={cell['reference_rounds_per_sec']:9.0f} r/s  "
                    f"fast={cell['fast_rounds_per_sec']:9.0f} r/s  "
                    f"speedup={cell['speedup']:.2f}x"
                )
    compiled_cells = []
    for token in compiled_sizes:
        n, m = _parse_size(token)
        cell = time_compiled_cell(
            COMPILED_POLICY, n, m, rho, rounds, seed, repeats
        )
        cells.append(cell)
        compiled_cells.append(cell)
        jit = "jit" if cell["numba_active"] else "fallback"
        print(
            f"compiled n={n:4d} m={m:3d} {COMPILED_POLICY:6s} "
            f"ref={cell['reference_rounds_per_sec']:9.0f} r/s  "
            f"compiled={cell['compiled_rounds_per_sec']:9.0f} r/s ({jit})  "
            f"speedup={cell['speedup']:.2f}x"
        )
    probe_overheads = []
    for token in probe_sizes:
        n, m = _parse_size(token)
        cell = time_probe_overhead("jsq", n, m, rho, rounds, seed, repeats)
        cells.append(cell)
        probe_overheads.append(cell["overhead_fraction"])
        print(
            f"probes  n={n:4d} m={m:3d} jsq    "
            f"default={cell['default_rounds_per_sec']:9.0f} r/s  "
            f"all={cell['all_probes_rounds_per_sec']:9.0f} r/s  "
            f"overhead={100 * cell['overhead_fraction']:+.1f}%"
        )
    scenario_overheads = []
    for token in scenario_sizes:
        n, m = _parse_size(token)
        cell = time_scenario_overhead("jsq", n, m, rho, rounds, seed, repeats)
        cells.append(cell)
        scenario_overheads.append(cell["scenario_overhead_fraction"])
        legs = "  ".join(
            f"{label}={cell[f'{label}_rounds_per_sec']:9.0f} r/s "
            f"({100 * cell[f'{label}_overhead_fraction']:+.1f}%)"
            for label, _ in SCENARIO_BENCH
        )
        print(
            f"scen    n={n:4d} m={m:3d} jsq    "
            f"stationary={cell['stationary_rounds_per_sec']:9.0f} r/s  {legs}"
        )
    checkpoint_overheads = []
    for token in checkpoint_sizes:
        n, m = _parse_size(token)
        cell = time_checkpoint_overhead("jsq", n, m, rho, rounds, seed, repeats)
        cells.append(cell)
        checkpoint_overheads.append(cell["checkpoint_overhead_fraction"])
        print(
            f"ckpt    n={n:4d} m={m:3d} jsq    "
            f"plain={cell['plain_rounds_per_sec']:9.0f} r/s  "
            f"every{CHECKPOINT_EVERY}={cell['checkpointed_rounds_per_sec']:9.0f} r/s  "
            f"overhead={100 * cell['checkpoint_overhead_fraction']:+.1f}%"
        )
    service_overheads = []
    for token in service_sizes:
        n, m = _parse_size(token)
        cell = time_service_cell("jsq", n, m, rho, rounds, seed, repeats)
        cells.append(cell)
        service_overheads.append(cell["service_overhead_seconds"])
        print(
            f"service n={n:4d} m={m:3d} jsq    "
            f"plain={cell['plain_seconds']:6.2f}s  "
            f"first-metric={cell['first_metric_seconds']:6.2f}s  "
            f"overhead={cell['service_overhead_seconds']:+.2f}s"
        )
    meanfield_cells = []
    for token in meanfield_sizes:
        n, m = _parse_size(token)
        cell = time_meanfield_cell(n, m, rho, meanfield_rounds, seed, repeats)
        cells.append(cell)
        meanfield_cells.append(cell)
        print(
            f"mfield  n={n:4d} m={m:3d} {MEANFIELD_POLICY:6s} "
            f"fast={cell['fast_rounds_per_sec']:9.0f} r/s  "
            f"meanfield={cell['meanfield_rounds_per_sec']:9.0f} r/s  "
            f"speedup={cell['speedup']:.0f}x  "
            f"traj-err={100 * cell['trajectory_error']:.1f}%"
        )
    return {
        "benchmark": "backend_speedup",
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "parameters": {
            "sizes": list(sizes),
            "policies": list(policies),
            "sized_sizes": list(sized_sizes),
            "sized_policies": list(sized_policies),
            "probe_sizes": list(probe_sizes),
            "compiled_sizes": list(compiled_sizes),
            "checkpoint_sizes": list(checkpoint_sizes),
            "checkpoint_every": CHECKPOINT_EVERY,
            "scenario_sizes": list(scenario_sizes),
            "scenarios": {label: spec for label, spec in SCENARIO_BENCH},
            "service_sizes": list(service_sizes),
            "meanfield_sizes": list(meanfield_sizes),
            "meanfield_rounds": meanfield_rounds,
            "mean_size": mean_size,
            "rho": rho,
            "rounds": rounds,
            "seed": seed,
            "repeats": repeats,
        },
        "cells": cells,
        "headline": {
            "target_size": TARGET_SIZE,
            "target_speedup": TARGET_SPEEDUP,
            "best_speedup": _best_at_target(cells, "unsized"),
            "sized_target_speedup": SIZED_TARGET_SPEEDUP,
            "sized_best_speedup": _best_at_target(cells, "sized"),
            "probe_overhead_target": PROBE_OVERHEAD_TARGET,
            "probe_overhead_fraction": (
                max(probe_overheads) if probe_overheads else None
            ),
            "checkpoint_overhead_target": CHECKPOINT_OVERHEAD_TARGET,
            "checkpoint_overhead_fraction": (
                max(checkpoint_overheads) if checkpoint_overheads else None
            ),
            "scenario_overhead_target": SCENARIO_OVERHEAD_TARGET,
            "scenario_overhead_fraction": (
                max(scenario_overheads) if scenario_overheads else None
            ),
            "service_first_metric_target": SERVICE_FIRST_METRIC_TARGET,
            "service_overhead_seconds": (
                max(service_overheads) if service_overheads else None
            ),
            "compiled_target_size": COMPILED_TARGET_SIZE,
            "compiled_target_speedup": COMPILED_TARGET_SPEEDUP,
            "compiled_best_speedup": max(
                (
                    c["speedup"]
                    for c in compiled_cells
                    if f"{c['num_servers']}x{c['num_dispatchers']}"
                    == COMPILED_TARGET_SIZE
                ),
                default=None,
            ),
            "numba_available": (
                compiled_cells[0]["numba_active"] if compiled_cells else None
            ),
            "meanfield_target_size": MEANFIELD_TARGET_SIZE,
            "meanfield_target_speedup": MEANFIELD_TARGET_SPEEDUP,
            "meanfield_best_speedup": max(
                (
                    c["speedup"]
                    for c in meanfield_cells
                    if f"{c['num_servers']}x{c['num_dispatchers']}"
                    == MEANFIELD_TARGET_SIZE
                ),
                default=None,
            ),
            "meanfield_trajectory_tolerance": MEANFIELD_TRAJECTORY_TOL,
            "meanfield_trajectory_error": max(
                (c["trajectory_error"] for c in meanfield_cells), default=None
            ),
            "peak_rss_kb": _peak_rss_kb(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", default=list(DEFAULT_SIZES), metavar="NxM")
    parser.add_argument("--policies", nargs="+", default=list(DEFAULT_POLICIES))
    parser.add_argument(
        "--sized-sizes",
        nargs="*",
        default=list(DEFAULT_SIZED_SIZES),
        metavar="NxM",
        help="grid points for the sized-job kernel (empty list skips it)",
    )
    parser.add_argument(
        "--sized-policies", nargs="+", default=list(DEFAULT_SIZED_POLICIES)
    )
    parser.add_argument(
        "--mean-size",
        type=float,
        default=3.0,
        help="geometric mean job size for the sized cells",
    )
    parser.add_argument(
        "--probe-sizes",
        nargs="*",
        default=list(DEFAULT_PROBE_SIZES),
        metavar="NxM",
        help="grid points for the probe-overhead cell (default probe set "
        "vs all built-in probes on the fast kernel; empty list skips it)",
    )
    parser.add_argument(
        "--compiled-sizes",
        nargs="*",
        default=list(DEFAULT_COMPILED_SIZES),
        metavar="NxM",
        help="grid points for the compiled-kernel cell (compiled vs "
        "reference and fast on rr; empty list skips it)",
    )
    parser.add_argument(
        "--checkpoint-sizes",
        nargs="*",
        default=list(DEFAULT_CHECKPOINT_SIZES),
        metavar="NxM",
        help="grid points for the checkpoint-overhead cell (a run "
        f"snapshotting every {CHECKPOINT_EVERY} blocks vs the plain fast "
        "kernel; empty list skips it)",
    )
    parser.add_argument(
        "--scenario-sizes",
        nargs="*",
        default=list(DEFAULT_SCENARIO_SIZES),
        metavar="NxM",
        help="grid points for the scenario-overhead cell (diurnal and "
        "churn legs on the fast kernel vs the identical stationary "
        "cell; empty list skips it)",
    )
    parser.add_argument(
        "--service-sizes",
        nargs="*",
        default=list(DEFAULT_SERVICE_SIZES),
        metavar="NxM",
        help="grid points for the service-latency cell (HTTP submit to "
        "first streamed metric through the in-process coordination "
        "service, minus the cell's own simulation time; empty list "
        "skips it)",
    )
    parser.add_argument(
        "--meanfield-sizes",
        nargs="*",
        default=list(DEFAULT_MEANFIELD_SIZES),
        metavar="NxM",
        help="grid points for the mean-field cell (the analytic "
        f"fluid-limit backend vs the fast kernel on a homogeneous "
        f"{MEANFIELD_POLICY} cell; empty list skips it)",
    )
    parser.add_argument(
        "--meanfield-rounds",
        type=int,
        default=MEANFIELD_ROUNDS,
        help="round budget for the mean-field cell (separate from "
        "--rounds: the fast leg costs ~30 ms/round at 10^4 servers)",
    )
    parser.add_argument("--rho", type=float, default=0.9)
    parser.add_argument("--rounds", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless the {TARGET_SIZE} headline speedups "
        f"reach {TARGET_SPEEDUP}x (unsized) and {SIZED_TARGET_SPEEDUP}x "
        f"(sized), the all-probes overhead stays under "
        f"{PROBE_OVERHEAD_TARGET:.0%}, the checkpointed-run "
        f"overhead stays under {CHECKPOINT_OVERHEAD_TARGET:.0%}, and the "
        f"nonstationary-scenario overhead stays under "
        f"{SCENARIO_OVERHEAD_TARGET:.0%}; also bars "
        f"the compiled kernel at {COMPILED_TARGET_SPEEDUP:.0f}x over "
        f"reference at {COMPILED_TARGET_SIZE} when numba is importable "
        f"(auto-skipped where it is not), bars the service submit-to-first-metric "
        f"overhead at {SERVICE_FIRST_METRIC_TARGET:.0f}s, and bars the "
        f"mean-field backend at {MEANFIELD_TARGET_SPEEDUP:.0f}x over "
        f"fast at {MEANFIELD_TARGET_SIZE} with a trajectory error under "
        f"{MEANFIELD_TRAJECTORY_TOL:.0%}",
    )
    args = parser.parse_args(argv)

    record = run_grid(
        tuple(args.sizes),
        tuple(args.policies),
        args.rho,
        args.rounds,
        args.seed,
        args.repeats,
        sized_sizes=tuple(args.sized_sizes),
        sized_policies=tuple(args.sized_policies),
        mean_size=args.mean_size,
        probe_sizes=tuple(args.probe_sizes),
        checkpoint_sizes=tuple(args.checkpoint_sizes),
        compiled_sizes=tuple(args.compiled_sizes),
        scenario_sizes=tuple(args.scenario_sizes),
        service_sizes=tuple(args.service_sizes),
        meanfield_sizes=tuple(args.meanfield_sizes),
        meanfield_rounds=args.meanfield_rounds,
    )
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"perf record written to {args.out}")

    failures = 0
    misconfigured = False
    for label, best, target, grid_ran in (
        ("unsized", record["headline"]["best_speedup"], TARGET_SPEEDUP, bool(args.sizes)),
        (
            "sized",
            record["headline"]["sized_best_speedup"],
            SIZED_TARGET_SPEEDUP,
            bool(args.sized_sizes),
        ),
    ):
        if best is not None:
            print(f"headline ({label} {TARGET_SIZE}): best speedup {best:.2f}x")
        if not args.check or not grid_ran:
            continue
        if best is None:
            print(f"--check requires a {label} {TARGET_SIZE} cell")
            misconfigured = True
        elif best < target:
            print(f"FAIL ({label}): {best:.2f}x < {target}x")
            failures += 1
        else:
            print(f"OK ({label}): {best:.2f}x >= {target}x")
    for label, overhead, target in (
        ("probes", record["headline"]["probe_overhead_fraction"], PROBE_OVERHEAD_TARGET),
        (
            "checkpoint",
            record["headline"]["checkpoint_overhead_fraction"],
            CHECKPOINT_OVERHEAD_TARGET,
        ),
        (
            "scenario",
            record["headline"]["scenario_overhead_fraction"],
            SCENARIO_OVERHEAD_TARGET,
        ),
    ):
        if overhead is None:
            continue
        print(f"headline ({label}): worst overhead {100 * overhead:+.1f}%")
        if args.check:
            if overhead > target:
                print(
                    f"FAIL ({label}): {100 * overhead:.1f}% > "
                    f"{100 * target:.0f}%"
                )
                failures += 1
            else:
                print(
                    f"OK ({label}): {100 * overhead:.1f}% <= "
                    f"{100 * target:.0f}%"
                )
    compiled_best = record["headline"]["compiled_best_speedup"]
    if compiled_best is not None:
        jit = "jit" if record["headline"]["numba_available"] else "fallback"
        print(
            f"headline (compiled {COMPILED_TARGET_SIZE}): "
            f"{compiled_best:.2f}x over reference ({jit})"
        )
    if args.check and args.compiled_sizes:
        if not record["headline"]["numba_available"]:
            print(
                "SKIP (compiled): numba is not importable here, so the "
                f"{COMPILED_TARGET_SPEEDUP:.0f}x bar does not apply "
                "(fallback parity only)"
            )
        elif compiled_best is None:
            print(f"--check requires a compiled {COMPILED_TARGET_SIZE} cell")
            misconfigured = True
        elif compiled_best < COMPILED_TARGET_SPEEDUP:
            print(
                f"FAIL (compiled): {compiled_best:.2f}x < "
                f"{COMPILED_TARGET_SPEEDUP:.0f}x"
            )
            failures += 1
        else:
            print(
                f"OK (compiled): {compiled_best:.2f}x >= "
                f"{COMPILED_TARGET_SPEEDUP:.0f}x"
            )
    service_overhead = record["headline"]["service_overhead_seconds"]
    if service_overhead is not None:
        print(
            f"headline (service): worst submit-to-first-metric overhead "
            f"{service_overhead:+.2f}s"
        )
        if args.check:
            if service_overhead > SERVICE_FIRST_METRIC_TARGET:
                print(
                    f"FAIL (service): {service_overhead:.2f}s > "
                    f"{SERVICE_FIRST_METRIC_TARGET:.1f}s"
                )
                failures += 1
            else:
                print(
                    f"OK (service): {service_overhead:.2f}s <= "
                    f"{SERVICE_FIRST_METRIC_TARGET:.1f}s"
                )
    elif args.check and args.service_sizes:
        print("--check requires a service cell")
        misconfigured = True
    meanfield_best = record["headline"]["meanfield_best_speedup"]
    trajectory_error = record["headline"]["meanfield_trajectory_error"]
    if meanfield_best is not None:
        print(
            f"headline (meanfield {MEANFIELD_TARGET_SIZE}): "
            f"{meanfield_best:.0f}x over fast, trajectory error "
            f"{100 * trajectory_error:.1f}%"
        )
    if args.check and args.meanfield_sizes:
        if meanfield_best is None:
            print(f"--check requires a meanfield {MEANFIELD_TARGET_SIZE} cell")
            misconfigured = True
        elif meanfield_best < MEANFIELD_TARGET_SPEEDUP:
            print(
                f"FAIL (meanfield): {meanfield_best:.0f}x < "
                f"{MEANFIELD_TARGET_SPEEDUP:.0f}x"
            )
            failures += 1
        else:
            print(
                f"OK (meanfield): {meanfield_best:.0f}x >= "
                f"{MEANFIELD_TARGET_SPEEDUP:.0f}x"
            )
        if trajectory_error is not None:
            if trajectory_error > MEANFIELD_TRAJECTORY_TOL:
                print(
                    f"FAIL (meanfield trajectory): "
                    f"{100 * trajectory_error:.1f}% > "
                    f"{100 * MEANFIELD_TRAJECTORY_TOL:.0f}%"
                )
                failures += 1
            else:
                print(
                    f"OK (meanfield trajectory): "
                    f"{100 * trajectory_error:.1f}% <= "
                    f"{100 * MEANFIELD_TRAJECTORY_TOL:.0f}%"
                )
    if record["headline"]["peak_rss_kb"] is not None:
        print(f"peak RSS: {record['headline']['peak_rss_kb']} KiB")
    if misconfigured:
        return 2
    return 1 if failures else 0


def test_backend_speedup_record(tmp_path):
    """Smoke: one tiny grid point per engine produces a well-formed record."""
    record = run_grid(
        ("10x4",), ("jsq",), rho=0.9, rounds=600, seed=0, repeats=1,
        sized_sizes=("10x4",), sized_policies=("jsq",),
        probe_sizes=("10x4",),
        checkpoint_sizes=("10x4",),
        compiled_sizes=("10x4",),
        scenario_sizes=("10x4",),
        service_sizes=("10x4",),
        meanfield_sizes=("10x4",), meanfield_rounds=600,
    )
    out = tmp_path / "BENCH_engine.json"
    out.write_text(json.dumps(record))
    loaded = json.loads(out.read_text())
    assert loaded["benchmark"] == "backend_speedup"
    (
        unsized, sized, compiled, probes, scenario, checkpoint, service,
        meanfield,
    ) = loaded["cells"]
    assert unsized["engine"] == "unsized" and sized["engine"] == "sized"
    for cell in (unsized, sized):
        assert cell["reference_rounds_per_sec"] > 0
        assert cell["fast_rounds_per_sec"] > 0
        # jsq is deterministic: both backends simulate the identical run.
        assert cell["reference_mean_response"] == cell["fast_mean_response"]
    assert compiled["engine"] == "compiled"
    assert isinstance(compiled["numba_active"], bool)
    assert compiled["compiled_rounds_per_sec"] > 0
    # rr is deterministic: all three backends simulate the identical run.
    assert compiled["reference_mean_response"] == compiled["compiled_mean_response"]
    assert compiled["fast_mean_response"] == compiled["compiled_mean_response"]
    assert probes["engine"] == "probe_overhead"
    assert probes["probes"] == list(ALL_EXTRA_PROBES)
    assert probes["default_rounds_per_sec"] > 0
    assert probes["all_probes_rounds_per_sec"] > 0
    assert scenario["engine"] == "scenario_overhead"
    assert scenario["scenarios"] == {
        label: spec for label, spec in SCENARIO_BENCH
    }
    assert scenario["stationary_rounds_per_sec"] > 0
    for label, _ in SCENARIO_BENCH:
        assert scenario[f"{label}_rounds_per_sec"] > 0
        # Every leg replays the same 600 rounds, so the means are finite
        # and the overhead fraction is well-defined.
        assert scenario[f"{label}_mean_response"] > 0
        assert scenario[f"{label}_overhead_fraction"] > -1.0
    assert scenario["scenario_overhead_fraction"] == max(
        scenario[f"{label}_overhead_fraction"] for label, _ in SCENARIO_BENCH
    )
    assert checkpoint["engine"] == "checkpoint_overhead"
    assert checkpoint["checkpoint_every"] == CHECKPOINT_EVERY
    assert checkpoint["checkpoints"] >= 0
    assert checkpoint["checkpointed_rounds_per_sec"] > 0
    # The checkpointed leg replays the identical deterministic run.
    assert checkpoint["plain_mean_response"] == checkpoint["checkpointed_mean_response"]
    assert service["engine"] == "service_first_metric"
    assert service["first_metric_seconds"] > 0
    assert service["first_metric_seconds"] > service["plain_seconds"]
    assert (
        service["service_overhead_seconds"]
        == service["first_metric_seconds"] - service["plain_seconds"]
    )
    assert meanfield["engine"] == "meanfield"
    assert meanfield["policy"] == MEANFIELD_POLICY
    assert meanfield["profile"] == MEANFIELD_PROFILE
    assert meanfield["rounds"] == 600 and meanfield["warmup"] == 150
    assert meanfield["fast_rounds_per_sec"] > 0
    assert meanfield["meanfield_rounds_per_sec"] > 0
    assert meanfield["speedup"] > 0
    # At n=10 the trajectory error folds in real single-seed noise, so
    # the smoke only checks it is well-defined; the 10^4-server default
    # cell is where the 15% bar applies.
    assert np.isfinite(meanfield["trajectory_error"])
    assert meanfield["trajectory_error"] >= 0
    assert loaded["headline"]["meanfield_trajectory_error"] == meanfield[
        "trajectory_error"
    ]
    # The tiny smoke grid has no MEANFIELD_TARGET_SIZE point, so the
    # headline speedup bar stays unset (same shape as compiled below).
    assert loaded["headline"]["meanfield_best_speedup"] is None
    assert (
        loaded["headline"]["meanfield_target_speedup"]
        == MEANFIELD_TARGET_SPEEDUP
    )
    assert loaded["headline"]["service_overhead_seconds"] is not None
    assert loaded["headline"]["probe_overhead_fraction"] is not None
    assert loaded["headline"]["checkpoint_overhead_fraction"] is not None
    assert loaded["headline"]["scenario_overhead_fraction"] is not None
    assert (
        loaded["headline"]["scenario_overhead_target"] == SCENARIO_OVERHEAD_TARGET
    )
    assert isinstance(loaded["headline"]["numba_available"], bool)
    # The tiny smoke grid has no COMPILED_TARGET_SIZE point, so the
    # headline bar stays unset; the 200x100 default grid populates it.
    assert loaded["headline"]["compiled_best_speedup"] is None
    assert loaded["headline"]["compiled_target_speedup"] == COMPILED_TARGET_SPEEDUP
    peaks = [cell["peak_rss_kb"] for cell in loaded["cells"]]
    if loaded["headline"]["peak_rss_kb"] is not None:  # no ru_maxrss on Windows
        assert all(peak > 0 for peak in peaks)
        assert loaded["headline"]["peak_rss_kb"] >= max(peaks)
    else:
        assert all(peak is None for peak in peaks)


if __name__ == "__main__":
    sys.exit(main())
