"""One benchmark workload in a fresh process: set up, check, time, report.

``run.py`` starts this file once per measurement, so the import of
``repro``, the peak RSS and any thread a service leaves behind belong to
that one workload.  The process prints one JSON object as its last line
of standard output.

Modes:

``setup``
    Set up (import, build, start the service) and report the set-up
    times only.  ``run.py`` uses extra set-up processes to take a median.
``measure``
    Set up, run the output checks, then time the workload.  The number
    of repetitions depends only on ``--seconds`` (about that many seconds
    of work on the reference machine), so a run's work and its span
    counts repeat exactly for a given seed.  With ``--trace 1`` half of
    them run untraced and then the same number traced.

Each workload is a grid cell shape from the paper's evaluation, run
through the public API (``Experiment`` cells, ``build_cell_simulation``
and the service's HTTP API):

``scd-paper``  scd, 100 servers x 10 dispatchers, u1_10, rho 0.99.
``jsq-wide``   jsq, 100 x 50, u1_10, rho 0.9.
``sized-rr``   rr, 100 x 50, homogeneous, GeometricSize(3) jobs at
               0.9 of the fleet's work capacity, windowed_stability probe.
``federated-rr`` 8 unit-job rr cells, 100 x 50, homogeneous, rho 0.9,
               submitted over HTTP to an in-process coordinator with one
               worker thread checkpointing every block.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Shape:
    """A workload's cell coordinates and repetition size."""

    policy: str
    servers: int
    dispatchers: int
    profile: str
    rho: float
    #: Rounds of one timed cell (one repetition).
    rounds: int
    #: Rounds of one cell in the tiny smoke-test size.
    tiny_rounds: int
    #: Seconds one repetition takes at the reference machine speed (see
    #: :func:`calibrate`); sets the repetition count of a run.
    rep_s: float
    #: Mean job size in work units (None: unit jobs).
    job_size: float | None = None
    probes: tuple[str, ...] = ()
    #: Cells per repetition (the federated job's grid size).
    cells: int = 1


WORKLOADS = {
    "scd-paper": Shape("scd", 100, 10, "u1_10", 0.99, 1024, 256, 0.85),
    "jsq-wide": Shape("jsq", 100, 50, "u1_10", 0.9, 1024, 256, 0.88),
    "sized-rr": Shape(
        "rr", 100, 50, "homogeneous", 0.9, 4096, 512, 0.71,
        job_size=3.0, probes=("windowed_stability",),
    ),
    "federated-rr": Shape("rr", 100, 50, "homogeneous", 0.9, 4096, 512, 2.1, cells=8),
}

#: Rounds of the fast-versus-reference prefix check.
PREFIX_ROUNDS = 512
#: Window of the windowed_stability probe and the largest last/first
#: window-mean ratio a stable sized-rr cell may show.  At rho 0.9 of the
#: work capacity a cell started empty shows 1.1-1.5 (its first window is
#: still filling up); unbounded growth (the 2.7x job-rate overload of rho
#: in jobs) shows about 7 over the cell's four windows.
STABILITY_WINDOW = 1024
MAX_GROWTH = 2.5
#: Poll intervals of the in-process service, as in the service tests.
RETRY_AFTER_S = 0.05
POLL_S = 0.05
#: Telemetry poll of the events endpoint; its 0.2 s default would add up
#: to 0.2 s of completion-detection delay to every timed job.
FOLLOW_POLL_S = 0.01
MIN_REPS = 3
#: Seconds the calibration kernel takes on the reference machine (a
#: 2-CPU x86 box at its usual speed); see :func:`calibrate`.
CALIB_REF_S = 0.036


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work.

    Shared machines change speed by tens of percent within seconds (a
    busy sibling hyperthread, frequency steps).  The benchmark runs this
    kernel next to every repetition and scales the repetition's rate by
    ``calibrate() / CALIB_REF_S``: rates are reported at the reference
    machine speed, so a slow minute does not read as a regression.  The
    kernel calls no program code, so any change to the program shows in
    full.
    """
    import hashlib
    import pickle

    import numpy as np

    rng = np.random.default_rng(12345)
    loads = rng.random(100)
    state = {"queues": np.arange(4096, dtype=np.int64), "rounds": list(range(200))}
    start = time.perf_counter()
    acc = 0
    for i in range(1200):
        order = np.argsort(loads + (i % 7), kind="stable")
        cum = np.cumsum(loads[order])
        acc += int(np.searchsorted(cum, 25.0))
        counts = rng.multinomial(20, loads / loads.sum())
        for k in range(40):
            acc += (k * i) % 13
        acc += int(counts.argmax())
        if i % 8 == 0:
            blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            acc += len(pickle.loads(blob)["rounds"])
            acc += len(json.dumps({"round": i, "sha": hashlib.sha256(blob).hexdigest()}))
    return time.perf_counter() - start


def _import_repro() -> float:
    """Import the package from this checkout's ``src``; returns seconds."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return elapsed


def experiment_for(shape: Shape, seed: int, rounds: int, backend: str, reps: int):
    from repro.experiments import Experiment, WorkloadSpec
    from repro.sim.probes import ProbeSpec
    from repro.sim.sized import GeometricSize
    from repro.workloads.scenarios import SystemSpec

    rho = shape.rho
    workload = WorkloadSpec()
    if shape.job_size is not None:
        # WorkloadSpec.sized offers rho in jobs; the cell offers rho of
        # the fleet's work capacity, i.e. a job rate of rho/E[size].
        workload = WorkloadSpec.sized(GeometricSize(shape.job_size))
        rho = shape.rho / shape.job_size
    return Experiment(
        policies=shape.policy,
        systems=SystemSpec(shape.servers, shape.dispatchers, shape.profile),
        loads=rho,
        replications=reps,
        workloads=workload,
        rounds=rounds,
        backend=backend,
        base_seed=seed,
        metrics=tuple(
            ProbeSpec.of(p, window=STABILITY_WINDOW) if p == "windowed_stability" else p
            for p in shape.probes
        ),
    )


def build(cell):
    from repro.experiments.executor import build_cell_simulation

    return build_cell_simulation(
        cell.policy, cell.system, cell.rho, cell.workload, cell.seed,
        cell.rounds, cell.warmup, cell.backend, cell.metrics,
    )


def conserved(result) -> bool:
    """Jobs (work units for sized cells) arrived = departed + queued."""
    if hasattr(result, "total_arrived"):
        return result.total_arrived == result.total_departed + result.final_queued
    return (
        result.total_units_arrived
        == result.total_units_departed + result.final_units_queued
        and result.histogram.total <= result.total_jobs
    )


def fingerprint(result) -> str:
    """Everything a run measured, for bit-identity comparisons."""
    from repro.experiments.results import metrics_from_result

    parts = {
        "metrics": metrics_from_result(result),
        "histogram": result.histogram.counts.tolist(),
        "series": (
            result.queue_series.values.tolist()
            if result.queue_series is not None else None
        ),
    }
    for name in ("final_queues", "server_received", "server_departed"):
        value = getattr(result, name, None)
        if value is not None:
            parts[name] = value.tolist()
    return json.dumps(parts, sort_keys=True)


class SimBench:
    """One simulated cell per repetition, built outside the timed section."""

    def __init__(self, shape: Shape, seed: int, tiny: bool) -> None:
        self.shape = shape
        self.seed = seed
        self.rounds = shape.tiny_rounds if tiny else shape.rounds
        self.experiment = experiment_for(shape, seed, self.rounds, "fast", 1_000_000)
        self._cells = self.experiment.cells()
        self._next = build(next(self._cells))
        self.notes: list[str] = []

    def check(self) -> tuple[int, int]:
        """``fast`` against ``reference`` on a prefix of the same cell."""
        results = []
        for backend in ("reference", "fast"):
            exp = experiment_for(self.shape, self.seed, PREFIX_ROUNDS, backend, 1)
            results.append(build(next(exp.cells())).run())
        same = fingerprint(results[0]) == fingerprint(results[1])
        if not same:
            self.notes.append("fast differs from reference on the prefix cell")
        return 1, 0 if same else 1

    def rep(self, tracer=None) -> dict:
        """Run one cell; returns its rounds, wall time and check outcome."""
        sim = self._next if self._next is not None else build(next(self._cells))
        self._next = None
        start = time.perf_counter()
        result = sim.run()
        end = time.perf_counter()
        ok = conserved(result)
        if not ok:
            self.notes.append("jobs not conserved")
        for label, probe in result.probes.items():
            if not label.startswith("windowed_stability"):
                continue
            growth = probe.summary()["growth"]
            if not growth <= MAX_GROWTH:
                ok = False
                self.notes.append(f"windowed_stability growth {growth:.3f}")
        return {"rounds": self.rounds, "cells": 1, "failed": 0 if ok else 1,
                "start": start, "end": end}

    def close(self) -> dict:
        return {}


class FederatedBench:
    """One HTTP-submitted job per repetition, served by one worker thread."""

    def __init__(self, shape: Shape, seed: int, tiny: bool, workdir: Path) -> None:
        self.shape = shape
        self.rounds = shape.tiny_rounds if tiny else shape.rounds
        self.experiment = experiment_for(shape, seed, self.rounds, "fast", shape.cells)
        self.descriptor = self.experiment.describe()
        self.workdir = workdir
        self.notes: list[str] = []
        self.baseline = None
        self.service_s = 0.0

    def start_service(self) -> None:
        from repro.service import FederationCoordinator, FederationWorker, JobManager, ServiceAPI
        from repro.service import api as api_module

        start = time.perf_counter()
        if hasattr(api_module, "_FOLLOW_POLL"):
            api_module._FOLLOW_POLL = FOLLOW_POLL_S
        self.manager = JobManager(self.workdir / "service")
        self.coordinator = FederationCoordinator(
            self.manager, heartbeat_interval=1.0, heartbeat_misses=5,
            retry_after=RETRY_AFTER_S,
        )
        self.coordinator.start()
        self.api = ServiceAPI(self.manager, self.coordinator)
        self.api.start()
        # A worker that registers, finds nothing queued and leaves: the
        # service is ready once registration round-trips.
        FederationWorker(
            self.coordinator.address, name="perfbench-warmup",
            workdir=self.workdir / "worker", exit_when_idle=True,
            poll_interval=POLL_S,
        ).run()
        self.service_s = time.perf_counter() - start

    def check(self) -> tuple[int, int]:
        """The serial records every job must reproduce."""
        from repro.experiments import SerialExecutor

        self.baseline = tuple(SerialExecutor().run(self.experiment))
        bad = sum(1 for record in self.baseline if not conserved(record.result))
        if bad:
            self.notes.append("serial baseline does not conserve jobs")
        return 1, 1 if bad else 0

    def rep(self, tracer=None) -> dict:
        from repro.service import FederationWorker
        from repro.service.client import iter_job_events, job_result, submit_job

        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        worker = FederationWorker(
            self.coordinator.address, name="perfbench-worker",
            workdir=self.workdir / "worker", exit_when_idle=True,
            poll_interval=POLL_S,
        )
        thread = threading.Thread(target=worker.run, name="perfbench-worker")
        start = time.perf_counter()
        with span("api.submit:submit_job"):
            job = submit_job(self.api.url, self.descriptor, checkpoint_every=1)["job"]
        # The job is queued before the worker registers, so its first
        # request leases a cell instead of sleeping out an idle poll.
        thread.start()
        final = None
        with contextlib.closing(iter_job_events(self.api.url, job, follow=True)) as events:
            for event in events:
                if event["event"] in ("job-finished", "job-failed", "job-cancelled"):
                    final = event["event"]
                    break
        with span("api.result:job_result"):
            fetched = job_result(self.api.url, job) if final == "job-finished" else None
        end = time.perf_counter()
        thread.join(timeout=60)
        if thread.is_alive():
            raise RuntimeError("federation worker did not exit after its job drained")
        failed = self.shape.cells
        if fetched is not None:
            failed = sum(
                1
                for got, want in zip(fetched.records, self.baseline)
                if got != want or (got.result is not None and not conserved(got.result))
            ) + abs(len(fetched.records) - len(self.baseline))
        if failed:
            self.notes.append(f"job {job}: {failed} cells differ from the serial run ({final})")
        return {"rounds": self.rounds * self.shape.cells, "cells": self.shape.cells,
                "failed": failed, "start": start, "end": end}

    def close(self) -> dict:
        """Stop the service; ``coordinator.stop()`` is timed on its own."""
        self.api.stop()
        start = time.perf_counter()
        self.coordinator.stop()
        stop_s = time.perf_counter() - start
        self.manager.close()
        return {"service.stop_s": stop_s}


def environment() -> dict:
    import importlib.util

    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    args = parser.parse_args(argv)
    shape = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    workdir = OUT / f"run-{os.getpid()}"

    setup = {"setup.import_s": _import_repro()}
    start = time.perf_counter()
    if shape.cells > 1:
        bench = FederatedBench(shape, args.seed, tiny, workdir)
    else:
        bench = SimBench(shape, args.seed, tiny)
    setup["setup.build_s"] = time.perf_counter() - start
    try:
        if isinstance(bench, FederatedBench):
            bench.start_service()
        setup["setup.service_s"] = getattr(bench, "service_s", 0.0)
        setup["setup_s"] = time.monotonic() - args.t0
        setup["calib_s"] = calibrate()
        if args.mode == "setup":
            if isinstance(bench, FederatedBench):
                bench.api.stop()  # the coordinator's daemon threads end with the process
            print(json.dumps({"setup": setup}))
            return 0
        record = measure(bench, args, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup"] = setup
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = environment()
    print(json.dumps(record))
    return 0


def _attempt(bench, tracer=None) -> dict:
    """One repetition; an exception fails its cells instead of the run."""
    try:
        return bench.rep(tracer)
    except Exception as error:  # a failing cell is reported, not fatal
        bench.notes.append(f"{type(error).__name__}: {error}")
        cells = bench.shape.cells
        return {"rounds": 0, "cells": cells, "failed": cells, "start": 0.0, "end": 0.0}


def _repeat(bench, count: int, tracer=None) -> list[dict]:
    """``count`` repetitions, each between two calibrations.

    A calibration runs before the first repetition and after each one;
    a repetition's ``calib_s`` is the mean of the two around it.
    """
    reps: list[dict] = []
    before = calibrate()
    for _ in range(count):
        rep = _attempt(bench, tracer)
        after = calibrate()
        rep["calib_s"] = (before + after) / 2
        before = after
        reps.append(rep)
    return reps


def _rate(rep: dict) -> float:
    """Rounds per second at the reference machine speed."""
    return rep["rounds"] / (rep["end"] - rep["start"]) * rep["calib_s"] / CALIB_REF_S


def _check(bench) -> tuple[int, int]:
    try:
        return bench.check()
    except Exception as error:  # a failing check is reported, not fatal
        bench.notes.append(f"check: {type(error).__name__}: {error}")
        return 1, 1


def measure(bench, args, tiny: bool) -> dict:
    attempted, failed = _check(bench)
    reps: list[dict] = []
    traced: list[dict] = []
    layers: dict = {}
    missing: list[str] = []
    count = 1 if tiny else max(MIN_REPS, round(args.seconds / bench.shape.rep_s))
    if args.trace:
        count = 1 if tiny else max(MIN_REPS, count // 2)
        reps = _repeat(bench, count)
        from tracer import Tracer, install_layers, layer_metrics

        tracer = Tracer()
        install_layers(tracer)
        try:
            traced = _repeat(bench, count, tracer=tracer)
        finally:
            tracer.uninstall()
        close = bench.close()
        windows = [(r["start"], r["end"]) for r in traced if r["rounds"]]
        layers = layer_metrics(tracer, windows)
        makespan = sum(end - start for start, end in windows)
        execute_s = layers.pop("runs.execute_s")
        layers["service.idle_s"] = makespan - execute_s if execute_s else 0.0
        layers["service.stop_s"] = close.get("service.stop_s", 0.0)
        rate = lambda rs: statistics.median([_rate(r) for r in rs if r["rounds"]] or [1.0])
        layers["trace.overhead_frac"] = rate(reps) / rate(traced) - 1.0
        missing = tracer.missing
        tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.tsv")
    else:
        reps = _repeat(bench, count)
        bench.close()
    timed = reps + traced
    attempted += sum(r["cells"] for r in timed)
    failed += sum(r["failed"] for r in timed)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "notes": bench.notes,
        "reps": [
            {"rounds": r["rounds"], "wall_s": r["end"] - r["start"], "calib_s": r["calib_s"]}
            for r in reps
        ],
        "raw_rounds_per_s": statistics.median(
            [r["rounds"] / (r["end"] - r["start"]) for r in reps if r["rounds"]] or [0.0]
        ),
        "rounds_per_s": statistics.median([_rate(r) for r in reps if r["rounds"]] or [0.0]),
        "layers": layers,
        "missing_trace_targets": missing,
    }


if __name__ == "__main__":
    sys.exit(main())
