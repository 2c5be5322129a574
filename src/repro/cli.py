"""Command-line interface: run paper experiments without writing code.

Installed as the ``repro`` console script (also ``python -m repro``).

Subcommands
-----------
``policies``    list the registered dispatching policies
``backends``    list the registered engine backends (round kernels)
                with a capability column (checkpoint/probe/sized/analytic
                support)
``compare``     run one (policy, system, load) cell on several backends
                side by side -- e.g. the finite-n ``fast`` kernel vs the
                analytical ``meanfield`` fluid limit -- with wall-clock
                and relative-error columns
``probes``      list the registered observability probes (``--metrics``
                accepts them on ``experiment``, ``simulate``, ``run`` and
                ``submit``)
``scenarios``   list the registered workload scenarios (``--scenario``
                accepts them on ``experiment``, ``run``, ``submit`` and
                ``compare``)
``experiment``  declarative grid: policies x systems x loads x reps x
                workload, optionally on a process pool (``--workers``),
                the vectorized engine (``--backend fast``), extra
                probes (``--metrics herding server_stats``) and a
                nonstationary scenario (``--scenario flash:spike=5``)
``simulate``    one (policy, system, load) run; optional JSON output
``figure``      the table behind one of the paper's evaluation figures
                (``3a 3b 4a 4b 5 6 7 8`` or ``all``): a mean or tail
                figure is one ``fast`` experiment (``--save DIR`` keeps
                its result), a run-time figure (5, 8) times decisions
``stability``   empirical stability verdict + the Appendix D bound
``run``         checkpointed simulation run: block-aligned snapshots,
                streaming JSONL telemetry, crash-safe resume
``resume``      continue a killed/paused run (or experiment run) from
                its newest valid checkpoint, bit-identically
``tail``        print or follow (``-f``) a run's telemetry events
``runs``        ``runs list DIR``: inventory the run directories on disk
``serve``       start the coordination service: HTTP job API + worker
                coordinator (federated experiment execution); ``--token``
                requires workers to quote a shared secret
``worker``      register with a coordinator and serve grid cells
``submit``      POST an experiment to a running service's job API
                (``--priority`` jumps the cell queue)
``status``      show a service's workers, leases and job progress
``cancel``      stop a running job; its queued cells are dropped

Layout
------
This module only parses flags and prints results.  Flags shared by
several subcommands are defined once, in the ``_add_*_args`` groups.
Every run subcommand turns its coordinate flags into one
:class:`~repro.experiments.Experiment` through ``_experiment_from`` (a
figure through :meth:`~repro.experiments.figures.Figure.experiment`), and
``Experiment`` is the only validator: a bad policy, load, backend or
probe ends the command with one ``invalid experiment: ...`` line before
any cell runs.  ``--metrics`` tokens use the ``key=value`` grammar of
scenario specs (:func:`repro.sim._registry.parse_params`).  ``resume``
and ``tail`` read ``run.json`` through the run inventory's reader, and
the service verbs read ``service.json`` through ``_service_endpoint``;
damaged manifests end the command with one line.

Examples
--------
::

    repro experiment --policies scd jsq sed --systems 100x10 200x20 \
        --loads 0.7 0.9 --replications 3 --workers 8 --save grid.json
    repro experiment --policies scd sed --workload skew:3 --loads 0.9
    repro experiment --policies jsq rr wr --backend fast --rounds 100000
    repro experiment --policies jsq sed --workload sized:geom:4 --backend fast
    repro experiment --policies scd jsq --metrics herding server_stats \
        windowed_mean:window=500
    repro experiment --policies jsq sed --backend fast \
        --scenario flash:spike=5,at=2048 --metrics windowed_stability
    repro simulate --policy scd --servers 100 --dispatchers 10 --rho 0.9
    repro compare --backends fast,meanfield --policy jsq(2) --rho 0.9 \
        --servers 1000 --replications 3
    repro figure 3a --rounds 5000 --loads 0.7 0.9 0.99
    repro figure 3b --rounds 20000 --save figures/
    repro figure 5 --servers 100 200 400
    repro stability --policy jsq(2) --rho 0.95
    repro run --policy scd --rho 0.9 --backend fast --rounds 100000 \
        --checkpoint-dir runs/scd-09 --checkpoint-every 4
    repro resume runs/scd-09
    repro tail runs/scd-09 --follow
    repro runs list runs/
    repro serve --data-dir service/ --port 8642 --token s3cret
    repro worker --data-dir service/ --exit-when-idle --token s3cret
    repro submit --data-dir service/ --policies scd jsq --loads 0.9 \
        --priority 5 --follow
    repro status --data-dir service/
    repro cancel job-0001 --data-dir service/
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from repro.analysis.stability import assess_stability
from repro.analysis.tables import format_table
from repro.core.theory import strong_stability_bound
from repro.experiments import Experiment, WorkloadSpec, figures
from repro.experiments.persistence import save_experiment, save_result
from repro.policies.base import available_policies
from repro.sim._registry import parse_params
from repro.sim.backends import backend_capabilities, backend_descriptions
from repro.sim.probes import DEFAULT_PROBE_LABELS, ProbeSpec, probe_descriptions
from repro.sim.sized import BimodalSize, DeterministicSize, GeometricSize
from repro.workloads.scenarios import SystemSpec

__all__ = ["main", "build_parser"]


# -- shared flag groups -------------------------------------------------------


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default="u1_10",
        choices=["u1_10", "u1_100", "bimodal", "homogeneous"],
    )
    parser.add_argument("--rate-seed", type=int, default=7)


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rounds", type=int, default=5000)
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    """One system (``--servers``/``--dispatchers``) plus the run length."""
    parser.add_argument("--servers", "-n", type=int, default=100)
    parser.add_argument("--dispatchers", "-m", type=int, default=10)
    _add_profile_args(parser)
    _add_run_args(parser)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        default="paper",
        help="paper (default), skew:FACTOR, bursty:SURGE[:SWITCH_PROB] "
        "(correlated calm/surge arrivals at equal average load, a regime "
        "scenario), or sized[:geom:MEAN|det:SIZE|bimodal:SMALL:LARGE[:PROB]] "
        "(jobs carry work-unit sizes and queues count units; sized "
        "workloads do not travel as descriptors)",
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME[:k=v,...]",
        help="nonstationary workload scenario: rate curves (diurnal, flash, "
        "regime) and/or server churn (churn, elastic); see `repro "
        "scenarios`. Travels in descriptors and checkpoints; the mean-field "
        "backend follows rate curves. Not combinable with bursty, which "
        "already is a regime scenario",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="reference",
        metavar="BACKEND",
        help="engine round kernel: 'reference' (bit-exact default), "
        "'fast' (vectorized; bit-identical to reference) or "
        "'meanfield' (fluid limit); see `repro backends`",
    )
    parser.add_argument(
        "--metrics",
        nargs="*",
        default=[],
        metavar="PROBE",
        help="extra observability probes, as NAME or "
        "NAME:key=value[,key=value]; their summaries print after the run "
        "and land in saved results (grids: as NAME.key columns); see "
        "`repro probes`",
    )


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    """The multi-system grid of ``experiment`` and ``submit``."""
    parser.add_argument("--policies", nargs="+", default=["scd", "jsq", "sed"])
    parser.add_argument(
        "--systems",
        nargs="+",
        default=["100x10"],
        metavar="NxM",
        help="systems as SERVERSxDISPATCHERS tokens, e.g. 100x10 200x20",
    )
    parser.add_argument("--loads", type=float, nargs="+", default=[0.7, 0.9, 0.99])
    parser.add_argument("--replications", "-r", type=int, default=1)
    _add_workload_args(parser)
    _add_engine_args(parser)
    _add_profile_args(parser)
    _add_run_args(parser)


def _add_locator_args(
    parser: argparse.ArgumentParser, flag: str, metavar: str, help: str
) -> None:
    """``--url``/``--connect`` plus the ``--data-dir`` service.json fallback."""
    parser.add_argument(flag, metavar=metavar, help=help)
    parser.add_argument(
        "--data-dir",
        metavar="DIR",
        help="discover the service from DIR/service.json instead",
    )


# -- flag parsing and the one Experiment builder ------------------------------


def _parse_system_token(token: str, profile: str, rate_seed: int) -> SystemSpec:
    """``"100x10"`` -> SystemSpec(num_servers=100, num_dispatchers=10)."""
    try:
        n_text, m_text = token.lower().split("x")
        return SystemSpec(int(n_text), int(m_text), profile, rate_seed)
    except (ValueError, TypeError):
        raise SystemExit(
            f"invalid --systems token {token!r}; expected SERVERSxDISPATCHERS "
            f"like 100x10"
        )


def _parse_job_sizes(params: str):
    """``[geom[:MEAN]]`` | ``det:SIZE`` | ``bimodal:SMALL:LARGE[:PROB]``."""
    parts = params.split(":") if params else []
    family = (parts[0] if parts else "geom").lower()
    try:
        if family == "geom":
            mean = float(parts[1]) if len(parts) > 1 else 2.0
            return GeometricSize(mean), f"sized-geom{mean:g}"
        if family == "det":
            size = int(parts[1]) if len(parts) > 1 else 2
            return DeterministicSize(size), f"sized-det{size}"
        if family == "bimodal":
            small = int(parts[1]) if len(parts) > 1 else 1
            large = int(parts[2]) if len(parts) > 2 else 20
            prob = float(parts[3]) if len(parts) > 3 else 0.05
            return BimodalSize(small, large, prob), f"sized-bimodal{small}-{large}-{prob:g}"
    except (ValueError, IndexError) as error:
        raise SystemExit(f"invalid sized workload parameters {params!r}: {error}")
    raise SystemExit(
        f"unknown job-size family {family!r}; expected geom, det or bimodal"
    )


def _parse_workload(token: str) -> WorkloadSpec:
    """``paper`` | ``skew:F`` | ``bursty:F[:P]`` | ``sized[:FAMILY[:PARAMS]]``."""
    kind, _, params = token.partition(":")
    kind = kind.lower()
    if kind == "paper":
        return WorkloadSpec.paper()
    if kind == "skew":
        return WorkloadSpec.skewed(float(params or 2.0))
    if kind == "bursty":
        parts = params.split(":") if params else []
        try:
            surge = float(parts[0]) if parts else 3.0
            switch = float(parts[1]) if len(parts) > 1 else 0.05
            return WorkloadSpec.bursty(surge, switch)
        except ValueError as error:
            raise SystemExit(f"invalid workload {token!r}: {error}")
    if kind == "sized":
        distribution, name = _parse_job_sizes(params)
        return WorkloadSpec.sized(distribution, name=name)
    raise SystemExit(
        f"unknown workload {token!r}; expected paper, skew:F, bursty:F[:P] "
        f"or sized[:geom:MEAN|det:SIZE|bimodal:SMALL:LARGE[:PROB]]"
    )


def _workload_from(args: argparse.Namespace) -> WorkloadSpec:
    """The --workload spec with any --scenario applied (validated now)."""
    workload = _parse_workload(args.workload)
    scenario = args.scenario
    if scenario:
        if workload.scenario is not None:
            raise SystemExit(
                f"--workload {args.workload} already is the scenario "
                f"{workload.scenario!r}; it cannot take --scenario {scenario!r}"
            )
        try:
            workload = dataclasses.replace(workload, scenario=scenario)
        except ValueError as error:
            raise SystemExit(f"invalid scenario {scenario!r}: {error}")
    return workload


def _parse_probe_token(token: str) -> ProbeSpec:
    """``NAME`` or ``NAME:key=value[,key=value...]`` -> spec."""
    name, _, params = token.partition(":")
    return ProbeSpec.of(name, **(parse_params(params, "probe") if params else {}))


def _experiment_from(args: argparse.Namespace, **overrides) -> Experiment:
    """The one ``Experiment`` a subcommand's flags declare (validated now).

    Reads whichever coordinate flags the subcommand defines:
    ``--policy``/``--policies``, ``--rho``/``--loads``, ``--systems`` or
    ``--servers``/``--dispatchers``, and the optional workload, engine
    and replication groups.  ``Experiment`` does every check, so a bad
    coordinate ends the command with one ``invalid experiment:`` line
    before anything runs.  ``overrides`` replace single fields.
    """
    flags = vars(args)
    if "systems" in flags:
        systems = tuple(
            _parse_system_token(token, args.profile, args.rate_seed)
            for token in args.systems
        )
    else:
        systems = SystemSpec(
            args.servers, args.dispatchers, args.profile, args.rate_seed
        )
    workload = _workload_from(args) if "workload" in flags else WorkloadSpec()
    try:
        fields = dict(
            policies=args.policies if "policies" in flags else args.policy,
            systems=systems,
            loads=args.loads if "loads" in flags else args.rho,
            replications=flags.get("replications", 1),
            workloads=workload,
            rounds=args.rounds,
            warmup=args.warmup,
            base_seed=args.seed,
            backend=flags.get("backend", "reference"),
            metrics=tuple(_parse_probe_token(t) for t in flags.get("metrics", ())),
        )
        return Experiment(**{**fields, **overrides})
    except ValueError as error:
        raise SystemExit(f"invalid experiment: {error}")


# -- shared printers ----------------------------------------------------------


def _print_listing(title, rows, indent: str = "  ", footer: str = "") -> None:
    """A registry listing: title, rows of left-aligned columns, footer."""
    if title:
        print(title)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]) - 1)]
    for row in rows:
        cells = [cell.ljust(width) for cell, width in zip(row, widths)]
        print(indent + "  ".join(cells + [row[-1]]))
    if footer:
        print(footer)


def _print_summary(title: str, summary: dict) -> None:
    print(
        format_table(
            ["metric", "value"],
            [[key, value] for key, value in summary.items()],
            title=title,
        )
    )


def _print_probe_summaries(result) -> None:
    """One summary table per extra probe (the defaults are the headline)."""
    for label, summary in result.probe_summaries().items():
        if label not in DEFAULT_PROBE_LABELS:
            _print_summary(f"probe {label}", summary)


# -- subcommands --------------------------------------------------------------


def cmd_policies(args: argparse.Namespace) -> int:
    _print_listing(None, [[name] for name in available_policies()], indent="")
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    _print_listing(
        "engine backends (unit or sized jobs):",
        [
            [name, backend_capabilities(name).describe(), description]
            for name, description in backend_descriptions().items()
        ],
    )
    return 0


def cmd_probes(args: argparse.Namespace) -> int:
    _print_listing(
        "observability probes (pass extras via --metrics):",
        [
            [f"{'*' if name in DEFAULT_PROBE_LABELS else ' '} {name}", description]
            for name, description in probe_descriptions().items()
        ],
        indent=" ",
        footer="\n(* = always-on default collector)",
    )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.sim.scenarios import scenario_descriptions

    _print_listing(
        "workload scenarios (pass one via --scenario NAME[:key=value,...]):",
        [list(item) for item in scenario_descriptions().items()],
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    experiment = _experiment_from(args)
    systems = experiment.systems
    workload = experiment.workloads[0]
    scenario_note = (
        f", scenario: {workload.scenario}" if workload.scenario else ""
    )
    print(
        f"Running {experiment.size} cells "
        f"({len(experiment.policies)} policies x {len(systems)} systems x "
        f"{len(experiment.loads)} loads x {experiment.replications} reps, "
        f"workload: {workload.name}{scenario_note}, "
        f"rounds/cell: {experiment.rounds}, "
        f"workers: {args.workers}, backend: {experiment.backend})"
    )
    result = experiment.run(workers=args.workers, keep_results=bool(args.save))
    aggregated = result.aggregate("mean")
    rows = []
    for (policy, system, rho, _workload), stats in sorted(
        aggregated.items(), key=lambda item: (item[0][1], item[0][2], item[1]["mean"])
    ):
        rows.append(
            [system, rho, policy, stats["mean"], stats["stderr"], int(stats["n"])]
        )
    print(
        format_table(
            ["system", "rho", "policy", "mean", "stderr", "reps"],
            rows,
            title="Mean response time (replication-averaged; lowest first)",
        )
    )
    for system in systems:
        for rho in experiment.loads:
            best = result.best_policy_at(rho, system=system.name)
            print(f"  best on {system.name} at rho={rho}: {best}")
    extra_keys = sorted(
        {key for record in result.records for key in record.metrics if "." in key}
    )
    if extra_keys:
        aggregated_extras = {key: result.aggregate(key) for key in extra_keys}
        groups = sorted(
            aggregated_extras[extra_keys[0]],
            key=lambda g: (g[1], g[2], g[0]),  # system, rho, policy
        )
        print(
            format_table(
                ["system", "rho", "policy"] + extra_keys,
                [
                    [group[1], group[2], group[0]]
                    + [aggregated_extras[key][group]["mean"] for key in extra_keys]
                    for group in groups
                ],
                title="Probe metrics (replication-averaged)",
            )
        )
    if args.save:
        path = save_experiment(result, args.save)
        print(f"experiment written to {path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    experiment = _experiment_from(args)
    result = experiment.run().only().result
    _print_summary(
        f"{args.policy} on {experiment.systems[0].name} at rho={args.rho} "
        f"({args.rounds} rounds)",
        result.summary(),
    )
    print(
        f"\njobs: arrived={result.total_arrived} "
        f"departed={result.total_departed} queued={result.final_queued}"
    )
    _print_probe_summaries(result)
    if args.save:
        path = save_result(result, args.save)
        print(f"result written to {path}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.figure == "all":
        targets = figures.FIGURES
    elif args.figure in figures.FIGURES_BY_ID:
        targets = (figures.FIGURES_BY_ID[args.figure],)
    else:
        raise SystemExit(
            f"unknown figure {args.figure!r}; expected one of "
            f"{', '.join(figures.FIGURES_BY_ID)} or all"
        )
    grid = {"rounds": args.rounds, "loads": args.loads, "seed": args.seed}
    simulated = [f for f in targets if f.kind != figures.RUNTIME]
    try:  # every figure's grid is checked before any cell runs
        for figure in simulated:
            figure.experiment(**grid)
    except ValueError as error:
        raise SystemExit(f"invalid experiment: {error}")
    for figure in targets:
        notes = []
        if figure in simulated:
            result = figure.run(**grid)
            rows, notes = figure.rows(result, args.loads), figure.notes(result)
        else:
            snapshots = {
                n: figures.runtime_snapshots(
                    figure, n, seed=args.seed, snapshots=args.snapshots,
                    rounds=args.runtime_rounds,
                )
                for n in args.servers
            }
            rows = [
                figures.runtime_row(n, technique, *snapshots[n])
                for technique, n in figure.cells(args.servers)
            ]
        print(f"\n{'#' * 66}\n# Figure {figure.id}\n{'#' * 66}")
        print(figures.table_text(figure.title, figure.headers, rows, **grid))
        for note in notes:
            print(note)
        if args.save and figure in simulated:
            path = save_experiment(result, Path(args.save) / f"{figure.table}.json")
            print(f"figure {figure.id} written to {path}")
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    experiment = _experiment_from(args)
    system = experiment.systems[0]
    rates = system.rates()
    result = experiment.run().only().result
    verdict = assess_stability(result, float(rates.sum()))
    print(f"{args.policy} on {system.name} at rho={args.rho}: {verdict}")
    if args.rho < 1.0:
        bound = strong_stability_bound(system.lambdas(args.rho), rates)
        print("Appendix D guarantee (any admissible policy need not meet it;")
        print(f"SCD provably does): time-averaged total queue <= {bound.bound:.1f}")
        measured = result.queue_series.mean()
        print(f"measured time-averaged total queue: {measured:.1f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    backends = [
        token for raw in args.backends for token in raw.split(",") if token
    ]
    if len(backends) < 2:
        raise SystemExit(
            "pass at least two backends to compare, "
            "e.g. --backends fast meanfield"
        )
    # Build (and so validate) every backend's cell before any of them runs.
    plan = []
    for backend in backends:
        experiment = _experiment_from(args, backend=backend)
        analytic = backend_capabilities(backend).analytic
        if analytic:
            # Analytic backends are deterministic: one evaluation is
            # exact, so replications would only repeat the same number.
            experiment = dataclasses.replace(experiment, replications=1)
        plan.append((backend, analytic, experiment))
    reference = next(
        (backend for backend, analytic, _ in plan if analytic), backends[0]
    )
    cell = plan[0][2]
    system, workload = cell.systems[0], cell.workloads[0]
    records = []
    for backend, analytic, experiment in plan:
        started = time.perf_counter()
        try:
            result = experiment.run(keep_results=False)
        except (RuntimeError, ValueError) as error:
            raise SystemExit(f"backend {backend!r} failed: {error}")
        elapsed = time.perf_counter() - started
        stats = next(iter(result.aggregate("mean").values()))
        records.append(
            {
                "backend": backend,
                "kind": "analytic" if analytic else "stochastic",
                "replications": int(stats["n"]),
                "mean_response_time": stats["mean"],
                "stderr": stats["stderr"],
                "wall_seconds": elapsed,
            }
        )
    by_backend = {record["backend"]: record for record in records}
    baseline = by_backend[reference]["mean_response_time"]
    for record in records:
        record["relative_error"] = (
            abs(record["mean_response_time"] - baseline) / baseline
            if baseline
            else 0.0
        )
    columns = (
        "backend", "kind", "replications", "mean_response_time", "stderr",
        "relative_error", "wall_seconds",
    )
    rows = [[record[key] for key in columns] for record in records]
    scenario_note = f", scenario {workload.scenario}" if workload.scenario else ""
    print(
        format_table(
            ["backend", "kind", "reps", "mean", "stderr", "rel_err", "wall_s"],
            rows,
            title=f"{args.policy} on {system.name} at rho={args.rho} "
            f"({args.rounds} rounds, workload {workload.name}{scenario_note}; "
            f"rel_err vs {reference})",
        )
    )
    if args.save:
        payload = {
            "policy": args.policy,
            "system": cell.describe()["systems"][0],
            "rho": args.rho,
            "rounds": args.rounds,
            "warmup": args.warmup,
            "seed": args.seed,
            "workload": workload.describe(),
            "reference": reference,
            "backends": records,
        }
        path = Path(args.save)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"comparison written to {path}")
    return 0


def _print_run_result(run, result) -> None:
    _print_summary("run result", {"mean_response_time": result.mean_response_time})
    _print_probe_summaries(result)
    print(f"result written to {run.result_path}")


def _run_manifest(directory: Path) -> dict:
    """``DIR/run.json``; a missing or damaged one ends the command."""
    from repro.runs.inventory import read_manifest

    manifest = read_manifest(directory)
    path = directory / "run.json"
    if manifest is None:
        raise SystemExit(f"no run manifest at {path}")
    if manifest.get("kind", "damaged") == "damaged":
        raise SystemExit(f"damaged run manifest at {path}; it is not a JSON run record")
    return manifest


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.executor import build_cell_simulation
    from repro.runs import Run

    directory = Path(args.checkpoint_dir)
    if (directory / "run.json").exists():
        raise SystemExit(
            f"{directory / 'run.json'} already exists; "
            f"continue it with `repro resume {directory}`"
        )
    # The grid validator checks the coordinates (policy, load, backend,
    # probes) before anything is built or written; the run keeps the
    # bare --seed rather than a derived cell seed.
    experiment = _experiment_from(args)
    try:
        sim = build_cell_simulation(
            experiment.policies[0],
            experiment.systems[0],
            args.rho,
            experiment.workloads[0],
            args.seed,
            args.rounds,
            args.warmup,
            args.backend,
            experiment.metrics,
        )
        run = Run.create(
            sim,
            directory,
            checkpoint_every=args.checkpoint_every,
            telemetry=args.telemetry,
            keep=args.keep,
        )
    except (FileExistsError, ValueError) as error:
        raise SystemExit(str(error))
    print(f"run directory: {run.directory}")
    print(f"telemetry: {run.telemetry_path} (watch with `repro tail {directory}`)")
    result = run.execute(max_legs=args.max_legs)
    if result is None:
        print(
            f"paused after {args.max_legs} checkpoint leg(s) at rounds "
            f"{run.store.rounds()}; continue with `repro resume {directory}`"
        )
        return 0
    _print_run_result(run, result)
    return 0


def _adopted_round(run) -> int | None:
    """The round this session's ``run-started`` event resumed from, if any."""
    from repro.runs import iter_events

    started = None
    for record in iter_events(run.telemetry_path):
        if record.get("event") == "run-started":
            started = record
    if started is None or not started.get("resumed"):
        return None
    return int(started["round"])


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.runs import CheckpointError, ExperimentRun, Run

    directory = Path(args.directory)
    kind = _run_manifest(directory)["kind"]
    if kind not in ("experiment_run", "simulation_run"):
        raise SystemExit(f"unrecognized run kind {kind!r} in {directory / 'run.json'}")
    try:
        if kind == "experiment_run":
            result = ExperimentRun.open(directory).execute(max_legs=args.max_legs)
            if result is None:
                print(f"paused; continue with `repro resume {directory}`")
                return 0
            print(f"experiment finished: {len(result.records)} cells")
            return 0
        run = Run.open(directory)
        already_finished = run.result_path.exists()
        result = run.execute(max_legs=args.max_legs)
    except CheckpointError as error:
        raise SystemExit(f"repro resume: {error}") from None
    adopted = None if already_finished else _adopted_round(run)
    if adopted is not None:
        print(f"resumed from round {adopted}")
    if result is None:
        print(
            f"paused at rounds {run.store.rounds()}; "
            f"continue with `repro resume {directory}`"
        )
        return 0
    _print_run_result(run, result)
    return 0


def _format_event(record: dict) -> str:
    stamp = time.strftime("%H:%M:%S", time.localtime(record.get("time", 0)))
    extras = {
        key: value
        for key, value in record.items()
        if key not in ("seq", "time", "event")
    }
    body = " ".join(f"{key}={json.dumps(value)}" for key, value in extras.items())
    return f"[{record.get('seq', '?'):>4}] {stamp} {record.get('event', '?'):<19} {body}"


def cmd_tail(args: argparse.Namespace) -> int:
    from repro.runs import follow_events, iter_events

    target = Path(args.directory)
    stop = None
    if target.is_dir():
        path = Path(_run_manifest(target).get("telemetry", "telemetry.jsonl"))
        if not path.is_absolute():
            path = target / path
        # Following a run directory ends when the run does -- the same
        # follow_events stop-predicate loop the HTTP metrics streamer
        # runs, so both tails drain the final events and exit cleanly.
        result_path = target / "result.json"
        stop = result_path.exists
    else:
        path = target  # a telemetry file directly: follow forever
    events = follow_events(path, stop=stop) if args.follow else iter_events(path)
    try:
        for record in events:
            print(
                json.dumps(record) if args.raw else _format_event(record),
                flush=True,
            )
    except KeyboardInterrupt:
        return 0
    return 0


def cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.runs import scan_runs

    rows = scan_runs(args.directory)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        raise SystemExit(f"no run directories under {args.directory}")

    def dash(value):
        return "-" if value is None else value

    table = []
    for row in rows:
        if row["kind"] == "experiment_run":
            progress = f"{dash(row.get('cells_done'))}/{dash(row.get('cells'))} cells"
        elif row["kind"] == "simulation_run":
            progress = f"{dash(row.get('rounds_done'))}/{dash(row.get('rounds'))} rounds"
        else:
            progress = "-"
        table.append(
            [
                Path(row["directory"]).name,
                row["kind"],
                row["status"],
                progress,
                dash(row.get("checkpoints")),
                dash(row.get("last_checkpoint")),
                dash(row.get("telemetry_seq")),
            ]
        )
    print(
        format_table(
            ["run", "kind", "status", "progress", "ckpts", "last_ckpt", "seq"],
            table,
            title=f"Runs under {args.directory}",
        )
    )
    return 0


def _service_endpoint(args: argparse.Namespace, key: str) -> str:
    """The service's ``"api"`` base URL or ``"coordinator"`` HOST:PORT.

    Taken from ``--url``/``--connect`` when given, else from the
    ``service.json`` manifest ``repro serve`` writes into ``--data-dir``.
    """
    flag = {"api": "url", "coordinator": "connect"}[key]
    if getattr(args, flag):
        return getattr(args, flag).rstrip("/")
    if not args.data_dir:
        raise SystemExit(f"pass --{flag} or --data-dir to locate the service")
    path = Path(args.data_dir) / "service.json"
    if not path.exists():
        raise SystemExit(f"no service manifest at {path}; is `repro serve` running?")
    try:
        manifest = json.loads(path.read_text())
        host, port = manifest["coordinator"]
        endpoints = {"api": str(manifest["api"]), "coordinator": f"{host}:{int(port)}"}
    except (OSError, ValueError, KeyError, TypeError):
        raise SystemExit(
            f"damaged service manifest at {path}; expected the 'api' and "
            f"'coordinator' entries `repro serve` writes"
        )
    return endpoints[key].rstrip("/")


def cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from repro.service import FederationCoordinator, JobManager, ServiceAPI

    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    manager = JobManager(data_dir)
    coordinator = FederationCoordinator(
        manager,
        host=args.host,
        port=args.coordinator_port,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_misses=args.heartbeat_misses,
        token=args.token,
    )
    coordinator.start()
    api = ServiceAPI(manager, coordinator, host=args.host, port=args.port)
    api.start()
    manifest_path = data_dir / "service.json"
    manifest_path.write_text(
        json.dumps(
            {
                "api": api.url,
                "coordinator": list(coordinator.address),
                "pid": os.getpid(),
            },
            indent=2,
        )
        + "\n"
    )
    host, port = coordinator.address
    print(f"job API:     {api.url}")
    print(f"coordinator: {host}:{port} (workers: `repro worker --connect {host}:{port}`)")
    print(f"manifest:    {manifest_path}")
    stopping = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stopping.set())
    try:
        stopping.wait()
    finally:
        api.stop()
        coordinator.stop()
        manager.close()
        manifest_path.unlink(missing_ok=True)
    print("service stopped")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.service import run_worker

    connect = _service_endpoint(args, "coordinator")
    host, _, port = connect.rpartition(":")
    try:
        address = (host or "127.0.0.1", int(port))
    except ValueError:
        raise SystemExit(f"invalid --connect {connect!r}; expected HOST:PORT")
    print(f"worker connecting to {address[0]}:{address[1]}")
    try:
        done = run_worker(
            address,
            name=args.name,
            max_cells=args.max_cells,
            exit_when_idle=args.exit_when_idle,
            poll_interval=args.poll_interval,
            token=args.token,
        )
    except RuntimeError as error:
        raise SystemExit(str(error))
    except (ConnectionError, OSError) as error:
        raise SystemExit(f"cannot reach the coordinator: {error}")
    print(f"worker exiting after {done} cell(s)")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError, iter_job_events, submit_job

    if args.descriptor:
        body = json.loads(Path(args.descriptor).read_text())
        descriptor = body.get("experiment", body)
    else:
        descriptor = _experiment_from(args).describe()
    url = _service_endpoint(args, "api")
    try:
        status = submit_job(
            url,
            descriptor,
            checkpoint_every=args.checkpoint_every,
            priority=args.priority,
        )
    except ServiceError as error:
        raise SystemExit(f"submission rejected: {error}")
    job = status["job"]
    priority_note = (
        f" at priority {status['priority']}" if status.get("priority") else ""
    )
    print(f"submitted {job}: {status['cells']} cell(s){priority_note}")
    if not args.follow:
        print(f"watch with `repro status --url {url} {job}`")
        return 0
    try:
        for event in iter_job_events(url, job, follow=True):
            print(_format_event(event), flush=True)
    except KeyboardInterrupt:
        return 0
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError, job_status, service_status

    url = _service_endpoint(args, "api")
    try:
        if args.job:
            payload = job_status(url, args.job)
        else:
            payload = service_status(url)
    except ServiceError as error:
        raise SystemExit(str(error))
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    if args.job:
        print(
            f"{payload['id']}: {payload['state']} "
            f"({payload['cells_done']}/{payload['cells']} cells)"
        )
        for lease in payload.get("leases", ()):
            print(
                f"  cell {lease['cell']} leased to {lease['worker']} "
                f"(pid {lease['pid']}, checkpoint round "
                f"{lease['checkpoint_round']})"
            )
        if payload.get("error"):
            print(f"  error: {payload['error']}")
        return 0
    host, port = payload["address"]
    print(f"coordinator {host}:{port}: {len(payload['workers'])} worker(s), "
          f"{len(payload['leases'])} lease(s), "
          f"{payload['pending_cells']} pending cell(s)")
    for worker in payload["workers"]:
        state = "alive" if worker["alive"] else "gone"
        print(
            f"  {worker['name']} (pid {worker['pid']}, {state}): "
            f"{worker['cells_done']} cell(s) done, "
            f"last seen {worker['last_seen_age']:.1f}s ago"
        )
    for lease in payload["leases"]:
        print(
            f"  lease: {lease['job']} cell {lease['cell']} -> "
            f"{lease['worker']} (checkpoint round {lease['checkpoint_round']})"
        )
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError, cancel_job

    url = _service_endpoint(args, "api")
    try:
        status = cancel_job(url, args.job)
    except ServiceError as error:
        raise SystemExit(str(error))
    print(
        f"{status['id']}: {status['state']} "
        f"({status['cells_done']}/{status['cells']} cells done)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Stochastic Coordination in Heterogeneous "
        "Load Balancing Systems' (PODC 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("policies", help="list registered policies")
    p.set_defaults(func=cmd_policies)

    p = sub.add_parser(
        "backends", help="list registered engine backends (round kernels)"
    )
    p.set_defaults(func=cmd_backends)

    p = sub.add_parser(
        "probes", help="list registered observability probes (--metrics)"
    )
    p.set_defaults(func=cmd_probes)

    p = sub.add_parser(
        "scenarios", help="list registered workload scenarios (--scenario)"
    )
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser(
        "experiment",
        help="declarative grid: policies x systems x loads x replications",
    )
    _add_grid_args(p)
    p.add_argument(
        "--workers",
        "-j",
        type=int,
        default=1,
        help="process-pool workers (1 = serial; results are identical)",
    )
    p.add_argument("--save", help="write the full result grid as JSON")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("simulate", help="run one policy at one load")
    p.add_argument("--policy", default="scd")
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--save", help="write the result as JSON")
    _add_engine_args(p)
    _add_system_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "figure",
        help="print the table behind a paper figure (3a 3b 4a 4b 5 6 7 8, or all)",
    )
    p.add_argument("figure", metavar="ID", help="a figure id, or all")
    p.add_argument("--rounds", type=int, default=2000)
    p.add_argument(
        "--loads", type=float, nargs="+", default=[0.6, 0.7, 0.8, 0.9, 0.99]
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--servers", type=int, nargs="+",
        default=list(figures.RUNTIME_SERVER_COUNTS),
        help="server counts of the run-time figures (5, 8)",
    )
    p.add_argument("--snapshots", type=int, default=figures.RUNTIME_SNAPSHOTS)
    p.add_argument(
        "--runtime-rounds", type=int, default=figures.RUNTIME_SNAPSHOT_ROUNDS
    )
    p.add_argument(
        "--save",
        metavar="DIR",
        help="write each simulated figure's result as DIR/<table>.json",
    )
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "run",
        help="checkpointed simulation run: crash-safe, resumable, telemetered",
    )
    p.add_argument("--policy", default="scd")
    p.add_argument("--rho", type=float, default=0.9)
    _add_workload_args(p)
    _add_engine_args(p)
    p.add_argument(
        "--checkpoint-dir",
        required=True,
        metavar="DIR",
        help="run directory: manifest, checkpoints, telemetry, result",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="BLOCKS",
        help="snapshot every N 256-round blocks (default 1)",
    )
    p.add_argument(
        "--telemetry",
        metavar="PATH",
        help="event-log location override (default telemetry.jsonl in the "
        "run directory; relative paths resolve against it)",
    )
    p.add_argument(
        "--keep",
        type=int,
        metavar="K",
        help="checkpoint retention: keep the newest K snapshots plus "
        "power-of-two anchors back to round 0 (default: keep everything)",
    )
    p.add_argument(
        "--max-legs",
        type=int,
        metavar="N",
        help="pause after N checkpoints (resume with `repro resume`)",
    )
    _add_system_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "resume", help="continue a checkpointed run from its newest snapshot"
    )
    p.add_argument("directory", help="run directory (simulation or experiment)")
    p.add_argument(
        "--max-legs",
        type=int,
        metavar="N",
        help="pause again after N further checkpoints",
    )
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("tail", help="print (or follow) a run's telemetry events")
    p.add_argument("directory", help="run directory or telemetry file")
    p.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep polling for new events (like tail -f)",
    )
    p.add_argument(
        "--raw", action="store_true", help="print raw JSONL instead of formatting"
    )
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("runs", help="inspect run directories on disk")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    p = runs_sub.add_parser(
        "list", help="inventory a directory of runs: status, progress, checkpoints"
    )
    p.add_argument("directory", help="a run directory or a directory of runs")
    p.add_argument("--json", action="store_true", help="print raw JSON rows")
    p.set_defaults(func=cmd_runs_list)

    p = sub.add_parser(
        "serve",
        help="start the coordination service: HTTP job API + worker coordinator",
    )
    p.add_argument(
        "--data-dir",
        required=True,
        metavar="DIR",
        help="service state root: jobs/, telemetry, the service.json manifest",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0, help="job API port (0 = ephemeral)"
    )
    p.add_argument(
        "--coordinator-port",
        type=int,
        default=0,
        help="worker socket port (0 = ephemeral)",
    )
    p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="expected worker heartbeat period",
    )
    p.add_argument(
        "--heartbeat-misses",
        type=int,
        default=3,
        metavar="N",
        help="missed heartbeats before a worker is declared lost and its "
        "cells are reassigned",
    )
    p.add_argument(
        "--token",
        metavar="SECRET",
        help="shared-secret worker auth: registrations without this exact "
        "token are rejected (never written to service.json)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker", help="serve cells for a coordinator until drained/stopped"
    )
    _add_locator_args(
        p, "--connect", "HOST:PORT", "coordinator worker-socket address"
    )
    p.add_argument("--name", help="worker identity (default hostname-pid)")
    p.add_argument(
        "--max-cells", type=int, metavar="N", help="exit after N cells"
    )
    p.add_argument(
        "--exit-when-idle",
        action="store_true",
        help="exit once the coordinator reports no work left anywhere",
    )
    p.add_argument("--poll-interval", type=float, default=0.5, metavar="SECONDS")
    p.add_argument(
        "--token",
        metavar="SECRET",
        help="auth token quoted at registration (required when the "
        "coordinator was started with --token)",
    )
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "submit", help="submit an experiment grid to a running service"
    )
    _add_locator_args(p, "--url", "URL", "job API base URL")
    p.add_argument(
        "--descriptor",
        metavar="FILE",
        help="submit a saved experiment descriptor JSON instead of grid flags",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="BLOCKS",
        help="per-cell checkpoint cadence in 256-round blocks (the "
        "failover/adoption grain)",
    )
    p.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="stream the job's telemetry until it finishes",
    )
    p.add_argument(
        "--priority",
        type=int,
        default=0,
        metavar="P",
        help="scheduling priority: higher-priority jobs' cells are leased "
        "first (default 0; ties run in submission order)",
    )
    _add_grid_args(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "status", help="show a running service's workers, leases and jobs"
    )
    p.add_argument("job", nargs="?", help="a job id for per-job status")
    _add_locator_args(p, "--url", "URL", "job API base URL")
    p.add_argument("--json", action="store_true", help="print raw JSON")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("cancel", help="stop a running job on a service")
    p.add_argument("job", help="the job id to cancel")
    _add_locator_args(p, "--url", "URL", "job API base URL")
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser("stability", help="empirical verdict + Appendix D bound")
    p.add_argument("--policy", default="scd")
    p.add_argument("--rho", type=float, default=0.95)
    _add_system_args(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser(
        "compare",
        help="run one cell on several backends side by side "
        "(finite-n simulation vs the mean-field limit)",
    )
    p.add_argument(
        "--backends",
        nargs="+",
        default=["fast", "meanfield"],
        metavar="BACKEND",
        help="two or more engine backends (space- or comma-separated); "
        "analytic backends run once, stochastic ones --replications times; "
        "see `repro backends` for the capability column",
    )
    p.add_argument("--policy", default="jsq(2)")
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument(
        "--replications",
        "-r",
        type=int,
        default=3,
        help="replications per stochastic backend (analytic backends are "
        "deterministic and always run once)",
    )
    _add_workload_args(p)
    p.add_argument("--save", help="write the comparison table as JSON")
    _add_system_args(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # output piped into head/less that closed early
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
