"""Tests for the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(*argv):
    """Run ``python -m repro ARGV`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


# Every subcommand's flags as (option strings -> action, type, nargs,
# choices, default, required).  Refactors of the parser must keep this
# table exactly: no flag gained, lost or re-defaulted.
PROFILE = "store choices=['u1_10', 'u1_100', 'bimodal', 'homogeneous'] default='u1_10'"
PARSER_PIN = {
    "policies": {},
    "backends": {},
    "probes": {},
    "scenarios": {},
    "experiment": {
        "--policies": "store nargs='+' default=['scd', 'jsq', 'sed']",
        "--systems": "store nargs='+' default=['100x10']",
        "--loads": "store type=float nargs='+' default=[0.7, 0.9, 0.99]",
        "--replications/-r": "store type=int default=1",
        "--workload": "store default='paper'",
        "--scenario": "store",
        "--workers/-j": "store type=int default=1",
        "--backend": "store default='reference'",
        "--metrics": "store nargs='*' default=[]",
        "--profile": PROFILE,
        "--rate-seed": "store type=int default=7",
        "--save": "store",
        "--rounds": "store type=int default=5000",
        "--warmup": "store type=int default=0",
        "--seed": "store type=int default=0",
    },
    "simulate": {
        "--policy": "store default='scd'",
        "--rho": "store type=float default=0.9",
        "--save": "store",
        "--backend": "store default='reference'",
        "--metrics": "store nargs='*' default=[]",
        "--servers/-n": "store type=int default=100",
        "--dispatchers/-m": "store type=int default=10",
        "--profile": PROFILE,
        "--rate-seed": "store type=int default=7",
        "--rounds": "store type=int default=5000",
        "--warmup": "store type=int default=0",
        "--seed": "store type=int default=0",
    },
    "figure": {
        "figure": "store required",
        "--rounds": "store type=int default=2000",
        "--loads": "store type=float nargs='+' default=[0.6, 0.7, 0.8, 0.9, 0.99]",
        "--seed": "store type=int default=0",
        "--servers": "store type=int nargs='+' default=[100, 200, 300, 400]",
        "--snapshots": "store type=int default=120",
        "--runtime-rounds": "store type=int default=60",
        "--save": "store",
    },
    "run": {
        "--policy": "store default='scd'",
        "--rho": "store type=float default=0.9",
        "--workload": "store default='paper'",
        "--scenario": "store",
        "--backend": "store default='reference'",
        "--metrics": "store nargs='*' default=[]",
        "--checkpoint-dir": "store required",
        "--checkpoint-every": "store type=int default=1",
        "--telemetry": "store",
        "--keep": "store type=int",
        "--max-legs": "store type=int",
        "--servers/-n": "store type=int default=100",
        "--dispatchers/-m": "store type=int default=10",
        "--profile": PROFILE,
        "--rate-seed": "store type=int default=7",
        "--rounds": "store type=int default=5000",
        "--warmup": "store type=int default=0",
        "--seed": "store type=int default=0",
    },
    "resume": {
        "directory": "store required",
        "--max-legs": "store type=int",
    },
    "tail": {
        "directory": "store required",
        "--follow/-f": "store_true nargs=0",
        "--raw": "store_true nargs=0",
    },
    "runs list": {
        "directory": "store required",
        "--json": "store_true nargs=0",
    },
    "serve": {
        "--data-dir": "store required",
        "--host": "store default='127.0.0.1'",
        "--port": "store type=int default=0",
        "--coordinator-port": "store type=int default=0",
        "--heartbeat-interval": "store type=float default=2.0",
        "--heartbeat-misses": "store type=int default=3",
        "--token": "store",
    },
    "worker": {
        "--connect": "store",
        "--data-dir": "store",
        "--name": "store",
        "--max-cells": "store type=int",
        "--exit-when-idle": "store_true nargs=0",
        "--poll-interval": "store type=float default=0.5",
        "--token": "store",
    },
    "submit": {
        "--url": "store",
        "--data-dir": "store",
        "--descriptor": "store",
        "--checkpoint-every": "store type=int default=1",
        "--follow/-f": "store_true nargs=0",
        "--policies": "store nargs='+' default=['scd', 'jsq', 'sed']",
        "--systems": "store nargs='+' default=['100x10']",
        "--loads": "store type=float nargs='+' default=[0.7, 0.9, 0.99]",
        "--replications/-r": "store type=int default=1",
        "--workload": "store default='paper'",
        "--scenario": "store",
        "--priority": "store type=int default=0",
        "--backend": "store default='reference'",
        "--metrics": "store nargs='*' default=[]",
        "--profile": PROFILE,
        "--rate-seed": "store type=int default=7",
        "--rounds": "store type=int default=5000",
        "--warmup": "store type=int default=0",
        "--seed": "store type=int default=0",
    },
    "status": {
        "job": "store nargs='?'",
        "--url": "store",
        "--data-dir": "store",
        "--json": "store_true nargs=0",
    },
    "cancel": {
        "job": "store required",
        "--url": "store",
        "--data-dir": "store",
    },
    "stability": {
        "--policy": "store default='scd'",
        "--rho": "store type=float default=0.95",
        "--servers/-n": "store type=int default=100",
        "--dispatchers/-m": "store type=int default=10",
        "--profile": PROFILE,
        "--rate-seed": "store type=int default=7",
        "--rounds": "store type=int default=5000",
        "--warmup": "store type=int default=0",
        "--seed": "store type=int default=0",
    },
    "compare": {
        "--backends": "store nargs='+' default=['fast', 'meanfield']",
        "--policy": "store default='jsq(2)'",
        "--rho": "store type=float default=0.9",
        "--replications/-r": "store type=int default=3",
        "--workload": "store default='paper'",
        "--scenario": "store",
        "--save": "store",
        "--servers/-n": "store type=int default=100",
        "--dispatchers/-m": "store type=int default=10",
        "--profile": PROFILE,
        "--rate-seed": "store type=int default=7",
        "--rounds": "store type=int default=5000",
        "--warmup": "store type=int default=0",
        "--seed": "store type=int default=0",
    },
}

ACTION_KINDS = {
    argparse._StoreAction: "store",
    argparse._StoreTrueAction: "store_true",
}


def iter_subparsers(parser, prefix=()):
    """Yield ``("runs list", subparser)`` pairs for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from iter_subparsers(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def flag_pin(action) -> str:
    fields = [ACTION_KINDS[type(action)]]
    if action.type is not None:
        fields.append(f"type={action.type.__name__}")
    for key in ("nargs", "choices", "default"):
        value = getattr(action, key)
        if value is not None and not (key == "default" and value is False):
            fields.append(f"{key}={value!r}")
    if action.required:
        fields.append("required")
    return " ".join(fields)


class TestParserPin:
    def test_every_flag_is_pinned(self):
        actual = {
            name: {
                "/".join(action.option_strings) or action.dest: flag_pin(action)
                for action in sub._actions
                if not isinstance(action, argparse._HelpAction)
            }
            for name, sub in iter_subparsers(build_parser())
        }
        assert actual == PARSER_PIN

    def test_help_renders_for_every_subcommand(self):
        """A stray % in a help string only fails when --help renders."""
        for name, sub in iter_subparsers(build_parser()):
            text = sub.format_help()
            assert text.startswith("usage: repro"), name


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestPolicies:
    def test_lists_all(self, capsys):
        code, out = run_cli(capsys, "policies")
        assert code == 0
        names = out.split()
        assert "scd" in names and "jsq" in names and "hlsq" in names


class TestBackends:
    def test_lists_one_registry(self, capsys):
        code, out = run_cli(capsys, "backends")
        assert code == 0
        assert out.startswith("engine backends (unit or sized jobs):")
        assert "sized engine backends" not in out
        # One table: every backend once, with its capability column.
        rows = {line.split()[0]: line for line in out.splitlines()[1:]}
        assert set(rows) == {"reference", "fast", "meanfield"}
        assert "checkpoint,probes,sized" in rows["fast"]
        assert "unit-only" in rows["meanfield"]


class TestExperiment:
    def test_grid_table_and_best(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--policies", "scd", "random", "--systems", "12x3",
            "--loads", "0.8", "--replications", "2", "--rounds", "150",
        )
        assert code == 0
        assert "Running 4 cells" in out
        assert "best on n12_m3_u1_10 at rho=0.8: scd" in out

    def test_workers_and_save(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        code, out = run_cli(
            capsys,
            "experiment", "--policies", "scd", "--systems", "10x2",
            "--loads", "0.7", "--rounds", "100", "--workers", "2",
            "--save", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["kind"] == "experiment_result"
        assert len(payload["records"]) == 1

    def test_skewed_workload(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--policies", "scd", "--systems", "12x3",
            "--loads", "0.8", "--rounds", "100", "--workload", "skew:3",
        )
        assert code == 0
        assert "workload: skew3" in out

    def test_sized_workload_on_fast_backend(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--policies", "jsq", "--systems", "10x2",
            "--loads", "0.7", "--rounds", "120", "--workload", "sized:geom:3",
            "--backend", "fast",
        )
        assert code == 0
        assert "workload: sized-geom3" in out
        assert "backend: fast" in out

    def test_sized_workload_tokens(self, capsys):
        for token, name in [
            ("sized", "sized-geom2"),
            ("sized:det:4", "sized-det4"),
            ("sized:bimodal:1:10:0.1", "sized-bimodal1-10-0.1"),
        ]:
            code, out = run_cli(
                capsys,
                "experiment", "--policies", "jsq", "--systems", "8x2",
                "--loads", "0.6", "--rounds", "60", "--workload", token,
            )
            assert code == 0
            assert f"workload: {name}" in out

    def test_bad_sized_workload_token(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "experiment", "--systems", "10x2",
                "--workload", "sized:zipf:2",
            ])

    def test_bursty_workload_is_a_regime_scenario(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--policies", "jsq", "--systems", "10x2",
            "--loads", "0.8", "--rounds", "120", "--workload", "bursty:3:0.1",
        )
        assert code == 0
        assert "workload: bursty3" in out
        assert "scenario: regime:calm=0.5,surge=1.5,mean_dwell=10.0" in out

    @pytest.mark.parametrize("command", ["experiment", "run", "submit", "compare"])
    def test_bursty_refuses_a_second_scenario(self, command, tmp_path):
        """bursty already is a regime scenario; replacing it with
        --scenario would silently drop the bursts under the bursty name."""
        extra = ["--checkpoint-dir", str(tmp_path / "r")] if command == "run" else []
        with pytest.raises(SystemExit, match="cannot take --scenario"):
            main([command, "--workload", "bursty:3", "--scenario", "diurnal", *extra])
        assert not (tmp_path / "r").exists()

    def test_bad_bursty_parameters(self):
        for token in ("bursty:x", "bursty:3:0", "bursty:3:1.5"):
            with pytest.raises(SystemExit, match="invalid workload"):
                main(["experiment", "--systems", "10x2", "--workload", token])

    def test_bad_system_token(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--systems", "hundred"])

    def test_bad_workload_token(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--systems", "10x2", "--workload", "chaotic"])

    def test_metrics_table(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--policies", "scd", "jsq", "--systems", "10x2",
            "--loads", "0.8", "--rounds", "150", "--backend", "fast",
            "--metrics", "herding", "server_stats",
        )
        assert code == 0
        assert "Probe metrics (replication-averaged)" in out
        assert "herding.max_spike" in out
        assert "server_stats.utilization_mean" in out

    def test_metrics_with_kwargs_and_save(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        code, out = run_cli(
            capsys,
            "experiment", "--policies", "jsq", "--systems", "10x2",
            "--loads", "0.8", "--rounds", "150",
            "--metrics", "windowed_mean:window=50", "--save", str(path),
        )
        assert code == 0
        assert "windowed_mean[window=50].drift" in out
        payload = json.loads(path.read_text())
        assert payload["experiment"]["metrics"] == [
            {"name": "windowed_mean", "kwargs": {"window": 50}}
        ]

    def test_metrics_on_sized_workload(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--policies", "jsq", "--systems", "10x2",
            "--loads", "0.8", "--rounds", "150", "--backend", "fast",
            "--workload", "sized:geom:3", "--metrics", "herding",
        )
        assert code == 0
        assert "herding.max_spike" in out

    def test_bad_metric_name(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "experiment", "--systems", "10x2", "--metrics", "frobnicator",
            ])

    def test_bad_metric_params(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "experiment", "--systems", "10x2",
                "--metrics", "windowed_mean:50",
            ])

    def test_duplicate_metric_rejected_cleanly(self, capsys):
        with pytest.raises(SystemExit, match="duplicate probe"):
            main([
                "simulate", "--servers", "4", "--dispatchers", "2",
                "--rounds", "20", "--metrics", "herding", "herding",
            ])

    def test_default_collector_in_metrics_rejected_cleanly(self, capsys):
        with pytest.raises(SystemExit, match="default collector"):
            main([
                "simulate", "--servers", "4", "--dispatchers", "2",
                "--rounds", "20", "--metrics", "responses",
            ])


class TestProbes:
    def test_lists_probes_with_default_markers(self, capsys):
        code, out = run_cli(capsys, "probes")
        assert code == 0
        for name in (
            "responses", "queue_series", "server_stats",
            "dispatcher_stats", "windowed_mean", "herding",
        ):
            assert name in out
        assert "* responses" in out  # default collectors are marked
        assert "* queue_series" in out


class TestSimulate:
    def test_basic_run(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate", "--policy", "scd", "--servers", "15",
            "--dispatchers", "3", "--rho", "0.8", "--rounds", "200",
        )
        assert code == 0
        assert "mean" in out
        assert "arrived=" in out

    def test_metrics_summary_printed(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate", "--policy", "jsq", "--servers", "10",
            "--dispatchers", "2", "--rounds", "150",
            "--metrics", "herding",
        )
        assert code == 0
        assert "probe herding" in out
        assert "max_spike" in out

    def test_save_json(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code, out = run_cli(
            capsys,
            "simulate", "--policy", "jsq", "--servers", "10",
            "--dispatchers", "2", "--rho", "0.7", "--rounds", "100",
            "--save", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["policy_name"] == "jsq"


class TestFigure:
    """``repro figure ID`` prints the table the figure benchmarks write."""

    GRID = ("--rounds", "200", "--loads", "0.7", "0.9")

    def test_mean_figure(self, capsys):
        code, out = run_cli(capsys, "figure", "3a", *self.GRID)
        assert code == 0
        assert "Figure 3a: mean response time vs offered load" in out
        assert "(rounds/cell: 200, loads: (0.7, 0.9), seed: 0)" in out
        rows = [line.split() for line in out.splitlines() if line.lstrip().startswith("n")]
        # 7 policies x 4 systems x 2 loads.
        assert [row[2] for row in rows] == ["0.700", "0.900"] * 28

    def test_tail_figure_prints_three_improvement_lines(self, capsys):
        code, out = run_cli(capsys, "figure", "3b", *self.GRID)
        assert code == 0
        assert "Figure 3b" in out
        assert out.count("SCD 1e-4 tail improvement over runner-up") == 3

    def test_runtime_figure(self, capsys):
        code, out = run_cli(
            capsys,
            "figure", "5", "--servers", "30", "--snapshots", "10",
            "--runtime-rounds", "15",
        )
        assert code == 0
        assert "Figure 5" in out
        assert "scd-alg4" in out and "p50_us" in out

    def test_save_writes_a_result_that_renders_the_same_table(self, capsys, tmp_path):
        from repro.experiments.figures import FIGURES_BY_ID, table_text
        from repro.experiments.persistence import load_experiment

        grid = ("--rounds", "60", "--loads", "0.9")
        code, out = run_cli(capsys, "figure", "4b", *grid, "--save", str(tmp_path))
        assert code == 0
        figure = FIGURES_BY_ID["4b"]
        path = tmp_path / f"{figure.table}.json"
        assert f"figure 4b written to {path}" in out
        loaded = load_experiment(path)
        table = table_text(
            figure.title, figure.headers, figure.rows(loaded, [0.9]),
            rounds=60, loads=[0.9], seed=0,
        )
        assert table in out
        for note in figure.notes(loaded):
            assert note in out

    def test_unknown_figure_names_the_ids(self):
        with pytest.raises(SystemExit, match="unknown figure '9z'; expected one of 3a, "):
            main(["figure", "9z"])


class TestStability:
    def test_verdict_and_bound(self, capsys):
        code, out = run_cli(
            capsys,
            "stability", "--policy", "scd", "--rho", "0.8",
            "--servers", "10", "--dispatchers", "2", "--rounds", "400",
        )
        assert code == 0
        assert "STABLE" in out
        assert "Appendix D" in out


class TestCompare:
    def test_bursty_cell_on_fast_and_meanfield(self, capsys):
        code, out = run_cli(
            capsys,
            "compare", "--workload", "bursty:1.5", "--backends", "fast,meanfield",
            "--servers", "1000", "--dispatchers", "20", "--profile", "homogeneous",
            "--rho", "0.7", "--rounds", "1000", "--replications", "1",
        )
        assert code == 0
        assert "scenario regime:calm=0.8,surge=1.2,mean_dwell=20.0" in out
        rows = {line.split()[0]: line.split() for line in out.splitlines()[3:]}
        fast, fluid = float(rows["fast"][3]), float(rows["meanfield"][3])
        assert fluid == pytest.approx(fast, rel=0.1)


class TestBadCoordinates:
    """Unknown policies or figures and bad loads or rounds end every run
    subcommand with a one-line error, before any cell runs."""

    SMALL = ("--servers", "6", "--dispatchers", "2", "--rounds", "100")
    GRID = ("--systems", "6x2", "--rounds", "100")

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--policy", "nope", *SMALL),
            ("simulate", "--rho", "-1", *SMALL),
            ("figure", "9z"),
            ("figure", "3a", "--rounds", "0"),
            ("stability", "--policy", "nope", *SMALL),
            ("experiment", "--policies", "scd", "nope", *GRID),
            ("experiment", "--loads", "nan", *GRID),
            ("run", "--policy", "nope", *SMALL),
            ("run", "--rho", "-1", *SMALL),
        ],
    )
    def test_one_line_error_no_traceback(self, argv, tmp_path):
        extra = ("--checkpoint-dir", str(tmp_path / "run")) if argv[0] == "run" else ()
        proc = run_cli_process(*argv, *extra)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("backend", ["sharded:2", "compiled"])
    def test_removed_backend_named_in_the_error(self, backend):
        proc = run_cli_process("simulate", "--backend", backend, *self.SMALL)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"unknown engine backend '{backend}'" in proc.stderr, proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("compare", "--policy", "nope", *SMALL),
            ("compare", "--rho", "-1", *SMALL),
            ("submit", "--policies", "nope", *GRID),
        ],
    )
    def test_invalid_experiment_prefix(self, argv):
        proc = run_cli_process(*argv)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("invalid experiment: "), proc.stderr


class TestCompareValidatesFirst:
    def test_no_cell_runs_before_every_backend_is_valid(self, monkeypatch):
        """meanfield refuses sized workloads; that must surface before
        the fast backend spends its run."""
        from repro.experiments import Experiment

        ran = []
        monkeypatch.setattr(Experiment, "run", lambda self, **kw: ran.append(self))
        with pytest.raises(SystemExit) as excinfo:
            main([
                "compare", "--backends", "fast,meanfield",
                "--workload", "sized:geom:2", "--servers", "20",
                "--dispatchers", "4", "--rounds", "100",
            ])
        message = str(excinfo.value)
        assert message.startswith("invalid experiment: ")
        assert "'meanfield' cannot run sized workloads" in message
        assert ran == []


class TestKeyValueGrammar:
    def test_duplicate_probe_key_rejected(self):
        with pytest.raises(SystemExit, match="duplicate probe parameter 'window'"):
            main([
                "simulate", "--servers", "4", "--dispatchers", "2",
                "--rounds", "20", "--metrics", "windowed_mean:window=5,window=7",
            ])

    def test_probes_and_scenarios_share_one_grammar(self):
        from repro.sim.scenarios import make_scenario
        from repro.sim._registry import parse_params

        assert parse_params("a=1,b=2.5,c=x", "probe") == {"a": 1, "b": 2.5, "c": "x"}
        with pytest.raises(ValueError, match="duplicate scenario parameter 'at'"):
            make_scenario("flash:at=5,at=7")
        with pytest.raises(ValueError, match="duplicate probe parameter 'a'"):
            parse_params("a=1", "probe", {"a": 2})


class TestResumeRejectedCheckpoints:
    def test_every_payload_corrupt_fails_in_one_line(self, tmp_path):
        directory = tmp_path / "r"
        proc = run_cli_process(
            "run", "--policy", "jsq", "--backend", "fast", "--servers", "6",
            "--dispatchers", "2", "--rounds", "1500", "--seed", "7",
            "--max-legs", "2", "--checkpoint-dir", str(directory),
        )
        assert proc.returncode == 0, proc.stderr
        payloads = sorted((directory / "checkpoints").glob("ckpt-*.pkl"))
        assert len(payloads) == 2
        for payload in payloads:
            payload.write_bytes(b"corrupt")
        proc = run_cli_process("resume", str(directory))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        last = proc.stderr.strip().splitlines()[-1]
        assert last.startswith("repro resume: no usable checkpoint"), proc.stderr
        assert "resum" not in proc.stdout
        assert not (directory / "result.json").exists()


class TestDamagedManifests:
    @pytest.mark.parametrize("command", ["resume", "tail"])
    def test_damaged_run_manifest(self, command, tmp_path):
        (tmp_path / "run.json").write_text("{not json")
        with pytest.raises(SystemExit, match="damaged run manifest"):
            main([command, str(tmp_path)])

    @pytest.mark.parametrize(
        "argv",
        [
            ("status",),
            ("cancel", "job-0001"),
            ("submit", "--policies", "jsq", "--systems", "6x2"),
            ("worker",),
        ],
    )
    @pytest.mark.parametrize("manifest", ['{"pid": 1}', "[1, 2]", "{"])
    def test_damaged_service_manifest(self, argv, manifest, tmp_path):
        (tmp_path / "service.json").write_text(manifest)
        with pytest.raises(SystemExit, match="damaged service manifest"):
            main([*argv, "--data-dir", str(tmp_path)])
