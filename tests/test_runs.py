"""Tests for the run lifecycle subsystem (repro.runs).

The load-bearing property: killing a checkpointed run at ANY block
boundary and resuming it produces results bit-identical to the
uninterrupted run -- on every simulation kernel, unit and sized, with
warmup and non-default probes in play.  Around that sit the checkpoint
store's corruption handling (warn + fall back, never resume from a
damaged snapshot), the telemetry stream's event contract, per-cell
experiment resume, and the CLI verbs.
"""

from __future__ import annotations

import json
import pickle
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.executor import SerialExecutor, build_cell_simulation
from repro.experiments.grid import Experiment
from repro.experiments.workload import WorkloadSpec
from repro.runs import (
    BLOCK_ROUNDS,
    CheckpointError,
    CheckpointStore,
    ExperimentRun,
    Run,
    TelemetryWriter,
    follow_events,
    inspect_run,
    iter_events,
    probe_summaries_from_state,
    retained_rounds,
    scan_runs,
)
from repro.sim.sized import GeometricSize
from repro.workloads.scenarios import SystemSpec

SYSTEM = SystemSpec(num_servers=6, num_dispatchers=2)
ROUNDS = 800  # three 256-round blocks plus a trailing partial
WARMUP = 256


def build_sim(backend: str, sized: bool, rounds: int = ROUNDS):
    workload = WorkloadSpec.sized(GeometricSize(2.0)) if sized else WorkloadSpec.paper()
    return build_cell_simulation(
        "scd",
        SYSTEM,
        0.85,
        workload,
        seed=7,
        rounds=rounds,
        warmup=WARMUP,
        backend=backend,
        probes=("herding",),
    )


def fingerprint(result) -> tuple:
    """Everything bit-identity covers: histogram, series, probe summaries."""
    return (
        result.histogram.state_dict(),
        result.queue_series.values.tolist(),
        result.probe_summaries(),
    )


_BASELINES: dict = {}


def baseline(backend: str, sized: bool) -> tuple:
    key = (backend, sized)
    if key not in _BASELINES:
        _BASELINES[key] = fingerprint(build_sim(backend, sized).run())
    return _BASELINES[key]


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        blob = pickle.dumps({"round": 256, "payload": list(range(50))})
        manifest = store.write(256, blob, meta={"engine": "unsized"})
        assert manifest["round"] == 256
        assert manifest["engine"] == "unsized"
        loaded_manifest, payload = store.load_latest()
        assert loaded_manifest == manifest
        assert payload == {"round": 256, "payload": list(range(50))}

    def test_empty_store_is_fresh_start(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest() is None

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_resume_refuses_retired_format_run_dir(self, tmp_path, version):
        """Snapshots of versions 1-5 pickle classes and layouts that no
        longer exist (version 5 names the SCD and scenario classes by
        their old module paths); the resume refuses them loudly instead of
        unpickling."""
        directory = tmp_path / "run"
        Run.create(build_sim("fast", sized=True), directory).execute(max_legs=1)
        manifests = sorted((directory / "checkpoints").glob("ckpt-*.json"))
        assert manifests
        for path in manifests:
            manifest = json.loads(path.read_text())
            manifest["format_version"] = version
            path.write_text(json.dumps(manifest))
        message = f"unsupported format version {version}"
        with pytest.warns(RuntimeWarning, match=message):
            with pytest.raises(SystemExit, match=f"^repro resume: .*{message}"):
                main(["resume", str(directory)])

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("kind", ["simulation", "experiment"])
    def test_resume_refuses_retired_run_format(self, tmp_path, kind, version):
        """A version-1 or -2 run directory's pickle may reference deleted or
        moved classes; the resume reads run.json first and never
        unpickles."""
        directory = tmp_path / "run"
        if kind == "simulation":
            Run.create(build_sim("fast", sized=False), directory)
            pickled = directory / "spec.pkl"
        else:
            experiment = Experiment("jsq", SYSTEM, 0.8, rounds=300, backend="fast")
            ExperimentRun.create(experiment, directory)
            pickled = directory / "experiment.pkl"
        pickled.write_bytes(b"garbage, not a pickle")
        manifest_path = directory / "run.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = version
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(
            SystemExit, match=f"^repro resume: .*unsupported format version {version}"
        ):
            main(["resume", str(directory)])

    def test_newest_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for round_index in (256, 512, 1024):
            store.write(round_index, pickle.dumps(round_index))
        manifest, payload = store.load_latest()
        assert manifest["round"] == 1024 and payload == 1024
        assert store.rounds() == [256, 512, 1024]

    def test_truncated_payload_falls_back_with_warning(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(256, pickle.dumps("good"))
        store.write(512, pickle.dumps("newest"))
        payload_path = tmp_path / "ckpt-0000000512.pkl"
        payload_path.write_bytes(payload_path.read_bytes()[:-7])
        with pytest.warns(RuntimeWarning, match="hash mismatch"):
            manifest, payload = store.load_latest()
        assert manifest["round"] == 256 and payload == "good"

    def test_corrupted_manifest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(256, pickle.dumps("good"))
        store.write(512, pickle.dumps("newest"))
        (tmp_path / "ckpt-0000000512.json").write_text("{not json")
        with pytest.warns(RuntimeWarning, match="unreadable manifest"):
            manifest, payload = store.load_latest()
        assert payload == "good"

    def test_missing_payload_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(256, pickle.dumps("good"))
        store.write(512, pickle.dumps("newest"))
        (tmp_path / "ckpt-0000000512.pkl").unlink()
        with pytest.warns(RuntimeWarning, match="missing payload"):
            _, payload = store.load_latest()
        assert payload == "good"

    def test_payload_without_manifest_is_invisible(self, tmp_path):
        """A crash between payload and manifest leaves no committed state."""
        store = CheckpointStore(tmp_path)
        (tmp_path / "ckpt-0000000256.pkl").write_bytes(b"aborted write")
        assert store.load_latest() is None

    def test_all_invalid_raises_with_every_failure_named(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(256, pickle.dumps("a"))
        store.write(512, pickle.dumps("b"))
        (tmp_path / "ckpt-0000000256.pkl").write_bytes(b"garbage")
        (tmp_path / "ckpt-0000000512.json").write_text("{not json")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(CheckpointError) as excinfo:
                store.load_latest()
        message = str(excinfo.value)
        assert "ckpt-0000000256" in message and "ckpt-0000000512" in message

    def test_unsupported_format_version_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        manifest = store.write(256, pickle.dumps("a"))
        manifest["format_version"] = 99
        (tmp_path / "ckpt-0000000256.json").write_text(json.dumps(manifest))
        with pytest.warns(RuntimeWarning, match="format version"):
            with pytest.raises(CheckpointError):
                store.load_latest()


class TestTelemetry:
    def test_emit_and_iter_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as telemetry:
            telemetry.emit("run-started", rounds=100)
            telemetry.emit("run-finished")
        events = list(iter_events(path))
        assert [e["event"] for e in events] == ["run-started", "run-finished"]
        assert [e["seq"] for e in events] == [0, 1]
        assert events[0]["rounds"] == 100
        assert all("time" in e for e in events)

    def test_seq_continues_across_writers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as telemetry:
            telemetry.emit("a")
        with TelemetryWriter(path) as telemetry:
            telemetry.emit("b")
        assert [e["seq"] for e in iter_events(path)] == [0, 1]

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as telemetry:
            telemetry.emit("a")
        with open(path, "a") as handle:
            handle.write('{"seq": 1, "event": "torn-mid-wri')
        assert [e["event"] for e in iter_events(path)] == ["a"]
        # and a new writer numbers past only the intact events
        with TelemetryWriter(path) as telemetry:
            record = telemetry.emit("b")
        assert record["seq"] == 1


class TestRun:
    def test_create_refuses_existing_run(self, tmp_path):
        Run.create(build_sim("fast", False), tmp_path / "r")
        with pytest.raises(FileExistsError, match="resume it instead"):
            Run.create(build_sim("fast", False), tmp_path / "r")

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Run.open(tmp_path / "nowhere")

    def test_uninterrupted_run_matches_plain_run(self, tmp_path):
        run = Run.create(build_sim("fast", False), tmp_path / "r")
        result = run.execute()
        assert fingerprint(result) == baseline("fast", False)

    def test_execute_is_idempotent(self, tmp_path):
        run = Run.create(build_sim("fast", False), tmp_path / "r")
        first = run.execute()
        again = Run.open(tmp_path / "r").execute()
        assert fingerprint(again) == fingerprint(first)

    def test_checkpoint_every_spaces_snapshots(self, tmp_path):
        run = Run.create(build_sim("fast", False), tmp_path / "r", checkpoint_every=2)
        run.execute()
        assert run.store.rounds() == [2 * BLOCK_ROUNDS]

    def test_telemetry_event_contract(self, tmp_path):
        run = Run.create(build_sim("fast", False), tmp_path / "r")
        run.execute(max_legs=1)
        run.execute()
        events = [e["event"] for e in iter_events(run.telemetry_path)]
        # Both sessions announce themselves; the first pauses, the
        # second finishes; every checkpoint narrates leg -> snapshot ->
        # committed, in order.
        assert events[0] == "run-started"
        assert "run-paused" in events and "run-finished" in events
        assert events.count("run-started") == 2
        leg = events.index("leg-completed")
        assert events[leg + 1] == "probe-snapshot"
        assert events[leg + 2] == "checkpoint-written"
        started = [e for e in iter_events(run.telemetry_path) if e["event"] == "run-started"]
        assert [s["resumed"] for s in started] == [False, True]
        snapshot = next(
            e for e in iter_events(run.telemetry_path) if e["event"] == "probe-snapshot"
        )
        assert "herding" in snapshot["summaries"]
        assert snapshot["summaries"]["herding"]["rounds"] == BLOCK_ROUNDS

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_probe_snapshots_match_the_committed_blobs(self, tmp_path, backend):
        """``probe-snapshot`` is computed from the live kernel state, not
        an unpickled copy of the blob, and must read exactly what the
        committed checkpoint holds (NaN-aware: compared as JSON)."""
        sim = build_cell_simulation(
            "scd", SYSTEM, 0.85, WorkloadSpec.paper(), seed=7, rounds=ROUNDS,
            warmup=WARMUP, backend=backend,
            probes=("herding", "server_stats", "server_response_stats",
                    "windowed_mean", "windowed_stability", "dispatcher_stats"),
        )
        run = Run.create(sim, tmp_path / "r")
        run.execute()
        snapshots = [
            e for e in iter_events(run.telemetry_path) if e["event"] == "probe-snapshot"
        ]
        assert [e["round"] for e in snapshots] == run.store.rounds() == [256, 512, 768]
        for event in snapshots:
            blob = (run.store.directory / f"ckpt-{event['round']:010d}.pkl").read_bytes()
            expected = probe_summaries_from_state(pickle.loads(blob)["kernel"])
            assert json.dumps(event["summaries"], sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )

    def test_telemetry_override_path(self, tmp_path):
        run = Run.create(
            build_sim("fast", False),
            tmp_path / "r",
            telemetry=str(tmp_path / "elsewhere.jsonl"),
        )
        assert run.telemetry_path == tmp_path / "elsewhere.jsonl"
        run.execute()
        assert any(iter_events(tmp_path / "elsewhere.jsonl"))

    def test_resume_from_corrupted_newest_falls_back_bit_identically(self, tmp_path):
        """Damage the newest snapshot: resume warns, uses the previous
        one, and still reproduces the uninterrupted run exactly."""
        run = Run.create(build_sim("fast", False), tmp_path / "r")
        paused = run.execute(max_legs=2)
        assert paused is None and len(run.store.rounds()) == 2
        newest = max(run.store.rounds())
        payload_path = run.store.directory / f"ckpt-{newest:010d}.pkl"
        payload_path.write_bytes(payload_path.read_bytes()[: 100])
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = Run.open(tmp_path / "r").execute()
        assert fingerprint(result) == baseline("fast", False)

    @pytest.mark.parametrize(
        "backend", ["sharded:2", "sharded:2:process", "compiled"]
    )
    def test_removed_backend_refused_before_unpickling(
        self, tmp_path, monkeypatch, backend
    ):
        """A run.json naming a backend this code does not have fails
        with the registry's error before spec.pkl or any checkpoint is
        unpickled, not as a missing class halfway through unpickling."""
        run = Run.create(build_sim("fast", False), tmp_path / "r")
        assert run.execute(max_legs=1) is None
        manifest = json.loads(run.manifest_path.read_text())
        manifest["backend"] = backend
        run.manifest_path.write_text(json.dumps(manifest))

        def refuse(*args, **kwargs):
            raise AssertionError("unpickled before the backend was checked")

        monkeypatch.setattr(pickle, "loads", refuse)
        with pytest.raises(ValueError, match=f"unknown engine backend '{backend}'"):
            Run.open(tmp_path / "r").execute()

    def test_all_checkpoints_damaged_raises(self, tmp_path):
        run = Run.create(build_sim("fast", False), tmp_path / "r")
        run.execute(max_legs=1)
        for payload_path in run.store.directory.glob("ckpt-*.pkl"):
            payload_path.write_bytes(b"damaged beyond recovery")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(CheckpointError, match="every snapshot failed"):
                Run.open(tmp_path / "r").execute()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    backend=st.sampled_from(["reference", "fast"]),
    sized=st.booleans(),
    legs_before_kill=st.integers(min_value=1, max_value=3),
)
def test_kill_at_any_block_then_resume_is_bit_identical(
    tmp_path_factory, backend, sized, legs_before_kill
):
    """The tentpole property, over every (engine x kernel x kill point).

    ``execute(max_legs=k)`` stops the process exactly where a SIGKILL
    right after the k-th checkpoint commit would; progress beyond the
    commit exists only in memory either way, so resuming exercises the
    identical recovery path.  Warmup and a non-default (herding) probe
    ride along so discarded-response bookkeeping and probe state are
    part of the round trip.
    """
    directory = tmp_path_factory.mktemp("killpoint") / "run"
    run = Run.create(build_sim(backend, sized), directory)
    interrupted = run.execute(max_legs=legs_before_kill)
    if legs_before_kill >= 3:
        # Only 3 interior block boundaries exist at 800 rounds.
        assert interrupted is None or fingerprint(interrupted) == baseline(
            backend, sized
        )
    result = interrupted
    while result is None:
        result = Run.open(directory).execute(max_legs=1)
    assert fingerprint(result) == baseline(backend, sized)


class TestRetention:
    GRID = [256 * i for i in range(1, 11)]  # ordinals 1..10

    def test_keeps_newest_plus_power_of_two_anchors(self):
        kept = retained_rounds(self.GRID, keep_last=3)
        anchors = {256, 512, 1024, 2048}  # ordinals 1, 2, 4, 8
        newest = {2048, 2304, 2560}
        assert kept == sorted(anchors | newest)

    def test_policy_is_idempotent(self):
        once = retained_rounds(self.GRID, keep_last=2)
        # stride inference re-derives from the surviving ordinal-1
        # checkpoint, so pruning what was already pruned removes nothing
        assert retained_rounds(once, keep_last=2) == once

    def test_off_grid_rounds_are_kept(self):
        kept = retained_rounds([256, 512, 700, 768], keep_last=1)
        assert 700 in kept

    def test_explicit_stride_overrides_inference(self):
        kept = retained_rounds([512, 1024, 1536, 2048], keep_last=1, stride=512)
        assert kept == [512, 1024, 2048]  # 1536 is ordinal 3: dropped

    def test_keep_last_validated(self):
        with pytest.raises(ValueError, match="keep_last"):
            retained_rounds([256], keep_last=0)

    def test_store_prune_deletes_manifest_and_payload(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for round_index in self.GRID:
            store.write(round_index, pickle.dumps(round_index))
        removed = store.prune(2)
        expected = retained_rounds(self.GRID, 2)
        assert store.rounds() == expected
        assert removed == sorted(set(self.GRID) - set(expected))
        for round_index in removed:
            assert not (tmp_path / f"ckpt-{round_index:010d}.json").exists()
            assert not (tmp_path / f"ckpt-{round_index:010d}.pkl").exists()
        assert store.prune(2) == []  # second pass is a no-op
        manifest, payload = store.load_latest()
        assert manifest["round"] == 2560 and payload == 2560

    def test_run_with_keep_prunes_live_and_resumes_bit_identically(self, tmp_path):
        expected = fingerprint(build_sim("fast", False, rounds=2560).run())
        run = Run.create(
            build_sim("fast", False, rounds=2560), tmp_path / "r", keep=2
        )
        assert run.execute(max_legs=4) is None
        result = Run.open(tmp_path / "r").execute()
        assert fingerprint(result) == expected
        events = [e["event"] for e in iter_events(run.telemetry_path)]
        assert "checkpoints-pruned" in events
        # interior checkpoints land at 256..2304; the retention policy
        # holds at rest after incremental pruning
        assert run.store.rounds() == retained_rounds(
            [256 * i for i in range(1, 10)], 2
        )


class TestFollowEvents:
    def test_stop_predicate_still_drains_final_events(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "t.jsonl")
        writer.emit("first")
        done = threading.Event()
        events = follow_events(
            tmp_path / "t.jsonl", poll_interval=0.01, stop=done.is_set
        )
        assert next(events)["event"] == "first"
        # an event written just before the stop flag flips must not be
        # lost -- the generator drains one final time before ending
        writer.emit("last")
        done.set()
        assert [e["event"] for e in events] == ["last"]

    def test_concurrent_readers_see_identical_streams(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "t.jsonl")
        for index in range(5):
            writer.emit("tick", index=index)
        done = threading.Event()
        done.set()
        streams = [
            list(
                follow_events(
                    tmp_path / "t.jsonl", poll_interval=0.01, stop=done.is_set
                )
            )
            for _ in range(2)
        ]
        assert streams[0] == streams[1]
        assert [e["index"] for e in streams[0]] == list(range(5))

    def test_poll_interval_validated(self, tmp_path):
        with pytest.raises(ValueError, match="poll_interval"):
            next(follow_events(tmp_path / "t.jsonl", poll_interval=0))


class TestInventory:
    def test_simulation_run_row_tracks_lifecycle(self, tmp_path):
        run = Run.create(build_sim("fast", False), tmp_path / "r")
        row = inspect_run(tmp_path / "r")
        assert (row["kind"], row["status"]) == ("simulation_run", "fresh")
        run.execute(max_legs=1)
        row = inspect_run(tmp_path / "r")
        assert row["status"] == "in-flight"
        assert row["rounds_done"] == BLOCK_ROUNDS
        assert row["checkpoints"] == 1
        Run.open(tmp_path / "r").execute()
        row = inspect_run(tmp_path / "r")
        assert row["status"] == "finished"
        assert row["rounds_done"] == ROUNDS

    def test_non_run_directory_is_none(self, tmp_path):
        assert inspect_run(tmp_path) is None

    def test_damaged_manifest_reported_not_crashed(self, tmp_path):
        (tmp_path / "run.json").write_text("{not json")
        row = inspect_run(tmp_path)
        assert (row["kind"], row["status"]) == ("damaged", "damaged")

    def test_scan_runs_inventories_children(self, tmp_path):
        Run.create(build_sim("fast", False), tmp_path / "a").execute(max_legs=1)
        Run.create(build_sim("fast", False), tmp_path / "b").execute()
        (tmp_path / "not-a-run").mkdir()
        rows = scan_runs(tmp_path)
        assert [Path(r["directory"]).name for r in rows] == ["a", "b"]
        assert [r["status"] for r in rows] == ["in-flight", "finished"]

    def test_scan_runs_on_a_run_returns_itself(self, tmp_path):
        Run.create(build_sim("fast", False), tmp_path / "r").execute()
        rows = scan_runs(tmp_path / "r")
        assert len(rows) == 1 and rows[0]["status"] == "finished"


class TestExperimentRun:
    def build_experiment(self):
        return Experiment(
            policies=("scd", "jsq"),
            systems=SYSTEM,
            loads=(0.8,),
            rounds=600,
            workloads=(WorkloadSpec.paper(),),
            backend="fast",
        )

    def test_create_refuses_existing(self, tmp_path):
        ExperimentRun.create(self.build_experiment(), tmp_path / "e")
        with pytest.raises(FileExistsError):
            ExperimentRun.create(self.build_experiment(), tmp_path / "e")

    def test_per_cell_resume_matches_serial_execution(self, tmp_path):
        experiment = self.build_experiment()
        expected = SerialExecutor().run(experiment)
        ExperimentRun.create(experiment, tmp_path / "e")
        outcome = None
        sessions = 0
        while outcome is None:
            outcome = ExperimentRun.open(tmp_path / "e").execute(max_legs=1)
            sessions += 1
        assert sessions > 1  # the pause budget actually interrupted it
        assert list(outcome.records) == list(expected)
        events = [e["event"] for e in iter_events(tmp_path / "e" / "telemetry.jsonl")]
        assert "cell-skipped" in events  # finished cells were not redone
        assert events[-1] == "experiment-finished"
        assert (tmp_path / "e" / "result.json").exists()

    def test_cell_directories_are_runs(self, tmp_path):
        experiment = self.build_experiment()
        run = ExperimentRun.create(experiment, tmp_path / "e")
        run.execute()
        for index in range(experiment.size):
            cell = Run.open(run.cell_directory(index))
            assert cell.result() is not None


class TestCli:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def simulate_args(self, directory, *extra):
        return (
            "run", "--policy", "scd", "--rho", "0.85", "--backend", "fast",
            "--servers", "6", "--dispatchers", "2", "--rounds", "800",
            "--warmup", "256", "--seed", "7", "--metrics", "herding",
            "--checkpoint-dir", str(directory), *extra,
        )

    def test_run_pause_resume_tail(self, capsys, tmp_path):
        directory = tmp_path / "r"
        code, out = self.run_cli(
            capsys, *self.simulate_args(directory, "--max-legs", "1")
        )
        assert code == 0 and "paused after 1 checkpoint leg(s)" in out
        code, out = self.run_cli(capsys, "resume", str(directory))
        assert code == 0
        assert "resumed from round 256" in out
        assert "mean_response_time" in out and "probe herding" in out
        code, out = self.run_cli(capsys, "tail", str(directory))
        assert code == 0
        for expected in (
            "run-started", "leg-completed", "probe-snapshot",
            "checkpoint-written", "run-paused", "run-finished",
        ):
            assert expected in out
        code, raw = self.run_cli(capsys, "tail", str(directory), "--raw")
        first = json.loads(raw.splitlines()[0])
        assert first["event"] == "run-started" and first["seq"] == 0

    def test_run_refuses_existing_directory(self, capsys, tmp_path):
        directory = tmp_path / "r"
        self.run_cli(capsys, *self.simulate_args(directory, "--max-legs", "1"))
        with pytest.raises(SystemExit, match="repro resume"):
            main(list(self.simulate_args(directory)))

    def test_resume_without_manifest_fails_cleanly(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="no run manifest"):
            main(["resume", str(tmp_path / "missing")])

    def test_cli_result_matches_api_run(self, capsys, tmp_path):
        code, _ = self.run_cli(capsys, *self.simulate_args(tmp_path / "r"))
        assert code == 0
        run = Run.open(tmp_path / "r")
        assert fingerprint(run.result()) == baseline("fast", False)

    def test_tail_follow_ends_once_run_finished(self, capsys, tmp_path):
        # against a finished run the stop predicate (result.json exists)
        # is already true: follow drains everything and terminates
        self.run_cli(capsys, *self.simulate_args(tmp_path / "r"))
        code, out = self.run_cli(
            capsys, "tail", str(tmp_path / "r"), "--follow"
        )
        assert code == 0 and "run-finished" in out

    def test_run_keep_flag_applies_retention(self, capsys, tmp_path):
        directory = tmp_path / "r"
        code, _ = self.run_cli(
            capsys,
            "run", "--policy", "scd", "--rho", "0.85", "--backend", "fast",
            "--servers", "6", "--dispatchers", "2", "--rounds", "2560",
            "--warmup", "256", "--seed", "7", "--keep", "2",
            "--checkpoint-dir", str(directory),
        )
        assert code == 0
        rounds = Run.open(directory).store.rounds()
        assert rounds == retained_rounds([256 * i for i in range(1, 10)], 2)

    def test_runs_list_inventories_directory(self, capsys, tmp_path):
        root = tmp_path / "runs"
        self.run_cli(
            capsys, *self.simulate_args(root / "a", "--max-legs", "1")
        )
        self.run_cli(capsys, *self.simulate_args(root / "b"))
        code, out = self.run_cli(capsys, "runs", "list", str(root))
        assert code == 0
        assert "in-flight" in out and "finished" in out
        code, raw = self.run_cli(capsys, "runs", "list", str(root), "--json")
        rows = json.loads(raw)
        assert [r["status"] for r in rows] == ["in-flight", "finished"]
        with pytest.raises(SystemExit, match="no run directories"):
            main(["runs", "list", str(tmp_path / "empty")])
