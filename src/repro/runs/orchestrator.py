"""The run orchestrator: checkpointed, telemetered simulation legs.

A :class:`Run` wraps one simulation (unit or sized jobs, any
checkpointing backend) in an on-disk run directory::

    <dir>/run.json            run manifest (engine, policy, geometry)
    <dir>/spec.pkl            the pristine simulation, streams at round 0
    <dir>/telemetry.jsonl     streaming event log (repro tail / tail -f)
    <dir>/checkpoints/        block-aligned snapshots (CheckpointStore)
    <dir>/result.json         final result, written once on completion

``execute()`` drives the simulation under a :class:`CheckpointController`
riding the kernel lifecycle seam (:mod:`repro.sim.lifecycle`): every
``checkpoint_every`` 256-round blocks the *whole* simulation object and
the kernel's exported state are pickled together into one blob --
pickling them as a unit preserves every internal alias, most importantly
that the policy's RNG *is* the simulation's policy stream -- and
committed atomically.  Killing the process at any instant and calling
``execute()`` again resumes from the newest valid checkpoint and
produces bit-identical results to an uninterrupted run.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

from repro.analysis.persistence import result_from_dict, result_to_dict
from repro.sim.backends import backend_capabilities
from repro.sim.blockdriver import BLOCK_ROUNDS
from repro.sim.engine import Simulation, SimulationResult
from repro.sim.lifecycle import RunController

from .checkpoint import CheckpointError, CheckpointStore
from .telemetry import TelemetryWriter

__all__ = [
    "BLOCK_ROUNDS",
    "LegLimitReached",
    "Run",
    "CheckpointController",
    "probe_summaries_from_state",
]


#: Version of a run directory's pickled grid/simulation (``spec.pkl``,
#: ``experiment.pkl``), written into ``run.json``.  Bumped whenever the
#: classes those pickles reference change, so an older directory is
#: refused by :func:`_check_run_format` before anything is unpickled.
#: Version 2: bursty workloads are ``regime`` scenarios and the
#: workload-factory classes are gone.
_RUN_FORMAT_VERSION = 2


def _check_run_format(manifest: dict, manifest_path: Path) -> None:
    """Refuse a run directory written under another run format."""
    version = manifest.get("format_version")
    if version != _RUN_FORMAT_VERSION:
        raise CheckpointError(
            f"{manifest_path}: unsupported format version {version!r} "
            f"(this code reads version {_RUN_FORMAT_VERSION})"
        )


class LegLimitReached(Exception):
    """Internal control flow: the controller hit its ``max_legs`` budget.

    Raised out of ``after_block`` right after a checkpoint commits, so
    the kernel unwinds (sharded strategies close their workers via
    ``finally``) and ``Run.execute`` returns ``None`` with the run
    paused on disk.
    """


def _describe_sim(sim: Simulation) -> dict:
    """Manifest-facing description of a simulation.

    ``engine`` names the workload kind (``"sized"`` when jobs carry
    sizes, ``"unsized"`` for unit jobs) for inventories and telemetry.
    """
    config = sim.config
    return {
        "engine": "unsized" if sim.sizes is None else "sized",
        "backend": config.backend,
        "policy": sim.policy.name,
        "rounds": config.rounds,
        "warmup": config.warmup,
        "seed": config.seed,
    }


def probe_summaries_from_state(kernel_state: dict) -> dict[str, dict]:
    """Live probe summaries from an exported kernel state dict.

    Works on *throwaway* copies only (unpickle the checkpoint blob
    first): folding sharded probe maps mutates the shard-0 probes in
    place.  Single-kernel states carry a ``probes`` ProbeSet directly;
    sharded states are folded across their shard snapshots exactly as
    the kernel does at end of run, then overlaid with the
    coordinator-side probes.
    """
    if "probes" in kernel_state:
        probe_map = kernel_state["probes"].as_dict()
    else:
        from repro.sim.sharding import _fold_shards

        probe_map = _fold_shards(
            [shard["probes"].as_dict() for shard in kernel_state["shards"]]
        )
        probe_map = {**probe_map, **kernel_state["coordinator_probes"].as_dict()}
    return {label: probe.summary() for label, probe in probe_map.items()}


class CheckpointController(RunController):
    """Lifecycle controller that checkpoints every N blocks and narrates.

    Emits ``leg-completed`` at each checkpoint boundary, then
    ``probe-snapshot`` (summaries computed from a throwaway unpickled
    copy of the blob, never the live kernel state) and
    ``checkpoint-written`` once the snapshot is committed.  With
    ``max_legs`` set, raises :class:`LegLimitReached` after that many
    checkpoints.  ``keep`` applies the retention policy of
    :func:`repro.runs.checkpoint.retained_rounds` after every commit
    (newest ``keep`` plus power-of-two anchors; emits
    ``checkpoints-pruned`` when snapshots are collected), and
    ``on_checkpoint(manifest, blob)`` is called after each commit --
    the federation worker's seam for shipping snapshots to its
    coordinator.
    """

    def __init__(
        self,
        sim,
        store: CheckpointStore,
        telemetry: TelemetryWriter,
        checkpoint_every: int = 1,
        start_round: int = 0,
        state: dict | None = None,
        max_legs: int | None = None,
        keep: int | None = None,
        on_checkpoint: "callable | None" = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if keep is not None and keep < 1:
            raise ValueError("keep must be >= 1")
        self._sim = sim
        self._store = store
        self._telemetry = telemetry
        self._engine = _describe_sim(sim)["engine"]
        self._rounds = _describe_sim(sim)["rounds"]
        self._stride = int(checkpoint_every) * BLOCK_ROUNDS
        self.start_round = int(start_round)
        self._state = state
        self._max_legs = max_legs
        self._keep = keep
        self._on_checkpoint = on_checkpoint
        self._legs = 0

    def initial_state(self) -> dict | None:
        return self._state

    def after_block(self, next_round: int, export) -> None:
        if next_round >= self._rounds:
            return  # final block: the kernel's own result is the artifact
        if next_round % self._stride:
            return
        blob = pickle.dumps(
            {
                "round": next_round,
                "engine": self._engine,
                "sim": self._sim,
                "kernel": export(),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._telemetry.emit(
            "leg-completed", round=next_round, rounds=self._rounds
        )
        self._telemetry.emit(
            "probe-snapshot",
            round=next_round,
            summaries=probe_summaries_from_state(pickle.loads(blob)["kernel"]),
        )
        manifest = self._store.write(
            next_round, blob, meta={"engine": self._engine}
        )
        self._telemetry.emit(
            "checkpoint-written",
            round=next_round,
            payload=manifest["payload"],
            bytes=manifest["bytes"],
            sha256=manifest["sha256"],
        )
        if self._keep is not None:
            removed = self._store.prune(self._keep, stride=self._stride)
            if removed:
                self._telemetry.emit(
                    "checkpoints-pruned", round=next_round, removed=removed
                )
        if self._on_checkpoint is not None:
            self._on_checkpoint(manifest, blob)
        self._legs += 1
        if self._max_legs is not None and self._legs >= self._max_legs:
            raise LegLimitReached


class Run:
    """One checkpointed simulation bound to a run directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / "run.json"
        self.spec_path = self.directory / "spec.pkl"
        self.result_path = self.directory / "result.json"
        self.store = CheckpointStore(self.directory / "checkpoints")

    @property
    def telemetry_path(self) -> Path:
        """The event log file (manifest override, relative to the dir)."""
        name = "telemetry.jsonl"
        if self.manifest_path.exists():
            name = self.manifest().get("telemetry", name)
        path = Path(name)
        return path if path.is_absolute() else self.directory / path

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        sim: Simulation,
        directory: str | Path,
        checkpoint_every: int = 1,
        telemetry: str | Path | None = None,
        keep: int | None = None,
    ) -> "Run":
        """Initialize a run directory around a freshly built simulation.

        ``sim`` must not have been run: its pickled copy (``spec.pkl``)
        is the round-0 starting point every fresh ``execute()`` uses.
        ``telemetry`` overrides the event-log location (relative paths
        resolve against the run directory).  ``keep`` enables checkpoint
        garbage collection: after every snapshot commit the store
        retains only the newest ``keep`` checkpoints plus the
        power-of-two ordinal anchors (``None`` keeps everything).
        Refuses a directory that already holds a run.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if keep is not None and int(keep) < 1:
            raise ValueError("keep must be >= 1")
        described = _describe_sim(sim)
        caps = backend_capabilities(described["backend"])
        if not caps.supports_checkpoint:
            raise ValueError(
                f"backend {described['backend']!r} does not support "
                f"checkpoint/resume (capabilities: {caps.describe()}); "
                f"run it directly instead of through a run directory"
            )
        run = cls(directory)
        if run.manifest_path.exists():
            raise FileExistsError(
                f"{run.manifest_path} already exists; "
                f"resume it instead of creating over it"
            )
        run.directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": _RUN_FORMAT_VERSION,
            "kind": "simulation_run",
            **_describe_sim(sim),
            "checkpoint_every": int(checkpoint_every),
            "block_rounds": BLOCK_ROUNDS,
            "telemetry": str(telemetry) if telemetry else "telemetry.jsonl",
        }
        if keep is not None:
            manifest["keep"] = int(keep)
        run.spec_path.write_bytes(
            pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
        )
        run.manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        return run

    @classmethod
    def open(cls, directory: str | Path) -> "Run":
        """Bind to an existing run directory (validates the manifest)."""
        run = cls(directory)
        manifest = run.manifest()
        if manifest.get("kind") != "simulation_run":
            raise ValueError(
                f"{run.manifest_path} is not a simulation run manifest"
            )
        return run

    def manifest(self) -> dict:
        if not self.manifest_path.exists():
            raise FileNotFoundError(
                f"no run manifest at {self.manifest_path}; "
                f"create the run first"
            )
        return json.loads(self.manifest_path.read_text())

    # -- results ----------------------------------------------------------

    def result(self) -> SimulationResult | None:
        """The finished result, or ``None`` while the run is in flight."""
        if not self.result_path.exists():
            return None
        return result_from_dict(json.loads(self.result_path.read_text()))

    # -- execution --------------------------------------------------------

    def execute(
        self,
        max_legs: int | None = None,
        on_checkpoint: "callable | None" = None,
    ) -> SimulationResult | None:
        """Run to completion (or ``max_legs`` checkpoints), resumably.

        Picks up from the newest valid checkpoint when one exists,
        otherwise starts fresh from ``spec.pkl``.  Returns the final
        result -- loaded from ``result.json`` if the run already
        finished (idempotent) -- or ``None`` when paused by
        ``max_legs``.  ``on_checkpoint(manifest, blob)`` fires after
        every committed snapshot (the federation worker ships each blob
        to its coordinator through this hook).
        """
        finished = self.result()
        if finished is not None:
            return finished
        manifest = self.manifest()
        _check_run_format(manifest, self.manifest_path)

        latest = self.store.load_latest()
        if latest is not None:
            ckpt_manifest, payload = latest
            sim = payload["sim"]
            start_round = int(payload["round"])
            state = payload["kernel"]
            resumed = True
        else:
            sim = pickle.loads(self.spec_path.read_bytes())
            start_round = 0
            state = None
            resumed = False

        with TelemetryWriter(self.telemetry_path) as telemetry:
            telemetry.emit(
                "run-started",
                round=start_round,
                rounds=manifest["rounds"],
                resumed=resumed,
                engine=manifest["engine"],
                backend=manifest["backend"],
                policy=manifest["policy"],
            )
            keep = manifest.get("keep")
            controller = CheckpointController(
                sim,
                self.store,
                telemetry,
                checkpoint_every=int(manifest.get("checkpoint_every", 1)),
                start_round=start_round,
                state=state,
                max_legs=max_legs,
                keep=int(keep) if keep is not None else None,
                on_checkpoint=on_checkpoint,
            )
            try:
                result = sim.run(controller=controller)
            except LegLimitReached:
                telemetry.emit(
                    "run-paused",
                    legs=max_legs,
                    checkpoints=self.store.rounds(),
                )
                return None
            self.result_path.write_text(json.dumps(result_to_dict(result)) + "\n")
            telemetry.emit(
                "run-finished",
                rounds=manifest["rounds"],
                summaries={
                    label: probe.summary()
                    for label, probe in result.probes.items()
                },
            )
        return result
