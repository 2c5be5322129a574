"""The run orchestrator: checkpointed, telemetered simulation legs.

A :class:`Run` wraps one simulation (unit or sized jobs, any
checkpointing backend) in an on-disk run directory::

    <dir>/run.json            run manifest (engine, policy, geometry)
    <dir>/spec.pkl            the pristine simulation, streams at round 0
    <dir>/telemetry.jsonl     streaming event log (repro tail / tail -f)
    <dir>/checkpoints/        block-aligned snapshots (CheckpointStore)
    <dir>/result.json         final result, written once on completion

``execute()`` drives the simulation under a :class:`CheckpointController`
riding the kernel lifecycle seam (:mod:`repro.sim.lifecycle`).  The
controller is the one definition of *when* a checkpoint is taken (every
``checkpoint_every`` 256-round blocks) and *what* it is: the whole
simulation object and the kernel's exported state pickled together into
one blob -- pickling them as a unit preserves every internal alias, most
importantly that the policy's RNG *is* the simulation's policy stream.
It hands each blob to an injected *commit* callable: ``Run.execute``
commits atomically to its :class:`CheckpointStore` and narrates, while a
federation worker (:mod:`repro.service.worker`) ships the blob to its
coordinator.  Both resume through :func:`restore_checkpoint`.  Killing
the process at any instant and calling ``execute()`` again resumes from
the newest valid checkpoint and produces bit-identical results to an
uninterrupted run.
"""

from __future__ import annotations

import json
import pickle
from collections.abc import Callable
from pathlib import Path

from repro.experiments.persistence import result_from_dict, result_to_dict
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
    "restore_checkpoint",
]


#: Version of a run directory's pickled grid/simulation (``spec.pkl``,
#: ``experiment.pkl``), written into ``run.json``.  Bumped whenever the
#: classes those pickles reference change, so an older directory is
#: refused by :func:`_check_run_format` before anything is unpickled.
#: Version 2: bursty workloads are ``regime`` scenarios and the
#: workload-factory classes are gone.  Version 3: the SCD-family policies
#: and the scenario classes moved to ``repro.policies`` and
#: ``repro.sim.scenarios``.
_RUN_FORMAT_VERSION = 3


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
    the kernel unwinds and ``Run.execute`` returns ``None`` with the run
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
    """Probe summaries from an exported kernel state dict.

    Safe on the *live* state a kernel exports mid-run: every kernel
    state carries a ``probes`` ProbeSet whose probes are summarized in
    place, and a summary only reads.
    """
    probe_map = kernel_state["probes"].as_dict()
    return {label: probe.summary() for label, probe in probe_map.items()}


def restore_checkpoint(payload: dict) -> tuple[Simulation, int, dict]:
    """Where an unpickled checkpoint blob resumes: ``(sim, round, state)``.

    The one restore step for blobs built by :class:`CheckpointController`,
    shared by ``Run.execute`` resuming from its store and a federation
    worker adopting its coordinator's snapshot.  Pass the three values
    to a new controller (``sim``, ``start_round``, ``state``) and run
    ``sim`` under it.
    """
    return payload["sim"], int(payload["round"]), payload["kernel"]


#: ``commit(manifest, blob, kernel_state)`` -- what a checkpoint is
#: handed to.  ``manifest`` is ``{"round", "engine"}``, ``blob`` the
#: pickled payload and ``kernel_state`` the live exported state it was
#: pickled from (read it, never keep or mutate it).
CommitCheckpoint = Callable[[dict, bytes, dict], None]


class CheckpointController(RunController):
    """Lifecycle controller that checkpoints every N blocks.

    At every ``checkpoint_every``-th block boundary before the last,
    pickles ``{"round", "engine", "sim", "kernel"}`` -- the simulation
    and the kernel's exported state, together -- and hands the blob to
    ``commit`` (see :data:`CommitCheckpoint`), which persists or ships
    it before the kernel moves on.  With ``max_legs`` set, raises
    :class:`LegLimitReached` after that many commits.  ``start_round``
    and ``state`` resume a run (see :func:`restore_checkpoint`).
    """

    def __init__(
        self,
        sim,
        commit: CommitCheckpoint,
        checkpoint_every: int = 1,
        start_round: int = 0,
        state: dict | None = None,
        max_legs: int | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        described = _describe_sim(sim)
        self._sim = sim
        self._commit = commit
        self._engine = described["engine"]
        self._rounds = described["rounds"]
        self._stride = int(checkpoint_every) * BLOCK_ROUNDS
        self.start_round = int(start_round)
        self._state = state
        self._max_legs = max_legs
        self._legs = 0

    def initial_state(self) -> dict | None:
        return self._state

    def after_block(self, next_round: int, export) -> None:
        if next_round >= self._rounds:
            return  # final block: the kernel's own result is the artifact
        if next_round % self._stride:
            return
        kernel = export()
        blob = pickle.dumps(
            {
                "round": next_round,
                "engine": self._engine,
                "sim": self._sim,
                "kernel": kernel,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._commit({"round": next_round, "engine": self._engine}, blob, kernel)
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

    def execute(self, max_legs: int | None = None) -> SimulationResult | None:
        """Run to completion (or ``max_legs`` checkpoints), resumably.

        Picks up from the newest valid checkpoint when one exists,
        otherwise starts fresh from ``spec.pkl``.  Returns the final
        result -- loaded from ``result.json`` if the run already
        finished (idempotent) -- or ``None`` when paused by
        ``max_legs``.
        """
        finished = self.result()
        if finished is not None:
            return finished
        manifest = self.manifest()
        _check_run_format(manifest, self.manifest_path)
        # run.json is outside input: refuse an unknown backend here, not
        # as a missing class halfway through unpickling.
        backend_capabilities(manifest["backend"])

        latest = self.store.load_latest()
        if latest is not None:
            sim, start_round, state = restore_checkpoint(latest[1])
        else:
            sim = pickle.loads(self.spec_path.read_bytes())
            start_round, state = 0, None
        checkpoint_every = int(manifest.get("checkpoint_every", 1))
        keep = manifest.get("keep")

        with TelemetryWriter(self.telemetry_path) as telemetry:

            def commit(header: dict, blob: bytes, kernel: dict) -> None:
                round_index = header["round"]
                telemetry.emit(
                    "leg-completed", round=round_index, rounds=manifest["rounds"]
                )
                telemetry.emit(
                    "probe-snapshot",
                    round=round_index,
                    summaries=probe_summaries_from_state(kernel),
                )
                written = self.store.write(
                    round_index, blob, meta={"engine": header["engine"]}
                )
                telemetry.emit(
                    "checkpoint-written",
                    round=round_index,
                    payload=written["payload"],
                    bytes=written["bytes"],
                    sha256=written["sha256"],
                )
                if keep is not None:
                    removed = self.store.prune(
                        int(keep), stride=checkpoint_every * BLOCK_ROUNDS
                    )
                    if removed:
                        telemetry.emit(
                            "checkpoints-pruned", round=round_index, removed=removed
                        )

            telemetry.emit(
                "run-started",
                round=start_round,
                rounds=manifest["rounds"],
                resumed=latest is not None,
                engine=manifest["engine"],
                backend=manifest["backend"],
                policy=manifest["policy"],
            )
            controller = CheckpointController(
                sim,
                commit,
                checkpoint_every=checkpoint_every,
                start_round=start_round,
                state=state,
                max_legs=max_legs,
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
