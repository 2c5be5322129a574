"""Checkpointed experiment execution: one resumable run per grid cell.

An :class:`ExperimentRun` materializes a declarative
:class:`~repro.experiments.grid.Experiment` as a directory of per-cell
:class:`~repro.runs.orchestrator.Run` directories::

    <dir>/run.json            manifest ({"kind": "experiment_run", ...})
    <dir>/experiment.pkl      the pickled grid (cells are rebuilt from it)
    <dir>/experiment.json     human-readable grid descriptor
    <dir>/telemetry.jsonl     cell-level event stream
    <dir>/cells/cell-0000/    one Run directory per grid cell
    <dir>/result.json         the assembled ExperimentResult, on completion

``execute()`` walks the grid in order; cells whose run already finished
are skipped (their records are reconstructed from disk), the in-flight
cell resumes from its newest checkpoint, and untouched cells start
fresh.  Kill the process anywhere and ``execute()`` again: completed
work is never redone and every record is bit-identical to an
uninterrupted serial execution.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

from repro.experiments.executor import build_cell_simulation
from repro.experiments.grid import Experiment
from repro.experiments.persistence import save_experiment
from repro.experiments.results import CellRecord, ExperimentResult

from .orchestrator import _RUN_FORMAT_VERSION, Run, _check_run_format
from .telemetry import TelemetryWriter

__all__ = ["ExperimentRun"]


class ExperimentRun:
    """A declarative experiment bound to a resumable run directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / "run.json"
        self.experiment_path = self.directory / "experiment.pkl"
        self.telemetry_path = self.directory / "telemetry.jsonl"
        self.result_path = self.directory / "result.json"
        self.cells_dir = self.directory / "cells"

    @classmethod
    def create(
        cls,
        experiment: Experiment,
        directory: str | Path,
        checkpoint_every: int = 1,
    ) -> "ExperimentRun":
        """Initialize an experiment run directory; refuses an existing one."""
        run = cls(directory)
        if run.manifest_path.exists():
            raise FileExistsError(
                f"{run.manifest_path} already exists; "
                f"resume it instead of creating over it"
            )
        run.directory.mkdir(parents=True, exist_ok=True)
        run.experiment_path.write_bytes(
            pickle.dumps(experiment, protocol=pickle.HIGHEST_PROTOCOL)
        )
        (run.directory / "experiment.json").write_text(
            json.dumps(experiment.describe(), indent=2) + "\n"
        )
        manifest = {
            "format_version": _RUN_FORMAT_VERSION,
            "kind": "experiment_run",
            "cells": experiment.size,
            "checkpoint_every": int(checkpoint_every),
            "telemetry": run.telemetry_path.name,
        }
        run.manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        return run

    @classmethod
    def open(cls, directory: str | Path) -> "ExperimentRun":
        run = cls(directory)
        if run.manifest().get("kind") != "experiment_run":
            raise ValueError(
                f"{run.manifest_path} is not an experiment run manifest"
            )
        return run

    def manifest(self) -> dict:
        if not self.manifest_path.exists():
            raise FileNotFoundError(
                f"no run manifest at {self.manifest_path}; "
                f"create the run first"
            )
        return json.loads(self.manifest_path.read_text())

    def experiment(self) -> Experiment:
        _check_run_format(self.manifest(), self.manifest_path)
        return pickle.loads(self.experiment_path.read_bytes())

    def cell_directory(self, index: int) -> Path:
        return self.cells_dir / f"cell-{index:04d}"

    def execute(self, max_legs: int | None = None) -> ExperimentResult | None:
        """Run (or resume) every cell serially, in grid order.

        ``max_legs`` is forwarded to each cell's ``Run.execute``: a
        cell that hits the budget pauses at its freshest checkpoint and
        the whole experiment returns ``None`` (call again to continue).
        On completion the assembled result is saved to ``result.json``
        and returned.
        """
        manifest = self.manifest()
        experiment = self.experiment()
        checkpoint_every = int(manifest.get("checkpoint_every", 1))
        records: list[CellRecord] = []
        with TelemetryWriter(self.telemetry_path) as telemetry:
            for cell in experiment.cells():
                cell_dir = self.cell_directory(cell.index)
                if (cell_dir / "run.json").exists():
                    cell_run = Run.open(cell_dir)
                else:
                    sim = build_cell_simulation(
                        cell.policy,
                        cell.system,
                        cell.rho,
                        cell.workload,
                        cell.seed,
                        cell.rounds,
                        cell.warmup,
                        cell.backend,
                        cell.metrics,
                    )
                    cell_run = Run.create(
                        sim, cell_dir, checkpoint_every=checkpoint_every
                    )
                already_done = cell_run.result_path.exists()
                if already_done:
                    result = cell_run.result()
                    telemetry.emit(
                        "cell-skipped", cell=cell.index, policy=cell.policy.label
                    )
                else:
                    telemetry.emit(
                        "cell-started", cell=cell.index, policy=cell.policy.label
                    )
                    result = cell_run.execute(max_legs=max_legs)
                    if result is None:
                        telemetry.emit("experiment-paused", cell=cell.index)
                        return None
                    telemetry.emit(
                        "cell-finished",
                        cell=cell.index,
                        policy=cell.policy.label,
                        mean=result.histogram.mean(),
                    )
                records.append(CellRecord.of(cell, result))
            final = ExperimentResult(experiment=experiment, records=tuple(records))
            save_experiment(final, self.result_path)
            telemetry.emit("experiment-finished", cells=len(records))
        return final
