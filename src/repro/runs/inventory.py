"""Run-directory inventory: what is on disk, how far did it get.

``repro runs list <dir>`` (and the service's job listing) need a cheap,
read-only answer to "what runs live here and in what state?" without
unpickling a single checkpoint.  :func:`inspect_run` reads only the
JSON surfaces of one run directory -- ``run.json``, checkpoint
manifests, ``result.json`` presence, the telemetry log -- and
:func:`scan_runs` applies it across a directory of run directories
(the target itself when it is a run, otherwise its immediate
children, sorted by name).

Works on both run kinds: ``simulation_run`` directories report rounds
completed against the total, ``experiment_run`` directories report
cells completed against the grid size (their per-cell ``Run``
directories can be listed separately by pointing at ``<dir>/cells``).
"""

from __future__ import annotations

import json
from pathlib import Path

from .telemetry import iter_events

__all__ = ["inspect_run", "read_manifest", "scan_runs"]


def read_manifest(directory: Path) -> dict | None:
    """``DIR/run.json`` as a dict; ``None`` when absent.

    A manifest that is unreadable, not JSON or not a JSON object comes
    back as ``{"kind": "damaged"}`` instead of raising.
    """
    path = directory / "run.json"
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError):
        return {"kind": "damaged"}
    return manifest if isinstance(manifest, dict) else {"kind": "damaged"}


def _checkpoint_rounds(directory: Path) -> list[int]:
    """Committed checkpoint rounds, ascending, from manifests alone."""
    rounds = []
    for path in sorted((directory / "checkpoints").glob("ckpt-*.json")):
        try:
            rounds.append(int(json.loads(path.read_text())["round"]))
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return sorted(rounds)


def _telemetry_stats(directory: Path, manifest: dict) -> tuple[int, int | None]:
    """``(event_count, last_seq)`` of the run's telemetry file."""
    name = manifest.get("telemetry", "telemetry.jsonl")
    path = Path(name)
    if not path.is_absolute():
        path = directory / path
    count = 0
    last_seq = None
    for record in iter_events(path):
        count += 1
        if isinstance(record.get("seq"), int):
            last_seq = record["seq"]
    return count, last_seq


def inspect_run(directory: str | Path) -> dict | None:
    """One inventory row for a run directory, or ``None`` if it is not one.

    Keys: ``directory``, ``kind``, ``status`` (``finished`` when
    ``result.json`` exists, ``in-flight`` once any checkpoint or
    telemetry event landed, else ``fresh``), ``engine``/``backend``/
    ``policy`` (simulation runs), ``rounds_done``/``rounds`` (total
    rounds for finished runs, the newest checkpoint round otherwise),
    ``cells``/``cells_done`` (experiment runs), ``checkpoints``,
    ``last_checkpoint`` and ``telemetry_seq`` (highest event sequence
    number, ``None`` when the log is empty or absent).
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest is None:
        return None
    kind = manifest.get("kind", "damaged")
    row: dict = {"directory": str(directory), "kind": kind}
    if kind == "damaged":
        row["status"] = "damaged"
        return row
    finished = (directory / "result.json").exists()
    events, last_seq = _telemetry_stats(directory, manifest)
    row["telemetry_seq"] = last_seq

    if kind == "experiment_run":
        cells_dir = directory / "cells"
        done = 0
        total_cells = manifest.get("cells")
        if cells_dir.is_dir():
            done = sum(
                1 for cell in cells_dir.iterdir() if (cell / "result.json").exists()
            )
        row.update(
            cells=total_cells,
            cells_done=total_cells if finished else done,
            status="finished"
            if finished
            else ("in-flight" if done or events else "fresh"),
        )
        return row

    rounds = _checkpoint_rounds(directory)
    total = manifest.get("rounds")
    row.update(
        engine=manifest.get("engine"),
        backend=manifest.get("backend"),
        policy=manifest.get("policy"),
        rounds=total,
        rounds_done=total if finished else (rounds[-1] if rounds else 0),
        checkpoints=len(rounds),
        last_checkpoint=rounds[-1] if rounds else None,
        status="finished"
        if finished
        else ("in-flight" if rounds or events else "fresh"),
    )
    return row


def scan_runs(root: str | Path) -> list[dict]:
    """Inventory rows for ``root`` (itself a run) or its child run dirs."""
    root = Path(root)
    own = inspect_run(root)
    if own is not None:
        return [own]
    rows = []
    if root.is_dir():
        for child in sorted(root.iterdir()):
            if not child.is_dir():
                continue
            row = inspect_run(child)
            if row is not None:
                rows.append(row)
    return rows
