"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

For every workload it checks the result line against ``BENCHMARK.json``
(every metric present with its unit, outputs correct), that two traced
runs with the same seed repeat the exact span counts, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Span counts that depend only on the seed and the workload size.
EXACT_COUNTS = (
    "dispatch.calls",
    "core.iwl.calls",
    "greedy.solves",
    "store.calls",
    "store.jobs",
    "ckpt.count",
    "wire.frames",
)


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace),
    ]
    if cwd == ROOT:
        command += ["--size", "tiny"]
    return subprocess.run(
        [sys.executable if part == "python3" else part for part in command],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    return result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, trace=0))
    assert_metrics(result, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(run_bench(workload, trace=1))
    second = result_of(run_bench(workload, trace=1))
    assert_metrics(first, SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["dispatch.calls"]["value"] > 0
    assert first["metrics"]["store.jobs"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
