"""Smoke tests: every example script runs cleanly in a quick configuration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_example(script: str, *args: str) -> str:
    # The subprocess needs src/ on its path even when the parent test run
    # got it from pytest's pythonpath setting rather than the environment.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py", "--rounds", "300")
    assert "1.375" in out  # Figure 1's IWL
    assert "0.875" in out  # Figure 2's IWL
    assert "Best mean response time" in out


def test_heterogeneous_datacenter():
    out = run_example(
        "heterogeneous_datacenter.py", "--rounds", "400", "--loads", "0.8", "0.95"
    )
    assert "accelerators" in out
    assert "best at rho=0.95" in out


def test_herding_demo():
    out = run_example("herding_demo.py", "--rounds", "400")
    assert "worst pile-up" in out
    assert "scd" in out and "jsq" in out


def test_custom_policy():
    out = run_example("custom_policy.py", "--rounds", "400")
    assert "memsed(3)" in out


@pytest.mark.parametrize("figure", ["3a", "3b", "5"])
def test_paper_figures(figure):
    out = run_example(
        "paper_figures.py",
        "--figure", figure,
        "--rounds", "200",
        "--loads", "0.7", "0.9",
        "--servers", "50",
        "--snapshots", "20",
        "--runtime-rounds", "20",
    )
    assert f"Figure {figure}" in out
    if figure == "3b":
        assert out.count("SCD 1e-4 tail improvement over runner-up") == 3


def test_bursty_arrivals():
    out = run_example("bursty_arrivals.py", "--rounds", "300")
    assert "bursty" in out
    assert "scd" in out


def test_experiment_grid():
    out = run_example("experiment_grid.py", "--rounds", "150", "--workers", "2")
    assert "records identical: True" in out
    assert "round-trip identical: True" in out


def test_sized_jobs():
    out = run_example("sized_jobs.py", "--rounds", "500")
    assert "size-aware" in out
    assert "worth" in out


def test_probes_tour():
    out = run_example("probes_tour.py", "--rounds", "400")
    assert "utilization / herding" in out
    assert "scd" in out and "jsq" in out
    assert "worst spike" in out


def test_nonmonotone_stability():
    out = run_example(
        "nonmonotone_stability.py",
        "--choices", "1", "2", "--iters", "4", "--horizon", "250",
    )
    assert "closed-form d=1 anchor" in out
    assert "anchor checks passed" in out
    assert "rho*(d)" in out
    assert "verdict:" in out


def test_flash_crowd():
    out = run_example("flash_crowd.py", "--rounds", "1024")
    assert "scenario flash:spike=" in out
    assert "Queue backlog through the spike" in out
    assert "peak queue" in out and "growth" in out
