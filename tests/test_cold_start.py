"""Cold start: importing the package and running a cell load numpy only.

``import repro`` loads no submodule: the top level resolves its public
names on first access.  Building and running a ``fast`` cell through
:mod:`repro.experiments` loads only the layers a cell uses, none of
``analysis``, ``meanfield``, ``runs``, ``service`` or ``cli``, and not
the figure declarations of :mod:`repro.experiments.figures`.  scipy is
imported inside the two statistics helpers that use it
(:meth:`ReplicatedResult.confidence_interval` and
:func:`paired_comparison`); ``scipy.stats`` alone costs about a second of
interpreter start-up.  The checks run in a fresh interpreter, since the
test process itself has long since imported all of these.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import json, sys

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

import repro

assert loaded("repro") == ["repro"], loaded("repro")

from repro.experiments import Experiment
from repro.workloads.scenarios import SystemSpec

system = SystemSpec(num_servers=12, num_dispatchers=3)
result = Experiment(
    policies="scd", systems=system, loads=0.9, rounds=300, backend="fast"
).run()
assert result.records[0].metrics["mean"] > 0
for layer in ("analysis", "meanfield", "runs", "service", "cli", "experiments.figures"):
    assert not loaded(f"repro.{layer}"), loaded(f"repro.{layer}")

import repro.cli
import repro.service

assert "scipy" not in sys.modules, "scipy was imported before any statistics helper ran"

from repro.analysis.replication import ReplicatedResult, paired_comparison

a = ReplicatedResult("scd", system, 0.9, (2.0, 3.5, 4.25, 3.0))
b = ReplicatedResult("random", system, 0.9, (3.0, 4.0, 6.5, 3.75))
print(json.dumps({
    "ci95": [float(x) for x in a.confidence_interval()],
    "ci99": [float(x) for x in a.confidence_interval(0.99)],
    "paired": paired_comparison(a, b),
    "reversed": paired_comparison(b, a),
    "paired99": paired_comparison(a, b, 0.99),
}))
"""


def test_import_and_simulation_load_numpy_only():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # The statistics helpers still import scipy when called, and give the
    # same values as with a module-level import.
    assert out["ci95"] == [1.6858160809980558, 4.689183919001945]
    assert out["ci99"] == [0.4313813600051004, 5.9436186399949]
    assert out["paired"] == {
        "mean_improvement": 1.125,
        "p_value": 0.031386055043061495,
        "significant": True,
    }
    assert out["reversed"] == {
        "mean_improvement": -1.125,
        "p_value": 0.9686139449569385,
        "significant": False,
    }
    assert out["paired99"] == {
        "mean_improvement": 1.125,
        "p_value": 0.031386055043061495,
        "significant": False,
    }
