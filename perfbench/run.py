"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scd-paper --seed 1 --seconds 10 --trace 0

The workloads, metrics and bounds are declared in ``BENCHMARK.json``.
Every measurement runs in a fresh process (``perfbench/workloads.py``),
so import time, peak RSS and service threads belong to one workload.

``--trace 0`` prints the end-to-end metrics:

``rounds_per_s``  median over repetitions of simulated rounds per second
                  of the timed section (for ``federated-rr``: HTTP
                  submit to fetched result of an 8-cell job).
``setup_s``       process start to ready-to-run (import, build, service
                  start and worker registration), the median of three
                  fresh processes.
``peak_rss_mb``   ``ru_maxrss`` of the measuring process.

``rounds_per_s`` and ``setup_s`` are reported at the reference machine
speed: a fixed calibration kernel (``workloads.calibrate``, no program
code) runs next to every repetition and after every set-up, and each
sample is scaled by its calibration time over ``workloads.CALIB_REF_S``.  On a shared
machine whose speed drifts by tens of percent between minutes this is
what keeps two sets of runs comparable; the unscaled median is kept in
the record as ``raw_rounds_per_s``.

``--trace 1`` repeats the workload untraced and then traced (a fixed
number of repetitions each, so span counts repeat exactly) and prints
the per-layer breakdown of ``perfbench/tracer.py``.

Every run also checks outputs: ``fast`` against ``reference`` on a
prefix cell, job conservation of every timed cell, bounded queue growth
for ``sized-rr`` and serial-equal records for ``federated-rr``.  Each
cell is one attempted operation; a cell that raises or fails its check
is a failed one.

The line before the result is the full record: environment (CPU count,
numba, Python and numpy versions), per-repetition times, set-up samples
and notes.  It is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_UNITS  # noqa: E402
from workloads import CALIB_REF_S, OUT, WORKLOADS  # noqa: E402

#: Fresh processes whose set-up time enters the ``setup_s`` median,
#: counting the measuring process.
SETUP_SAMPLES = 3
#: Every run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"rounds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child(args, mode: str, deadline: float) -> dict:
    """Run one ``workloads.py`` process and return its JSON record."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--size", args.size,
    ]
    t0 = time.monotonic()
    done = subprocess.run(
        command + ["--t0", repr(t0)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {mode} process exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {mode} process printed no record")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one short repetition, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(_child(args, "setup", deadline)["setup"])
    record = _child(args, "measure", deadline)
    setup_samples.append(record["setup"])
    record["setup_samples"] = setup_samples

    if args.trace:
        values = {**record["layers"], **record["setup"]}
        units = LAYER_UNITS
    else:
        values = {
            "rounds_per_s": record["rounds_per_s"],
            "setup_s": statistics.median(
                [s["setup_s"] * CALIB_REF_S / s["calib_s"] for s in setup_samples]
            ),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
