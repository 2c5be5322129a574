#!/usr/bin/env python
"""Policies under a flash crowd: who absorbs the spike, who drowns.

One grid, one nonstationary scenario: a quiet system whose arrival rate
jumps to ``spike`` times the baseline a quarter of the way into the run
and decays back exponentially (``--scenario flash:...`` on the CLI, a
``WorkloadSpec(scenario=...)`` here).  The whole-run mean response time
hides what matters -- whether a policy's queues *recover* after the
surge -- so the ``windowed_stability`` probe tracks the mean total
queue length per window of rounds:

* ``peak_mean``   -- how high the backlog piled during the surge;
* ``last_mean``   -- where it settled by the end of the run;
* ``growth``      -- last window over first: ~1 means fully drained,
  large means the spike pushed the policy past its stable point.

Every scenario runs bit-identically on the reference, fast and
compiled kernels; this script uses the fast kernel.

Run:
    python examples/flash_crowd.py [--rounds N] [--spike X] [--rho R]
"""

import argparse

import repro


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--rounds", type=int, default=4096)
    parser.add_argument("--rho", type=float, default=0.7)
    parser.add_argument("--spike", type=float, default=2.0)
    parser.add_argument("--backend", default="fast")
    args = parser.parse_args()

    system = repro.SystemSpec(num_servers=20, num_dispatchers=5)
    window = max(1, args.rounds // 8)
    scenario = (
        f"flash:spike={args.spike},at={args.rounds // 4},"
        f"decay={args.rounds // 8}"
    )
    probe = repro.ProbeSpec.of("windowed_stability", window=window)
    experiment = repro.Experiment(
        policies=["scd", "jsq", "sed", "wr", "rr"],
        systems=system,
        loads=args.rho,
        rounds=args.rounds,
        backend=args.backend,
        workloads=(repro.WorkloadSpec(name="paper", scenario=scenario),),
        metrics=[probe],
    )
    print(
        f"{experiment.size} cells on {system.name} at rho={args.rho}, "
        f"scenario {scenario} ({args.rounds} rounds, "
        f"backend={args.backend}, window={window})"
    )
    result = experiment.run(keep_results=False)

    label = probe.label
    rows = []
    for record in sorted(result, key=lambda r: r.metrics[f"{label}.growth"]):
        metrics = record.metrics
        rows.append(
            [
                record.policy,
                metrics["mean"],
                metrics[f"{label}.first_mean"],
                metrics[f"{label}.peak_mean"],
                int(metrics[f"{label}.peak_window"]),
                metrics[f"{label}.last_mean"],
                metrics[f"{label}.growth"],
            ]
        )
    print(
        repro.format_table(
            [
                "policy",
                "mean resp",
                "quiet queue",
                "peak queue",
                "peak win",
                "final queue",
                "growth",
            ],
            rows,
            title="Queue backlog through the spike (best recovery first)",
        )
    )
    print(
        "\nReading: the spike lands in the same window for everyone (the "
        "workload realization is shared), so 'peak queue' measures how "
        "hard each policy is hit and 'growth' whether it drains back to "
        "the quiet baseline.  Full-information policies (jsq, sed) absorb "
        "the surge fastest; coordination-light policies pay with a higher "
        "peak and a slower recovery; rate-oblivious rr is unstable on "
        "this heterogeneous fleet even before the spike (the paper's "
        "Section 3 failure mode), so its backlog just keeps growing.  "
        "Raise --spike past the slack capacity and nobody returns to "
        "the quiet baseline."
    )


if __name__ == "__main__":
    main()
