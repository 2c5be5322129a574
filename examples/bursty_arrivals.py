#!/usr/bin/env python
"""Correlated traffic surges: stochastic coordination under bursty load.

The paper's model only assumes arrivals are stochastic and unknown; its
evaluation uses steady Poisson traffic.  Real entry points see correlated
surges -- a marketing event or a retry storm hits *all* dispatchers at
once.  This example declares ONE experiment grid with TWO workloads --
the paper's steady Poisson workload and ``WorkloadSpec.bursty`` (a
``regime`` scenario: the Poisson rates switch between a calm and a surge
level, with the phase shared by all dispatchers) at equal *average*
load -- and compares policies across both.

Surges are where herding bites hardest: a burst arrives exactly when
every dispatcher is staring at the same few short queues.  SCD's
per-round optimization re-plans with the estimated burst size (Eq. 18
scales with the dispatcher's own observed batch), so its advantage
should widen here.

Run:
    python examples/bursty_arrivals.py [--rounds N] [--surge-factor F] [--workers W]
"""

import argparse

import repro

RHO = 0.85


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=4000)
    parser.add_argument(
        "--surge-factor", type=float, default=3.0,
        help="surge-phase arrival rate relative to the calm phase",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool workers (results are identical to serial)",
    )
    args = parser.parse_args()

    system = repro.SystemSpec(num_servers=80, num_dispatchers=10, profile="u1_10")
    policies = ["scd", "sed", "hjsq(2)", "hlsq"]

    experiment = repro.Experiment(
        policies=policies,
        systems=system,
        loads=RHO,
        workloads=[
            repro.WorkloadSpec.paper(),
            repro.WorkloadSpec.bursty(args.surge_factor, name="bursty"),
        ],
        rounds=args.rounds,
        base_seed=31,
    )

    print(
        f"80 servers, 10 dispatchers, mean load {RHO}; surge phase is "
        f"{args.surge_factor}x the calm phase,\nphase shared by all "
        f"dispatchers (correlated bursts).  {experiment.size} cells.\n"
    )
    result = experiment.run(workers=args.workers)

    rows = []
    for policy in policies:
        steady = result.only(policy=policy, workload="paper")
        burst = result.only(policy=policy, workload="bursty")
        rows.append(
            [
                policy,
                steady.metrics["mean"],
                burst.metrics["mean"],
                steady.metrics["p999"],
                burst.metrics["p999"],
            ]
        )
    print(
        repro.format_table(
            ["policy", "mean (steady)", "mean (bursty)", "p99.9 (steady)", "p99.9 (bursty)"],
            rows,
        )
    )
    scd_bursty = result.metric("mean", policy="scd", workload="bursty")
    rest_bursty_mean = min(
        result.metric("mean", policy=p, workload="bursty")
        for p in policies
        if p != "scd"
    )
    print(
        f"\nUnder bursts SCD's mean is {rest_bursty_mean / scd_bursty:.2f}x "
        f"better than the best alternative."
    )


if __name__ == "__main__":
    main()
