#!/usr/bin/env python
"""A datacenter with accelerators: the paper's motivating scenario.

Models a fleet of commodity CPU servers plus a 10% slice of much faster
accelerator nodes (GPU/FPGA-class, 40x the CPU rate) -- the "higher
heterogeneity" regime the paper attributes to accelerator deployments.
Declares the whole comparison as ONE :class:`repro.Experiment` grid
(policies x loads), runs it -- optionally on a process pool -- and
reports both the mean-response sweep and the tail quantiles that
dominate user experience.

Run:
    python examples/heterogeneous_datacenter.py [--rounds N] [--loads 0.8 0.95] [--workers W]
"""

import argparse

import numpy as np

import repro


def build_system() -> tuple[repro.SystemSpec, np.ndarray]:
    system = repro.SystemSpec(num_servers=80, num_dispatchers=8, profile="bimodal")
    rates = system.rates()
    fast = rates > rates.min()
    print(
        f"Fleet: {int((~fast).sum())} CPU servers (mu={rates.min():g}) + "
        f"{int(fast.sum())} accelerators (mu={rates.max():g}); "
        f"accelerators hold {rates[fast].sum() / rates.sum():.0%} of capacity"
    )
    return system, rates


POLICIES = ["scd", "twf", "sed", "hjsq(2)", "hlsq", "wr"]


def run_grid(
    system: repro.SystemSpec, loads: list[float], rounds: int, workers: int
) -> repro.ExperimentResult:
    experiment = repro.Experiment(
        policies=POLICIES,
        systems=system,
        loads=loads,
        rounds=rounds,
        base_seed=3,
    )
    print(
        f"\nRunning {experiment.size} (policy, load) cells on "
        f"{workers} worker(s)..."
    )
    return experiment.run(workers=workers)


def report_sweep(result: repro.ExperimentResult, loads: list[float]) -> None:
    print("\nMean response time by offered load")
    print(
        repro.format_series_table(
            "rho",
            list(loads),
            {p: [result.metric(policy=p, rho=rho) for rho in loads] for p in POLICIES},
        )
    )
    for rho in loads:
        print(f"  best at rho={rho}: {result.best_policy_at(rho)}")


def report_tails(result: repro.ExperimentResult, rho: float) -> None:
    tail_policies = ("scd", "twf", "sed", "hlsq")
    at_load = result.filter(rho=rho, policy=tail_policies)
    print(f"\nTail quantiles at rho = {rho} (response time in rounds)")
    histograms = {
        record.policy: record.result.histogram for record in at_load.records
    }
    rows = []
    for policy in tail_policies:
        q = repro.tail_quantiles(histograms[policy], (1e-1, 1e-2, 1e-3))
        rows.append([policy, q[1e-1], q[1e-2], q[1e-3]])
    print(
        repro.format_table(
            ["policy", "p90", "p99", "p99.9"], rows, float_format="{:.0f}"
        )
    )
    factor, runner_up = repro.tail_improvement_factor(
        histograms["scd"],
        {p: h for p, h in histograms.items() if p != "scd"},
        level=1e-3,
    )
    print(f"\nSCD's p99.9 is {factor:.2f}x shorter than the runner-up ({runner_up})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=4000)
    parser.add_argument(
        "--loads", type=float, nargs="+", default=[0.7, 0.9, 0.99]
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool workers (results are identical to serial)",
    )
    args = parser.parse_args()
    system, _ = build_system()
    result = run_grid(system, args.loads, args.rounds, args.workers)
    report_sweep(result, args.loads)
    report_tails(result, max(args.loads))


if __name__ == "__main__":
    main()
