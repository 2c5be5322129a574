#!/usr/bin/env python
"""Deep-tail run backing EXPERIMENTS.md's Figure 3b/4b tables.

Not collected by pytest (no bench_/test_ prefix) -- run directly:

    python benchmarks/deep_tails.py [--rounds N]

20,000 rounds at rho = 0.99 on the paper's n=100/m=10 systems gives
~11M jobs per cell, enough to resolve the 1e-4 CCDF level the paper
quotes.  Writes benchmarks/results/deep_tails.txt.
"""

import argparse
from pathlib import Path

import repro


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=20_000)
    parser.add_argument("--rho", type=float, default=0.99)
    args = parser.parse_args()

    lines = []
    for profile in ("u1_10", "u1_100"):
        system = repro.paper_system(100, 10, profile)
        experiment = repro.Experiment(
            ["scd", "twf", "sed", "hjsq(2)", "hlsq"],
            system,
            args.rho,
            rounds=args.rounds,
            base_seed=0,
        )
        results = {r.policy: r.result for r in experiment.run()}
        rows = []
        for policy, result in results.items():
            quantiles = repro.tail_quantiles(result.histogram, (1e-2, 1e-3, 1e-4))
            rows.append(
                [
                    policy,
                    result.mean_response_time,
                    quantiles[1e-2],
                    quantiles[1e-3],
                    quantiles[1e-4],
                    result.histogram.max_response_time,
                ]
            )
        factor, runner_up = repro.tail_improvement_factor(
            results["scd"].histogram,
            {p: r.histogram for p, r in results.items() if p != "scd"},
            level=1e-4,
        )
        lines.append(
            repro.format_table(
                ["policy", "mean", "p99", "p99.9", "p99.99", "max"],
                rows,
                title=(
                    f"rho={args.rho}, n=100, m=10, {profile}, "
                    f"{args.rounds} rounds"
                ),
            )
        )
        lines.append(
            f"SCD 1e-4 tail improvement over runner-up ({runner_up}): "
            f"{factor:.2f}x\n"
        )
    out = Path(__file__).resolve().parent / "results" / "deep_tails.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"[written to {out}]")


if __name__ == "__main__":
    main()
