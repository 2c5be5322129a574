#!/usr/bin/env python
"""Regenerate the data behind any of the paper's evaluation figures.

Every figure of Section 6 / Appendix E maps to a subcommand of this script;
output is the figure's data as aligned text tables (policies as columns).
The paper runs 1e5 rounds per cell on C++; pass ``--rounds 100000`` for a
full-fidelity (slow) run, or keep the default for a laptop-scale pass that
preserves the qualitative shape.

Run:
    python examples/paper_figures.py --figure 3a --rounds 2000
    python examples/paper_figures.py --figure 3b
    python examples/paper_figures.py --figure 5
    python examples/paper_figures.py --figure all --rounds 1000
"""

import argparse

import numpy as np

import repro
from repro import EXTRA_POLICIES, MAIN_POLICIES
from repro.analysis.runtime import (
    RUNTIME_TECHNIQUES,
    collect_snapshots,
    measure_decision_times,
    runtime_cdf_summary,
)


def mean_response_figure(profile: str, policies: tuple[str, ...], args) -> None:
    """Figures 3a / 4a / 6a / 7a: mean response vs offered load, 4 systems."""
    for system in repro.PAPER_SYSTEMS[profile]:
        sweep = repro.Experiment(
            policies, system, args.loads, rounds=args.rounds, base_seed=args.seed
        ).run(keep_results=False)
        print(
            repro.format_series_table(
                "rho",
                args.loads,
                {
                    p: [sweep.metric(policy=p, rho=rho) for rho in args.loads]
                    for p in policies
                },
                title=(
                    f"\nn={system.num_servers}, m={system.num_dispatchers}, "
                    f"mu ~ {profile}: mean response time"
                ),
            )
        )


def tail_figure(profile: str, policies: tuple[str, ...], args) -> None:
    """Figures 3b / 4b / 6b / 7b: response-time CCDF at three loads."""
    system = repro.paper_system(100, 10, profile)
    for rho in repro.TAIL_LOADS:
        experiment = repro.Experiment(
            policies, system, rho, rounds=args.rounds, base_seed=args.seed
        )
        results = {r.policy: r.result for r in experiment.run()}
        max_tau = max(r.histogram.max_response_time for r in results.values())
        taus = np.unique(np.linspace(1, max(2, max_tau), 12).astype(int))
        series = {p: r.histogram.ccdf(taus) for p, r in results.items()}
        print(
            repro.format_series_table(
                "tau",
                taus.tolist(),
                series,
                title=f"\nn=100, m=10, rho={rho}, mu ~ {profile}: CCDF P(T > tau)",
                float_format="{:.2e}",
            )
        )


def runtime_figure(profile: str, args) -> None:
    """Figures 5 / 8: per-decision computation time CDF landmarks."""
    print(
        f"\nDecision run-times at rho=0.99, mu ~ {profile} "
        f"(microseconds; Python/numpy substrate -- compare shapes, not\n"
        f"absolute values against the paper's C++)"
    )
    for n in args.servers:
        system = repro.SystemSpec(n, 10, profile)
        snapshots = collect_snapshots(
            system, rho=0.99, rounds=args.runtime_rounds, seed=args.seed,
            max_snapshots=args.snapshots,
        )
        rates = system.rates()
        rows = []
        for technique in RUNTIME_TECHNIQUES:
            times = measure_decision_times(technique, snapshots, rates, 10)
            s = runtime_cdf_summary(times)
            rows.append(
                [technique, s["p10_us"], s["p50_us"], s["p90_us"], s["p99_us"]]
            )
        print(
            repro.format_table(
                ["technique", "p10", "p50", "p90", "p99"],
                rows,
                title=f"\nn={n} servers:",
                float_format="{:.1f}",
            )
        )


FIGURES = {
    "3a": lambda args: mean_response_figure("u1_10", MAIN_POLICIES, args),
    "3b": lambda args: tail_figure("u1_10", MAIN_POLICIES, args),
    "4a": lambda args: mean_response_figure("u1_100", MAIN_POLICIES, args),
    "4b": lambda args: tail_figure("u1_100", MAIN_POLICIES, args),
    "5": lambda args: runtime_figure("u1_10", args),
    "6": lambda args: (
        mean_response_figure("u1_10", EXTRA_POLICIES, args),
        tail_figure("u1_10", EXTRA_POLICIES, args),
    ),
    "7": lambda args: (
        mean_response_figure("u1_100", EXTRA_POLICIES, args),
        tail_figure("u1_100", EXTRA_POLICIES, args),
    ),
    "8": lambda args: runtime_figure("u1_100", args),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure", choices=[*FIGURES, "all"], default="3a",
        help="which paper figure to regenerate",
    )
    parser.add_argument("--rounds", type=int, default=2000)
    parser.add_argument(
        "--loads", type=float, nargs="+", default=[0.6, 0.7, 0.8, 0.9, 0.99]
    )
    parser.add_argument(
        "--servers", type=int, nargs="+", default=[100, 200, 300, 400],
        help="server counts for the run-time figures",
    )
    parser.add_argument("--snapshots", type=int, default=200)
    parser.add_argument("--runtime-rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    targets = list(FIGURES) if args.figure == "all" else [args.figure]
    for figure in targets:
        print(f"\n{'#' * 66}\n# Figure {figure}\n{'#' * 66}")
        FIGURES[figure](args)


if __name__ == "__main__":
    main()
