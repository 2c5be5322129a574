#!/usr/bin/env python
"""Regenerate the data behind any of the paper's evaluation figures.

Every figure of Section 6 / Appendix E is declared once in
``repro.experiments.figures``; this script prints, for each requested
figure, the table the figure benchmarks write to
``benchmarks/results/`` (the same rows for the same rounds, loads and
seed).  Under each tail table (3b, 4b) it prints how much shorter SCD's
1e-4 tail is than the runner-up's at each load.  The paper runs 1e5
rounds per cell on C++; pass ``--rounds 100000`` for a full-fidelity
(slow) run, or keep the default for a laptop-scale pass that preserves
the qualitative shape.  20,000 rounds give about 11M jobs per tail cell at
rho=0.99, enough to resolve the 1e-4 level the paper quotes.

Run:
    python examples/paper_figures.py --figure 3a --rounds 2000
    python examples/paper_figures.py --figure 3b --rounds 20000
    python examples/paper_figures.py --figure 5
    python examples/paper_figures.py --figure all --rounds 1000
"""

import argparse

from repro.analysis.ccdf import tail_improvement_factor
from repro.experiments.figures import (
    FIGURES_BY_ID,
    MEAN,
    RUNTIME_SERVER_COUNTS,
    RUNTIME_SNAPSHOT_ROUNDS,
    RUNTIME_SNAPSHOTS,
    TAIL,
    mean_rows,
    panel_rows,
    policy_metrics,
    runtime_row,
    runtime_snapshots,
    table_text,
    tail_histogram,
    tail_row,
)
from repro.workloads.scenarios import TAIL_LOADS


def print_figure(figure, args) -> None:
    grid = {"rounds": args.rounds, "seed": args.seed}
    notes = []
    if figure.kind == MEAN:
        rows = [
            row
            for policy, system in figure.cells()
            for row in mean_rows(policy, system, loads=args.loads, **grid)
        ]
        if figure.panel:
            for rho in TAIL_LOADS:
                values = policy_metrics(
                    figure.policies, figure.tail_system, rho, figure.panel, **grid
                )
                rows += panel_rows(figure, rho, values)
    elif figure.kind == TAIL:
        hists = {
            (policy, rho): tail_histogram(figure, policy, rho, **grid)
            for policy, rho in figure.cells()
        }
        rows = [tail_row(policy, rho, hist) for (policy, rho), hist in hists.items()]
        for rho in TAIL_LOADS:
            others = {p: hists[p, rho] for p in figure.policies if p != "scd"}
            factor, runner_up = tail_improvement_factor(
                hists["scd", rho], others, level=1e-4
            )
            notes.append(
                f"rho={rho}: SCD 1e-4 tail improvement over runner-up "
                f"({runner_up}): {factor:.2f}x"
            )
    else:
        snapshots = {
            n: runtime_snapshots(
                figure, n, seed=args.seed, snapshots=args.snapshots,
                rounds=args.runtime_rounds,
            )
            for n in args.servers
        }
        rows = [
            runtime_row(n, technique, *snapshots[n])
            for technique, n in figure.cells(args.servers)
        ]
    print(
        table_text(
            figure.title, figure.headers, rows,
            rounds=args.rounds, loads=args.loads, seed=args.seed,
        )
    )
    for note in notes:
        print(note)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure", choices=[*FIGURES_BY_ID, "all"], default="3a",
        help="which paper figure to regenerate",
    )
    parser.add_argument("--rounds", type=int, default=2000)
    parser.add_argument(
        "--loads", type=float, nargs="+", default=[0.6, 0.7, 0.8, 0.9, 0.99]
    )
    parser.add_argument(
        "--servers", type=int, nargs="+", default=list(RUNTIME_SERVER_COUNTS),
        help="server counts for the run-time figures",
    )
    parser.add_argument("--snapshots", type=int, default=RUNTIME_SNAPSHOTS)
    parser.add_argument("--runtime-rounds", type=int, default=RUNTIME_SNAPSHOT_ROUNDS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    targets = list(FIGURES_BY_ID) if args.figure == "all" else [args.figure]
    for figure in targets:
        print(f"\n{'#' * 66}\n# Figure {figure}\n{'#' * 66}")
        print_figure(FIGURES_BY_ID[figure], args)


if __name__ == "__main__":
    main()
