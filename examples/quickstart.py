#!/usr/bin/env python
"""Quickstart: the SCD math on the paper's worked examples, then a small
cluster simulation comparing SCD with classic policies.

Run:
    python examples/quickstart.py [--rounds N]
"""

import argparse

import numpy as np

import repro


def show_figure1() -> None:
    """Figure 1: balancing workload, not job counts."""
    print("=" * 64)
    print("Figure 1 - ideally balanced workload vs balanced job counts")
    print("=" * 64)
    queues = np.array([2, 1, 3, 1])
    rates = np.array([5.0, 2.0, 1.0, 1.0])
    arrivals = 7
    iwl = repro.compute_iwl(queues, rates, arrivals)
    iba = repro.compute_iba(queues, rates, iwl)
    print(f"server rates     : {rates}")
    print(f"queued jobs      : {queues}")
    print(f"incoming jobs    : {arrivals}")
    print(f"ideal workload   : {iwl}           (paper: 1.375)")
    print(f"ideal assignment : {iba}  (paper: [4.875 1.75 0 0.375])")
    print()


def show_figure2() -> None:
    """Figure 2: a server *above* the ideal workload can still be probable."""
    print("=" * 64)
    print("Figure 2 - the probable set is not just the under-loaded servers")
    print("=" * 64)
    queues = np.array([9, 0, 0, 0, 0, 0, 0, 0, 0])
    rates = np.array([10.0, 1, 1, 1, 1, 1, 1, 1, 1])
    arrivals = 7
    iwl = repro.compute_iwl(queues, rates, arrivals)
    probs = repro.scd_probabilities(queues, rates, arrivals, iwl)
    print(f"one fast server (mu=10, q=9), eight slow empty ones, a={arrivals}")
    print(f"ideal workload        : {iwl}      (paper: 0.875)")
    print(f"fast server's load    : {queues[0] / rates[0]}  -- above the IWL!")
    print(f"fast server's p       : {probs[0]:.4f}    (paper: ~0.221)")
    print(f"its expected jobs     : {arrivals * probs[0]:.3f}     (paper: ~1.55)")
    print(f"slow servers' E[load] : {arrivals * probs[1]:.3f}     (paper: ~0.68)")
    print()


def run_comparison(rounds: int) -> None:
    """A heterogeneous multi-dispatcher cluster, five policies."""
    print("=" * 64)
    print("Simulation - 50 heterogeneous servers, 5 dispatchers, rho = 0.9")
    print("=" * 64)
    system = repro.SystemSpec(num_servers=50, num_dispatchers=5, profile="u1_10")
    experiment = repro.Experiment(
        ["scd", "twf", "jsq", "sed", "hjsq(2)", "wr"],
        system,
        0.9,
        rounds=rounds,
        base_seed=1,
    )
    rows = []
    for record in experiment.run(keep_results=False):
        m = record.metrics
        rows.append([record.policy, m["mean"], m["p95"], m["p99"], m["max"]])
    print(
        repro.format_table(
            ["policy", "mean", "p95", "p99", "max"],
            rows,
            title=f"Response times over {rounds} rounds (same workload for all)",
        )
    )
    best = min(rows, key=lambda r: r[1])[0]
    print(f"\nBest mean response time: {best}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rounds", type=int, default=3000, help="simulation rounds per policy"
    )
    args = parser.parse_args()
    show_figure1()
    show_figure2()
    run_comparison(args.rounds)


if __name__ == "__main__":
    main()
