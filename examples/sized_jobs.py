#!/usr/bin/env python
"""Size-aware dispatching: what job information buys (open problem 1).

The paper closes by asking whether information about the jobs themselves
can improve stochastic coordination.  Here jobs carry i.i.d. work sizes
and dispatchers know the size distribution's first two moments; the
size-aware SCD (``repro.SizedSCDPolicy``, the ``scd-sized`` policy) folds
them into the per-round optimization -- Eq. (10) with ``(a-1, 1)``
replaced by ``(E[W](a-1), E[W^2]/E[W])``, solved by the same
``repro.scd_probabilities`` (derivation in ``repro.core.probabilities``).

The demo races three dispatchers' worth of knowledge at equal offered
work:

* SED            -- full queue info, deterministic (herds),
* SCD, oblivious -- stochastic coordination, but each job counted as one
                    work unit (the water level sits ~E[W]x too low),
* SCD, size-aware -- the generalized solver with (E[W], E[W^2]).

Run:
    python examples/sized_jobs.py [--rounds N] [--mean-size W]
"""

import argparse

import numpy as np

import repro


def run(policy, sizes, system, rho, rounds, seed, backend="reference"):
    rates = system.rates()
    jobs_per_round = rho * rates.sum() / sizes.mean
    sim = repro.Simulation(
        rates=rates,
        policy=policy,
        arrivals=repro.PoissonArrivals(
            np.full(system.num_dispatchers, jobs_per_round / system.num_dispatchers)
        ),
        service=repro.GeometricService(rates),
        config=repro.SimulationConfig(rounds=rounds, seed=seed, backend=backend),
        sizes=sizes,
    )
    return sim.run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3000)
    parser.add_argument("--mean-size", type=float, default=4.0)
    parser.add_argument("--rho", type=float, default=0.95)
    parser.add_argument(
        "--backend",
        default="fast",
        help="engine round kernel, see `repro backends` (fast is "
        "bit-identical here: all three contenders run through the "
        "dispatch fallback)",
    )
    args = parser.parse_args()

    system = repro.SystemSpec(num_servers=100, num_dispatchers=10, profile="u1_10")
    sizes = repro.GeometricSize(args.mean_size)
    print(
        f"Geometric job sizes: E[W] = {sizes.mean:g}, E[W^2] = "
        f"{sizes.second_moment:g} (cv^2 = "
        f"{sizes.second_moment / sizes.mean**2 - 1:.2f}); offered work "
        f"rho = {args.rho}\n"
    )
    contenders = {
        "sed": repro.make_policy("sed"),
        "scd (size-oblivious)": repro.make_policy("scd"),
        "scd (size-aware)": repro.SizedSCDPolicy(
            mean_size=sizes.mean, second_moment_size=sizes.second_moment
        ),
    }
    rows = []
    for label, policy in contenders.items():
        result = run(
            policy, sizes, system, args.rho, args.rounds, seed=5,
            backend=args.backend,
        )
        rows.append(
            [
                label,
                result.mean_response_time,
                float(result.histogram.percentile(0.99)),
                float(result.histogram.percentile(0.999)),
            ]
        )
    print(repro.format_table(["policy", "mean", "p99", "p99.9"], rows))
    aware = next(r for r in rows if "aware" in r[0])
    oblivious = next(r for r in rows if "oblivious" in r[0])
    print(
        f"\nKnowing the size moments is worth "
        f"{100 * (oblivious[1] / aware[1] - 1):.0f}% on the mean and "
        f"{100 * (oblivious[3] / aware[3] - 1):.0f}% on the p99.9 tail here."
    )


if __name__ == "__main__":
    main()
