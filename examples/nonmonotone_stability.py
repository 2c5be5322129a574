#!/usr/bin/env python
"""Stability of power-of-d choices on a heterogeneous fleet: the fluid view.

Luo & Zubeldia ("Load Balancing Policies in Heterogeneous Systems:
Non-Monotone Stability and Heavy-Traffic Optimality") prove that in
discrete-time heterogeneous systems the stability region of a
load-balancing policy is NOT monotone in how aggressively it chases
short queues: more choice is not always safer, because queue-length
comparisons are blind to service rates.  This example cross-checks the
repo's mean-field subsystem against the two regimes where the stability
frontier is known in closed form, then sweeps the sampling parameter
``d`` between them:

* ``d = 1`` (uniform random): each server sees an independent thinned
  stream, so the fleet is stable iff every class can carry the
  per-server load -- ``rho* = mu_min / mean(mu)``, which collapses as
  heterogeneity grows.  Queue-blindness wastes the fast servers.
* ``d -> n`` (full JSQ): water-filling keeps feeding whichever servers
  drain, so the fluid frontier recovers ``rho* = 1``.

For each ``d`` the script classifies fluid trajectories (Euler on
``FluidModel.drift``, the classical fixed-point ODE) as stable or
divergent and bisects for the frontier ``rho*(d)``.  Finite horizons
make the estimate conservative near criticality -- relaxation time
blows up like ``1/(1-rho)^2`` -- so the closed-form anchors are checked
with crisp classifications at ``rho* +/- margin`` rather than by the
bisection value, and the printed table states the bias direction.  The
monotonicity verdict is reported, not assumed: on this smooth job-time
fluid the swept curve is typically monotone in ``d``; Luo & Zubeldia's
non-monotone examples live in the batch/tie effects of the pre-limit
discrete-time chain, which is exactly why the finite-n kernels and this
analytic backend are kept cross-validated instead of trusting either
alone.

Run:
    python examples/nonmonotone_stability.py [--choices 1 2 4 8] [--iters 8]
"""

import argparse

import numpy as np

from repro.meanfield.odes import FluidModel, ServerClasses


def classify(
    classes: ServerClasses,
    d: int,
    rho: float,
    depth: int,
    horizon: float,
    step: float,
) -> bool:
    """True when the fluid trajectory from empty diverges at load rho.

    Divergence means mass reaches the truncation depth or the mixture
    mean queue is still growing at the end of the horizon; both are
    conservative (a near-critical stable fleet that has not settled yet
    reads as divergent, never the reverse).
    """
    model = FluidModel(classes, depth=depth, choices=d)
    rate = rho * float(classes.gamma @ classes.mu)
    S = model.empty_state()
    steps = int(horizon / step)
    mark = int(steps * 0.9)
    q_mark = 0.0
    for i in range(steps):
        S = model.project(S + step * model.drift(S, rate))
        if i == mark:
            q_mark = model.mean_queue_per_server(S)
    tail = float(classes.gamma @ S[:, -1])
    growth = (model.mean_queue_per_server(S) - q_mark) / (horizon * 0.1)
    return tail > 1e-2 or growth > 1e-3


def classify_waterfill(
    classes: ServerClasses,
    rho: float,
    depth: int,
    rounds: int,
) -> bool:
    """True when the exact full-JSQ (d -> n) round map diverges.

    Sequential JSQ is water-filling in the fluid limit, so the d -> n
    anchor uses the exact split round maps rather than the power-of-d
    drift (whose stiffness grows with d).
    """
    model = FluidModel(classes, depth=depth)
    rate = rho * float(classes.gamma @ classes.mu)
    S = model.empty_state()
    mark = int(rounds * 0.9)
    q_mark = 0.0
    for i in range(rounds):
        S, _ = model.apply_waterfill_arrivals(S, rate)
        S, _ = model.depart(S)
        if i == mark:
            q_mark = model.mean_queue_per_server(S)
    tail = float(classes.gamma @ S[:, -1])
    growth = (model.mean_queue_per_server(S) - q_mark) / (rounds * 0.1)
    return tail > 1e-2 or growth > 1e-3


def frontier(
    classes: ServerClasses,
    d: int,
    iters: int,
    depth: int,
    horizon: float,
    step: float,
) -> float:
    lo, hi = 0.02, 1.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if classify(classes, d, mid, depth, horizon, step):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--choices", type=int, nargs="+", default=[1, 2, 3, 4, 8],
        help="sampling parameters d to sweep",
    )
    parser.add_argument(
        "--iters", type=int, default=8, help="bisection iterations per d"
    )
    parser.add_argument("--depth", type=int, default=160)
    parser.add_argument(
        "--horizon", type=float, default=600.0,
        help="fluid horizon (rounds) per classification",
    )
    parser.add_argument("--step", type=float, default=0.25)
    parser.add_argument(
        "--margin", type=float, default=0.12,
        help="distance from the closed-form anchor for the crisp checks",
    )
    args = parser.parse_args()

    # The paper's staple heterogeneous shape: a slow majority with a
    # fast minority carrying most of the capacity.
    rates = np.concatenate([np.full(80, 1.0), np.full(20, 8.0)])
    classes = ServerClasses.from_rates(rates)
    mean_mu = float(classes.gamma @ classes.mu)
    anchor = float(classes.mu.min()) / mean_mu
    counts = np.round(classes.gamma * classes.num_servers).astype(int)
    print(
        f"fleet: {rates.size} servers, classes "
        f"{np.round(classes.mu, 2).tolist()} x {counts.tolist()}, "
        f"mean capacity {mean_mu:.2f} jobs/round/server"
    )
    print(f"closed-form d=1 anchor: rho* = mu_min/mean(mu) = {anchor:.3f}")

    # Crisp cross-checks away from the frontier, where finite horizons
    # cannot blur the verdict.
    checks = [
        ("d=1", 1, anchor - args.margin, False),
        ("d=1", 1, anchor + args.margin, True),
        ("d->n", None, 0.9, False),
        ("d->n", None, 1.1, True),
    ]
    anchors_ok = True
    for label, d, rho, want_divergent in checks:
        if d is None:
            got = classify_waterfill(
                classes, rho, args.depth, int(args.horizon)
            )
        else:
            got = classify(
                classes, d, rho, args.depth, args.horizon, args.step
            )
        verdict = "divergent" if got else "stable"
        ok = got == want_divergent
        anchors_ok &= ok
        print(
            f"  check {label:4s} rho={rho:.3f}: {verdict:9s} "
            f"({'ok' if ok else 'MISMATCH'})"
        )
    print(
        "anchor checks "
        + ("passed (within tolerance)" if anchors_ok else "FAILED")
    )

    print("\nfluid stability frontier (finite-horizon, biased low near 1):")
    print("  d    rho*(d)")
    curve = []
    for d in args.choices:
        star = frontier(
            classes, d, args.iters, args.depth, args.horizon, args.step
        )
        curve.append(star)
        print(f"  {d:<4d} {star:.3f}")

    diffs = np.diff(curve)
    if np.all(diffs >= -0.02):
        print(
            "\nverdict: rho*(d) is monotone in d on this fluid -- the "
            "smooth job-time limit averages out the batch/tie effects "
            "behind Luo & Zubeldia's non-monotone discrete-time examples."
        )
    else:
        worst = int(np.argmin(diffs))
        print(
            f"\nverdict: NON-MONOTONE -- rho* drops from "
            f"{curve[worst]:.3f} (d={args.choices[worst]}) to "
            f"{curve[worst + 1]:.3f} (d={args.choices[worst + 1]}), the "
            "Luo & Zubeldia phenomenon: more choice is not always safer."
        )


if __name__ == "__main__":
    main()
