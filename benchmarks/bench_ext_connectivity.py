"""Extension: partial dispatcher-server connectivity (Section 7, problem 2).

The paper leaves open how stochastic coordination should handle
dispatchers that reach only a subset of servers.  Our SCD implements the
natural restriction -- each dispatcher solves its optimization over its
reachable servers -- and this bench maps the cost of shrinking visibility:
each dispatcher sees a random fraction f of the fleet.

Expected shape: graceful degradation.  Full visibility is best; moderate
masks cost little (different dispatchers cover each other's blind spots);
very sparse masks approach power-of-d-like behavior.
"""

import numpy as np
import pytest

import repro
from _common import BENCH_SEED, grid_experiment

TABLE_SPEC = (
    "ext_connectivity",
    "Extension: SCD under partial connectivity (n=100, m=10, mu ~ U[1,10], rho=0.9)",
    ["visible fraction", "mean", "p99"],
)

SYSTEM = repro.paper_system(100, 10, "u1_10")
RHO = 0.9
FRACTIONS = (1.0, 0.6, 0.3, 0.1)


def mask_for(fraction: float) -> np.ndarray | None:
    if fraction >= 1.0:
        return None
    rng = np.random.default_rng(BENCH_SEED + 1)
    m, n = SYSTEM.num_dispatchers, SYSTEM.num_servers
    mask = rng.random((m, n)) < fraction
    # Guarantee each dispatcher reaches at least one server, and every
    # server is reachable by someone (else the system loses capacity).
    for d in range(m):
        if not mask[d].any():
            mask[d, rng.integers(n)] = True
    unreached = np.flatnonzero(~mask.any(axis=0))
    for s in unreached:
        mask[rng.integers(m), s] = True
    return mask


def run_scd(mask: np.ndarray | None) -> repro.SimulationResult:
    """SCD under ``mask`` on the seed of the grid's (scd, RHO) cell.

    An array kwarg cannot be declared on a grid, so the policy object
    runs through ``simulate_cell`` on the cell it stands in for.
    """
    cell = next(grid_experiment("scd", SYSTEM, RHO).cells())
    policy = "scd" if mask is None else repro.make_policy("scd", connectivity=mask)
    return repro.simulate_cell(
        policy, SYSTEM, RHO, cell.workload, cell.seed, cell.rounds
    )


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_connectivity_cell(benchmark, figure_table, fraction):
    mask = mask_for(fraction)

    result = benchmark.pedantic(run_scd, args=(mask,), rounds=1, iterations=1)
    summary = result.summary()
    figure_table.add(fraction, summary["mean"], summary["p99"])
    benchmark.extra_info["mean"] = round(summary["mean"], 3)
    assert result.total_arrived == result.total_departed + result.final_queued


def test_degradation_is_graceful(benchmark):
    """Moderate masking costs little relative to full visibility."""

    def pair():
        full = run_scd(None)
        masked = run_scd(mask_for(0.6))
        return {
            "full": full.mean_response_time,
            "f=0.6": masked.mean_response_time,
        }

    means = benchmark.pedantic(pair, rounds=1, iterations=1)
    benchmark.extra_info.update({k: round(v, 3) for k, v in means.items()})
    assert means["f=0.6"] < 2.0 * means["full"], means
