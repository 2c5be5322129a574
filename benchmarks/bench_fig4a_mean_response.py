"""Figure 4a: mean response time vs offered load, mu ~ U[1, 100].

The high-heterogeneity (accelerator) regime over the same four systems.
Paper shape: as Figure 3a but with larger gaps -- heterogeneity-oblivious
policies (TWF, JSQ) degrade much further.
"""

import pytest

import repro
from repro import MAIN_POLICIES
from _common import (
    BENCH_LOADS,
    grid_experiment,
    mean_response_rows,
    run_policy_over_loads,
)

TABLE_SPEC = (
    "fig4a_mean_response",
    "Figure 4a: mean response time vs offered load (mu ~ U[1,100])",
    ["system", "policy", "rho", "mean", "p99", "p99.9"],
)

SYSTEMS = repro.PAPER_SYSTEMS["u1_100"]


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
@pytest.mark.parametrize("policy", MAIN_POLICIES)
def test_fig4a_cell(benchmark, figure_table, system, policy):
    summaries = benchmark.pedantic(
        run_policy_over_loads, args=(policy, system), rounds=1, iterations=1
    )
    for rho, summary in summaries.items():
        benchmark.extra_info[f"mean@{rho}"] = round(summary["mean"], 3)
    mean_response_rows(figure_table, system, policy, summaries)
    assert all(s["mean"] >= 1.0 for s in summaries.values())


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_fig4a_heterogeneity_obliviousness_punished(benchmark, system):
    """TWF (rate-blind) trails SCD clearly in this regime at high load."""
    rho = max(BENCH_LOADS)

    def head_to_head():
        records = grid_experiment(["scd", "twf"], system, rho).run(keep_results=False)
        return {r.policy: r.mean_response_time for r in records}

    means = benchmark.pedantic(head_to_head, rounds=1, iterations=1)
    benchmark.extra_info.update({p: round(v, 3) for p, v in means.items()})
    assert means["scd"] < means["twf"], means
