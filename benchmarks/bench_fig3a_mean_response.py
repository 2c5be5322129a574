"""Figure 3a: mean response time vs offered load, mu ~ U[1, 10].

Four systems -- (n, m) in {(100,5), (100,10), (200,10), (200,20)} -- and
the seven main-body policies.  Paper shape: SCD's curve is lowest at every
load on every system, TWF is the usual runner-up on the mean, and the gap
widens with load.
"""

import pytest

import repro
from repro import MAIN_POLICIES
from _common import (
    BENCH_LOADS,
    mean_response_rows,
    run_policy_over_loads,
)

TABLE_SPEC = (
    "fig3a_mean_response",
    "Figure 3a: mean response time vs offered load (mu ~ U[1,10])",
    ["system", "policy", "rho", "mean", "p99", "p99.9"],
)

SYSTEMS = repro.PAPER_SYSTEMS["u1_10"]


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
@pytest.mark.parametrize("policy", MAIN_POLICIES)
def test_fig3a_cell(benchmark, figure_table, system, policy):
    summaries = benchmark.pedantic(
        run_policy_over_loads, args=(policy, system), rounds=1, iterations=1
    )
    for rho, summary in summaries.items():
        benchmark.extra_info[f"mean@{rho}"] = round(summary["mean"], 3)
    mean_response_rows(figure_table, system, policy, summaries)
    # Sanity: response times are at least one round and finite.
    assert all(s["mean"] >= 1.0 for s in summaries.values())


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_fig3a_scd_wins_at_high_load(benchmark, system):
    """The headline claim, checked head-to-head at the top of the grid."""
    rho = max(BENCH_LOADS)

    def head_to_head():
        from _common import grid_experiment

        experiment = grid_experiment(
            ("scd", "twf", "sed", "hjsq(2)"), system, loads=rho
        )
        result = experiment.run(keep_results=False)
        return {r.policy: r.metrics["mean"] for r in result.records}

    means = benchmark.pedantic(head_to_head, rounds=1, iterations=1)
    benchmark.extra_info.update({p: round(v, 3) for p, v in means.items()})
    assert means["scd"] == min(means.values()), means
