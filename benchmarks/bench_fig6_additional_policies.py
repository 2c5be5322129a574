"""Figure 6 (Appendix E.1): SCD vs JSQ(2), JIQ, LSQ and WR, mu ~ U[1, 10].

The complementary comparison against the less-competitive techniques, over
the same four systems and a tail panel at n=100, m=10.  Paper shape: SCD
significantly outperforms all four across systems, metrics and loads --
JSQ(2)/JIQ/LSQ ignore heterogeneity, WR ignores queue state.
"""

import pytest

import repro
from repro import EXTRA_POLICIES
from _common import (
    grid_experiment,
    mean_response_rows,
    run_policy_over_loads,
)

TABLE_SPEC = (
    "fig6_additional_policies",
    "Figure 6: SCD vs JSQ(2)/JIQ/LSQ/WR (mu ~ U[1,10])",
    ["system", "policy", "rho", "mean", "p99", "p99.9"],
)

SYSTEMS = repro.PAPER_SYSTEMS["u1_10"]
TAIL_SYSTEM = repro.paper_system(100, 10, "u1_10")


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
@pytest.mark.parametrize("policy", EXTRA_POLICIES)
def test_fig6_cell(benchmark, figure_table, system, policy):
    summaries = benchmark.pedantic(
        run_policy_over_loads, args=(policy, system), rounds=1, iterations=1
    )
    for rho, summary in summaries.items():
        benchmark.extra_info[f"mean@{rho}"] = round(summary["mean"], 3)
    mean_response_rows(figure_table, system, policy, summaries)
    assert all(s["mean"] >= 1.0 for s in summaries.values())


@pytest.mark.parametrize("rho", repro.TAIL_LOADS)
def test_fig6_scd_dominates_tails(benchmark, figure_table, rho):
    def tails():
        records = grid_experiment(EXTRA_POLICIES, TAIL_SYSTEM, rho).run()
        return {
            r.policy: repro.tail_quantiles(r.result.histogram, (1e-3,))[1e-3]
            for r in records
        }

    quantiles = benchmark.pedantic(tails, rounds=1, iterations=1)
    benchmark.extra_info.update(quantiles)
    for policy, value in quantiles.items():
        figure_table.add("n100/m10-tail", policy, rho, float("nan"), float("nan"), value)
    assert quantiles["scd"] == min(quantiles.values()), quantiles
