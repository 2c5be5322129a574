"""Figure 7 (Appendix E.1): SCD vs JSQ(2), JIQ, LSQ and WR, mu ~ U[1, 100].

As Figure 6, under high heterogeneity.  Paper shape: the gaps widen; the
heterogeneity-oblivious samplers (JSQ(2), JIQ, LSQ) fall furthest behind
because uniform sampling starves the fast servers.
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
    "fig7_additional_policies",
    "Figure 7: SCD vs JSQ(2)/JIQ/LSQ/WR (mu ~ U[1,100])",
    ["system", "policy", "rho", "mean", "p99", "p99.9"],
)

SYSTEMS = repro.PAPER_SYSTEMS["u1_100"]
TAIL_SYSTEM = repro.paper_system(100, 10, "u1_100")


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
@pytest.mark.parametrize("policy", EXTRA_POLICIES)
def test_fig7_cell(benchmark, figure_table, system, policy):
    summaries = benchmark.pedantic(
        run_policy_over_loads, args=(policy, system), rounds=1, iterations=1
    )
    for rho, summary in summaries.items():
        benchmark.extra_info[f"mean@{rho}"] = round(summary["mean"], 3)
    mean_response_rows(figure_table, system, policy, summaries)
    assert all(s["mean"] >= 1.0 for s in summaries.values())


@pytest.mark.parametrize("rho", repro.TAIL_LOADS)
def test_fig7_scd_beats_all(benchmark, figure_table, rho):
    def means():
        records = grid_experiment(EXTRA_POLICIES, TAIL_SYSTEM, rho).run(
            keep_results=False
        )
        return {r.policy: r.mean_response_time for r in records}

    values = benchmark.pedantic(means, rounds=1, iterations=1)
    benchmark.extra_info.update({p: round(v, 3) for p, v in values.items()})
    for policy, value in values.items():
        figure_table.add("n100/m10-tail", policy, rho, value, float("nan"), float("nan"))
    assert values["scd"] == min(values.values()), values
