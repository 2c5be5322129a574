"""Figure 4b: response-time tails under high heterogeneity (mu ~ U[1,100]).

n=100, m=10 at rho in {0.70, 0.90, 0.99}.  Paper shape: SCD improves on
the second best by an even larger margin than in Figure 3b (>2.3x at the
1e-4 level, rho=0.99), and TWF/JSQ tails degrade by an order of magnitude
even at rho=0.7.
"""

import pytest

import repro
from repro import MAIN_POLICIES
from _common import grid_experiment

TABLE_SPEC = (
    "fig4b_tail_ccdf",
    "Figure 4b: response-time tails, n=100, m=10 (mu ~ U[1,100])",
    ["rho", "policy", "mean", "p99", "p99.9", "p99.99", "max"],
)

SYSTEM = repro.paper_system(100, 10, "u1_100")
LEVELS = (1e-2, 1e-3, 1e-4)


@pytest.mark.parametrize("rho", repro.TAIL_LOADS)
@pytest.mark.parametrize("policy", MAIN_POLICIES)
def test_fig4b_tail(benchmark, figure_table, policy, rho):
    experiment = grid_experiment(policy, SYSTEM, rho)
    result = benchmark.pedantic(
        lambda: experiment.run().only().result, rounds=1, iterations=1
    )
    hist = result.histogram
    quantiles = repro.tail_quantiles(hist, LEVELS)
    figure_table.add(
        rho,
        policy,
        hist.mean(),
        quantiles[1e-2],
        quantiles[1e-3],
        quantiles[1e-4],
        hist.max_response_time,
    )
    benchmark.extra_info["p99.9"] = quantiles[1e-3]
    assert hist.total > 0


def test_fig4b_twf_tail_collapses(benchmark):
    """The heterogeneity-oblivious tail is far worse than SCD's here."""

    def tails():
        records = grid_experiment(["scd", "twf"], SYSTEM, 0.9).run()
        return {
            r.policy: repro.tail_quantiles(r.result.histogram, (1e-3,))[1e-3]
            for r in records
        }

    quantiles = benchmark.pedantic(tails, rounds=1, iterations=1)
    benchmark.extra_info.update(quantiles)
    assert quantiles["twf"] >= 2 * quantiles["scd"], quantiles
