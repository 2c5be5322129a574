"""Ablation: the total-arrival estimator inside SCD (Section 5.1).

The paper's SCD estimates the round total as ``a_est = m * a_d`` (Eq. 18)
and argues the per-dispatcher errors compensate.  This bench quantifies
the choice: Eq. 18 vs an oracle (true total), a constant (expected system
capacity -- load-oblivious), and an EWMA-smoothed variant.

Expected shape: Eq. 18 tracks the oracle closely (estimation is nearly
free); the constant lags once the actual load deviates from the guess;
heavy smoothing hurts under Poisson burstiness.  Stability holds for all
of them (Appendix D).
"""

import pytest

import repro
from _common import BENCH_LOADS, grid_experiment

TABLE_SPEC = (
    "ablation_estimators",
    "Ablation: SCD arrival estimators (n=100, m=10, mu ~ U[1,10])",
    ["estimator", "rho", "mean", "p99"],
)

SYSTEM = repro.paper_system(100, 10, "u1_10")


def estimator_cases():
    capacity = float(SYSTEM.rates().sum())
    return {
        "scaled (Eq.18)": "scaled",
        "oracle": "oracle",
        "constant=capacity": capacity,
        "ewma(0.25)": repro.EwmaEstimator(alpha=0.25),
    }


@pytest.mark.parametrize("label", sorted(estimator_cases()))
@pytest.mark.parametrize("rho", BENCH_LOADS)
def test_estimator_cell(benchmark, figure_table, label, rho):
    policy = repro.PolicySpec.of("scd", estimator=estimator_cases()[label])
    experiment = grid_experiment(policy, SYSTEM, rho)

    result = benchmark.pedantic(
        lambda: experiment.run().only().result, rounds=1, iterations=1
    )
    summary = result.summary()
    figure_table.add(label, rho, summary["mean"], summary["p99"])
    benchmark.extra_info["mean"] = round(summary["mean"], 3)
    assert summary["mean"] >= 1.0


def test_scaled_close_to_oracle(benchmark):
    """Eq. 18's whole point: almost no loss vs global knowledge."""
    rho = max(BENCH_LOADS)

    def both():
        scaled, oracle = grid_experiment(
            ["scd", repro.PolicySpec.of("scd", estimator="oracle")], SYSTEM, rho
        ).run(keep_results=False)
        return {
            "scaled": scaled.mean_response_time,
            "oracle": oracle.mean_response_time,
        }

    means = benchmark.pedantic(both, rounds=1, iterations=1)
    benchmark.extra_info.update({k: round(v, 3) for k, v in means.items()})
    assert means["scaled"] < 1.35 * means["oracle"], means
