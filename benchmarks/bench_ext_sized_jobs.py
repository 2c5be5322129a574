"""Extension: size-aware stochastic coordination (Section 7, problem 1).

Jobs carry i.i.d. work sizes; dispatchers know the size distribution's
first two moments.  The size-aware SCD (``SizedSCDPolicy``: SCD's solver
with the quadratic weight ``wbar*(a-1)`` and offset ``c = E[W^2]/wbar``,
derived in ``repro.core.probabilities``) is compared
against size-*oblivious* SCD (treats each job as one unit, so its water
level is ~wbar too low) and SED, at equal offered work.

Expected shape: SED herds as always (the batch sizes in jobs stay large);
size-aware SCD beats oblivious SCD on the mean for moderately dispersed
sizes and consistently tightens the tail; the value of size information
grows with load.
"""

import numpy as np
import pytest

import repro
from _common import BENCH_ROUNDS, BENCH_SEED

TABLE_SPEC = (
    "ext_sized_jobs",
    "Extension: size-aware SCD vs oblivious SCD vs SED "
    "(n=100, m=10, mu ~ U[1,10] scaled to units, geometric sizes wbar=4)",
    ["rho", "policy", "mean", "p99", "p99.9"],
)

SYSTEM = repro.paper_system(100, 10, "u1_10")
SIZES = repro.GeometricSize(4.0)
LOADS = (0.9, 0.97)


def run_sized(policy, rho: float):
    rates = SYSTEM.rates()
    jobs_per_round = rho * rates.sum() / SIZES.mean
    sim = repro.Simulation(
        rates=rates,
        policy=policy,
        arrivals=repro.PoissonArrivals(
            np.full(SYSTEM.num_dispatchers, jobs_per_round / SYSTEM.num_dispatchers)
        ),
        service=repro.GeometricService(rates),
        config=repro.SimulationConfig(
            rounds=max(1500, BENCH_ROUNDS),
            seed=repro.derive_seed(BENCH_SEED, SYSTEM.name, round(rho * 1e4), "sized"),
        ),
        sizes=SIZES,
    )
    return sim.run()


def policies():
    return {
        "scd-sized": repro.SizedSCDPolicy(
            mean_size=SIZES.mean, second_moment_size=SIZES.second_moment
        ),
        "scd (oblivious)": repro.make_policy("scd"),
        "sed": repro.make_policy("sed"),
    }


@pytest.mark.parametrize("rho", LOADS)
@pytest.mark.parametrize("label", sorted(policies()))
def test_sized_cell(benchmark, figure_table, label, rho):
    policy = policies()[label]
    result = benchmark.pedantic(run_sized, args=(policy, rho), rounds=1, iterations=1)
    hist = result.histogram
    figure_table.add(
        rho, label, hist.mean(), hist.percentile(0.99), hist.percentile(0.999)
    )
    benchmark.extra_info["mean"] = round(hist.mean(), 3)
    assert result.total_arrived == result.total_departed + result.final_queued


def test_size_awareness_pays_at_high_load(benchmark):
    def trio():
        by_label = {}
        for label, policy in policies().items():
            by_label[label] = run_sized(policy, 0.97).mean_response_time
        return by_label

    means = benchmark.pedantic(trio, rounds=1, iterations=1)
    benchmark.extra_info.update({k: round(v, 3) for k, v in means.items()})
    assert means["scd-sized"] < means["scd (oblivious)"], means
    assert means["scd-sized"] < means["sed"], means
