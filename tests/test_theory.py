"""Tests for the Appendix D strong-stability bound."""

import numpy as np
import pytest
from _helpers import assert_ensemble_close

from repro.experiments import Experiment
from repro.core.theory import (
    geometric_second_moment,
    poisson_second_moment,
    strong_stability_bound,
)
from repro.workloads.scenarios import SystemSpec


class TestSecondMoments:
    def test_poisson_formula(self):
        # E[X^2] = Var + mean^2 = lam + lam^2.
        assert poisson_second_moment(3.0) == pytest.approx(12.0)
        np.testing.assert_allclose(
            poisson_second_moment(np.array([1.0, 2.0])), [2.0, 6.0]
        )

    def test_poisson_empirical(self):
        rng = np.random.default_rng(0)
        draws = rng.poisson(5.0, size=200_000).astype(float)
        assert_ensemble_close(
            np.mean(draws**2),
            poisson_second_moment(5.0),
            n=draws.size,
            label="Poisson second moment",
        )

    def test_geometric_formula(self):
        assert geometric_second_moment(1.0) == pytest.approx(3.0)

    def test_geometric_empirical(self):
        mu = 4.0
        rng = np.random.default_rng(1)
        draws = (rng.geometric(1.0 / (1.0 + mu), size=200_000) - 1).astype(float)
        assert_ensemble_close(
            np.mean(draws), mu, n=draws.size, label="geometric mean"
        )
        assert_ensemble_close(
            np.mean(draws**2),
            geometric_second_moment(mu),
            n=draws.size,
            label="geometric second moment",
        )

    def test_geometric_empirical_heterogeneous_rates(self):
        # The formula is per-server: a heterogeneous rate vector must
        # match element-wise, not just on the pooled average.
        mus = np.array([0.5, 1.0, 4.0, 32.0])
        rng = np.random.default_rng(2)
        for mu in mus:
            draws = (
                rng.geometric(1.0 / (1.0 + mu), size=400_000) - 1
            ).astype(float)
            assert_ensemble_close(
                np.mean(draws**2),
                geometric_second_moment(mu),
                n=draws.size,
                base=4.0,  # heavier tail at large mu needs more slack
                label=f"geometric second moment (mu={mu})",
            )
        np.testing.assert_allclose(
            geometric_second_moment(mus),
            np.array([geometric_second_moment(float(m)) for m in mus]),
        )

    def test_extreme_rate_spread_stays_finite(self):
        # 1e-6 .. 1e6 rate spread: formulas stay finite and positive.
        mus = np.array([1e-6, 1e-3, 1.0, 1e3, 1e6])
        second = geometric_second_moment(mus)
        assert np.all(np.isfinite(second)) and np.all(second > 0)
        assert np.all(second >= mus**2)  # E[X^2] >= (E[X])^2


class TestBound:
    def test_requires_admissibility(self):
        with pytest.raises(ValueError, match="not admissible"):
            strong_stability_bound(np.array([5.0]), np.array([4.0]))

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            strong_stability_bound(np.array([1.0]), np.array([0.0]))

    def test_bound_positive_and_monotone_in_load(self):
        rates = np.array([4.0, 2.0, 1.0])
        low = strong_stability_bound(np.array([1.0, 1.0]), rates)
        high = strong_stability_bound(np.array([3.0, 3.0]), rates)
        assert 0 < low.bound < high.bound  # tighter slack -> larger bound

    def test_constants_against_hand_computation(self):
        # One dispatcher (lambda=1), one server (mu=2).
        bound = strong_stability_bound(np.array([1.0]), np.array([2.0]))
        # sigma = 1 + 1 = 2; cross terms = 0; phi = 2 + 8 = 10.
        # C = 2 / 2 + 10 / 2 = 6.  D = 2 * (1 - 1) / (2*2) = 0.
        assert bound.C == pytest.approx(6.0)
        assert bound.D == pytest.approx(0.0)
        assert bound.epsilon == pytest.approx(1.0)
        assert bound.bound == pytest.approx(6.0 * 2.0 / 2.0)

    def test_custom_moments(self):
        # Deterministic arrivals (E[A^2] = lam^2) shrink C below Poisson's.
        lam = np.array([2.0])
        mu = np.array([5.0])
        poisson = strong_stability_bound(lam, mu)
        deterministic = strong_stability_bound(
            lam, mu, arrival_second_moments=lam**2
        )
        assert deterministic.bound < poisson.bound

    def test_str(self):
        bound = strong_stability_bound(np.array([1.0]), np.array([2.0]))
        assert "bound=" in str(bound)


class TestBoundCoversMeasurement:
    def test_measured_queue_below_guarantee(self):
        """The theorem: SCD's time-averaged total queue respects Eq. 37."""
        system = SystemSpec(num_servers=10, num_dispatchers=3, profile="u1_10")
        rho = 0.9
        experiment = Experiment("scd", system, rho, rounds=2000, base_seed=4)
        result = experiment.run().only().result
        bound = strong_stability_bound(system.lambdas(rho), system.rates())
        measured = result.queue_series.mean()
        assert measured < bound.bound
        # The bound is loose by construction; sanity-check it's not vacuous
        # only because of an astronomically silly constant.
        assert np.isfinite(bound.bound)
