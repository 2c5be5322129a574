"""Tests for arrival and service processes and seed-stream management."""

import numpy as np
import pytest

from repro.sim.arrivals import (
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.sim.seeding import derive_seed, spawn_streams
from repro.sim.service import DeterministicService, GeometricService, TraceService


class TestPoissonArrivals:
    def test_shape_and_dtype(self):
        proc = PoissonArrivals(np.array([2.0, 5.0, 0.0]))
        batch = proc.sample(np.random.default_rng(0), 0)
        assert batch.shape == (3,)
        assert batch.dtype == np.int64
        assert proc.num_dispatchers == 3

    def test_zero_rate_dispatcher_never_receives(self):
        proc = PoissonArrivals(np.array([0.0, 3.0]))
        rng = np.random.default_rng(0)
        for t in range(50):
            assert proc.sample(rng, t)[0] == 0

    def test_empirical_mean(self):
        proc = PoissonArrivals(np.array([4.0]))
        rng = np.random.default_rng(1)
        draws = [proc.sample(rng, t)[0] for t in range(5000)]
        assert np.mean(draws) == pytest.approx(4.0, rel=0.05)
        assert proc.mean_rate == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(np.array([-1.0]))
        with pytest.raises(ValueError):
            PoissonArrivals(np.array([]))


class TestDeterministicArrivals:
    def test_integer_rates_exact(self):
        proc = DeterministicArrivals(np.array([3.0]))
        rng = np.random.default_rng(0)
        assert [proc.sample(rng, t)[0] for t in range(3)] == [3, 3, 3]

    def test_fractional_rates_average_out(self):
        proc = DeterministicArrivals(np.array([2.5]))
        rng = np.random.default_rng(0)
        draws = [proc.sample(rng, t)[0] for t in range(10)]
        assert sum(draws) == 25
        assert set(draws) <= {2, 3}

    def test_reset(self):
        proc = DeterministicArrivals(np.array([0.5]))
        rng = np.random.default_rng(0)
        first = [proc.sample(rng, t)[0] for t in range(4)]
        proc.reset()
        second = [proc.sample(rng, t)[0] for t in range(4)]
        assert first == second


class TestTraceProcesses:
    def test_arrival_trace_cycles(self):
        trace = np.array([[1, 2], [3, 4]])
        proc = TraceArrivals(trace)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(proc.sample(rng, 0), [1, 2])
        np.testing.assert_array_equal(proc.sample(rng, 1), [3, 4])
        np.testing.assert_array_equal(proc.sample(rng, 2), [1, 2])
        assert proc.mean_rate == pytest.approx(5.0)

    def test_service_trace(self):
        trace = np.array([[2, 0], [1, 1]])
        proc = TraceService(trace)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(proc.sample(rng, 1), [1, 1])
        np.testing.assert_allclose(proc.mean_rates, [1.5, 0.5])

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TraceArrivals(np.array([[1, -2]]))
        with pytest.raises(ValueError):
            TraceService(np.zeros((0, 3), dtype=int))


class TestGeometricService:
    def test_mean_matches_mu(self):
        rates = np.array([0.5, 3.0, 10.0])
        proc = GeometricService(rates)
        rng = np.random.default_rng(0)
        draws = np.array([proc.sample(rng, t) for t in range(20_000)])
        np.testing.assert_allclose(draws.mean(axis=0), rates, rtol=0.05)

    def test_support_includes_zero(self):
        proc = GeometricService(np.array([1.0]))
        rng = np.random.default_rng(0)
        draws = [proc.sample(rng, t)[0] for t in range(100)]
        assert min(draws) == 0  # Geom on {0,1,...}: p(0) = 1/(1+mu) = 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricService(np.array([0.0]))

    @pytest.mark.parametrize("service", [GeometricService, DeterministicService])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rates(self, service, bad):
        with pytest.raises(ValueError, match="finite"):
            service(np.array([1.0, bad]))


class TestDeterministicService:
    def test_fractional_credit(self):
        proc = DeterministicService(np.array([1.5]))
        rng = np.random.default_rng(0)
        draws = [proc.sample(rng, t)[0] for t in range(4)]
        assert sum(draws) == 6
        assert set(draws) <= {1, 2}


class TestSeeding:
    def test_same_seed_same_streams(self):
        a = spawn_streams(42)
        b = spawn_streams(42)
        assert a.arrivals.random() == b.arrivals.random()
        assert a.departures.random() == b.departures.random()
        assert a.policy.random() == b.policy.random()

    def test_streams_are_distinct(self):
        s = spawn_streams(42)
        assert s.arrivals.random() != s.departures.random()

    def test_different_seeds_differ(self):
        assert spawn_streams(1).arrivals.random() != spawn_streams(2).arrivals.random()

    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "sys", 0.9) == derive_seed(1, "sys", 0.9)

    def test_derive_seed_sensitivity(self):
        base = derive_seed(1, "sys", 0.9)
        assert derive_seed(2, "sys", 0.9) != base
        assert derive_seed(1, "other", 0.9) != base
        assert derive_seed(1, "sys", 0.91) != base
