"""Tests for the optimal-probability solvers (Algorithms 1 and 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import DETERMINISM_SETTINGS, dispatch_instances, edge_case_snapshots
from repro.core.iwl import compute_iwl
from repro.core.probabilities import (
    kkt_residuals,
    priority_key,
    scd_objective,
    scd_probabilities,
    scd_probabilities_loop,
    scd_probabilities_quadratic,
    single_job_probabilities,
)

ALL_SOLVERS = [
    scd_probabilities,
    scd_probabilities_loop,
    scd_probabilities_quadratic,
]


def solve_all(queues, rates, arrivals):
    iwl = compute_iwl(queues, rates, arrivals)
    return iwl, [solver(queues, rates, arrivals, iwl) for solver in ALL_SOLVERS]


class TestFigure2:
    """The paper's heterogeneous worked example (Section 4.1)."""

    def test_iwl(self, figure2_instance):
        inst = figure2_instance
        iwl = compute_iwl(inst["queues"], inst["rates"], inst["arrivals"])
        assert iwl == pytest.approx(inst["iwl"], abs=1e-12)

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_fast_server_above_iwl_gets_positive_probability(
        self, figure2_instance, solver
    ):
        inst = figure2_instance
        p = solver(inst["queues"], inst["rates"], inst["arrivals"], inst["iwl"])
        # The fast server's load (9/10) exceeds the IWL (0.875), yet the
        # optimum assigns it probability ~0.221 -- the paper's headline
        # contrast with the homogeneous analysis of [22].
        assert p[0] == pytest.approx(inst["p_fast_approx"], abs=5e-3)
        assert inst["arrivals"] * p[0] == pytest.approx(
            inst["expected_jobs_fast_approx"], abs=0.02
        )

    def test_slow_servers_share_rest_equally(self, figure2_instance):
        inst = figure2_instance
        p = scd_probabilities(
            inst["queues"], inst["rates"], inst["arrivals"], inst["iwl"]
        )
        np.testing.assert_allclose(p[1:], p[1], atol=1e-12)
        # Expected post-dispatch workload of slow servers ~0.68 (Figure 2b).
        expected_slow = inst["arrivals"] * p[1]
        assert expected_slow == pytest.approx(0.68, abs=0.01)


class TestSingleJob:
    """The a == 1 closed form (Eq. 9)."""

    def test_unique_minimizer_gets_everything(self):
        q = np.array([3, 0, 5])
        mu = np.array([1.0, 1.0, 1.0])
        p = single_job_probabilities(q, mu)
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0])

    def test_ties_are_split_uniformly(self):
        q = np.array([1, 1, 7])
        mu = np.array([1.0, 1.0, 1.0])
        p = single_job_probabilities(q, mu)
        np.testing.assert_allclose(p, [0.5, 0.5, 0.0])

    def test_rate_weighting_in_key(self):
        # (2*5+1)/10 = 1.1 beats (2*0+1)/0.5 = 2.0: the busy-but-fast
        # server is preferred to the idle-but-slow one.
        q = np.array([5, 0])
        mu = np.array([10.0, 0.5])
        p = single_job_probabilities(q, mu)
        np.testing.assert_allclose(p, [1.0, 0.0])

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_solvers_dispatch_to_single_job_form(self, solver):
        q = np.array([3, 0, 5])
        mu = np.array([2.0, 1.0, 4.0])
        iwl = compute_iwl(q, mu, 1)
        p = solver(q, mu, 1, iwl)
        np.testing.assert_allclose(p, single_job_probabilities(q, mu))


class TestAgreementAndOptimality:
    @given(dispatch_instances())
    @settings(max_examples=150, deadline=None)
    def test_all_three_algorithms_agree(self, instance):
        queues, rates, arrivals = instance
        _, solutions = solve_all(queues, rates, arrivals)
        for other in solutions[1:]:
            np.testing.assert_allclose(solutions[0], other, atol=1e-7)

    @given(dispatch_instances())
    @settings(max_examples=150, deadline=None)
    def test_output_is_a_distribution(self, instance):
        queues, rates, arrivals = instance
        _, solutions = solve_all(queues, rates, arrivals)
        for p in solutions:
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)

    @given(dispatch_instances())
    @settings(max_examples=150, deadline=None)
    def test_kkt_conditions_hold(self, instance):
        queues, rates, arrivals = instance
        if arrivals == 1:
            return  # Eq. (9) regime; KKT checker targets the a > 1 QP.
        iwl = compute_iwl(queues, rates, arrivals)
        p = scd_probabilities(queues, rates, arrivals, iwl)
        res = kkt_residuals(p, queues, rates, arrivals, iwl)
        scale = max(1.0, float(np.max((2 * queues + 1) / rates)))
        assert res["primal_sum"] < 1e-9
        assert res["primal_nonneg"] < 1e-12
        assert res["stationarity"] < 1e-7 * scale
        assert res["dual_feasibility"] < 1e-7 * scale

    @given(dispatch_instances())
    @settings(max_examples=100, deadline=None)
    def test_probable_set_is_prefix_of_key_order(self, instance):
        """Corollary 1: S+ is a prefix of the (2q+1)/mu ordering."""
        queues, rates, arrivals = instance
        if arrivals == 1:
            return
        iwl = compute_iwl(queues, rates, arrivals)
        p = scd_probabilities(queues, rates, arrivals, iwl)
        key = priority_key(queues, rates)
        support_keys = key[p > 1e-9]
        zero_keys = key[p <= 1e-9]
        if support_keys.size and zero_keys.size:
            # max key inside the support <= min key outside (ties allowed).
            assert support_keys.max() <= zero_keys.min() + 1e-9

    @given(dispatch_instances())
    @settings(max_examples=100, deadline=None)
    def test_beats_random_feasible_points(self, instance):
        """The returned P has no worse objective than sampled alternatives."""
        queues, rates, arrivals = instance
        if arrivals == 1:
            return
        iwl = compute_iwl(queues, rates, arrivals)
        p = scd_probabilities(queues, rates, arrivals, iwl)
        opt = scd_objective(p, queues, rates, arrivals, iwl)
        rng = np.random.default_rng(12345)
        for _ in range(10):
            candidate = rng.dirichlet(np.ones(queues.size))
            val = scd_objective(candidate, queues, rates, arrivals, iwl)
            assert opt <= val + 1e-9 * max(1.0, abs(val))

    @given(dispatch_instances())
    @settings(max_examples=80, deadline=None)
    def test_order_argument_is_equivalent(self, instance):
        queues, rates, arrivals = instance
        iwl = compute_iwl(queues, rates, arrivals)
        order = np.argsort(priority_key(queues, rates), kind="stable")
        np.testing.assert_allclose(
            scd_probabilities(queues, rates, arrivals, iwl, order=order),
            scd_probabilities(queues, rates, arrivals, iwl),
            atol=1e-12,
        )


class TestHomogeneousCase:
    """With equal rates the probable set is a prefix of the queue order.

    Note: Section 4.1 states the homogeneous probable set is exactly
    ``{s : q_s/mu < iwl}``.  That holds in the large-``a`` regime but not
    for small ``a`` (e.g. q=[0,1], mu=[1,1], a=2 gives iwl=1.5 yet the
    KKT-certified optimum is p=[1,0]); the always-true structural fact is
    Corollary 1's prefix property, which we assert here.
    """

    @pytest.mark.parametrize("arrivals", [2, 5, 20, 100])
    def test_probable_set_is_queue_prefix(self, arrivals):
        rng = np.random.default_rng(3)
        queues = rng.integers(0, 30, size=12)
        rates = np.full(12, 2.0)
        iwl = compute_iwl(queues, rates, arrivals)
        p = scd_probabilities(queues, rates, arrivals, iwl)
        support_q = queues[p > 1e-9]
        zero_q = queues[p <= 1e-9]
        if support_q.size and zero_q.size:
            assert support_q.max() <= zero_q.min()

    def test_small_a_excludes_a_below_iwl_server(self):
        """The documented counterexample to the literal Section 4.1 claim."""
        queues = np.array([0, 1])
        rates = np.ones(2)
        iwl = compute_iwl(queues, rates, 2)
        assert iwl == pytest.approx(1.5)
        p = scd_probabilities(queues, rates, 2, iwl)
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)
        # and this really is the global optimum:
        from repro.core.qp_reference import brute_force_probabilities

        np.testing.assert_allclose(
            brute_force_probabilities(queues, rates, 2, iwl), p, atol=1e-12
        )

    def test_large_a_includes_all_below_iwl_servers(self):
        queues = np.array([0, 1, 2, 3, 40])
        rates = np.ones(5)
        a = 100
        iwl = compute_iwl(queues, rates, a)
        p = scd_probabilities(queues, rates, a, iwl)
        below = queues < iwl - 1e-9
        assert np.all(p[below] > 0)

    def test_equal_queues_equal_probabilities(self):
        queues = np.full(6, 4)
        rates = np.full(6, 3.0)
        iwl = compute_iwl(queues, rates, 10)
        p = scd_probabilities(queues, rates, 10, iwl)
        np.testing.assert_allclose(p, 1.0 / 6, atol=1e-12)


class TestValidation:
    def test_rejects_arrivals_below_one(self):
        with pytest.raises(ValueError):
            scd_probabilities([1, 2], [1.0, 1.0], 0.5, 1.0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            scd_probabilities([1, 2], [1.0, -1.0], 5, 1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            scd_probabilities([1, 2, 3], [1.0, 1.0], 5, 1.0)

    def test_rejects_any_arrival_below_one_in_an_array(self):
        with pytest.raises(ValueError):
            scd_probabilities([1, 2], [1.0, 1.0], np.array([5.0, 0.5]), np.ones(2))


class TestLargeArrivals:
    """As a_est grows, P approaches the IBA proportions (weighted-random
    over the water-filled gap), per the Section 5.2 discussion."""

    def test_limit_matches_iba_fractions(self):
        queues = np.array([0, 0, 12])
        rates = np.array([2.0, 1.0, 3.0])
        a = 100_000
        iwl = compute_iwl(queues, rates, a)
        p = scd_probabilities(queues, rates, a, iwl)
        from repro.core.iwl import compute_iba

        iba = compute_iba(queues, rates, iwl)
        np.testing.assert_allclose(p, iba / iba.sum(), atol=1e-3)


class TestBroadcast:
    """Arrays of ``(a, iwl)`` pairs give one row per pair; each row must be
    exactly the scalar call's vector (``a == 1`` rows included)."""

    @given(
        edge_case_snapshots(),
        st.lists(
            st.one_of(
                st.just(1.0),
                st.integers(1, 400).map(float),
                st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @DETERMINISM_SETTINGS
    def test_rows_equal_scalar_calls(self, snapshot, arrivals):
        queues, rates = snapshot
        arrivals = np.array(arrivals)
        levels = compute_iwl(queues, rates, arrivals)
        key_order = np.argsort(priority_key(queues, rates), kind="stable")
        for shared in (None, key_order):
            rows = scd_probabilities(queues, rates, arrivals, levels, order=shared)
            assert rows.shape == (arrivals.size, queues.size)
            for row, a, iwl in zip(rows, arrivals, levels):
                np.testing.assert_array_equal(
                    row, scd_probabilities(queues, rates, a, iwl, order=shared)
                )

    def test_all_single_job_rows(self):
        queues, rates = np.array([3, 0, 0]), np.array([1.0, 1.0, 2.0])
        rows = scd_probabilities(queues, rates, np.ones(2), np.zeros(2))
        np.testing.assert_array_equal(rows, [single_job_probabilities(queues, rates)] * 2)
