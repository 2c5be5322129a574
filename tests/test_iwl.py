"""Tests for the ideal-workload computation (Algorithm 3 and Eq. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import DETERMINISM_SETTINGS, dispatch_instances, edge_case_snapshots
from repro.core.iwl import (
    compute_iba,
    compute_iwl,
    compute_iwl_reference,
    load_vector,
)


class TestFigure1:
    """The paper's worked example must reproduce to the printed digits."""

    def test_iwl_value(self, figure1_instance):
        inst = figure1_instance
        iwl = compute_iwl(inst["queues"], inst["rates"], inst["arrivals"])
        assert iwl == pytest.approx(inst["iwl"], abs=1e-12)

    def test_reference_algorithm_agrees(self, figure1_instance):
        inst = figure1_instance
        iwl = compute_iwl_reference(inst["queues"], inst["rates"], inst["arrivals"])
        assert iwl == pytest.approx(inst["iwl"], abs=1e-12)

    def test_iba_values(self, figure1_instance):
        inst = figure1_instance
        iba = compute_iba(inst["queues"], inst["rates"], inst["iwl"])
        np.testing.assert_allclose(iba, inst["iba"], atol=1e-12)

    def test_iba_conserves_work(self, figure1_instance):
        inst = figure1_instance
        iba = compute_iba(inst["queues"], inst["rates"], inst["iwl"])
        assert iba.sum() == pytest.approx(inst["arrivals"])


class TestSmallCases:
    def test_single_server(self):
        assert compute_iwl([3], [2.0], 5) == pytest.approx((3 + 5) / 2.0)

    def test_zero_arrivals_is_min_load(self):
        q = np.array([4, 2, 9])
        mu = np.array([1.0, 2.0, 3.0])
        assert compute_iwl(q, mu, 0) == pytest.approx(1.0)  # min(4/1, 2/2, 9/3)

    def test_all_equal_loads_spread_evenly(self):
        q = np.array([2, 4, 6])
        mu = np.array([1.0, 2.0, 3.0])  # all loads are 2.0
        iwl = compute_iwl(q, mu, 12)
        assert iwl == pytest.approx(2.0 + 12 / 6.0)

    def test_exactly_reaching_next_level(self):
        # Filling server 0 (load 0) up to server 1's load (2) costs exactly 2.
        q = np.array([0, 2])
        mu = np.array([1.0, 1.0])
        assert compute_iwl(q, mu, 2) == pytest.approx(2.0)
        # One more unit is then split across both servers.
        assert compute_iwl(q, mu, 4) == pytest.approx(3.0)

    def test_homogeneous_water_fill(self):
        q = np.array([0, 0, 10])
        mu = np.ones(3)
        # 6 jobs fill the two empty servers to 3 each; server 2 stays at 10.
        assert compute_iwl(q, mu, 6) == pytest.approx(3.0)

    def test_fast_server_absorbs_more(self):
        q = np.array([0, 0])
        mu = np.array([9.0, 1.0])
        iwl = compute_iwl(q, mu, 10)
        assert iwl == pytest.approx(1.0)
        iba = compute_iba(q, mu, iwl)
        np.testing.assert_allclose(iba, [9.0, 1.0])

    def test_fractional_arrivals(self):
        assert compute_iwl([0, 0], [1.0, 1.0], 1.5) == pytest.approx(0.75)


class TestValidation:
    def test_rejects_negative_arrivals(self):
        with pytest.raises(ValueError):
            compute_iwl([1], [1.0], -1)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            compute_iwl([1, 2], [1.0, 0.0], 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rates(self, bad):
        # NaN passed the old ``rates <= 0`` check and gave a level of 3.0.
        with pytest.raises(ValueError, match="finite"):
            compute_iwl([1, 2, 3], [1.0, bad, 2.0], 5)

    def test_rejects_negative_queues(self):
        with pytest.raises(ValueError):
            compute_iwl([1, -2], [1.0, 1.0], 3)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_iwl([1, 2], [1.0], 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_iwl([], [], 3)

    def test_rejects_any_negative_arrival_in_an_array(self):
        with pytest.raises(ValueError):
            compute_iwl([1, 2], [1.0, 1.0], np.array([3.0, -1.0]))


class TestProperties:
    """Invariants that must hold on arbitrary instances."""

    @given(dispatch_instances())
    @settings(max_examples=200)
    def test_vectorized_matches_reference(self, instance):
        queues, rates, arrivals = instance
        fast = compute_iwl(queues, rates, arrivals)
        slow = compute_iwl_reference(queues, rates, arrivals)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    @given(dispatch_instances())
    @settings(max_examples=200)
    def test_iba_conservation_and_nonnegativity(self, instance):
        queues, rates, arrivals = instance
        iwl = compute_iwl(queues, rates, arrivals)
        iba = compute_iba(queues, rates, iwl)
        assert np.all(iba >= 0)
        assert iba.sum() == pytest.approx(arrivals, rel=1e-9, abs=1e-9)

    @given(dispatch_instances())
    @settings(max_examples=200)
    def test_iwl_at_least_min_load(self, instance):
        queues, rates, arrivals = instance
        iwl = compute_iwl(queues, rates, arrivals)
        assert iwl >= load_vector(queues, rates).min() - 1e-12

    @given(dispatch_instances())
    @settings(max_examples=200)
    def test_post_assignment_loads_equalized_on_support(self, instance):
        """Every server receiving work ends exactly at the IWL; others above."""
        queues, rates, arrivals = instance
        iwl = compute_iwl(queues, rates, arrivals)
        iba = compute_iba(queues, rates, iwl)
        post = (queues + iba) / rates
        receiving = iba > 1e-9
        if receiving.any():
            np.testing.assert_allclose(post[receiving], iwl, rtol=1e-9, atol=1e-9)
        assert np.all(post >= iwl - 1e-9)

    @given(dispatch_instances(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=100)
    def test_iwl_monotone_in_arrivals(self, instance, extra):
        queues, rates, arrivals = instance
        assert compute_iwl(queues, rates, arrivals + extra) > compute_iwl(
            queues, rates, arrivals
        ) - 1e-12

    @given(dispatch_instances())
    @settings(max_examples=100)
    def test_order_argument_is_equivalent(self, instance):
        queues, rates, arrivals = instance
        order = np.argsort(queues / rates, kind="stable")
        with_order = compute_iwl(queues, rates, arrivals, order=order)
        without = compute_iwl(queues, rates, arrivals)
        assert with_order == pytest.approx(without, abs=1e-12)

    @given(dispatch_instances())
    @settings(max_examples=100)
    def test_permutation_invariance(self, instance):
        queues, rates, arrivals = instance
        rng = np.random.default_rng(0)
        perm = rng.permutation(queues.size)
        assert compute_iwl(queues[perm], rates[perm], arrivals) == pytest.approx(
            compute_iwl(queues, rates, arrivals), rel=1e-12, abs=1e-12
        )


class TestBroadcast:
    """An array of arrivals solves every value against one snapshot; each
    entry must be exactly the scalar call's level."""

    @given(
        edge_case_snapshots(),
        st.lists(
            st.one_of(
                st.just(0.0),
                st.just(1.0),
                st.integers(1, 400).map(float),
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @DETERMINISM_SETTINGS
    def test_rows_equal_scalar_calls(self, snapshot, arrivals):
        queues, rates = snapshot
        arrivals = np.array(arrivals)
        order = np.argsort(queues / rates, kind="stable")
        for shared in (None, order):
            levels = compute_iwl(queues, rates, arrivals, order=shared)
            assert isinstance(levels, np.ndarray) and levels.shape == arrivals.shape
            expected = [compute_iwl(queues, rates, a, order=shared) for a in arrivals]
            np.testing.assert_array_equal(levels, expected)

    def test_scalar_keeps_float_return(self):
        assert type(compute_iwl([3, 1], [1.0, 2.0], 4)) is float
        assert type(compute_iwl([3, 1], [1.0, 2.0], 0)) is float
