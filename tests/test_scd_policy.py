"""Tests for the SCD policy (Algorithm 2) and its TWF baseline."""

import numpy as np
import pytest

from repro.core.estimation import OracleTotal
from repro.core.iwl import compute_iwl
from repro.core.probabilities import scd_probabilities
from repro.core.scd import SCDPolicy, scd_decision
from repro.core.twf import TWFPolicy, twf_probabilities
from repro.policies.base import Policy, SystemContext, make_policy
from repro.scenarios import UNAVAILABLE_QUEUE


def bind(policy, rates, m=4, seed=0):
    policy.bind(
        SystemContext(
            rates=np.asarray(rates, dtype=np.float64),
            num_dispatchers=m,
            rng=np.random.default_rng(seed),
        )
    )
    return policy


class TestSCDDecision:
    def test_decision_matches_direct_computation(self):
        queues = np.array([4, 0, 9, 2])
        rates = np.array([2.0, 1.0, 5.0, 1.0])
        iwl, probs = scd_decision(queues, rates, own_arrivals=3, num_dispatchers=4)
        a_est = 12.0  # 4 dispatchers x 3 jobs (Eq. 18)
        expected_iwl = compute_iwl(queues, rates, a_est)
        assert iwl == pytest.approx(expected_iwl)
        np.testing.assert_allclose(
            probs, scd_probabilities(queues, rates, a_est, expected_iwl), atol=1e-12
        )

    @pytest.mark.parametrize("algorithm", ["vectorized", "loop", "quadratic"])
    def test_all_algorithms_agree(self, algorithm):
        rng = np.random.default_rng(5)
        queues = rng.integers(0, 30, size=20)
        rates = rng.uniform(1.0, 10.0, size=20)
        iwl_v, p_v = scd_decision(queues, rates, 7, 5, algorithm="vectorized")
        iwl_x, p_x = scd_decision(queues, rates, 7, 5, algorithm=algorithm)
        assert iwl_v == pytest.approx(iwl_x)
        np.testing.assert_allclose(p_v, p_x, atol=1e-9)


class TestSCDPolicy:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            SCDPolicy(algorithm="magic")

    def test_dispatch_totals_and_distribution(self):
        policy = bind(SCDPolicy(), rates=[1.0, 2.0, 4.0], m=2)
        policy.begin_round(0, np.array([5, 1, 0]))
        counts = policy.dispatch(0, 50)
        assert counts.sum() == 50
        assert np.all(counts >= 0)

    def test_empirical_frequencies_match_probabilities(self):
        rates = np.array([1.0, 2.0, 4.0, 8.0])
        queues = np.array([6, 3, 1, 0])
        m = 5
        policy = bind(SCDPolicy(), rates=rates, m=m, seed=42)
        policy.begin_round(0, queues)
        batch = 20
        _, expected = scd_decision(queues, rates, batch, m)
        draws = np.zeros(4)
        trials = 400
        for _ in range(trials):
            draws += policy.dispatch(0, batch)
        freq = draws / (trials * batch)
        np.testing.assert_allclose(freq, expected, atol=0.01)

    def test_round_cache_consistency(self):
        """Two dispatchers with equal batches get the same distribution."""
        policy = bind(SCDPolicy(), rates=[1.0, 5.0], m=2, seed=1)
        policy.begin_round(0, np.array([3, 3]))
        p_first = policy._probabilities(8.0)
        p_again = policy._probabilities(8.0)
        assert p_first is p_again  # cached object, not recomputed

    def test_cache_cleared_between_rounds(self):
        policy = bind(SCDPolicy(), rates=[1.0, 5.0], m=2, seed=1)
        policy.begin_round(0, np.array([3, 3]))
        policy._probabilities(8.0)
        policy.begin_round(1, np.array([0, 9]))
        assert 8.0 not in policy._round_cache

    def test_oracle_estimator_uses_true_total(self):
        oracle = OracleTotal()
        policy = bind(SCDPolicy(estimator=oracle), rates=[1.0, 1.0], m=3)
        policy.begin_round(0, np.array([0, 0]))
        policy.observe_total_arrivals(17)
        assert oracle.estimate(5, 3) == 17.0

    def test_alg1_variant_registered(self):
        policy = make_policy("scd-alg1")
        assert policy.algorithm == "quadratic"
        assert policy.name == "scd-alg1"


class TestNativeDispatchRound:
    """``SCDPolicy.dispatch_round`` (one broadcast solve and one multinomial
    per round) against the base per-dispatcher loop on a twin policy."""

    RATES = np.array([1.0, 4.0, 2.0, 8.0, 3.0, 1.0, 2.0])

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("estimator", ["scaled", "oracle", "ewma", 23.0])
    def test_rows_and_stream_equal_base_loop(self, estimator, m):
        n = self.RATES.size
        native = bind(SCDPolicy(estimator=estimator), self.RATES, m=m, seed=3)
        looped = bind(SCDPolicy(estimator=estimator), self.RATES, m=m, seed=3)
        rng = np.random.default_rng(9)
        for t in range(12):
            queues = rng.integers(0, 25, size=n)
            if t % 3 == 2:
                # A churn-masked snapshot: offline servers carry the sentinel.
                queues[rng.permutation(n)[: n // 2]] = UNAVAILABLE_QUEUE
            batch = rng.integers(0, 6, size=m)
            batch[rng.random(m) < 0.3] = 0  # zero batches draw nothing
            for policy in (native, looped):
                policy.begin_round(t, queues)
                policy.observe_total_arrivals(int(batch.sum()))
            rows = native.dispatch_round(batch, queues)
            np.testing.assert_array_equal(rows, Policy.dispatch_round(looped, batch, queues))
            assert native.rng.bit_generator.state == looped.rng.bit_generator.state

    def test_all_zero_round_draws_nothing(self):
        policy = bind(SCDPolicy(), self.RATES, m=3, seed=1)
        before = policy.rng.bit_generator.state
        policy.begin_round(0, np.zeros(self.RATES.size, dtype=np.int64))
        rows = policy.dispatch_round(np.zeros(3, dtype=np.int64), None)
        np.testing.assert_array_equal(rows, np.zeros((3, self.RATES.size)))
        assert policy.rng.bit_generator.state == before

    def test_solves_once_per_round(self, monkeypatch):
        """All distinct estimates share one IWL and one probability solve;
        the per-dispatcher dispatch is never used."""
        import repro.core.scd as scd_module

        calls = []
        for name in ("compute_iwl", "scd_probabilities"):
            solver = getattr(scd_module, name)
            monkeypatch.setattr(
                scd_module,
                name,
                lambda *a, _name=name, _solver=solver, **k: calls.append(_name)
                or _solver(*a, **k),
            )
        policy = bind(SCDPolicy(), self.RATES, m=4, seed=1)
        monkeypatch.setattr(policy, "dispatch", lambda d, k: pytest.fail("fallback used"))
        policy.begin_round(0, np.arange(self.RATES.size))
        rows = policy.dispatch_round(np.array([3, 1, 3, 7]), None)
        np.testing.assert_array_equal(rows.sum(axis=1), [3, 1, 3, 7])
        assert calls == ["compute_iwl", "scd_probabilities"]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_policy("scd-alg1"),
            lambda: SCDPolicy(algorithm="loop"),
            lambda: SCDPolicy(connectivity=np.ones((3, 7), dtype=bool)),
        ],
        ids=["scd-alg1", "loop", "connectivity"],
    )
    def test_other_configurations_take_base_loop(self, build, monkeypatch):
        policy = bind(build(), self.RATES, m=3, seed=2)
        twin = bind(build(), self.RATES, m=3, seed=2)
        calls = []
        dispatch = policy.dispatch
        monkeypatch.setattr(
            policy, "dispatch", lambda d, k: calls.append(d) or dispatch(d, k)
        )
        queues = np.arange(self.RATES.size)
        batch = np.array([4, 0, 9])
        policy.begin_round(0, queues)
        twin.begin_round(0, queues)
        rows = policy.dispatch_round(batch, queues)
        assert calls == [0, 2]
        np.testing.assert_array_equal(rows, Policy.dispatch_round(twin, batch, queues))


class TestSCDConnectivity:
    """The Section 7 extension: partial dispatcher-server connectivity."""

    def test_mask_shape_validated(self):
        policy = SCDPolicy(connectivity=np.ones((2, 3), dtype=bool))
        with pytest.raises(ValueError, match="shaped"):
            bind(policy, rates=[1.0, 1.0], m=2)

    def test_disconnected_dispatcher_rejected(self):
        mask = np.array([[True, True], [False, False]])
        policy = SCDPolicy(connectivity=mask)
        with pytest.raises(ValueError, match="at least one server"):
            bind(policy, rates=[1.0, 1.0], m=2)

    def test_jobs_only_reach_connected_servers(self):
        mask = np.array(
            [
                [True, True, False, False],
                [False, False, True, True],
            ]
        )
        policy = bind(SCDPolicy(connectivity=mask), rates=np.ones(4), m=2)
        policy.begin_round(0, np.zeros(4, dtype=np.int64))
        for d in range(2):
            counts = policy.dispatch(d, 40)
            assert counts.sum() == 40
            assert counts[~mask[d]].sum() == 0

    def test_full_mask_matches_unmasked_distribution(self):
        rates = np.array([1.0, 3.0, 2.0])
        queues = np.array([4, 0, 2])
        masked = bind(
            SCDPolicy(connectivity=np.ones((2, 3), dtype=bool)), rates=rates, m=2
        )
        masked.begin_round(0, queues)
        p_masked = masked._masked_probabilities(0, 6.0)
        plain = bind(SCDPolicy(), rates=rates, m=2)
        plain.begin_round(0, queues)
        p_plain = plain._probabilities(6.0)
        np.testing.assert_allclose(p_masked, p_plain, atol=1e-9)


class TestTWF:
    def test_twf_probabilities_are_rate_oblivious(self):
        queues = np.array([3, 0, 1])
        level, p = twf_probabilities(queues, 6)
        # Must equal SCD's output on a unit-rate system.
        ones = np.ones(3)
        iwl = compute_iwl(queues, ones, 6)
        assert level == pytest.approx(iwl)
        np.testing.assert_allclose(p, scd_probabilities(queues, ones, 6, iwl))

    def test_twf_equals_scd_on_homogeneous_systems(self):
        """On equal rates the two policies define identical distributions."""
        rng = np.random.default_rng(9)
        queues = rng.integers(0, 25, size=15)
        rates = np.full(15, 3.0)
        a_est = 24.0
        _, p_twf = twf_probabilities(queues, a_est)
        iwl = compute_iwl(queues, rates, a_est)
        p_scd = scd_probabilities(queues, rates, a_est, iwl)
        np.testing.assert_allclose(p_twf, p_scd, atol=1e-9)

    def test_twf_differs_from_scd_on_heterogeneous_systems(self):
        queues = np.array([9, 0, 0])
        rates = np.array([10.0, 1.0, 1.0])
        a_est = 6.0
        _, p_twf = twf_probabilities(queues, a_est)
        iwl = compute_iwl(queues, rates, a_est)
        p_scd = scd_probabilities(queues, rates, a_est, iwl)
        # TWF sees the fast server as hopelessly long (q=9) and shuns it.
        assert p_twf[0] == pytest.approx(0.0, abs=1e-9)
        assert p_scd[0] > 0.1

    def test_twf_policy_dispatch(self):
        policy = bind(TWFPolicy(), rates=[5.0, 1.0], m=2)
        policy.begin_round(0, np.array([2, 2]))
        counts = policy.dispatch(0, 30)
        assert counts.sum() == 30
