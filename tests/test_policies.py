"""Per-policy unit tests: framework, baselines, and their defining behaviors."""

import numpy as np
import pytest

from repro.policies.base import (
    Policy,
    SystemContext,
    available_policies,
    make_policy,
)
from repro.policies.greedy import greedy_certificate_ok


def bind(policy, rates, m=2, seed=0):
    policy.bind(
        SystemContext(
            rates=np.asarray(rates, dtype=np.float64),
            num_dispatchers=m,
            rng=np.random.default_rng(seed),
        )
    )
    return policy


class TestRegistry:
    EXPECTED = {
        "scd",
        "twf",
        "jsq",
        "sed",
        "jsq(2)",
        "jsq(d)",
        "hjsq(2)",
        "hjsq(d)",
        "jiq",
        "hjiq",
        "lsq",
        "hlsq",
        "wr",
        "random",
    }

    def test_all_paper_policies_registered(self):
        assert self.EXPECTED <= set(available_policies())

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("nope")

    def test_policy_passthrough(self):
        p = make_policy("jsq")
        assert make_policy(p) is p

    def test_parameterized_construction(self):
        p = make_policy("jsq(d)", d=4)
        assert p.name == "jsq(4)"
        assert p.d == 4

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_policy_dispatches_correct_totals(self, name):
        policy = bind(make_policy(name), rates=[1.0, 3.0, 5.0, 2.0], m=3)
        queues = np.array([4, 0, 2, 7], dtype=np.int64)
        policy.begin_round(0, queues)
        for d in range(3):
            counts = policy.dispatch(d, 11)
            assert counts.sum() == 11
            assert np.all(counts >= 0)
            assert counts.shape == (4,)
        policy.end_round(0, queues)


class TestSystemContext:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            SystemContext(
                rates=np.array([1.0, -1.0]),
                num_dispatchers=1,
                rng=np.random.default_rng(),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SystemContext(
                rates=np.array([1.0, bad]),
                num_dispatchers=1,
                rng=np.random.default_rng(),
            )

    def test_rejects_zero_dispatchers(self):
        with pytest.raises(ValueError):
            SystemContext(
                rates=np.ones(2), num_dispatchers=0, rng=np.random.default_rng()
            )

    def test_num_servers_derived(self):
        ctx = SystemContext(
            rates=np.ones(7), num_dispatchers=2, rng=np.random.default_rng()
        )
        assert ctx.num_servers == 7


class TestJSQAndSED:
    def test_jsq_targets_shortest_queues(self):
        policy = bind(make_policy("jsq"), rates=[1.0, 1.0, 1.0])
        policy.begin_round(0, np.array([9, 0, 9]))
        counts = policy.dispatch(0, 3)
        np.testing.assert_array_equal(counts, [0, 3, 0])

    def test_jsq_ignores_rates(self):
        # JSQ ranks by raw queue length; a fast long queue loses to a slow
        # short one -- the heterogeneity blindness the paper criticizes.
        policy = bind(make_policy("jsq"), rates=[100.0, 1.0])
        policy.begin_round(0, np.array([5, 0]))
        counts = policy.dispatch(0, 1)
        np.testing.assert_array_equal(counts, [0, 1])

    def test_sed_uses_expected_delay(self):
        policy = bind(make_policy("sed"), rates=[100.0, 1.0])
        policy.begin_round(0, np.array([5, 0]))
        counts = policy.dispatch(0, 1)
        # (5+1)/100 = 0.06 < (0+1)/1 = 1: SED prefers the fast busy server.
        np.testing.assert_array_equal(counts, [1, 0])

    def test_sed_batch_is_greedy_certified(self):
        rates = np.array([1.0, 4.0, 2.0, 8.0])
        policy = bind(make_policy("sed"), rates=rates)
        queues = np.array([3, 1, 0, 6])
        policy.begin_round(0, queues)
        counts = policy.dispatch(0, 25)
        assert greedy_certificate_ok(queues, rates, counts)

    def test_dispatchers_herd_on_same_snapshot(self):
        """The defining pathology: identical info => identical decisions."""
        policy = bind(make_policy("jsq"), rates=np.ones(4), m=3)
        policy.begin_round(0, np.array([0, 8, 8, 8]))
        batches = [policy.dispatch(d, 4) for d in range(3)]
        for counts in batches:
            np.testing.assert_array_equal(counts, batches[0])
        # All 12 jobs land on the single short queue (and its overflow).
        total = sum(batches)
        assert total[0] >= 6


class TestPowerOfD:
    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            make_policy("jsq(d)", d=0)

    def test_d1_is_random(self):
        policy = bind(make_policy("jsq(d)", d=1), rates=np.ones(10))
        policy.begin_round(0, np.zeros(10, dtype=np.int64))
        counts = policy.dispatch(0, 1000)
        # Uniform sampling: every server should get a share.
        assert counts.sum() == 1000
        assert np.all(counts > 0)

    def test_prefers_shorter_of_two_samples(self):
        policy = bind(make_policy("jsq(2)"), rates=np.ones(2))
        policy.begin_round(0, np.array([0, 50]))
        counts = policy.dispatch(0, 200)
        # Sample pairs: (0,0) -> 0, (0,1)/(1,0) -> 0, (1,1) -> 1.
        # So ~3/4 of jobs go to server 0 at minimum (more once local
        # increments are counted, which never exceed 50 here).
        assert counts[0] > counts[1]

    def test_hjsq_samples_proportional_to_rates(self):
        rates = np.array([100.0, 1.0, 1.0, 1.0])
        policy = bind(make_policy("hjsq(2)"), rates=rates)
        policy.begin_round(0, np.zeros(4, dtype=np.int64))
        counts = policy.dispatch(0, 2000)
        # Server 0 holds ~97% of the sampling weight and has the lowest
        # load rank; nearly everything should land there.
        assert counts[0] > 1800

    def test_local_increments_spread_within_round(self):
        # With only 2 servers and many jobs, within-round feedback must
        # spread jobs rather than dump all on the initially-shorter one.
        policy = bind(make_policy("jsq(2)"), rates=np.ones(2))
        policy.begin_round(0, np.array([0, 1]))
        counts = policy.dispatch(0, 100)
        assert counts[1] > 20  # would be ~0 without local increments


class TestJIQ:
    def test_prefers_idle_servers(self):
        policy = bind(make_policy("jiq"), rates=np.ones(4))
        policy.begin_round(0, np.array([0, 3, 0, 5]))
        counts = policy.dispatch(0, 2)
        np.testing.assert_array_equal(counts[[1, 3]], [0, 0])
        assert counts[[0, 2]].sum() == 2

    def test_idle_servers_used_at_most_once_per_dispatcher(self):
        policy = bind(make_policy("jiq"), rates=np.ones(4))
        policy.begin_round(0, np.array([0, 0, 9, 9]))
        counts = policy.dispatch(0, 2)
        np.testing.assert_array_equal(np.sort(counts[[0, 1]]), [1, 1])

    def test_falls_back_to_random_when_no_idle(self):
        policy = bind(make_policy("jiq"), rates=np.ones(3))
        policy.begin_round(0, np.array([1, 1, 1]))
        counts = policy.dispatch(0, 300)
        assert counts.sum() == 300
        assert np.all(counts > 50)  # roughly uniform

    def test_hjiq_weighted_fallback(self):
        rates = np.array([50.0, 1.0])
        policy = bind(make_policy("hjiq"), rates=rates)
        policy.begin_round(0, np.array([2, 2]))
        counts = policy.dispatch(0, 500)
        assert counts[0] > 400  # ~98% weight on the fast server

    def test_dispatchers_herd_on_the_same_idle_set(self):
        policy = bind(make_policy("jiq"), rates=np.ones(3), m=4)
        policy.begin_round(0, np.array([0, 9, 9]))
        totals = sum(policy.dispatch(d, 1) for d in range(4))
        # All four dispatchers independently target the lone idle server.
        assert totals[0] == 4


class TestLSQ:
    def test_rejects_bad_sampling_budget(self):
        with pytest.raises(ValueError):
            make_policy("lsq", samples_per_job=0)

    def test_local_views_start_optimistic_and_learn(self):
        policy = bind(make_policy("lsq"), rates=np.ones(3), m=1)
        queues = np.array([10, 10, 10])
        policy.begin_round(0, queues)
        counts = policy.dispatch(0, 3)
        # Zero-initialized views spread the batch evenly.
        np.testing.assert_array_equal(counts, [1, 1, 1])
        policy.end_round(0, queues)
        # After enough samples the view reflects reality.
        for t in range(1, 20):
            policy.begin_round(t, queues)
            policy.dispatch(0, 3)
            policy.end_round(t, queues)
        assert policy._local[0].max() >= 10

    def test_views_are_per_dispatcher(self):
        policy = bind(make_policy("lsq"), rates=np.ones(4), m=2)
        policy.begin_round(0, np.zeros(4, dtype=np.int64))
        policy.dispatch(0, 8)
        # Dispatcher 0's increments must not leak into dispatcher 1's view.
        assert policy._local[0].sum() == 8
        assert policy._local[1].sum() == 0

    def test_hlsq_ranks_by_expected_delay(self):
        rates = np.array([10.0, 1.0])
        policy = bind(make_policy("hlsq"), rates=rates, m=1)
        queues = np.array([4, 4])
        # Teach the dispatcher the true queue lengths first.
        for t in range(30):
            policy.begin_round(t, queues)
            policy.end_round(t, queues)
        policy.begin_round(99, queues)
        counts = policy.dispatch(0, 5)
        assert counts[0] == 5  # (4+j)/10 < (4+1)/1 for all j <= 5


class TestRandomPolicies:
    def test_wr_matches_rate_proportions(self):
        rates = np.array([8.0, 1.0, 1.0])
        policy = bind(make_policy("wr"), rates=rates)
        counts = policy.dispatch(0, 10_000)
        np.testing.assert_allclose(counts / 10_000, rates / rates.sum(), atol=0.02)

    def test_uniform_random_ignores_rates(self):
        rates = np.array([100.0, 1.0])
        policy = bind(make_policy("random"), rates=rates)
        counts = policy.dispatch(0, 10_000)
        np.testing.assert_allclose(counts / 10_000, [0.5, 0.5], atol=0.02)

    def test_wr_ignores_queues(self):
        policy = bind(make_policy("wr"), rates=np.array([1.0, 1.0]))
        policy.begin_round(0, np.array([1_000_000, 0]))
        counts = policy.dispatch(0, 1000)
        assert abs(counts[0] - counts[1]) < 200  # still ~50/50


class TestPolicyABC:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            Policy()

    def test_rates_before_bind_raises(self):
        class Dummy(Policy):
            name = "dummy"

            def dispatch(self, dispatcher, num_jobs):  # pragma: no cover
                return np.zeros(1, dtype=np.int64)

        with pytest.raises(AssertionError):
            _ = Dummy().rates
