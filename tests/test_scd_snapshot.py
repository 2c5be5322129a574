"""SCD's round snapshot: bit-identity to the public solvers and the base
loop, and a golden pin of the stochastic-coordination results.

``SCDPolicy.begin_round`` builds one validated snapshot per round and
``dispatch_round`` solves every active dispatcher on it as one ``(k, n)``
problem.  These tests pin that this changes no number:

* every snapshot row equals the scalar public ``compute_iwl`` /
  ``scd_probabilities`` call, bit for bit;
* ``dispatch_round``'s totals and the RNG state after it equal the base
  per-dispatcher loop's, for ``scd``, ``twf`` and ``scd-sized`` under
  every estimator;
* a small grid of ``scd``/``twf``/``scd-sized``/``scd``+``ewma`` cells
  keeps the result fingerprints it had before the snapshot existed, on
  both ``fast`` and ``reference``.
"""

import copy

import numpy as np
import pytest
from _helpers import DETERMINISM_SETTINGS, fingerprint
from hypothesis import given
from hypothesis import strategies as st

from repro.core.iwl import compute_iwl
from repro.core.probabilities import scd_probabilities
from repro.policies.scd import SCDPolicy, SizedSCDPolicy
from repro.policies.twf import TWFPolicy
from repro.experiments.grid import Experiment, PolicySpec
from repro.experiments.workload import WorkloadSpec
from repro.policies.base import Policy, SystemContext
from repro.sim.scenarios import UNAVAILABLE_QUEUE
from repro.sim.sized import GeometricSize
from repro.workloads.scenarios import SystemSpec

POLICIES = {
    "scd": lambda estimator: SCDPolicy(estimator=estimator),
    "twf": lambda estimator: TWFPolicy(estimator=estimator),
    "scd-sized": lambda estimator: SizedSCDPolicy(
        mean_size=3.0, second_moment_size=15.0, estimator=estimator
    ),
}
#: Constant 1.0 forces every row onto the Eq. (9) single-job rule.
ESTIMATORS = ["scaled", "oracle", "ewma", 1.0, 7.5]


@st.composite
def snapshot_systems(draw):
    """Rates, a few rounds of queue snapshots and batches, and ``m``.

    Rates are mostly from ``{1, 2, 4}`` and queues small, so loads and
    keys tie; some snapshots are all zero and some carry the churn
    ``UNAVAILABLE_QUEUE`` sentinel; ``m = 1`` with one-job batches gives
    ``a_est == 1``; batches may be all empty.
    """
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 5))
    rate = st.one_of(
        st.sampled_from([1.0, 2.0, 4.0]),
        st.floats(min_value=0.25, max_value=64.0, allow_nan=False),
    )
    rates = np.array(draw(st.lists(rate, min_size=n, max_size=n)))
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "small", "churn"]))
        if kind == "zero":
            queues = np.zeros(n, dtype=np.int64)
        else:
            queues = np.array(
                draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)),
                dtype=np.int64,
            )
        if kind == "churn":
            down = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            queues[np.array(down, dtype=bool)] = UNAVAILABLE_QUEUE
        batch = np.array(
            draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=np.int64
        )
        rounds.append((queues, batch))
    return rates, m, rounds


def _bind(policy, rates, m, seed):
    policy.bind(
        SystemContext(rates=rates, num_dispatchers=m, rng=np.random.default_rng(seed))
    )
    return policy


class TestRoundSnapshot:
    @given(
        system=snapshot_systems(),
        name=st.sampled_from(sorted(POLICIES)),
        estimator=st.sampled_from(ESTIMATORS),
        seed=st.integers(0, 2**16),
    )
    @DETERMINISM_SETTINGS
    def test_rows_match_public_solvers_and_base_loop(self, system, name, estimator, seed):
        rates, m, rounds = system
        native = _bind(POLICIES[name](estimator), rates, m, seed)
        looped = _bind(POLICIES[name](estimator), rates, m, seed)
        for t, (queues, batch) in enumerate(rounds):
            for policy in (native, looped):
                policy.begin_round(t, queues)
                policy.observe_total_arrivals(int(batch.sum()))

            # The estimates dispatch_round is about to take, from a copy
            # of the (possibly stateful) estimator.
            jobs = batch[batch > 0]
            a_est = copy.deepcopy(native.estimator).estimate_many(jobs, m)
            mean_size, offset = native.mean_size, native.offset
            levels = native._loads.levels(a_est * mean_size)
            rows = native._keys.solve(a_est, levels, mean_size)
            for a, level, row in zip(a_est.tolist(), levels.tolist(), rows):
                expected = compute_iwl(queues, native._rates, a * mean_size)
                assert level == expected
                public = scd_probabilities(
                    queues, native._rates, a, expected,
                    mean_size=mean_size, offset=offset,
                )
                assert row.tobytes() == public.tobytes()

            got = native.dispatch_round(batch, queues)
            np.testing.assert_array_equal(got, Policy.dispatch_round(looped, batch, queues))
            assert native.rng.bit_generator.state == looped.rng.bit_generator.state


#: Geometric sizes with mean 3 have E[W^2] = 15.
GOLDEN_POLICIES = (
    PolicySpec.of("scd"),
    PolicySpec.of("twf"),
    PolicySpec.of("scd-sized", mean_size=3.0, second_moment_size=15.0),
    PolicySpec.of("scd", estimator="ewma"),
)
SIZED = "scd-sized[mean_size=3.0,second_moment_size=15.0]"
EWMA = "scd[estimator=ewma]"
#: ``(workload, system, policy) -> fingerprint``, recorded before SCD
#: solved on a round snapshot; equal on every bit-identical backend.
GOLDEN = {
    ("paper", "n12_m3_u1_10", "scd"): "1b16011b80d65f3e",
    ("paper", "n12_m3_u1_10", "twf"): "626b73895b2f148c",
    ("paper", "n12_m3_u1_10", SIZED): "513b30d98f651046",
    ("paper", "n12_m3_u1_10", EWMA): "17fada54519ea7fa",
    ("paper", "n10_m4_u1_100", "scd"): "61340ad50f8dde8c",
    ("paper", "n10_m4_u1_100", "twf"): "31b05e7a9fa494ab",
    ("paper", "n10_m4_u1_100", SIZED): "d2b82ae4d690a8ca",
    ("paper", "n10_m4_u1_100", EWMA): "3af54211f2272cae",
    ("churn", "n12_m3_u1_10", "scd"): "67843c75662b9ddc",
    ("churn", "n12_m3_u1_10", "twf"): "5e2ebc7e00068276",
    ("churn", "n12_m3_u1_10", SIZED): "a6a8fa23105244ea",
    ("churn", "n12_m3_u1_10", EWMA): "267e92b158bb95cb",
    ("churn", "n10_m4_u1_100", "scd"): "826088e09e728fb4",
    ("churn", "n10_m4_u1_100", "twf"): "e8a62ba3db0f3b2b",
    ("churn", "n10_m4_u1_100", SIZED): "fcdccc05da8d4ecc",
    ("churn", "n10_m4_u1_100", EWMA): "ecc38b90f48bb5aa",
    ("sized", "n12_m3_u1_10", "scd"): "d451dd10f569edcb",
    ("sized", "n12_m3_u1_10", "twf"): "a3926c709a81e26a",
    ("sized", "n12_m3_u1_10", SIZED): "74fee3d9eefcb042",
    ("sized", "n12_m3_u1_10", EWMA): "78f793a5e1274da4",
}



class TestGoldenResults:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_fingerprints_unchanged(self, backend):
        unit = Experiment(
            GOLDEN_POLICIES,
            (SystemSpec(12, 3), SystemSpec(10, 4, "u1_100")),
            0.9,
            workloads=(
                WorkloadSpec(),
                WorkloadSpec(name="churn", scenario="churn:down=0.4,period=2"),
            ),
            rounds=300,
            base_seed=21,
            backend=backend,
        )
        sized = Experiment(
            GOLDEN_POLICIES,
            SystemSpec(12, 3),
            0.8,
            workloads=WorkloadSpec.sized(GeometricSize(3.0)),
            rounds=300,
            base_seed=21,
            backend=backend,
        )
        got = {
            (r.workload, r.system, r.policy): fingerprint(r)
            for experiment in (unit, sized)
            for r in experiment.run().records
        }
        assert got == GOLDEN
