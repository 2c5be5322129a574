"""The batch protocol's one shape: ``dispatch_round`` returns per-server totals.

Every policy answers a whole round with an int64 ``(n,)`` vector of
per-server admissions.  The base implementation sums ``dispatch`` rows in
dispatcher order; native overrides compute the totals directly.  These
tests pin that this changes no number:

* for every registered policy with a native ``dispatch_round`` (plus
  ``jsq`` and ``scd`` under the churn adapter), the native totals equal
  the base loop's summed ``dispatch`` rows over several consecutive
  rounds, and the RNG state matches after every round;
* JSQ/SED make one water fill per round on their round snapshot;
* ``drive_blocks`` refuses a policy that still returns the old
  ``(m, n)`` matrix, loudly, even when ``m == n``;
* every kernel refuses a policy that admits a negative job count, on
  the per-round and the ``dispatch_rounds`` path alike;
* a grid of baseline cells keeps the result fingerprints it had while
  ``dispatch_round`` still returned ``(m, n)`` matrices, on both ``fast``
  and ``reference``;
* ``rr``/``wrr``/``jsq``/``scd`` cells keep the queue series and the
  summaries of the probes that read the queue trajectory
  (``server_stats``, ``windowed_stability``) they had while the
  queue-oblivious block path stepped the recurrence round by round.
"""

import hashlib
import json

import numpy as np
import pytest
from _helpers import DETERMINISM_SETTINGS, fingerprint
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.grid import Experiment
from repro.experiments.workload import WorkloadSpec
from repro.policies.base import (
    Policy,
    SystemContext,
    available_policies,
    has_native_dispatch_round,
    make_policy,
    supports_round_batching,
)
from repro.sim.scenarios import UNAVAILABLE_QUEUE
from repro.sim.scenarios.churn import ChurnPolicyAdapter, ChurnSchedule
from repro.sim import GeometricService, PoissonArrivals, Simulation, SimulationConfig
from repro.sim.blockdriver import BLOCK_ROUNDS
from repro.sim.probes import ProbeSpec
from repro.sim.sized import GeometricSize
from repro.workloads.scenarios import SystemSpec


class CyclingSchedule(ChurnSchedule):
    """A churn schedule cycling through fixed masks, one per block."""

    def __init__(self, masks: list[np.ndarray]) -> None:
        super().__init__(masks[0].size)
        self.masks = masks

    def mask_for_block(self, block_index: int) -> np.ndarray:
        return self.masks[block_index % len(self.masks)]


#: Every registered policy with a native ``dispatch_round``, plus ``jsq``
#: and ``scd`` behind the churn adapter.
NATIVE_POLICIES = [
    name for name in available_policies() if has_native_dispatch_round(make_policy(name))
] + ["churn:jsq", "churn:scd"]


def build(name: str, masks: list[np.ndarray]) -> Policy:
    if name.startswith("churn:"):
        return ChurnPolicyAdapter(make_policy(name[len("churn:"):]), CyclingSchedule(masks))
    return make_policy(name)


@st.composite
def protocol_systems(draw):
    """Rates, churn masks and a few rounds of (queues, batch, post-queues).

    Rates mostly from ``{1, 2, 4}`` and small queues give ties; some
    snapshots are all zero (JIQ's idle path) and some carry the churn
    ``UNAVAILABLE_QUEUE`` sentinel; some rounds have only empty batches;
    ``m == n`` is drawn often.
    """
    n = draw(st.integers(1, 24))
    m = draw(st.one_of(st.just(n), st.integers(1, 6)))
    rate = st.one_of(
        st.sampled_from([1.0, 2.0, 4.0]),
        st.floats(min_value=0.25, max_value=64.0, allow_nan=False),
    )
    rates = np.array(draw(st.lists(rate, min_size=n, max_size=n)))
    masks = []
    for _ in range(draw(st.integers(1, 3))):
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        mask[draw(st.integers(0, n - 1))] = True  # one server always up
        masks.append(mask)

    def snapshot():
        kind = draw(st.sampled_from(["zero", "small", "sentinel"]))
        if kind == "zero":
            return np.zeros(n, dtype=np.int64)
        queues = np.array(
            draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)), dtype=np.int64
        )
        if kind == "sentinel":
            down = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            queues[np.array(down, dtype=bool)] = UNAVAILABLE_QUEUE
        return queues

    rounds = []
    for _ in range(draw(st.integers(2, 5))):
        if draw(st.booleans()):
            batch = np.array(
                draw(st.lists(st.integers(0, 6), min_size=m, max_size=m)), dtype=np.int64
            )
        else:
            batch = np.zeros(m, dtype=np.int64)
        rounds.append((snapshot(), batch, snapshot()))
    return rates, m, masks, rounds


class TestNativeTotals:
    @pytest.mark.parametrize("name", NATIVE_POLICIES)
    @given(system=protocol_systems(), seed=st.integers(0, 2**16))
    @DETERMINISM_SETTINGS
    def test_native_totals_equal_base_loop(self, name, system, seed):
        """Native totals equal the base loop's summed ``dispatch`` rows,
        and the policy stream stands at the same state, after every
        round of a run."""
        rates, m, masks, rounds = system
        native, looped = build(name, masks), build(name, masks)
        for policy in (native, looped):
            policy.bind(
                SystemContext(
                    rates=rates, num_dispatchers=m, rng=np.random.default_rng(seed)
                )
            )
        for i, (queues, batch, after) in enumerate(rounds):
            # One round per block, so the churn mask changes between rounds.
            t = i * BLOCK_ROUNDS
            for policy in (native, looped):
                policy.begin_round(t, queues)
                policy.observe_total_arrivals(int(batch.sum()))
            got = native.dispatch_round(batch, queues)
            assert got.shape == (rates.size,)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, Policy.dispatch_round(looped, batch, queues))
            assert native.rng.bit_generator.state == looped.rng.bit_generator.state
            for policy in (native, looped):
                policy.end_round(t, after)
            assert native.rng.bit_generator.state == looped.rng.bit_generator.state


class TestGreedyRound:
    """JSQ/SED answer a round from the snapshot ``begin_round`` built: one
    water fill, no public-solver re-validation, no per-dispatcher rows."""

    @pytest.mark.parametrize("name", ["jsq", "sed"])
    def test_one_water_fill_per_round(self, name, monkeypatch):
        from repro.core.iwl import LoadSnapshot
        from repro.policies import greedy

        calls = []
        levels = LoadSnapshot.levels
        monkeypatch.setattr(
            LoadSnapshot, "levels", lambda self, a: calls.append("levels") or levels(self, a)
        )
        monkeypatch.setattr(greedy, "compute_iwl", lambda *a: pytest.fail("compute_iwl used"))
        rates = np.array([1.0, 4.0, 2.0, 8.0, 3.0])
        policy = make_policy(name)
        policy.bind(SystemContext(rates=rates, num_dispatchers=4, rng=np.random.default_rng(0)))
        monkeypatch.setattr(policy, "dispatch", lambda d, k: pytest.fail("dispatch used"))
        for t in range(3):
            policy.begin_round(t, np.array([7, 0, 3, 1, 12]) + t)
            totals = policy.dispatch_round(np.array([13, 0, 1, 6]), None)
            assert totals.shape == (5,) and totals.sum() == 20
        assert calls == ["levels"] * 3

    @pytest.mark.parametrize("name", ["jsq", "sed"])
    def test_negative_queue_rejected_at_begin_round(self, name):
        policy = make_policy(name)
        policy.bind(
            SystemContext(rates=np.ones(2), num_dispatchers=2, rng=np.random.default_rng(0))
        )
        with pytest.raises(ValueError, match="non-negative"):
            policy.begin_round(0, np.array([3, -1]))


class RowsPolicy(Policy):
    """A policy still on the old protocol: ``dispatch_round`` returns rows."""

    name = "rows"

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        counts = np.zeros(self.ctx.num_servers, dtype=np.int64)
        counts[0] = num_jobs
        return counts

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        rows = np.zeros((self.ctx.num_dispatchers, self.ctx.num_servers), dtype=np.int64)
        rows[:, 0] = batch
        return rows


class TestOldShapeFailsLoudly:
    @pytest.mark.parametrize(("n", "m"), [(4, 2), (3, 3)], ids=["m<n", "m==n"])
    def test_rows_matrix_is_refused(self, n, m):
        rates = np.arange(1.0, n + 1.0)
        sim = Simulation(
            rates=rates,
            policy=RowsPolicy(),
            arrivals=PoissonArrivals(np.full(m, 0.5 * rates.sum() / m)),
            service=GeometricService(rates),
            config=SimulationConfig(rounds=20, seed=1, backend="fast"),
        )
        with pytest.raises(ValueError, match=rf"per-server admissions, shape \({n},\)"):
            sim.run()

class NegativeRowPolicy(Policy):
    """Admits ``-1`` job to server 0 and ``k + 1`` to server 1: every row
    still sums to its batch, but one count is negative."""

    name = "negative-row"

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        counts = np.zeros(self.ctx.num_servers, dtype=np.int64)
        counts[0], counts[1] = -1, num_jobs + 1
        return counts


class NegativeBlockPolicy(NegativeRowPolicy):
    """The same rows, on the queue-oblivious ``dispatch_rounds`` path."""

    name = "negative-block"

    def dispatch_rounds(self, batch_block: np.ndarray) -> np.ndarray:
        totals = batch_block.sum(axis=1)
        admitted = np.zeros((totals.size, self.ctx.num_servers), dtype=np.int64)
        busy = totals > 0
        admitted[busy, 0] = -1
        admitted[busy, 1] = totals[busy] + 1
        return admitted


class TestNegativeAdmissionsFailLoudly:
    """A row that conserves the batch but admits a negative count is
    refused on every kernel, instead of driving a queue negative
    (``reference``) or being clamped into different results (``fast``)."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("policy", [NegativeRowPolicy, NegativeBlockPolicy])
    @pytest.mark.parametrize("sized", [False, True], ids=["unit", "sized"])
    def test_negative_admission_is_refused(self, backend, policy, sized):
        if policy is NegativeBlockPolicy:
            assert supports_round_batching(policy())
        rates = np.array([2.0, 3.0, 1.0])
        sim = Simulation(
            rates=rates,
            policy=policy(),
            arrivals=PoissonArrivals(np.full(2, 0.4 * rates.sum() / 2)),
            service=GeometricService(rates),
            config=SimulationConfig(rounds=600, seed=3, backend=backend),
            sizes=GeometricSize(2.0) if sized else None,
        )
        with pytest.raises(ValueError, match=r"admitted -\d+ jobs to server 0 in round \d+"):
            sim.run()


GOLDEN_POLICIES = (
    "jsq",
    "sed",
    "lsq",
    "hlsq",
    "led",
    "hled",
    "jiq",
    "hjiq",
    "jsq(2)",
    "hjsq(2)",
    "wr",
    "random",
    "rr",
    "wrr",
)
#: ``(workload, system, policy) -> fingerprint``, recorded while
#: ``dispatch_round`` returned ``(m, n)`` matrices; equal on every
#: bit-identical backend.
GOLDEN = {
    ("paper", "n12_m3_u1_10", "jsq"): "c1bb08bbb125a67e",
    ("paper", "n12_m3_u1_10", "sed"): "aa815984d2dc440c",
    ("paper", "n12_m3_u1_10", "lsq"): "3c60adcfa124e23e",
    ("paper", "n12_m3_u1_10", "hlsq"): "f08133063c607b29",
    ("paper", "n12_m3_u1_10", "led"): "22c045f1b9bcbf59",
    ("paper", "n12_m3_u1_10", "hled"): "7d68d7b0fb58fef1",
    ("paper", "n12_m3_u1_10", "jiq"): "5ba2077ddbb1078d",
    ("paper", "n12_m3_u1_10", "hjiq"): "69fd813e237b094c",
    ("paper", "n12_m3_u1_10", "jsq(2)"): "6056587b3ecd4c42",
    ("paper", "n12_m3_u1_10", "hjsq(2)"): "9212ed719d9521d1",
    ("paper", "n12_m3_u1_10", "wr"): "0cb965b4e62950e2",
    ("paper", "n12_m3_u1_10", "random"): "b350c2c8a2078687",
    ("paper", "n12_m3_u1_10", "rr"): "fec5e6c359e6b855",
    ("paper", "n12_m3_u1_10", "wrr"): "50e1e77a391c7509",
    ("paper", "n10_m4_u1_100", "jsq"): "cc1b92cee24ee088",
    ("paper", "n10_m4_u1_100", "sed"): "ab4b0b0b7df1bae1",
    ("paper", "n10_m4_u1_100", "lsq"): "cc1b92cee24ee088",
    ("paper", "n10_m4_u1_100", "hlsq"): "701686711747e96c",
    ("paper", "n10_m4_u1_100", "led"): "cc1b92cee24ee088",
    ("paper", "n10_m4_u1_100", "hled"): "eebcc79f4d59bd63",
    ("paper", "n10_m4_u1_100", "jiq"): "686f24b50a4706ab",
    ("paper", "n10_m4_u1_100", "hjiq"): "0775dc18dc446d89",
    ("paper", "n10_m4_u1_100", "jsq(2)"): "bc39df9ef164badd",
    ("paper", "n10_m4_u1_100", "hjsq(2)"): "3a982e1d325960ce",
    ("paper", "n10_m4_u1_100", "wr"): "f5d636c8ba4edf7c",
    ("paper", "n10_m4_u1_100", "random"): "750cd9d2fa21f4fd",
    ("paper", "n10_m4_u1_100", "rr"): "4c9274d942ffd26a",
    ("paper", "n10_m4_u1_100", "wrr"): "26ba525cc4f9125f",
    ("churn", "n12_m3_u1_10", "jsq"): "bffce8474f0e9685",
    ("churn", "n12_m3_u1_10", "sed"): "6a0033c5312401a7",
    ("churn", "n12_m3_u1_10", "lsq"): "df73e0de88ed350a",
    ("churn", "n12_m3_u1_10", "hlsq"): "d6c0c3327e25a599",
    ("churn", "n12_m3_u1_10", "led"): "758c8ccd98907e89",
    ("churn", "n12_m3_u1_10", "hled"): "e3140448efe62289",
    ("churn", "n12_m3_u1_10", "jiq"): "d3cb3d7fd177c559",
    ("churn", "n12_m3_u1_10", "hjiq"): "0cad1e3eee699573",
    ("churn", "n12_m3_u1_10", "jsq(2)"): "b53d92a56c26bf4d",
    ("churn", "n12_m3_u1_10", "hjsq(2)"): "d232336fc1d7be91",
    ("churn", "n12_m3_u1_10", "wr"): "3420d97f966d2b09",
    ("churn", "n12_m3_u1_10", "random"): "3872443ca1de758c",
    ("churn", "n12_m3_u1_10", "rr"): "93039c12b5398ec8",
    ("churn", "n12_m3_u1_10", "wrr"): "5825b52e1a7b014c",
    ("churn", "n10_m4_u1_100", "jsq"): "5c9e8112daeedd09",
    ("churn", "n10_m4_u1_100", "sed"): "bd40299ddd580618",
    ("churn", "n10_m4_u1_100", "lsq"): "7ee0dd49e9f67c9c",
    ("churn", "n10_m4_u1_100", "hlsq"): "0bced27d2195218e",
    ("churn", "n10_m4_u1_100", "led"): "1327409352446992",
    ("churn", "n10_m4_u1_100", "hled"): "74d960dd0d35fdce",
    ("churn", "n10_m4_u1_100", "jiq"): "bf488f3c57a248dd",
    ("churn", "n10_m4_u1_100", "hjiq"): "822073c56048054b",
    ("churn", "n10_m4_u1_100", "jsq(2)"): "ad09de66ef68cfa5",
    ("churn", "n10_m4_u1_100", "hjsq(2)"): "4117791f71176355",
    ("churn", "n10_m4_u1_100", "wr"): "8dda2f073980c36f",
    ("churn", "n10_m4_u1_100", "random"): "5170a482af87fde4",
    ("churn", "n10_m4_u1_100", "rr"): "1a10e2fe6bd53548",
    ("churn", "n10_m4_u1_100", "wrr"): "e0cb615c47e2aa2b",
    ("sized", "n12_m3_u1_10", "jsq"): "153a371a85dfadfe",
    ("sized", "n12_m3_u1_10", "sed"): "854e91a51cfc2cde",
    ("sized", "n12_m3_u1_10", "lsq"): "63f3e646d0bcceb8",
    ("sized", "n12_m3_u1_10", "hlsq"): "fb758e02491fb1e6",
    ("sized", "n12_m3_u1_10", "led"): "41246c13e3d25969",
    ("sized", "n12_m3_u1_10", "hled"): "19a40b8db4914b1e",
    ("sized", "n12_m3_u1_10", "jiq"): "7a90c909cb2a03e4",
    ("sized", "n12_m3_u1_10", "hjiq"): "fcc7598aa93df269",
    ("sized", "n12_m3_u1_10", "jsq(2)"): "1c98b6095920fbd5",
    ("sized", "n12_m3_u1_10", "hjsq(2)"): "6a01bf1d2f0f806a",
    ("sized", "n12_m3_u1_10", "wr"): "bcf71208f4be69b0",
    ("sized", "n12_m3_u1_10", "random"): "49f855773106daf8",
    ("sized", "n12_m3_u1_10", "rr"): "d247f22630a3a859",
    ("sized", "n12_m3_u1_10", "wrr"): "ca692013d90d3ac6",
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
            base_seed=22,
            backend=backend,
        )
        sized = Experiment(
            GOLDEN_POLICIES,
            SystemSpec(12, 3),
            0.8,
            workloads=WorkloadSpec.sized(GeometricSize(3.0)),
            rounds=300,
            base_seed=22,
            backend=backend,
        )
        got = {
            (r.workload, r.system, r.policy): fingerprint(r)
            for experiment in (unit, sized)
            for r in experiment.run().records
        }
        assert got == GOLDEN


#: ``(workload, policy) -> trajectory fingerprint`` on 12x3 u1_10, recorded
#: while the queue-oblivious block path still stepped the queue recurrence
#: one round at a time; equal on every bit-identical backend.  300 rounds
#: leave the second block partial, and the warmup is non-zero.
TRAJECTORY_GOLDEN = {
    ("paper", "jsq"): "73a6d8c093fc45b8",
    ("paper", "rr"): "d59a90df2291c052",
    ("paper", "scd"): "2e227ce8c611a3f0",
    ("paper", "wrr"): "43bc5131a5d10380",
    ("sized", "jsq"): "d818f763cbdd4328",
    ("sized", "rr"): "234ce0faa5676bbb",
    ("sized", "scd"): "3380b579f64ade0b",
    ("sized", "wrr"): "2d1a97145e49215f",
}


def trajectory_fingerprint(record) -> str:
    """Hash of a record's metrics -- probe summaries included -- and its
    per-round queue series: everything derived from the queue trajectory."""
    digest = hashlib.sha256(json.dumps(sorted(record.metrics.items())).encode())
    values = record.result.queue_series.values
    digest.update(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


class TestGoldenTrajectories:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_trajectory_outputs_unchanged(self, backend):
        experiment = Experiment(
            ("rr", "wrr", "jsq", "scd"),
            SystemSpec(12, 3),
            0.9,
            workloads=(WorkloadSpec(), WorkloadSpec.sized(GeometricSize(3.0))),
            rounds=300,
            warmup=40,
            base_seed=23,
            backend=backend,
            metrics=("server_stats", ProbeSpec.of("windowed_stability", window=64)),
        )
        got = {
            (r.workload, r.policy): trajectory_fingerprint(r)
            for r in experiment.run().records
        }
        assert got == TRAJECTORY_GOLDEN
