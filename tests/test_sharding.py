"""Tests for the sharded simulation subsystem (ISSUE 5 acceptance).

The contract under test:

* ``"sharded"`` is registered in the engine-backend registry, runs unit
  and sized jobs, and parameterizes through the name (``sharded:4``,
  ``sharded:4:process``);
* ``sharded:{1,2,4}`` is **bit-identical** to ``"fast"`` for
  deterministic, fallback and native policies, stochastic ones included,
  with unit and sized jobs -- including warmup, non-default probe
  sets, and probe summaries (``server_stats`` via the new partition
  merge);
* the ``process`` strategy reproduces the ``serial`` strategy exactly
  (workers hold no RNG -- scheduling cannot perturb results);
* ``Probe.merge_partition`` concatenates per-server state across shards
  and falls back to ``merge`` everywhere that is already correct;
* the backend name travels end-to-end: ``SimulationConfig`` ->
  ``simulate_cell`` -> ``Experiment`` ->
  persistence JSON round-trip -> CLI ``--backend sharded:N``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.base import make_policy
from repro.sim import probes as probes_module
from repro.sim.arrivals import PoissonArrivals
from repro.sim.backends import available_backends, make_backend
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.probes import (
    Probe,
    ProbeContext,
    QueueSeriesProbe,
    ResponseTimeProbe,
    ServerStatsProbe,
    register_probe,
)
from repro.sim.service import GeometricService
from repro.sim.sharding import (
    MultiprocessShardStrategy,
    SerialShardStrategy,
    ShardedBackend,
    ShardPlan,
    split_probe_specs,
)
from repro.sim.sized import GeometricSize

#: Each parity family must stay bit-identical to "fast" under sharding.
DETERMINISTIC_POLICIES = ["jsq", "sed", "rr", "wrr"]
FALLBACK_POLICIES = ["scd-alg1"]
#: Native batch paths, stochastic ones included: the pooled-draw
#: policies (one broadcast ``multinomial`` or one pooled ``integers``
#: draw a round) consume the stream exactly like the per-dispatcher calls.
NATIVE_BIT_IDENTICAL_POLICIES = [
    "scd", "twf", "scd-sized", "lsq", "hlsq", "led", "jiq",
    "wr", "random", "jsq(2)", "hjsq(2)",
]

SHARD_COUNTS = [1, 2, 4]
ALL_EXTRA_PROBES = ("server_stats", "server_response_stats",
                    "dispatcher_stats", "windowed_mean", "herding")


def run_once(policy, backend, seed=0, n=9, m=3, rho=0.85, rounds=400, warmup=0,
             probes=(), track_queue_series=True):
    rng = np.random.default_rng(123)
    rates = rng.uniform(1.0, 8.0, size=n)
    lambdas = np.full(m, rho * rates.sum() / m)
    return Simulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(lambdas),
        service=GeometricService(rates),
        config=SimulationConfig(
            rounds=rounds,
            seed=seed,
            warmup=warmup,
            backend=backend,
            probes=probes,
            track_queue_series=track_queue_series,
        ),
    ).run()


def run_sized_once(policy, backend, seed=0, n=9, m=3, rho=0.85, rounds=400,
                   warmup=0, probes=(), mean_size=2.5):
    rng = np.random.default_rng(123)
    rates = rng.uniform(2.0, 10.0, size=n)
    sizes = GeometricSize(mean_size)
    jobs_per_round = rho * rates.sum() / sizes.mean
    return Simulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(np.full(m, jobs_per_round / m)),
        service=GeometricService(rates),
        config=SimulationConfig(
            rounds=rounds, seed=seed, warmup=warmup, backend=backend,
            probes=probes,
        ),
        sizes=sizes,
    ).run()


def assert_identical(a, b):
    """Both SimulationResults describe the exact same run, probes included."""
    assert a.total_arrived == b.total_arrived
    assert a.total_departed == b.total_departed
    assert a.final_queued == b.final_queued
    np.testing.assert_array_equal(a.final_queues, b.final_queues)
    np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)
    np.testing.assert_array_equal(a.server_received, b.server_received)
    np.testing.assert_array_equal(a.server_departed, b.server_departed)
    if a.queue_series is None or b.queue_series is None:
        assert a.queue_series is None and b.queue_series is None
    else:
        np.testing.assert_array_equal(a.queue_series.values, b.queue_series.values)
    assert_same_probe_summaries(a, b)


def assert_sized_identical(a, b):
    """Both sized results describe the exact same run, job count included."""
    assert a.total_jobs == b.total_jobs
    assert_identical(a, b)


def assert_same_probe_summaries(a, b):
    summaries_a, summaries_b = a.probe_summaries(), b.probe_summaries()
    assert list(summaries_a) == list(summaries_b)  # labels, in order
    for label, summary in summaries_a.items():
        other = summaries_b[label]
        assert list(summary) == list(other)
        for key, value in summary.items():
            if label == "herding" and key == "mean_imbalance":
                # The only non-integer-derived statistic: shards
                # accumulate the rate-weighted sums in a different
                # float addition order than the unsharded kernels.
                assert value == pytest.approx(other[key], rel=1e-9), (
                    label, key, value, other[key])
                continue
            assert value == other[key] or (
                np.isnan(value) and np.isnan(other[key])
            ), (label, key, value, other[key])


class TestShardPlan:
    def test_balanced_partitions_cover_servers(self):
        plan = ShardPlan.balanced(10, 4)
        assert plan.num_shards == 4
        assert plan.num_servers == 10
        assert plan.bounds == (0, 3, 6, 8, 10)
        assert plan.ranges() == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_shard_count_clamped_to_servers(self):
        plan = ShardPlan.balanced(3, 8)
        assert plan.num_shards == 3
        assert plan.bounds == (0, 1, 2, 3)

    def test_single_shard(self):
        assert ShardPlan.balanced(5, 1).bounds == (0, 5)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(bounds=(0,))
        with pytest.raises(ValueError):
            ShardPlan(bounds=(1, 4))
        with pytest.raises(ValueError):
            ShardPlan(bounds=(0, 3, 3))
        with pytest.raises(ValueError):
            ShardPlan.balanced(4, 0)


class TestRegistry:
    def test_registered_in_both_registries(self):
        """One registry now serves unit and sized jobs alike."""
        from repro.sim.backends import backend_capabilities

        assert "sharded" in available_backends()
        assert backend_capabilities("sharded:2").supports_sized

    def test_parameterized_names_resolve(self):
        backend = make_backend("sharded:4")
        assert isinstance(backend, ShardedBackend)
        assert backend.shards == 4 and backend.strategy == "serial"
        process = make_backend("SHARDED:2:process")
        assert isinstance(process, ShardedBackend)
        assert process.shards == 2 and process.strategy == "process"
        bare = make_backend("sharded")
        assert bare.shards == 2 and bare.strategy == "serial"

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="invalid shard count"):
            make_backend("sharded:lots")
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            make_backend("sharded:0")
        with pytest.raises(ValueError, match="unknown shard strategy"):
            make_backend("sharded:2:quantum")
        with pytest.raises(ValueError, match="too many shard parameters"):
            make_backend("sharded:2:serial:process:compiled")
        with pytest.raises(ValueError, match="takes no ':' parameters"):
            make_backend("fast:3")
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_backend("warp:3")

    def test_removed_socket_strategy_rejected(self):
        """The TCP shard transport is gone; naming it lists what is left."""
        strategy = "socket"
        with pytest.raises(
            ValueError, match="known strategies: process, serial$"
        ):
            make_backend(f"sharded:4:{strategy}")

    def test_compiled_resolver_parses(self):
        """A trailing ``compiled`` token selects the resolver; any other
        token in that position is still validated as a strategy."""
        backend = make_backend("sharded:4:compiled")
        assert backend.shards == 4
        assert backend.strategy == "serial"
        assert backend.resolver == "compiled"
        both = make_backend("sharded:2:process:compiled")
        assert both.strategy == "process" and both.resolver == "compiled"
        assert make_backend("sharded:2").resolver == "numpy"
        with pytest.raises(ValueError, match="unknown shard strategy"):
            make_backend("sharded:2:compiled:compiled")

    def test_strategies_exposed(self):
        assert SerialShardStrategy.name == "serial"
        assert MultiprocessShardStrategy.name == "process"


class TestBitIdentityUnsized:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("policy", DETERMINISTIC_POLICIES)
    def test_deterministic_policies_identical(self, policy, shards):
        a = run_once(policy, "fast", seed=5)
        b = run_once(policy, f"sharded:{shards}", seed=5)
        assert_identical(a, b)

    @pytest.mark.parametrize(
        "policy", FALLBACK_POLICIES + NATIVE_BIT_IDENTICAL_POLICIES
    )
    def test_fallback_and_lsq_policies_identical(self, policy):
        a = run_once(policy, "fast", seed=11)
        b = run_once(policy, "sharded:3", seed=11)
        assert_identical(a, b)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_warmup_and_all_probes_identical(self, shards):
        """Warmup mid-block plus every built-in probe: summaries must
        match exactly whichever side of the shard split a probe runs on."""
        a = run_once("sed", "fast", seed=2, rounds=600, warmup=300,
                     probes=ALL_EXTRA_PROBES)
        b = run_once("sed", f"sharded:{shards}", seed=2, rounds=600,
                     warmup=300, probes=ALL_EXTRA_PROBES)
        assert_identical(a, b)

    def test_non_chunk_aligned_rounds(self):
        a = run_once("jsq", "fast", seed=3, rounds=259)
        b = run_once("jsq", "sharded:2", seed=3, rounds=259)
        assert_identical(a, b)

    def test_without_queue_series(self):
        a = run_once("jsq", "fast", seed=3, track_queue_series=False)
        b = run_once("jsq", "sharded:2", seed=3, track_queue_series=False)
        assert_identical(a, b)

    def test_more_shards_than_servers(self):
        a = run_once("jsq", "fast", seed=4, n=3)
        b = run_once("jsq", "sharded:16", seed=4, n=3)
        assert_identical(a, b)


class TestBitIdentitySized:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("policy", DETERMINISTIC_POLICIES)
    def test_deterministic_policies_identical(self, policy, shards):
        a = run_sized_once(policy, "fast", seed=5)
        b = run_sized_once(policy, f"sharded:{shards}", seed=5)
        assert_sized_identical(a, b)

    @pytest.mark.parametrize(
        "policy", FALLBACK_POLICIES + NATIVE_BIT_IDENTICAL_POLICIES
    )
    def test_fallback_and_lsq_policies_identical(self, policy):
        a = run_sized_once(policy, "fast", seed=11, rounds=300)
        b = run_sized_once(policy, "sharded:3", seed=11, rounds=300)
        assert_sized_identical(a, b)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_warmup_and_all_probes_identical(self, shards):
        a = run_sized_once("sed", "fast", seed=2, rounds=600, warmup=300,
                           probes=ALL_EXTRA_PROBES)
        b = run_sized_once("sed", f"sharded:{shards}", seed=2, rounds=600,
                           warmup=300, probes=ALL_EXTRA_PROBES)
        assert_sized_identical(a, b)

    def test_multi_block_carry(self):
        """Overload pushes jobs (and partially served heads) across
        block boundaries inside every shard store."""
        a = run_sized_once("jsq", "fast", seed=17, rounds=600, rho=1.02)
        b = run_sized_once("jsq", "sharded:4", seed=17, rounds=600, rho=1.02)
        assert_sized_identical(a, b)


class TestProcessStrategy:
    def test_unsized_process_equals_serial(self):
        a = run_once("jsq", "sharded:2", seed=5, rounds=300,
                     probes=ALL_EXTRA_PROBES, warmup=50)
        b = run_once("jsq", "sharded:2:process", seed=5, rounds=300,
                     probes=ALL_EXTRA_PROBES, warmup=50)
        assert_identical(a, b)

    def test_sized_process_equals_serial(self):
        a = run_sized_once("sed", "sharded:2", seed=5, rounds=300)
        b = run_sized_once("sed", "sharded:2:process", seed=5, rounds=300)
        assert_sized_identical(a, b)

    def test_async_feeder_pipelines_many_blocks(self):
        """Enough blocks to wrap the feeder queue several times; results
        must still be the serial strategy's exactly."""
        a = run_once("rr", "sharded:2", seed=8, rounds=5 * 256 + 19)
        b = run_once("rr", "sharded:2:process", seed=8, rounds=5 * 256 + 19)
        assert_identical(a, b)


class TestCompiledResolver:
    """``sharded:N[:strategy]:compiled`` -- shard-side compiled stores
    (numpy fallback without numba) plus the compiled coordinator round
    loop where the policy has one."""

    @pytest.mark.parametrize(
        "policy",
        DETERMINISTIC_POLICIES + FALLBACK_POLICIES + NATIVE_BIT_IDENTICAL_POLICIES,
    )
    def test_fallback_matches_fast(self, policy):
        """Without numba the compiled resolver degrades to the numpy
        stores per worker; results must be untouched."""
        a = run_once(policy, "fast", seed=5)
        b = run_once(policy, "sharded:2:compiled", seed=5)
        assert_identical(a, b)

    @pytest.mark.parametrize("policy", DETERMINISTIC_POLICIES)
    def test_forced_compiled_stores_match_fast(self, policy, monkeypatch):
        """The compiled control flow itself (forced on, serial strategy)
        is bit-identical -- round kernel included for rr/wrr."""
        from repro.sim import compiled

        monkeypatch.setattr(compiled, "_FORCE_STORES", True)
        a = run_once(policy, "fast", seed=5, rounds=600, warmup=100,
                     probes=ALL_EXTRA_PROBES)
        b = run_once(policy, "sharded:3:compiled", seed=5, rounds=600,
                     warmup=100, probes=ALL_EXTRA_PROBES)
        assert_identical(a, b)

    def test_forced_sized_compiled_stores_match_fast(self, monkeypatch):
        from repro.sim import compiled

        monkeypatch.setattr(compiled, "_FORCE_STORES", True)
        a = run_sized_once("jsq", "fast", seed=17, rounds=600, rho=1.02)
        b = run_sized_once("jsq", "sharded:3:compiled", seed=17, rounds=600,
                           rho=1.02)
        assert_sized_identical(a, b)

    def test_process_strategy_composes(self):
        a = run_once("rr", "sharded:2", seed=5, rounds=300)
        b = run_once("rr", "sharded:2:process:compiled", seed=5, rounds=300)
        assert_identical(a, b)


class TestShardingPropertyBased:
    @given(
        policy=st.sampled_from(DETERMINISTIC_POLICIES),
        shards=st.integers(1, 5),
        seed=st.integers(0, 2**20),
        n=st.integers(2, 7),
        m=st.integers(1, 4),
        rho=st.floats(0.3, 1.05),
        rounds=st.integers(1, 120),
        warmup_fraction=st.floats(0.0, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_sharded_agrees_with_fast(
        self, policy, shards, seed, n, m, rho, rounds, warmup_fraction
    ):
        """Hypothesis sweep over shard counts, systems, loads (slightly
        inadmissible included), horizons and warmup cuts: the sharded
        kernel must reproduce the fast kernel exactly and conserve jobs."""
        rng = np.random.default_rng(seed % 1000)
        rates = rng.uniform(0.5, 6.0, size=n)
        lambdas = np.full(m, rho * rates.sum() / m)
        warmup = int(rounds * warmup_fraction)
        results = []
        for backend in ("fast", f"sharded:{shards}"):
            result = Simulation(
                rates=rates,
                policy=make_policy(policy),
                arrivals=PoissonArrivals(lambdas),
                service=GeometricService(rates),
                config=SimulationConfig(
                    rounds=rounds, seed=seed, warmup=warmup, backend=backend,
                    probes=("server_stats",),
                ),
            ).run()
            assert result.total_arrived == result.total_departed + result.final_queued
            results.append(result)
        assert_identical(*results)

    @given(
        policy=st.sampled_from(DETERMINISTIC_POLICIES),
        shards=st.integers(1, 5),
        seed=st.integers(0, 2**20),
        n=st.integers(2, 7),
        m=st.integers(1, 4),
        rho=st.floats(0.3, 1.05),
        rounds=st.integers(1, 120),
        mean_size=st.floats(1.2, 6.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_sized_sharded_agrees_with_fast(
        self, policy, shards, seed, n, m, rho, rounds, mean_size
    ):
        rng = np.random.default_rng(seed % 1000)
        rates = rng.uniform(1.0, 8.0, size=n)
        sizes = GeometricSize(mean_size)
        jobs_per_round = rho * rates.sum() / sizes.mean
        results = []
        for backend in ("fast", f"sharded:{shards}"):
            result = Simulation(
                rates=rates,
                policy=make_policy(policy),
                arrivals=PoissonArrivals(np.full(m, jobs_per_round / m)),
                service=GeometricService(rates),
                config=SimulationConfig(rounds=rounds, seed=seed, backend=backend),
                sizes=sizes,
            ).run()
            assert result.total_arrived == result.total_departed + result.final_queued
            results.append(result)
        assert_sized_identical(*results)


class TestMergePartition:
    def _bound_server_stats(self, rates, blocks):
        probe = ServerStatsProbe()
        probe.bind(
            ProbeContext(
                num_servers=len(rates),
                num_dispatchers=2,
                rates=np.asarray(rates, dtype=np.float64),
                rounds=sum(b.length for b in blocks),
                warmup=0,
            )
        )
        for block in blocks:
            probe.observe_block(block)
        return probe

    def _block(self, received, done, queues, start=0):
        from repro.sim.probes import ProbeBlock

        received = np.asarray(received, dtype=np.int64)
        return ProbeBlock(
            start_round=start,
            length=received.shape[0],
            received=received,
            done=np.asarray(done, dtype=np.int64),
            queues=np.asarray(queues, dtype=np.int64),
        )

    def test_server_stats_partition_merge_concatenates(self):
        rng = np.random.default_rng(0)
        received = rng.integers(0, 5, size=(6, 4))
        done = rng.integers(0, 4, size=(6, 4))
        queues = rng.integers(0, 9, size=(6, 4))
        rates = [1.0, 2.0, 3.0, 4.0]
        whole = self._bound_server_stats(
            rates, [self._block(received, done, queues)]
        )
        left = self._bound_server_stats(
            rates[:2], [self._block(received[:, :2], done[:, :2], queues[:, :2])]
        )
        right = self._bound_server_stats(
            rates[2:], [self._block(received[:, 2:], done[:, 2:], queues[:, 2:])]
        )
        left.merge_partition(right)
        np.testing.assert_array_equal(left.utilization(), whole.utilization())
        np.testing.assert_array_equal(left.idle_fraction(), whole.idle_fraction())
        np.testing.assert_array_equal(
            left.mean_queue_lengths(), whole.mean_queue_lengths()
        )
        np.testing.assert_array_equal(
            left.queue_length_distribution(), whole.queue_length_distribution()
        )
        assert left.summary() == whole.summary()

    def test_server_stats_partition_merge_rejects_round_mismatch(self):
        rng = np.random.default_rng(1)
        make = lambda rounds: self._bound_server_stats(
            [1.0, 2.0],
            [
                self._block(
                    rng.integers(0, 3, size=(rounds, 2)),
                    rng.integers(0, 3, size=(rounds, 2)),
                    rng.integers(0, 3, size=(rounds, 2)),
                )
            ],
        )
        with pytest.raises(ValueError, match="same rounds"):
            make(4).merge_partition(make(5))

    def test_replication_merge_still_adds(self):
        """merge (replication pooling) and merge_partition (shard
        concatenation) stay distinct operations on server_stats."""
        rng = np.random.default_rng(2)
        blocks = [
            self._block(
                rng.integers(0, 3, size=(5, 3)),
                rng.integers(0, 3, size=(5, 3)),
                rng.integers(0, 3, size=(5, 3)),
            )
            for _ in range(2)
        ]
        rates = [1.0, 2.0, 3.0]
        a = self._bound_server_stats(rates, blocks[:1])
        b = self._bound_server_stats(rates, blocks[1:])
        a.merge(b)
        assert a.summary()["rounds"] == 10.0
        c = self._bound_server_stats(rates, blocks[:1])
        with pytest.raises(ValueError, match="matching server counts"):
            c.merge(self._bound_server_stats(rates[:2], []))

    def test_default_merge_partition_falls_back_to_merge(self):
        a, b = ResponseTimeProbe(), ResponseTimeProbe()
        a.histogram.record(3, 2)
        b.histogram.record(5, 1)
        a.merge_partition(b)
        assert a.histogram.total == 3
        assert a.histogram.max_response_time == 5

    def test_partitionable_flags(self):
        from repro.sim.probes import (
            DispatcherStatsProbe,
            HerdingSignalProbe,
            WindowedMeanProbe,
        )

        from repro.sim.probes import ServerResponseStatsProbe

        assert ResponseTimeProbe.partitionable
        assert QueueSeriesProbe.partitionable
        assert ServerStatsProbe.partitionable
        assert ServerResponseStatsProbe.partitionable
        assert WindowedMeanProbe.partitionable
        assert HerdingSignalProbe.partitionable
        assert not DispatcherStatsProbe.partitionable
        assert not Probe.partitionable  # custom probes default to global feed


class TestProbeRouting:
    def test_split_routes_by_partitionable(self):
        shard, coordinator = split_probe_specs(
            ("server_stats", "herding", "windowed_mean", "dispatcher_stats")
        )
        assert [s.name for s in shard] == [
            "server_stats", "herding", "windowed_mean"
        ]
        assert [s.name for s in coordinator] == ["dispatcher_stats"]

    def test_custom_global_probe_matches_fast(self):
        """A naive custom probe (all fields, not partitionable) runs in
        the coordinator and sees exactly the fast kernel's block feed."""

        @register_probe("test_shard_totals")
        class TotalsProbe(Probe):
            description = "test: sums every block field"

            def __init__(self):
                super().__init__()
                self.totals = {"batch": 0, "received": 0, "done": 0, "queues": 0}

            def observe_block(self, block):
                for key in self.totals:
                    array = getattr(block, key)
                    if array is not None:
                        self.totals[key] += int(array.sum())

            def summary(self):
                return {k: float(v) for k, v in self.totals.items()}

            def merge(self, other):
                self._check_merge(other)
                for key in self.totals:
                    self.totals[key] += other.totals[key]

            def get_state(self):
                return dict(self.totals)

            def set_state(self, state):
                self.totals.update(state)

        try:
            a = run_once("jsq", "fast", seed=6, probes=("test_shard_totals",))
            b = run_once("jsq", "sharded:3", seed=6, probes=("test_shard_totals",))
            assert (
                a.probes["test_shard_totals"].totals
                == b.probes["test_shard_totals"].totals
            )
            assert a.probes["test_shard_totals"].totals["received"] == a.total_arrived
        finally:
            probes_module._REGISTRY._factories.pop("test_shard_totals", None)

    def test_response_probe_must_be_partitionable(self):
        @register_probe("test_shard_responses")
        class WantsResponses(Probe):
            description = "test: non-partitionable response listener"
            fields = frozenset()
            wants_responses = True

            def summary(self):
                return {}

            def merge(self, other):
                pass

            def get_state(self):
                return {}

            def set_state(self, state):
                pass

        try:
            with pytest.raises(ValueError, match="wants response events"):
                run_once("jsq", "sharded:2", probes=("test_shard_responses",),
                         rounds=10)
        finally:
            probes_module._REGISTRY._factories.pop("test_shard_responses", None)

    def test_partitionable_probe_must_not_read_batch(self):
        @register_probe("test_shard_batchreader")
        class BatchReader(Probe):
            description = "test: partitionable batch reader"
            fields = frozenset({"batch"})
            partitionable = True

            def summary(self):
                return {}

            def merge(self, other):
                pass

            def get_state(self):
                return {}

            def set_state(self, state):
                pass

        try:
            with pytest.raises(ValueError, match="no server axis"):
                run_once("jsq", "sharded:2", probes=("test_shard_batchreader",),
                         rounds=10)
        finally:
            probes_module._REGISTRY._factories.pop("test_shard_batchreader", None)


class TestEndToEnd:
    def test_experiment_grid_matches_fast(self):
        from repro.experiments import Experiment
        from repro.workloads.scenarios import SystemSpec

        base = dict(
            policies=["jsq", "sed"],
            systems=SystemSpec(10, 3),
            loads=[0.8],
            rounds=200,
            metrics=("server_stats",),
        )
        fast = Experiment(**base, backend="fast").run()
        sharded = Experiment(**base, backend="sharded:2").run()
        assert [r.metrics for r in fast.records] == [
            r.metrics for r in sharded.records
        ]

    def test_sized_experiment_grid_matches_fast(self):
        from repro.experiments import Experiment, WorkloadSpec
        from repro.workloads.scenarios import SystemSpec

        base = dict(
            policies=["jsq"],
            systems=SystemSpec(8, 2),
            loads=[0.7],
            rounds=150,
            warmup=40,
            workloads=(WorkloadSpec.sized(GeometricSize(2.0)),),
        )
        fast = Experiment(**base, backend="fast").run()
        sharded = Experiment(**base, backend="sharded:2").run()
        assert [r.metrics for r in fast.records] == [
            r.metrics for r in sharded.records
        ]

    def test_experiment_validates_shard_parameters(self):
        from repro.experiments import Experiment
        from repro.workloads.scenarios import SystemSpec

        with pytest.raises(ValueError, match="invalid shard count"):
            Experiment(
                policies=["jsq"],
                systems=SystemSpec(4, 1),
                loads=[0.5],
                rounds=50,
                backend="sharded:many",
            )

    def test_result_persistence_round_trip(self, tmp_path):
        from repro.analysis.persistence import load_result, save_result

        result = run_once("jsq", "sharded:2", seed=3, rounds=120,
                          probes=("server_stats",))
        path = save_result(result, tmp_path / "sharded.json")
        loaded = load_result(path)
        assert loaded.config.backend == "sharded:2"
        np.testing.assert_array_equal(
            loaded.histogram.counts, result.histogram.counts
        )
        assert (
            loaded.probes["server_stats"].summary()
            == result.probes["server_stats"].summary()
        )

    def test_experiment_persistence_round_trip(self, tmp_path):
        from repro.analysis.persistence import load_experiment, save_experiment
        from repro.experiments import Experiment
        from repro.workloads.scenarios import SystemSpec

        result = Experiment(
            policies=["jsq"],
            systems=SystemSpec(6, 2),
            loads=[0.7],
            rounds=80,
            backend="sharded:2",
        ).run()
        path = save_experiment(result, tmp_path / "grid.json")
        loaded = load_experiment(path)
        assert loaded.experiment.backend == "sharded:2"
        assert list(loaded.records) == list(result.records)


class TestCLI:
    def test_backends_lists_sharded_in_both_registries(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert out.count("sharded") >= 2

    def test_experiment_with_sharded_backend(self, capsys):
        from repro.cli import main

        code = main([
            "experiment", "--policies", "jsq", "--systems", "10x2",
            "--loads", "0.7", "--rounds", "100", "--backend", "sharded:2",
        ])
        assert code == 0
        assert "backend: sharded:2" in capsys.readouterr().out

    def test_simulate_with_sharded_backend(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "result.json"
        code = main([
            "simulate", "--policy", "jsq", "--servers", "10",
            "--dispatchers", "2", "--rho", "0.7", "--rounds", "100",
            "--backend", "sharded:2", "--save", str(path),
        ])
        assert code == 0
        assert json.loads(path.read_text())["config"]["backend"] == "sharded:2"

    def test_simulate_rejects_bad_shard_spec(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="invalid backend"):
            main([
                "simulate", "--policy", "jsq", "--rho", "0.7",
                "--rounds", "50", "--backend", "sharded:many",
            ])
