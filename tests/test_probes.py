"""Tests for the pluggable metrics & probe API (ISSUE 4).

The contract under test:

* the probe registry mirrors the policy/backend registries (names,
  errors, listings), and ``ProbeSpec`` freezes name+kwargs like
  ``PolicySpec``;
* the default probe set is bit-compatible: default runs expose the same
  histogram / queue series as always, and record metrics carry exactly
  the legacy keys;
* every built-in probe produces *identical* summaries on the reference
  and fast kernels of both engines for deterministic policies
  (parametrized + a Hypothesis sweep);
* ``state_dict`` / ``from_state`` round-trip;
* probes flow end-to-end: ``SimulationConfig(probes=...)``,
  ``Experiment(metrics=...)`` records with namespaced metric keys, JSON
  persistence (legacy payloads load as the default set), and the sized
  engine's new warmup support.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import Experiment, WorkloadSpec
from repro.policies.base import make_policy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.probes import (
    DEFAULT_PROBE_LABELS,
    Probe,
    ProbeBlock,
    ProbeContext,
    ProbeSpec,
    QueueSeriesProbe,
    ResponseTimeProbe,
    available_probes,
    build_probe_set,
    make_probe,
    probe_descriptions,
    probe_from_state,
    register_probe,
)
from repro.sim.service import GeometricService
from repro.sim.sized import GeometricSize
from repro.workloads.scenarios import SystemSpec

ALL_EXTRAS = (
    "server_stats",
    "server_response_stats",
    "dispatcher_stats",
    "herding",
    ProbeSpec.of("windowed_mean", window=100),
)
BUILTIN_PROBES = (
    "responses",
    "queue_series",
    "server_stats",
    "server_response_stats",
    "dispatcher_stats",
    "windowed_mean",
    "herding",
)
LEGACY_METRIC_KEYS = {
    "mean", "p50", "p95", "p99", "p999", "max", "arrived", "departed", "queued",
}


def _rates(n, seed=123):
    return np.random.default_rng(seed).uniform(1.0, 8.0, size=n)


def run_unsized(policy, backend, *, n=8, m=3, rho=0.85, rounds=400,
                warmup=0, seed=0, probes=ALL_EXTRAS):
    rates = _rates(n)
    lambdas = np.full(m, rho * rates.sum() / m)
    return Simulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(lambdas),
        service=GeometricService(rates),
        config=SimulationConfig(
            rounds=rounds, seed=seed, warmup=warmup, backend=backend,
            probes=probes,
        ),
    ).run()


def run_sized(policy, backend, *, n=8, m=3, rho=0.85, rounds=400,
              warmup=0, seed=0, probes=ALL_EXTRAS, mean_size=3.0):
    rates = _rates(n)
    jobs_per_round = rho * rates.sum() / mean_size
    return Simulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(np.full(m, jobs_per_round / m)),
        service=GeometricService(rates),
        config=SimulationConfig(
            rounds=rounds, seed=seed, backend=backend, warmup=warmup,
            probes=probes,
        ),
        sizes=GeometricSize(mean_size),
    ).run()


def assert_summaries_equal(a, b):
    """Two probe dicts report identical summaries (NaN-aware, exact)."""
    assert a.keys() == b.keys()
    for label in a:
        sa, sb = a[label].summary(), b[label].summary()
        assert sa.keys() == sb.keys(), label
        for key in sa:
            va, vb = sa[key], sb[key]
            if math.isnan(va) or math.isnan(vb):
                assert math.isnan(va) and math.isnan(vb), (label, key)
            else:
                assert va == vb, (label, key, va, vb)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN_PROBES) <= set(available_probes())

    def test_descriptions_cover_all(self):
        descriptions = probe_descriptions()
        assert set(descriptions) == set(available_probes())
        assert all(descriptions.values())

    def test_unknown_probe_error_lists_known(self):
        with pytest.raises(ValueError, match="known probes"):
            make_probe("frobnicator")

    def test_make_probe_passes_instances_through(self):
        probe = make_probe("herding")
        assert make_probe(probe) is probe

    def test_spec_label_and_build(self):
        spec = ProbeSpec.of("windowed_mean", window=50)
        assert spec.label == "windowed_mean[window=50]"
        assert spec.build().window == 50
        assert ProbeSpec.of("herding").label == "herding"

    def test_spec_of_probe_instance_reduces_to_name_and_kwargs(self):
        spec = ProbeSpec.of(make_probe("windowed_mean", window=25))
        assert spec == ProbeSpec.of("windowed_mean", window=25)
        assert spec.label == "windowed_mean[window=25]"

    def test_probe_instance_in_config_round_trips(self, tmp_path):
        """A probe instance in probes= yields clean labels and valid JSON."""
        result = run_unsized(
            "jsq", "fast", rounds=60,
            probes=(make_probe("windowed_mean", window=30),),
        )
        assert "windowed_mean[window=30]" in result.probes
        loaded = repro.load_result(
            repro.save_result(result, tmp_path / "r.json")
        )
        assert loaded.config.probes == result.config.probes

    def test_spec_of_rejects_other_types(self):
        with pytest.raises(TypeError, match="registry name"):
            ProbeSpec.of(42)

    def test_spec_normalizes_case(self):
        assert ProbeSpec.of("HERDING") == ProbeSpec.of("herding")
        # ... so case variants cannot dodge the duplicate / default guards.
        with pytest.raises(ValueError, match="unique"):
            Experiment(
                policies="jsq", systems=SystemSpec(8, 2), loads=0.8,
                metrics=["Herding", "herding"],
            )
        with pytest.raises(ValueError, match="default collector"):
            Experiment(
                policies="jsq", systems=SystemSpec(8, 2), loads=0.8,
                metrics=["RESPONSES"],
            )

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = ProbeSpec.of("windowed_mean", window=50)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, ProbeSpec.of("windowed_mean", window=50)}) == 1

    def test_probe_binds_once(self):
        ctx = ProbeContext(
            num_servers=2, num_dispatchers=1, rates=np.ones(2), rounds=10
        )
        probe = make_probe("server_stats")
        probe.bind(ctx)
        with pytest.raises(RuntimeError, match="already bound"):
            probe.bind(ctx)

    def test_probe_set_rejects_duplicate_labels(self):
        ctx = ProbeContext(
            num_servers=2, num_dispatchers=1, rates=np.ones(2), rounds=10
        )
        with pytest.raises(ValueError, match="duplicate"):
            build_probe_set(ctx, ("herding", "herding"))


class TestDefaultSet:
    def test_default_probes_present(self):
        result = run_unsized("jsq", "reference", rounds=60, probes=())
        assert list(result.probes) == list(DEFAULT_PROBE_LABELS)
        assert result.probes["responses"].histogram is result.histogram
        assert result.probes["queue_series"].series is result.queue_series

    def test_track_queue_series_off_drops_probe(self):
        rates = _rates(4)
        result = Simulation(
            rates=rates,
            policy=make_policy("jsq"),
            arrivals=PoissonArrivals(np.full(2, 0.4 * rates.sum() / 2)),
            service=GeometricService(rates),
            config=SimulationConfig(
                rounds=50, track_queue_series=False, backend="fast"
            ),
        ).run()
        assert list(result.probes) == ["responses"]
        assert result.queue_series is None

    def test_default_metrics_keys_unchanged(self):
        from repro.experiments.results import metrics_from_result

        result = run_unsized("jsq", "fast", rounds=60, probes=())
        assert set(metrics_from_result(result)) == LEGACY_METRIC_KEYS

    def test_extra_probes_add_namespaced_keys_only(self):
        from repro.experiments.results import metrics_from_result

        result = run_unsized("jsq", "fast", rounds=60)
        metrics = metrics_from_result(result)
        extras = {k for k in metrics if "." in k}
        assert set(metrics) - extras == LEGACY_METRIC_KEYS
        assert "herding.max_spike" in extras
        assert "windowed_mean[window=100].drift" in extras


class TestKernelParity:
    """Every built-in probe agrees across reference/fast on both engines."""

    @pytest.mark.parametrize("policy", ["jsq", "sed", "rr", "wrr"])
    def test_unsized_parity(self, policy):
        ref = run_unsized(policy, "reference")
        fast = run_unsized(policy, "fast")
        assert_summaries_equal(ref.probes, fast.probes)

    @pytest.mark.parametrize("policy", ["jsq", "sed", "rr", "wrr"])
    def test_sized_parity(self, policy):
        ref = run_sized(policy, "reference")
        fast = run_sized(policy, "fast")
        assert_summaries_equal(ref.probes, fast.probes)

    @pytest.mark.parametrize("policy", ["scd", "lsq", "jiq"])
    def test_fallback_policies_parity(self, policy):
        ref = run_unsized(policy, "reference", rounds=300)
        fast = run_unsized(policy, "fast", rounds=300)
        assert_summaries_equal(ref.probes, fast.probes)

    def test_unsized_parity_with_warmup(self):
        ref = run_unsized("jsq", "reference", warmup=150)
        fast = run_unsized("jsq", "fast", warmup=150)
        assert_summaries_equal(ref.probes, fast.probes)

    @settings(deadline=None)
    @given(
        policy=st.sampled_from(["jsq", "sed", "rr"]),
        n=st.integers(2, 12),
        m=st.integers(1, 5),
        rho=st.floats(0.3, 1.05),
        rounds=st.integers(1, 300),
        warmup_fraction=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**16),
        sized=st.booleans(),
    )
    def test_parity_property(
        self, policy, n, m, rho, rounds, warmup_fraction, seed, sized
    ):
        warmup = int(warmup_fraction * rounds)
        runner = run_sized if sized else run_unsized
        ref = runner(
            policy, "reference", n=n, m=m, rho=rho, rounds=rounds,
            warmup=warmup, seed=seed,
        )
        fast = runner(
            policy, "fast", n=n, m=m, rho=rho, rounds=rounds,
            warmup=warmup, seed=seed,
        )
        assert_summaries_equal(ref.probes, fast.probes)


class TestStateRoundTrip:
    def _probe_dicts(self):
        unsized = run_unsized("jsq", "fast").probes
        sized = run_sized("jsq", "fast").probes
        return {**{f"u:{k}": v for k, v in unsized.items()},
                **{f"s:{k}": v for k, v in sized.items()}}

    def test_state_dict_round_trips_every_builtin(self):
        for label, probe in self._probe_dicts().items():
            payload = probe.state_dict()
            assert payload["name"] in available_probes(), label
            restored = probe_from_state(payload)
            sa, sb = probe.summary(), restored.summary()
            assert sa.keys() == sb.keys(), label
            for key in sa:
                if math.isnan(sa[key]):
                    assert math.isnan(sb[key]), (label, key)
                else:
                    assert sa[key] == sb[key], (label, key)

    def test_state_dict_is_json_serializable(self):
        import json

        for label, probe in self._probe_dicts().items():
            round_tripped = json.loads(json.dumps(probe.state_dict()))
            restored = probe_from_state(round_tripped)
            assert restored.summary().keys() == probe.summary().keys(), label

    def test_summary_leaves_pickled_state_unchanged(self):
        """``repro run`` summarizes the live probes at every checkpoint,
        so a summary may only read: the probe pickles to the same bytes
        before and after."""
        probes = {
            **self._probe_dicts(),
            "windowed_stability": run_unsized(
                "jsq", "fast", probes=("windowed_stability",)
            ).probes["windowed_stability"],
        }
        assert {probe.name for probe in probes.values()} == set(available_probes())
        for label, probe in probes.items():
            before = pickle.dumps(probe)
            probe.summary()
            assert pickle.dumps(probe) == before, label

    def test_ufunc_at_targets_unpickle_with_numpy_int64(self):
        """Unpickling rebuilds a dtype as an equal but distinct instance
        that misses numpy's ``ufunc.at`` fast path; every array a probe
        ``np.add.at``/``np.maximum.at``-s into comes back on numpy's own
        int64, so resumed runs record responses at full speed."""
        probes = run_unsized(
            "jsq", "fast", probes=ALL_EXTRAS + ("windowed_stability",)
        ).probes
        restored = pickle.loads(pickle.dumps(probes))
        per_server = restored["server_response_stats"]
        targets = {
            "histogram": restored["responses"].histogram._counts,
            "count": per_server._count,
            "time_sum": per_server._time_sum,
            "time_max": per_server._time_max,
        }
        for label in ("windowed_mean[window=100]", "windowed_stability"):
            targets[f"{label} sums"] = restored[label]._sums
            targets[f"{label} counts"] = restored[label]._counts
        for name, array in targets.items():
            assert array.dtype is np.dtype(np.int64), name

    def test_windowed_probes_keep_their_saved_form(self):
        """Saved results and checkpoints hold the windowed probes as these
        pickled attributes and this ``state_dict``; both must load."""
        import json

        probes = run_unsized(
            "jsq", "fast", probes=("windowed_mean", "windowed_stability")
        ).probes
        for label in ("windowed_mean", "windowed_stability"):
            probe = probes[label]
            assert set(vars(probe)) == {"ctx", "window", "_sums", "_counts"}
            state = probe.state_dict()
            assert set(state["state"]) == {"sums", "counts"}, state
            restored = probe_from_state(json.loads(json.dumps(state)))
            assert type(restored) is type(probe)
            np.testing.assert_equal(restored.summary(), probe.summary())


class TestBuiltinSemantics:
    def test_server_stats_matches_result_accounting(self):
        result = run_unsized("jsq", "reference")
        probe = result.probes["server_stats"]
        np.testing.assert_array_equal(probe._done, result.server_departed)
        np.testing.assert_array_equal(probe._received, result.server_received)
        np.testing.assert_allclose(
            probe.utilization(),
            result.utilization(_rates(8)),
        )
        distribution = probe.queue_length_distribution()
        assert distribution.sum() == pytest.approx(1.0)

    def test_server_response_stats_matches_histogram(self):
        result = run_unsized("jsq", "fast", warmup=100)
        probe = result.probes["server_response_stats"]
        assert probe.response_counts().sum() == result.histogram.total
        assert (
            probe.max_response_times().max()
            == result.histogram.max_response_time
        )
        summary = probe.summary()
        assert summary["responses"] == result.histogram.total
        assert summary["mean_response"] == pytest.approx(
            result.mean_response_time
        )
        assert summary["server_mean_min"] <= summary["server_mean_max"]
        # Per-server means reconcile with the pooled mean.
        counts = probe.response_counts()
        means = probe.mean_response_times()
        pooled = np.nansum(means * counts) / counts.sum()
        assert pooled == pytest.approx(result.mean_response_time)

    def test_dispatcher_stats_totals_match_arrivals(self):
        result = run_unsized("rr", "fast")
        probe = result.probes["dispatcher_stats"]
        assert probe.summary()["total_jobs"] == result.total_arrived
        assert probe.totals().sum() == result.total_arrived

    def test_windowed_mean_counts_match_histogram(self):
        result = run_unsized("jsq", "fast", warmup=100)
        probe = result.probes["windowed_mean[window=100]"]
        assert probe.summary()["completed"] == result.histogram.total
        means = probe.means()
        assert means.size == 4  # 400 rounds / window 100
        assert np.isnan(means[0])  # warmup covers the first window

    def test_windowed_mean_overall_matches_histogram_mean(self):
        result = run_unsized("jsq", "fast", probes=("windowed_mean",))
        probe = result.probes["windowed_mean"]
        assert probe.summary()["first_mean"] == pytest.approx(
            result.histogram.mean()
        )

    def test_empty_fields_probe_with_hook_still_gets_blocks(self):
        @register_probe("test_round_total")
        class RoundTotal(Probe):
            description = "counts observed rounds without any fields (test)"
            fields = frozenset()

            def __init__(self):
                super().__init__()
                self.rounds = 0

            def observe_block(self, block):
                assert block.batch is None and block.queues is None
                self.rounds += block.length

            def summary(self):
                return {"rounds": float(self.rounds)}

            def get_state(self):
                return {"rounds": self.rounds}

            def set_state(self, state):
                self.rounds = int(state.get("rounds", 0))

        try:
            result = run_unsized(
                "jsq", "fast", rounds=300, probes=("test_round_total",)
            )
            assert result.probes["test_round_total"].summary() == {"rounds": 300.0}
        finally:
            from repro.sim import probes as probes_module

            probes_module._REGISTRY._factories.pop("test_round_total", None)

    def test_server_stats_queue_histogram_caps_overflow(self):
        probe = make_probe("server_stats")
        probe.bind(
            ProbeContext(
                num_servers=2, num_dispatchers=1,
                rates=np.ones(2), rounds=4,
            )
        )
        cap = probe.QUEUE_HIST_CAP
        queues = np.array([[cap + 500, 1], [cap, 0]], dtype=np.int64)
        probe.observe_block(
            ProbeBlock(
                start_round=0, length=2,
                received=np.zeros((2, 2), dtype=np.int64),
                done=np.zeros((2, 2), dtype=np.int64),
                queues=queues,
            )
        )
        distribution = probe.queue_length_distribution()
        assert distribution.size == cap + 1  # bounded despite huge queues
        assert distribution[cap] == pytest.approx(0.5)  # both overflows pooled
        assert probe.summary()["max_queue"] == cap + 500  # max stays exact

    def test_queue_series_probe_wraps_result_series(self):
        result = run_unsized("jsq", "fast")
        probe = result.probes["queue_series"]
        assert probe.series is result.queue_series
        assert probe.summary()["mean"] == result.queue_series.mean()

    def test_result_probe_summaries_covers_every_probe(self):
        result = run_unsized("jsq", "fast")
        summaries = result.probe_summaries()
        assert summaries.keys() == result.probes.keys()
        assert summaries["responses"]["total"] == result.histogram.total
        assert summaries["herding"]["rounds"] == 400.0

    def test_custom_probe_via_on_round(self):
        @register_probe("test_round_counter")
        class RoundCounter(Probe):
            description = "counts rounds with any arrival (test only)"

            def __init__(self):
                super().__init__()
                self.active_rounds = 0

            def on_round(self, t, batch, received, done, queues):
                if batch.sum() > 0:
                    self.active_rounds += 1

            def summary(self):
                return {"active_rounds": float(self.active_rounds)}

            def get_state(self):
                return {"active_rounds": self.active_rounds}

            def set_state(self, state):
                self.active_rounds = int(state.get("active_rounds", 0))

        try:
            ref = run_unsized("jsq", "reference", probes=("test_round_counter",))
            fast = run_unsized("jsq", "fast", probes=("test_round_counter",))
            counted = ref.probes["test_round_counter"].summary()["active_rounds"]
            assert 0 < counted <= 400
            assert fast.probes["test_round_counter"].summary() == {
                "active_rounds": counted
            }
        finally:
            from repro.sim import probes as probes_module

            probes_module._REGISTRY._factories.pop("test_round_counter", None)


class TestSizedWarmup:
    """Sized runs honor warmup on both backends."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_warmup_discards_early_completions(self, backend):
        full = run_sized("jsq", backend, warmup=0, probes=())
        gated = run_sized("jsq", backend, warmup=200, probes=())
        assert gated.histogram.total < full.histogram.total
        # Queue accounting is unaffected by the warmup gate.
        assert gated.total_arrived == full.total_arrived
        assert gated.total_departed == full.total_departed
        np.testing.assert_array_equal(
            gated.queue_series.values, full.queue_series.values
        )

    def test_warmup_identical_across_backends(self):
        ref = run_sized("jsq", "reference", warmup=137, probes=())
        fast = run_sized("jsq", "fast", warmup=137, probes=())
        np.testing.assert_array_equal(ref.histogram.counts, fast.histogram.counts)
        assert ref.histogram.total == fast.histogram.total

    def test_warmup_validation(self):
        rates = _rates(4)
        with pytest.raises(ValueError, match="warmup"):
            Simulation(
                rates=rates,
                policy=make_policy("jsq"),
                arrivals=PoissonArrivals(np.full(2, 1.0)),
                service=GeometricService(rates),
                config=SimulationConfig(rounds=10, warmup=10),
                sizes=GeometricSize(2.0),
            )

    def test_sized_cell_accepts_warmup(self):
        record = (
            Experiment(
                policies="jsq",
                systems=SystemSpec(8, 2),
                loads=0.8,
                workloads=WorkloadSpec.sized(GeometricSize(2.0)),
                rounds=120,
                warmup=40,
            )
            .run()
            .records[0]
        )
        assert record.metrics["departed"] > 0


class TestExperimentPlumbing:
    def test_grid_records_carry_probe_metrics(self):
        result = Experiment(
            policies=["jsq", "rr"],
            systems=SystemSpec(8, 2),
            loads=0.8,
            rounds=120,
            metrics=["herding", "server_stats"],
            backend="fast",
        ).run()
        for record in result:
            assert "herding.max_spike" in record.metrics
            assert "server_stats.utilization_mean" in record.metrics

    def test_unknown_metric_fails_at_construction(self):
        with pytest.raises(ValueError, match="known probes"):
            Experiment(
                policies="jsq",
                systems=SystemSpec(8, 2),
                loads=0.8,
                metrics=["frobnicator"],
            )

    def test_duplicate_metric_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Experiment(
                policies="jsq",
                systems=SystemSpec(8, 2),
                loads=0.8,
                metrics=["herding", "herding"],
            )

    def test_default_collector_names_rejected_in_metrics(self):
        with pytest.raises(ValueError, match="default collector"):
            Experiment(
                policies="jsq",
                systems=SystemSpec(8, 2),
                loads=0.8,
                metrics=["responses"],
            )

    def test_scalar_metric_axis_normalized(self):
        experiment = Experiment(
            policies="jsq", systems=SystemSpec(8, 2), loads=0.8,
            metrics="herding",
        )
        assert experiment.metrics == (ProbeSpec.of("herding"),)

    def test_serial_and_process_records_identical(self):
        experiment = Experiment(
            policies=["jsq"],
            systems=SystemSpec(6, 2),
            loads=[0.7, 0.9],
            rounds=80,
            metrics=["herding"],
        )
        serial = experiment.run(executor="serial", keep_results=False)
        pooled = experiment.run(executor="process", workers=2, keep_results=False)
        assert serial.records == pooled.records

    def test_single_cell_result_carries_probes(self):
        experiment = repro.Experiment(
            "jsq", SystemSpec(8, 2), 0.8, rounds=100, metrics=("herding",)
        )
        result = experiment.run().only().result
        assert result.probes["herding"].summary()["rounds"] > 0


class TestPersistence:
    def test_result_round_trip_with_probes(self, tmp_path):
        result = run_unsized("jsq", "fast", rounds=120)
        path = repro.save_result(result, tmp_path / "result.json")
        loaded = repro.load_result(path)
        assert loaded.config.probes == result.config.probes
        assert_summaries_equal(result.probes, loaded.probes)
        np.testing.assert_array_equal(
            loaded.histogram.counts, result.histogram.counts
        )

    def test_default_result_payload_has_no_probe_keys(self):
        from repro.experiments.persistence import result_to_dict

        result = run_unsized("jsq", "reference", rounds=60, probes=())
        payload = result_to_dict(result)
        assert "probes" not in payload
        assert "probes" not in payload["config"]

    def test_legacy_payload_loads_as_default_set(self):
        """A pre-probe JSON payload (no probe keys) still loads."""
        import json

        from repro.experiments.persistence import result_from_dict, result_to_dict

        result = run_unsized("jsq", "reference", rounds=60, probes=())
        payload = json.loads(json.dumps(result_to_dict(result)))
        loaded = result_from_dict(payload)
        assert list(loaded.probes) == list(DEFAULT_PROBE_LABELS)
        assert isinstance(loaded.probes["responses"], ResponseTimeProbe)
        assert isinstance(loaded.probes["queue_series"], QueueSeriesProbe)
        assert loaded.probes["responses"].histogram is loaded.histogram

    def test_experiment_round_trip_preserves_metrics(self, tmp_path):
        result = Experiment(
            policies="jsq",
            systems=SystemSpec(8, 2),
            loads=0.8,
            rounds=100,
            metrics=[ProbeSpec.of("windowed_mean", window=25), "herding"],
        ).run(keep_results=False)
        path = result.save(tmp_path / "grid.json")
        loaded = repro.load_experiment(path)
        assert loaded.experiment.metrics == result.experiment.metrics
        assert loaded.records == result.records
        assert "herding.max_spike" in loaded.records[0].metrics

    def test_experiment_descriptor_omits_empty_metrics(self):
        experiment = Experiment(
            policies="jsq", systems=SystemSpec(8, 2), loads=0.8
        )
        assert "metrics" not in experiment.describe()
