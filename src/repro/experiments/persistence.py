"""Saving and loading experiment results as JSON.

Long sweeps are expensive; these helpers serialize
:class:`repro.sim.engine.SimulationResult` (including the full
response-time histogram, losslessly -- it is just integer counts) and
the declarative :class:`repro.experiments.ExperimentResult` so that
figure regeneration (:mod:`repro.experiments.figures`; ROADMAP item 9
plans tables at the paper's horizon) and notebook analysis can reuse
completed runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.sim.engine import SimulationConfig, SimulationResult
from repro.sim.metrics import QueueLengthSeries, ResponseTimeHistogram
from repro.sim.probes import (
    DEFAULT_PROBE_LABELS,
    ProbeSpec,
    QueueSeriesProbe,
    ResponseTimeProbe,
    probe_from_state,
)
from repro.workloads.scenarios import SystemSpec

from .grid import Experiment, PolicySpec
from .results import CellRecord, ExperimentResult
from .workload import UnreconstructedFactory, WorkloadSpec

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "experiment_from_descriptor",
    "experiment_result_to_dict",
    "experiment_result_from_dict",
    "save_experiment",
    "load_experiment",
]

_FORMAT_VERSION = 1
_EXPERIMENT_FORMAT_VERSION = 1


def result_to_dict(result: SimulationResult) -> dict:
    """Lossless dict form of a simulation result (JSON-serializable).

    The default collectors serialize exactly as they always did (the
    ``histogram`` and ``queue_series`` keys), so probe-free results are
    byte-identical to the pre-probe format; extra probes add their
    ``state_dict`` under a ``probes`` key and the config records their
    specs.  Sized runs add ``total_jobs`` (their totals count units).
    """
    config_payload = {
        "rounds": result.config.rounds,
        "warmup": result.config.warmup,
        "seed": result.config.seed,
        "track_queue_series": result.config.track_queue_series,
        "backend": result.config.backend,
    }
    if result.config.probes:
        config_payload["probes"] = [
            {"name": s.name, "kwargs": dict(s.kwargs)} for s in result.config.probes
        ]
    if result.config.scenario is not None:
        # Emitted only when set, so scenario-free files stay byte-identical.
        config_payload["scenario"] = result.config.scenario
    payload = {
        "format_version": _FORMAT_VERSION,
        "policy_name": result.policy_name,
        "config": config_payload,
        "histogram": result.histogram.state_dict(),
        "total_arrived": result.total_arrived,
        "total_departed": result.total_departed,
        "final_queued": result.final_queued,
        "final_queues": result.final_queues.tolist(),
    }
    if result.total_jobs is not None:
        payload["total_jobs"] = result.total_jobs
    if result.queue_series is not None:
        payload["queue_series"] = result.queue_series.values.tolist()
    extras = {
        label: probe.state_dict()
        for label, probe in result.probes.items()
        if label not in DEFAULT_PROBE_LABELS
    }
    if extras:
        payload["probes"] = extras
    return payload


def result_from_dict(payload: dict) -> SimulationResult:
    """Inverse of :func:`result_to_dict`.

    The retired ``sized_result`` format recorded no config and no
    per-server arrays; it is refused with a ``ValueError`` naming it.
    """
    if payload.get("kind") == "sized_result":
        raise ValueError(
            "the 'sized_result' format is retired: sized and unit results "
            "share one result format; rerun to regenerate the file"
        )
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported result format version: {version!r}")
    hist = ResponseTimeHistogram()
    hist.load_state(payload["histogram"])
    series = None
    if "queue_series" in payload:
        series = QueueLengthSeries(rounds_hint=len(payload["queue_series"]))
        series.record_many(np.asarray(payload["queue_series"], dtype=np.int64))
    # Re-home the collectors as the default probe set (legacy files
    # carry no "probes" key and load with exactly these two).
    probes = {"responses": ResponseTimeProbe(histogram=hist)}
    if series is not None:
        probes["queue_series"] = QueueSeriesProbe(series=series)
    for label, state in payload.get("probes", {}).items():
        probes[label] = probe_from_state(state)
    config_payload = dict(payload["config"])
    # Files written before the engine-backend registry carry no key.
    config_payload.setdefault("backend", "reference")
    # ProbeSpec.__post_init__ coerces dict kwargs to the sorted tuple.
    config_payload["probes"] = tuple(
        ProbeSpec(p["name"], p.get("kwargs", {}))
        for p in config_payload.get("probes", ())
    )
    total_jobs = payload.get("total_jobs")
    return SimulationResult(
        policy_name=payload["policy_name"],
        config=SimulationConfig(**config_payload),
        histogram=hist,
        queue_series=series,
        total_arrived=int(payload["total_arrived"]),
        total_departed=int(payload["total_departed"]),
        final_queued=int(payload["final_queued"]),
        final_queues=np.asarray(payload["final_queues"], dtype=np.int64),
        total_jobs=int(total_jobs) if total_jobs is not None else None,
        probes=probes,
    )


def save_result(result: SimulationResult, path: str | Path) -> Path:
    """Write a result to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result)))
    return path


def load_result(path: str | Path) -> SimulationResult:
    """Read a result previously written by :func:`save_result`."""
    return result_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Declarative experiment results (repro.experiments).
# ---------------------------------------------------------------------------


def _workload_from_descriptor(payload: dict) -> WorkloadSpec:
    """Best-effort workload reconstruction from its JSON descriptor.

    Name, skew, scenario, and explicit dispatcher weights round-trip
    exactly.  Custom arrival/service factories and job-size
    distributions only serialize as a repr (so does the
    ``{"factory": ...}`` descriptor of older files); a workload that had
    any gets an :class:`UnreconstructedFactory` placeholder, so the
    loaded result's records stay fully usable but re-*running* the
    loaded experiment raises instead of silently simulating the default
    workload under the old name.
    """
    weights = payload.get("dispatcher_weights")
    lossy = any(
        payload.get(key) is not None for key in ("arrivals", "service", "job_sizes")
    )
    return WorkloadSpec(
        name=payload["name"],
        skew=payload.get("skew"),
        dispatcher_weights=tuple(weights) if weights is not None else None,
        # One loud placeholder is enough: executing any cell of the
        # rebuilt workload must raise, whichever component was lost.
        arrivals=UnreconstructedFactory(payload["name"]) if lossy else None,
        scenario=payload.get("scenario"),
    )


def _record_to_dict(record: CellRecord) -> dict:
    payload = {
        "policy": record.policy,
        "system": record.system,
        "rho": record.rho,
        "replication": record.replication,
        "workload": record.workload,
        "seed": record.seed,
        "metrics": dict(record.metrics),
    }
    if isinstance(record.result, SimulationResult):
        payload["result"] = result_to_dict(record.result)
    return payload


def _record_from_dict(payload: dict) -> CellRecord:
    result = None
    if "result" in payload:
        result = result_from_dict(payload["result"])
    return CellRecord(
        policy=payload["policy"],
        system=payload["system"],
        rho=float(payload["rho"]),
        replication=int(payload["replication"]),
        workload=payload["workload"],
        seed=int(payload["seed"]),
        metrics={k: float(v) for k, v in payload["metrics"].items()},
        result=result,
    )


def experiment_result_to_dict(
    result: ExperimentResult, include_results: bool = True
) -> dict:
    """JSON-serializable form of a declarative experiment result.

    Per-cell metrics always serialize; full simulation payloads
    (histograms, queue series) are included when ``include_results`` and
    the record kept them.
    """
    experiment = result.experiment.describe()
    records = [_record_to_dict(r) for r in result.records]
    if not include_results:
        for record in records:
            record.pop("result", None)
    return {
        "format_version": _EXPERIMENT_FORMAT_VERSION,
        "kind": "experiment_result",
        "experiment": experiment,
        "records": records,
    }


def experiment_from_descriptor(spec: dict) -> Experiment:
    """Rebuild a declarative :class:`Experiment` from its JSON descriptor.

    The inverse of :meth:`Experiment.describe`, shared by result loading
    and the service job API (``POST /jobs`` bodies are exactly these
    descriptors).  Workload names, skew, dispatcher weights and
    scenarios (``bursty`` is one) round-trip exactly; workloads that
    carried custom factories or job-size distributions come back with
    :class:`UnreconstructedFactory` placeholders, so the rebuilt grid
    raises if *executed* under the old name instead of silently
    simulating the default workload.
    """
    return Experiment(
        policies=tuple(
            PolicySpec(name=p["name"], kwargs=tuple(sorted(p["kwargs"].items())))
            for p in spec["policies"]
        ),
        systems=tuple(SystemSpec(**s) for s in spec["systems"]),
        loads=tuple(spec["loads"]),
        replications=int(spec["replications"]),
        workloads=tuple(_workload_from_descriptor(w) for w in spec["workloads"]),
        rounds=int(spec["rounds"]),
        warmup=int(spec["warmup"]),
        base_seed=int(spec["base_seed"]),
        backend=spec.get("backend", "reference"),
        metrics=tuple(
            ProbeSpec(p["name"], p.get("kwargs", {}))
            for p in spec.get("metrics", ())
        ),
    )


def experiment_result_from_dict(payload: dict) -> ExperimentResult:
    """Inverse of :func:`experiment_result_to_dict`."""
    version = payload.get("format_version")
    if payload.get("kind") != "experiment_result" or version != _EXPERIMENT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported experiment format: kind={payload.get('kind')!r} "
            f"version={version!r}"
        )
    experiment = experiment_from_descriptor(payload["experiment"])
    records = tuple(_record_from_dict(r) for r in payload["records"])
    return ExperimentResult(experiment=experiment, records=records)


def save_experiment(
    result: ExperimentResult, path: str | Path, include_results: bool = True
) -> Path:
    """Write an experiment result to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(experiment_result_to_dict(result, include_results)))
    return path


def load_experiment(path: str | Path) -> ExperimentResult:
    """Read a result previously written by :func:`save_experiment`."""
    return experiment_result_from_dict(json.loads(Path(path).read_text()))
