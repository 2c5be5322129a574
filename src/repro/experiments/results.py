"""Tidy experiment results: per-cell records with filtering and aggregation.

Each executed cell becomes a :class:`CellRecord` -- flat coordinates
(policy label, system name, load, replication, workload name, seed) plus
a metrics mapping, optionally carrying the full simulation result.
Records compare by coordinates and metrics only, which is what makes
"the process pool returns *identical* records to the serial executor" a
directly assertable property.

:class:`ExperimentResult` is the container: filter by any coordinate,
aggregate over replications, or round-trip through JSON via
:mod:`repro.experiments.persistence`.  Records carry the seed their cell
ran under (see :mod:`repro.experiments.grid` for the seed scheme), so a
saved result names the exact realization behind every number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.sim.engine import SimulationResult
from repro.sim.probes import DEFAULT_PROBE_LABELS

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from .grid import Cell, Experiment

__all__ = ["CellRecord", "ExperimentResult", "metrics_from_result"]

def metrics_from_result(result: SimulationResult) -> dict[str, float]:
    """Flat metrics mapping for a simulation result.

    The headline keys (mean/percentiles/accounting) come from the
    default collectors; sized runs add the job count
    under ``jobs`` (their accounting keys count work units).  Every
    *extra* probe the run carried contributes its summary under
    namespaced ``<label>.<key>`` keys, which is what makes record
    metrics an open dict.
    """
    metrics = result.histogram.summary()
    if result.total_jobs is not None:
        metrics["jobs"] = float(result.total_jobs)
    metrics["arrived"] = float(result.total_arrived)
    metrics["departed"] = float(result.total_departed)
    metrics["queued"] = float(result.final_queued)
    for label, probe in result.probes.items():
        if label in DEFAULT_PROBE_LABELS:
            continue
        for key, value in probe.summary().items():
            metrics[f"{label}.{key}"] = float(value)
    return metrics


@dataclass(frozen=True)
class CellRecord:
    """One executed grid cell in tidy (long) form.

    ``result`` is excluded from equality: two records are equal when
    their coordinates and measured metrics agree, whichever executor
    produced them and whether or not the heavy payload was kept.
    """

    policy: str
    system: str
    rho: float
    replication: int
    workload: str
    seed: int
    metrics: Mapping[str, float]
    result: SimulationResult | None = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def of(
        cls, cell: "Cell", result: SimulationResult, keep_result: bool = True
    ) -> "CellRecord":
        """The record of ``cell``'s run: its coordinates plus the metrics of
        ``result`` (kept as the payload unless ``keep_result`` is false)."""
        return cls(
            policy=cell.policy.label,
            system=cell.system.name,
            rho=cell.rho,
            replication=cell.replication,
            workload=cell.workload.name,
            seed=cell.seed,
            metrics=metrics_from_result(result),
            result=result if keep_result else None,
        )

    @property
    def mean_response_time(self) -> float:
        """Shorthand for the headline metric."""
        return self.metrics["mean"]

    def as_row(self) -> dict:
        """Flat dict row (coordinates + metrics) for tables/dataframes."""
        row = {
            "policy": self.policy,
            "system": self.system,
            "rho": self.rho,
            "replication": self.replication,
            "workload": self.workload,
            "seed": self.seed,
        }
        row.update(self.metrics)
        return row


def _matches(record: CellRecord, coords: dict) -> bool:
    for key, wanted in coords.items():
        if wanted is None:
            continue
        value = getattr(record, key)
        if isinstance(wanted, (set, frozenset, list, tuple)):
            if value not in wanted:
                return False
        elif key == "rho":
            if not math.isclose(value, wanted, rel_tol=0.0, abs_tol=1e-12):
                return False
        elif value != wanted:
            return False
    return True


@dataclass(frozen=True)
class ExperimentResult:
    """All records of one experiment run, in grid order."""

    experiment: "Experiment"
    records: tuple[CellRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[CellRecord]:
        return iter(self.records)

    # -- selection ---------------------------------------------------------

    def filter(
        self,
        policy: str | Iterable[str] | None = None,
        system: str | Iterable[str] | None = None,
        rho: float | Iterable[float] | None = None,
        replication: int | Iterable[int] | None = None,
        workload: str | Iterable[str] | None = None,
    ) -> "ExperimentResult":
        """A view restricted to the matching coordinates.

        Each argument accepts a single value or a collection of allowed
        values; None leaves the axis unrestricted.
        """
        coords = {
            "policy": policy,
            "system": system,
            "rho": rho,
            "replication": replication,
            "workload": workload,
        }
        kept = tuple(r for r in self.records if _matches(r, coords))
        return replace(self, records=kept)

    def only(self, **coords) -> CellRecord:
        """The unique record at the given coordinates (error otherwise)."""
        matches = self.filter(**coords).records
        if len(matches) != 1:
            raise ValueError(
                f"expected exactly one record at {coords}, found {len(matches)}"
            )
        return matches[0]

    def metric(self, name: str = "mean", **coords) -> float:
        """One metric of the unique record at the given coordinates."""
        return float(self.only(**coords).metrics[name])

    # -- aggregation -------------------------------------------------------

    def aggregate(
        self, metric: str = "mean"
    ) -> dict[tuple[str, str, float, str], dict[str, float]]:
        """Collapse replications: per (policy, system, rho, workload) cell,
        the mean, sample std-dev, and standard error of ``metric``.
        """
        groups: dict[tuple[str, str, float, str], list[float]] = {}
        for record in self.records:
            key = (record.policy, record.system, record.rho, record.workload)
            groups.setdefault(key, []).append(float(record.metrics[metric]))
        out = {}
        for key, values in groups.items():
            n = len(values)
            mean = sum(values) / n
            if n > 1:
                var = sum((v - mean) ** 2 for v in values) / (n - 1)
                std = math.sqrt(var)
                stderr = std / math.sqrt(n)
            else:
                std = stderr = 0.0
            out[key] = {"mean": mean, "std": std, "stderr": stderr, "n": float(n)}
        return out

    def best_policy_at(
        self, rho: float, metric: str = "mean", **coords
    ) -> str:
        """Policy with the lowest replication-averaged metric at ``rho``."""
        cells = self.filter(rho=rho, **coords).aggregate(metric)
        if not cells:
            raise ValueError(f"no records at rho={rho} with {coords}")
        best = min(cells.items(), key=lambda item: item[1]["mean"])
        return best[0][0]

    def as_rows(self) -> list[dict]:
        """Tidy long-form rows (ready for csv/pandas)."""
        return [record.as_row() for record in self.records]

    # -- persistence -------------------------------------------------------

    def save(self, path: "str | Path") -> "Path":
        """Write this result as JSON (see ``experiments.persistence``)."""
        from .persistence import save_experiment

        return save_experiment(self, path)

    @classmethod
    def load(cls, path: "str | Path") -> "ExperimentResult":
        """Read a result written by :meth:`save`."""
        from .persistence import load_experiment

        return load_experiment(path)
