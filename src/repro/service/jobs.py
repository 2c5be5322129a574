"""Job bookkeeping for the coordination service.

A *job* is one submitted :class:`~repro.experiments.grid.Experiment`:
the :class:`JobManager` explodes it into its grid cells, hands cells
out to whoever asks (the federation coordinator), collects finished
:class:`~repro.experiments.results.CellRecord` objects, and -- once
every cell is in -- assembles and persists the exact
:class:`~repro.experiments.results.ExperimentResult` a
:class:`~repro.experiments.executor.SerialExecutor` would have built
(records in grid order; cells are seed-stable, so *which* worker ran
them and in what order cannot matter).

On-disk layout, under the manager's root::

    jobs/job-0001/experiment.json     the submitted grid descriptor
    jobs/job-0001/job.json            job manifest
    jobs/job-0001/telemetry.jsonl     job event stream (the HTTP
                                      metrics endpoint follows this)
    jobs/job-0001/cells/cell-0007/checkpoints/
                                      adoption cache: the newest
                                      checkpoint each worker uploaded
                                      for the cell (CheckpointStore)
    jobs/job-0001/result.json         assembled result, on completion

Job numbering continues from whatever ``jobs/`` already holds, so a
restarted service never reuses an id.  All mutating entry points are
serialized by one internal lock; the manager itself never blocks on
the network (the coordinator does the talking).
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from pathlib import Path

from repro.experiments.grid import Cell, Experiment
from repro.experiments.persistence import save_experiment
from repro.experiments.results import CellRecord, ExperimentResult
from repro.experiments.workload import UnreconstructedFactory
from repro.runs.checkpoint import CheckpointStore
from repro.runs.telemetry import TelemetryWriter

__all__ = ["JobManager", "validate_submittable"]

#: Times a cell may *fail* (raise in a worker) before its job is failed.
#: Worker deaths do not count -- a lost worker is the coordinator's
#: problem, not the cell's.
MAX_CELL_FAILURES = 3


def validate_submittable(experiment: Experiment) -> None:
    """Reject grids that cannot be faithfully executed from a descriptor.

    Workloads rebuilt from JSON carry
    :class:`~repro.experiments.workload.UnreconstructedFactory`
    placeholders for custom arrival/service factories and job-size
    distributions; executing one would raise mid-grid on a worker.
    Fail the submission instead, at the API boundary.
    """
    for workload in experiment.workloads:
        for component in (workload.arrivals, workload.service, workload.job_sizes):
            if isinstance(component, UnreconstructedFactory):
                raise ValueError(
                    f"workload {workload.name!r} carries components that did "
                    f"not survive the JSON round-trip; submit experiments "
                    f"with custom factories in-process, not by descriptor"
                )
    # Federated cells execute under checkpointing runs (leases hand work
    # between workers mid-cell), so a backend outside the checkpoint
    # path cannot be scheduled by the service at all.
    from repro.sim.backends import backend_capabilities

    caps = backend_capabilities(experiment.backend)
    if not caps.supports_checkpoint:
        raise ValueError(
            f"backend {experiment.backend!r} does not support "
            f"checkpoint/resume (capabilities: {caps.describe()}) and "
            f"cannot run under the federated service; execute it "
            f"locally (it is cheap by construction)"
        )


class _Job:
    """One submitted experiment's live state (manager-internal)."""

    def __init__(
        self,
        job_id: str,
        directory: Path,
        experiment: Experiment,
        checkpoint_every: int,
        priority: int = 0,
    ) -> None:
        self.id = job_id
        self.directory = directory
        self.experiment = experiment
        self.checkpoint_every = checkpoint_every
        self.priority = priority
        self.cells: dict[int, Cell] = {c.index: c for c in experiment.cells()}
        self.records: dict[int, CellRecord] = {}
        self.failures: dict[int, int] = {}
        self.state = "running"
        self.error: str | None = None
        self.submitted = time.time()
        self.telemetry = TelemetryWriter(directory / "telemetry.jsonl")

    def cell_store(self, index: int) -> CheckpointStore:
        return CheckpointStore(
            self.directory / "cells" / f"cell-{index:04d}" / "checkpoints"
        )


class JobManager:
    """Experiment descriptors in, cells out, assembled results back."""

    def __init__(self, root: str | Path, keep_checkpoints: int = 1) -> None:
        if keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.keep_checkpoints = keep_checkpoints
        self._lock = threading.RLock()
        self._jobs: dict[str, _Job] = {}
        # Priority queue of (-priority, order, job_id, index): higher
        # priorities first, FIFO submission order within a priority.
        # Requeued cells get decreasing negative orders, which puts them
        # at the front of their priority band (the old deque-appendleft
        # semantics, now per band).
        self._pending: list[tuple[int, int, str, int]] = []
        self._order = 0
        self._front_order = -1
        self._next_number = self._first_free_number()
        self.telemetry = TelemetryWriter(self.root / "service-telemetry.jsonl")

    def _first_free_number(self) -> int:
        taken = 0
        for path in self.jobs_dir.glob("job-*"):
            try:
                taken = max(taken, int(path.name.split("-", 1)[1]))
            except ValueError:
                continue
        return taken + 1

    # -- submission -------------------------------------------------------

    def submit(
        self,
        experiment: Experiment,
        checkpoint_every: int = 1,
        priority: int = 0,
    ) -> str:
        """Register a grid for execution; returns its job id.

        ``checkpoint_every`` is forwarded to every cell's worker-side
        :class:`~repro.runs.orchestrator.CheckpointController`
        (checkpoints every that many 256-round blocks -- the
        failover/adoption grain).
        ``priority`` orders the cell queue: all cells of
        higher-priority jobs are handed out before any lower-priority
        cell; ties dispatch in submission order (the default 0 keeps
        the old pure-FIFO behaviour).
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        validate_submittable(experiment)
        with self._lock:
            job_id = f"job-{self._next_number:04d}"
            self._next_number += 1
            directory = self.jobs_dir / job_id
            directory.mkdir(parents=True)
            (directory / "experiment.json").write_text(
                json.dumps(experiment.describe(), indent=2) + "\n"
            )
            job = _Job(
                job_id,
                directory,
                experiment,
                int(checkpoint_every),
                priority=int(priority),
            )
            (directory / "job.json").write_text(
                json.dumps(
                    {
                        "kind": "service_job",
                        "id": job_id,
                        "cells": len(job.cells),
                        "checkpoint_every": job.checkpoint_every,
                        "priority": job.priority,
                        "submitted": job.submitted,
                    },
                    indent=2,
                )
                + "\n"
            )
            self._jobs[job_id] = job
            for index in sorted(job.cells):
                heapq.heappush(
                    self._pending, (-job.priority, self._order, job_id, index)
                )
                self._order += 1
            job.telemetry.emit(
                "job-submitted",
                job=job_id,
                cells=len(job.cells),
                priority=job.priority,
            )
            self.telemetry.emit(
                "job-submitted",
                job=job_id,
                cells=len(job.cells),
                priority=job.priority,
            )
            return job_id

    # -- the cell queue ---------------------------------------------------

    def next_cell(self) -> tuple[str, Cell, int, tuple[dict, bytes] | None] | None:
        """Pop the next runnable cell: highest priority, then FIFO.

        Returns ``(job_id, cell, checkpoint_every, adoption)`` where
        ``adoption`` is the newest uploaded ``(manifest, blob)``
        checkpoint for the cell (``None`` when it must start from round
        0), or ``None`` when nothing is pending.
        """
        with self._lock:
            while self._pending:
                _, _, job_id, index = heapq.heappop(self._pending)
                job = self._jobs[job_id]
                if job.state != "running" or index in job.records:
                    continue
                adoption = job.cell_store(index).latest_blob()
                return job_id, job.cells[index], job.checkpoint_every, adoption
            return None

    def requeue_cell(self, job_id: str, index: int, failed: bool = False) -> None:
        """Put a revoked or failed cell back at the *front* of the queue.

        Front of its job's priority band, not of the whole queue: a
        reassigned cell is the oldest work at its priority and its
        adoption checkpoint is freshest right now, but it must not
        preempt higher-priority jobs.  ``failed`` marks a genuine
        worker-side exception; after :data:`MAX_CELL_FAILURES` of those
        the whole job fails (a cell that crashes every worker would
        otherwise bounce forever).
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state != "running" or index in job.records:
                return
            if failed:
                job.failures[index] = job.failures.get(index, 0) + 1
                if job.failures[index] >= MAX_CELL_FAILURES:
                    job.state = "failed"
                    job.error = (
                        f"cell {index} failed {MAX_CELL_FAILURES} times"
                    )
                    job.telemetry.emit(
                        "job-failed", job=job_id, cell=index, error=job.error
                    )
                    self.telemetry.emit("job-failed", job=job_id, error=job.error)
                    return
            heapq.heappush(
                self._pending, (-job.priority, self._front_order, job_id, index)
            )
            self._front_order -= 1

    def cancel(self, job_id: str) -> bool:
        """Stop a running job; returns False when it already left that state.

        Queued cells stay in the heap but :meth:`next_cell` skips
        non-running jobs, so nothing further is leased.  In-flight
        leases drain harmlessly: their results and requeues hit the
        same state guard and are acknowledged-and-dropped.  Unknown
        ids raise ``KeyError`` (the API's 404).
        """
        with self._lock:
            job = self.job(job_id)
            if job.state != "running":
                return False
            job.state = "cancelled"
            job.telemetry.emit("job-cancelled", job=job_id)
            self.telemetry.emit("job-cancelled", job=job_id)
            return True

    def pending_count(self) -> int:
        with self._lock:
            return sum(
                1
                for _, _, job_id, index in self._pending
                if self._jobs[job_id].state == "running"
                and index not in self._jobs[job_id].records
            )

    # -- worker uploads ---------------------------------------------------

    def store_checkpoint(
        self, job_id: str, index: int, manifest: dict, blob: bytes
    ) -> None:
        """Cache a worker-uploaded checkpoint for possible adoption.

        The blob is re-verified by the store's own write path (hash in
        the new manifest); old snapshots are pruned down to the
        retention policy immediately -- the cache exists to hand the
        newest snapshot to the *next* worker, not to archive history.
        """
        with self._lock:
            job = self._jobs[job_id]
            store = job.cell_store(index)
            store.write(
                int(manifest["round"]),
                blob,
                meta={"engine": manifest.get("engine")},
            )
            store.prune(self.keep_checkpoints)

    def record_result(self, job_id: str, index: int, record: CellRecord) -> bool:
        """Accept one finished cell; returns False for duplicates.

        Duplicates are normal under failover: a worker presumed dead
        may still deliver after its cell was reassigned and completed
        elsewhere.  Cells are deterministic, so either copy is correct
        -- first writer wins, later copies are acknowledged-and-dropped.
        On the last record the full :class:`ExperimentResult` is
        assembled in grid order and saved to ``result.json``.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state != "running" or index in job.records:
                return False
            job.records[index] = record
            job.telemetry.emit(
                "cell-finished",
                job=job_id,
                cell=index,
                policy=record.policy,
                mean=record.metrics.get("mean"),
            )
            if len(job.records) == len(job.cells):
                result = ExperimentResult(
                    experiment=job.experiment,
                    records=tuple(
                        job.records[i] for i in sorted(job.records)
                    ),
                )
                save_experiment(result, job.directory / "result.json")
                job.state = "finished"
                job.telemetry.emit("job-finished", job=job_id, cells=len(job.cells))
                self.telemetry.emit("job-finished", job=job_id)
            return True

    # -- introspection ----------------------------------------------------

    def emit(self, job_id: str, event: str, **fields) -> None:
        """Append an event to a job's telemetry stream (coordinator seam)."""
        with self._lock:
            self._jobs[job_id].telemetry.emit(event, job=job_id, **fields)

    def job(self, job_id: str) -> _Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def telemetry_path(self, job_id: str) -> Path:
        return self.job(job_id).telemetry.path

    def result_path(self, job_id: str) -> Path:
        return self.job(job_id).directory / "result.json"

    def job_state(self, job_id: str) -> str:
        with self._lock:
            return self.job(job_id).state

    def job_status(self, job_id: str) -> dict:
        """JSON-able status snapshot of one job."""
        with self._lock:
            job = self.job(job_id)
            return {
                "id": job.id,
                "state": job.state,
                "cells": len(job.cells),
                "cells_done": len(job.records),
                "checkpoint_every": job.checkpoint_every,
                "priority": job.priority,
                "submitted": job.submitted,
                "directory": str(job.directory),
                "error": job.error,
            }

    def list_jobs(self) -> list[dict]:
        with self._lock:
            return [self.job_status(job_id) for job_id in sorted(self._jobs)]

    def drained(self) -> bool:
        """True when no runnable cell remains queued.

        Leased cells are not the manager's to count -- the coordinator
        combines this with its own outstanding-lease view to decide
        whether idle workers may exit.
        """
        return self.pending_count() == 0

    def close(self) -> None:
        with self._lock:
            for job in self._jobs.values():
                job.telemetry.close()
            self.telemetry.close()
