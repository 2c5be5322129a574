"""Coordination service: job API and federated workers.

This package turns the single-process reproduction into a small
distributed system while preserving the repo's bit-identity guarantees:

:mod:`~repro.service.wire`
    Length-prefixed pickle framing over sockets -- the one message
    transport every other module here builds on.
:mod:`~repro.service.jobs`
    The :class:`JobManager`: experiment descriptors in, grid cells
    out, records and checkpoints back, assembled
    :class:`~repro.experiments.results.ExperimentResult` on completion.
:mod:`~repro.service.coordinator`
    The :class:`FederationCoordinator`: socket endpoint workers
    register with, lease cells from, and stream heartbeats to; revokes
    and reassigns the leases of lost workers.
:mod:`~repro.service.worker`
    The pull-based :class:`FederationWorker` loop (``repro worker``).
:mod:`~repro.service.api`
    The HTTP job API (``repro serve``): submit descriptors, poll
    status, stream per-job telemetry as NDJSON.
:mod:`~repro.service.client`
    Stdlib-only HTTP client helpers (``repro submit`` / ``repro
    status`` use these).

Everything is standard library only (sockets, ``http.server``,
``urllib``); results produced through any of these paths are
bit-identical to :class:`~repro.experiments.executor.SerialExecutor`.
"""

from .api import ServiceAPI
from .coordinator import FederationCoordinator
from .jobs import JobManager, validate_submittable
from .wire import ChannelClosed, MessageChannel
from .worker import FederationWorker, run_worker

__all__ = [
    "ChannelClosed",
    "FederationCoordinator",
    "FederationWorker",
    "JobManager",
    "MessageChannel",
    "ServiceAPI",
    "run_worker",
    "validate_submittable",
]
