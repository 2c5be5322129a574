"""Stdlib HTTP client for the job API (``repro submit`` / ``repro status``).

Everything here is :mod:`urllib.request` over the JSON routes of
:mod:`repro.service.api`; nothing imports the service's server side, so
these helpers work from any machine that can reach the API port.
HTTP errors carrying a JSON ``{"error": ...}`` body resurface as
:class:`ServiceError` with that message.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Iterator

from repro.experiments.persistence import experiment_result_from_dict
from repro.experiments.results import ExperimentResult

__all__ = [
    "ServiceError",
    "submit_job",
    "cancel_job",
    "job_status",
    "job_result",
    "list_jobs",
    "service_status",
    "iter_job_events",
]


class ServiceError(RuntimeError):
    """The service answered with an error status."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"HTTP {code}: {message}")
        self.code = code


def _request(url: str, body: dict | None = None) -> dict:
    request = urllib.request.Request(url)
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, data=data, timeout=60) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as error:
        try:
            message = json.loads(error.read()).get("error", error.reason)
        except ValueError:
            message = str(error.reason)
        raise ServiceError(error.code, message) from None


def submit_job(
    url: str, descriptor: dict, checkpoint_every: int = 1, priority: int = 0
) -> dict:
    """POST an experiment descriptor; returns the created job's status."""
    return _request(
        f"{url}/jobs",
        body={
            "experiment": descriptor,
            "checkpoint_every": checkpoint_every,
            "priority": priority,
        },
    )


def cancel_job(url: str, job_id: str) -> dict:
    """Stop a running job; returns its (now cancelled) status."""
    return _request(f"{url}/jobs/{job_id}/cancel", body={})


def job_status(url: str, job_id: str) -> dict:
    return _request(f"{url}/jobs/{job_id}")


def list_jobs(url: str) -> list[dict]:
    return _request(f"{url}/jobs")["jobs"]


def service_status(url: str) -> dict:
    return _request(f"{url}/status")


def job_result(url: str, job_id: str) -> ExperimentResult:
    """Fetch and rebuild a finished job's :class:`ExperimentResult`."""
    return experiment_result_from_dict(_request(f"{url}/jobs/{job_id}/result"))


def iter_job_events(
    url: str, job_id: str, follow: bool = False
) -> Iterator[dict]:
    """Yield a job's telemetry events from the NDJSON endpoint.

    With ``follow=True`` the connection stays open and events stream
    live until the job finishes or fails (:mod:`http.client` de-chunks
    the response transparently, so iteration is just line reading).
    """
    events_url = f"{url}/jobs/{job_id}/events"
    if follow:
        events_url += "?follow=1"
    try:
        with urllib.request.urlopen(events_url, timeout=None if follow else 60) as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
    except urllib.error.HTTPError as error:
        try:
            message = json.loads(error.read()).get("error", error.reason)
        except ValueError:
            message = str(error.reason)
        raise ServiceError(error.code, message) from None
