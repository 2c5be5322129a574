"""The HTTP job API: submit descriptors, poll status, stream telemetry.

A thin, JSON-only front door over the :class:`~repro.service.jobs.JobManager`
and :class:`~repro.service.coordinator.FederationCoordinator` --
deliberately the *lossy* boundary: bodies are the same experiment
descriptors :func:`repro.experiments.persistence.experiment_from_descriptor`
round-trips, so anything a descriptor cannot carry (custom workload
factories) is rejected at submission with a 400 instead of failing
mid-grid on a worker.  Trusted pickle stays on the worker socket.

Routes::

    GET  /healthz              liveness probe
    GET  /status               coordinator snapshot (workers, leases)
    GET  /workers              just the worker list
    GET  /jobs                 job summaries
    POST /jobs                 submit {"experiment": <descriptor>,
                               "checkpoint_every": n, "priority": p}
                               (or a bare descriptor); 201 -> {"job": id}
    POST /jobs/<id>/cancel     stop a running job; 200 -> its status
                               (cancelling twice is a no-op 200)
    GET  /jobs/<id>            one job's status + its active leases
    GET  /jobs/<id>/result     the assembled result JSON (404 in flight)
    GET  /jobs/<id>/events     the job's telemetry as NDJSON; with
                               ?follow=1 the response stays open
                               (chunked) and streams events live until
                               the job leaves the running state

The events endpoint is :func:`repro.runs.telemetry.follow_events`
re-exposed over chunked HTTP: same drain loop, same tail guarantees,
one reader position per request, any number of concurrent followers.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.experiments.persistence import experiment_from_descriptor
from repro.runs.telemetry import follow_events, iter_events

from .coordinator import FederationCoordinator
from .jobs import JobManager

__all__ = ["ServiceAPI"]

#: Seconds between telemetry polls while a follower is attached.
_FOLLOW_POLL = 0.2


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 so chunked transfer encoding (the streaming endpoint's
    # framing) is legal; every non-streamed reply sends Content-Length.
    protocol_version = "HTTP/1.1"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    @property
    def coordinator(self) -> FederationCoordinator:
        return self.server.coordinator  # type: ignore[attr-defined]

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib name
        pass  # the service narrates through telemetry, not stderr

    # -- plumbing ---------------------------------------------------------

    def _reply(self, code: int, payload: dict) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _not_found(self, what: str) -> None:
        self._reply(404, {"error": what})

    # -- GET --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._reply(200, {"ok": True})
            elif parts == ["status"]:
                self._reply(200, self.coordinator.status())
            elif parts == ["workers"]:
                self._reply(200, {"workers": self.coordinator.status()["workers"]})
            elif parts == ["jobs"]:
                self._reply(200, {"jobs": self.manager.list_jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._job_status(parts[1])
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                self._job_result(parts[1])
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                query = parse_qs(url.query)
                follow = query.get("follow", ["0"])[0] not in ("", "0", "false")
                self._job_events(parts[1], follow)
            else:
                self._not_found(f"no route {url.path!r}")
        except KeyError as error:
            self._not_found(str(error.args[0]) if error.args else "unknown job")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-reply

    def _job_status(self, job_id: str) -> None:
        status = self.manager.job_status(job_id)
        status["leases"] = [
            lease
            for lease in self.coordinator.status()["leases"]
            if lease["job"] == job_id
        ]
        self._reply(200, status)

    def _job_result(self, job_id: str) -> None:
        path = self.manager.result_path(job_id)
        if not path.exists():
            self._reply(
                404,
                {
                    "error": f"{job_id} has no result yet",
                    "state": self.manager.job_state(job_id),
                },
            )
            return
        body = path.read_bytes()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _job_events(self, job_id: str, follow: bool) -> None:
        path = self.manager.telemetry_path(job_id)  # KeyError -> 404
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        if follow:
            # The final drain inside follow_events guarantees events
            # written just before the state flipped still stream out.
            events = follow_events(
                path,
                poll_interval=_FOLLOW_POLL,
                stop=lambda: self.manager.job_state(job_id) != "running",
            )
        else:
            events = iter_events(path)
        for event in events:
            data = (json.dumps(event) + "\n").encode("utf-8")
            self.wfile.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
            self.wfile.flush()
        self.wfile.write(b"0\r\n\r\n")

    # -- POST -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            try:
                self.manager.cancel(parts[1])
            except KeyError as error:
                self._not_found(str(error.args[0]) if error.args else "unknown job")
                return
            self._reply(200, self.manager.job_status(parts[1]))
            return
        if parts != ["jobs"]:
            self._not_found(f"no route {url.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
            descriptor = body.get("experiment", body)
            checkpoint_every = int(body.get("checkpoint_every", 1))
            priority = int(body.get("priority", 0))
            experiment = experiment_from_descriptor(descriptor)
            job_id = self.manager.submit(
                experiment, checkpoint_every=checkpoint_every, priority=priority
            )
        except (ValueError, KeyError, TypeError) as error:
            self._reply(400, {"error": f"bad experiment descriptor: {error}"})
            return
        self._reply(201, {"job": job_id, **self.manager.job_status(job_id)})


class ServiceAPI:
    """The threaded HTTP server wrapping one manager + coordinator pair."""

    def __init__(
        self,
        manager: JobManager,
        coordinator: FederationCoordinator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = ThreadingHTTPServer((host, port), _Handler)
        self.server.daemon_threads = True
        self.server.manager = manager  # type: ignore[attr-defined]
        self.server.coordinator = coordinator  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server.server_address[:2]
        return (str(host), int(port))

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="service-api", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
