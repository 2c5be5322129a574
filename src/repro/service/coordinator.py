"""The federation coordinator: leases, heartbeats, failover.

Workers dial in over the framed-pickle transport
(:mod:`repro.service.wire`), register, and then *pull*: each asks for a
cell when it has nothing to do, runs it to completion under the
run orchestrator's checkpoint controller (uploading each checkpoint),
and ships the record back.  The
coordinator owns nothing but bookkeeping -- which worker holds which
lease, when each was last heard from -- and delegates all job state to
the :class:`~repro.service.jobs.JobManager`.

Protocol (worker -> coordinator; replies only where noted)::

    ("register", {"name", "pid", "token"?}) -> ("registered", {...})
                                            | ("error", reason), closes
    ("heartbeat",)                          no reply
    ("request-cell",)                    -> ("lease", {...}) | ("idle", {...})
    ("checkpoint", token, manifest, blob)   no reply
    ("cell-done", token, record)         -> ("ack", {"accepted": bool})
    ("cell-failed", token, error)        -> ("ack", {"accepted": bool})
    ("goodbye",)                            no reply, closes

Every lease carries an unguessable token; messages quoting a revoked
or unknown token are acknowledged-and-ignored, which is the whole
failover story: a worker presumed dead may deliver late (duplicate
lease) or mid-upload (torn lease) and neither can corrupt the job --
cells are deterministic and first-accepted-wins.

Failure detection is two-tier: a closed socket revokes the worker's
leases immediately, and a worker whose socket is open but silent for
``heartbeat_misses`` intervals (wedged process, dead VM behind a live
NAT entry) is declared lost by the monitor thread.  Revoked cells
requeue at the *front* of the queue together with the newest
checkpoint the dead worker uploaded, so the next worker adopts the
partial run instead of restarting it -- and because cells are
seed-stable either way, the final records are bit-identical to an
undisturbed serial execution.
"""

from __future__ import annotations

import secrets
import socket
import threading
import time

from .jobs import JobManager
from .wire import ChannelClosed, MessageChannel

__all__ = ["FederationCoordinator"]


class _Worker:
    """Coordinator-side view of one connected worker."""

    def __init__(self, name: str, pid: int | None, channel: MessageChannel) -> None:
        self.name = name
        self.pid = pid
        self.channel = channel
        self.connected = time.monotonic()
        self.last_seen = time.monotonic()
        self.cells_done = 0
        self.alive = True
        self.departed = False  # clean goodbye vs. presumed dead


class _Lease:
    """One cell granted to one worker, addressed by its token."""

    def __init__(self, token: str, job_id: str, cell_index: int, worker: _Worker) -> None:
        self.token = token
        self.job_id = job_id
        self.cell_index = cell_index
        self.worker = worker
        self.granted = time.monotonic()
        self.checkpoint_round: int | None = None


class FederationCoordinator:
    """Socket endpoint handing grid cells to registered workers."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 3,
        retry_after: float = 0.5,
        token: str | None = None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if token is not None and not token:
            raise ValueError("auth token must be non-empty or None")
        self.manager = manager
        #: Shared-secret worker auth: when set, a registration whose
        #: payload does not quote the same token is rejected and its
        #: channel closed.  The token never appears in the service
        #: manifest -- it travels out of band (the operator hands it to
        #: worker launchers).
        self.token = token
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        self.retry_after = float(retry_after)
        self._host = host
        self._port = port
        self._lock = threading.RLock()
        self._workers: dict[str, _Worker] = {}
        self._leases: dict[str, _Lease] = {}
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._channels: list[MessageChannel] = []
        self._stopped = threading.Event()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._stopped.clear()
        for target, name in (
            (self._accept_loop, "federation-accept"),
            (self._monitor_loop, "federation-monitor"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    def stop(self) -> None:
        """Stop accepting, drop every connection and join every thread.

        ``shutdown`` wakes the accept thread blocked in ``accept()``
        (closing the listener alone does not), closing each accepted
        channel wakes its connection thread, and the monitor sleeps on
        an event that is set here.  Raises ``RuntimeError`` naming any
        service thread still alive after the join.
        """
        self._stopped.set()
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # not listening any more
                pass
            self._listener.close()
        with self._lock:
            channels = list(self._channels)
        for channel in channels:
            channel.close()
        for thread in list(self._threads):
            thread.join(timeout=5)
        alive = [thread.name for thread in self._threads if thread.is_alive()]
        if alive:
            raise RuntimeError(f"coordinator threads did not stop: {alive}")

    # -- accept / per-connection service ----------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                return  # listener shut down by stop()
            channel = MessageChannel(sock)
            with self._lock:
                self._channels.append(channel)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(channel,),
                name="federation-conn",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, channel: MessageChannel) -> None:
        worker: _Worker | None = None
        try:
            while True:
                message = channel.recv()
                kind = message[0]
                if kind == "register":
                    worker = self._register(channel, message[1])
                    if worker is None:
                        return  # auth rejected; finally closes the channel
                elif worker is None:
                    channel.send(("error", "register first"))
                    return
                elif kind == "heartbeat":
                    worker.last_seen = time.monotonic()
                elif kind == "request-cell":
                    worker.last_seen = time.monotonic()
                    channel.send(self._grant(worker))
                elif kind == "checkpoint":
                    worker.last_seen = time.monotonic()
                    self._checkpoint(worker, *message[1:])
                elif kind == "cell-done":
                    worker.last_seen = time.monotonic()
                    channel.send(("ack", self._cell_done(worker, *message[1:])))
                elif kind == "cell-failed":
                    worker.last_seen = time.monotonic()
                    channel.send(("ack", self._cell_failed(worker, *message[1:])))
                elif kind == "goodbye":
                    worker.departed = True
                    return
                else:
                    channel.send(("error", f"unknown message {kind!r}"))
        except (ChannelClosed, EOFError, BrokenPipeError, OSError):
            pass
        finally:
            if worker is not None:
                self._worker_lost(worker)
            channel.close()
            with self._lock:
                self._channels.remove(channel)

    # -- message handlers --------------------------------------------------

    def _register(self, channel: MessageChannel, info: dict) -> _Worker | None:
        base = str(info.get("name") or "worker")
        pid = info.get("pid")
        if self.token is not None and not secrets.compare_digest(
            str(info.get("token") or ""), self.token
        ):
            self.manager.telemetry.emit(
                "worker-rejected", worker=base, pid=pid, reason="invalid-token"
            )
            channel.send(("error", "invalid auth token"))
            return None
        with self._lock:
            name = base
            suffix = 1
            while name in self._workers and self._workers[name].alive:
                suffix += 1
                name = f"{base}#{suffix}"
            worker = _Worker(name, pid, channel)
            self._workers[name] = worker
        self.manager.telemetry.emit("worker-registered", worker=name, pid=pid)
        channel.send(
            (
                "registered",
                {
                    "name": name,
                    "heartbeat_interval": self.heartbeat_interval,
                    "heartbeat_misses": self.heartbeat_misses,
                },
            )
        )
        return worker

    def _grant(self, worker: _Worker) -> tuple:
        pulled = self.manager.next_cell()
        if pulled is None:
            return (
                "idle",
                {"retry_after": self.retry_after, "drained": self.drained()},
            )
        job_id, cell, checkpoint_every, adoption = pulled
        lease = _Lease(secrets.token_hex(16), job_id, cell.index, worker)
        if adoption is not None:
            lease.checkpoint_round = int(adoption[0]["round"])
        with self._lock:
            self._leases[lease.token] = lease
        self.manager.emit(
            job_id,
            "cell-leased",
            cell=cell.index,
            worker=worker.name,
            adopted_round=lease.checkpoint_round,
        )
        return (
            "lease",
            {
                "token": lease.token,
                "job": job_id,
                "cell": cell,
                "checkpoint_every": checkpoint_every,
                "checkpoint": adoption,
            },
        )

    def _active(self, worker: _Worker, token: str) -> _Lease | None:
        """The lease for ``token`` iff it is still this worker's to use."""
        with self._lock:
            lease = self._leases.get(token)
            if lease is None or lease.worker is not worker:
                return None
            return lease

    def _checkpoint(self, worker: _Worker, token: str, manifest: dict, blob: bytes) -> None:
        lease = self._active(worker, token)
        if lease is None:
            return  # torn lease: upload from a revoked holder, drop it
        self.manager.store_checkpoint(lease.job_id, lease.cell_index, manifest, blob)
        lease.checkpoint_round = int(manifest["round"])
        self.manager.emit(
            lease.job_id,
            "checkpoint-received",
            cell=lease.cell_index,
            round=lease.checkpoint_round,
            worker=worker.name,
        )

    def _cell_done(self, worker: _Worker, token: str, record) -> dict:
        lease = self._active(worker, token)
        if lease is None:
            return {"accepted": False}  # duplicate lease: already reassigned
        with self._lock:
            del self._leases[token]
        accepted = self.manager.record_result(lease.job_id, lease.cell_index, record)
        if accepted:
            worker.cells_done += 1
        return {"accepted": accepted}

    def _cell_failed(self, worker: _Worker, token: str, error: str) -> dict:
        lease = self._active(worker, token)
        if lease is None:
            return {"accepted": False}
        with self._lock:
            del self._leases[token]
        self.manager.emit(
            lease.job_id,
            "cell-failed",
            cell=lease.cell_index,
            worker=worker.name,
            error=error,
        )
        self.manager.requeue_cell(lease.job_id, lease.cell_index, failed=True)
        return {"accepted": True}

    # -- failure detection -------------------------------------------------

    def _monitor_loop(self) -> None:
        deadline = self.heartbeat_interval * self.heartbeat_misses
        while not self._stopped.wait(self.heartbeat_interval / 2):
            now = time.monotonic()
            with self._lock:
                silent = [
                    worker
                    for worker in self._workers.values()
                    if worker.alive and now - worker.last_seen > deadline
                ]
            for worker in silent:
                self._worker_lost(worker, reason="missed-heartbeats")
                worker.channel.close()  # unblocks its handler thread

    def _worker_lost(self, worker: _Worker, reason: str = "disconnected") -> None:
        """Revoke and requeue everything a gone worker held (idempotent)."""
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            revoked = [
                lease for lease in self._leases.values() if lease.worker is worker
            ]
            for lease in revoked:
                del self._leases[lease.token]
        if worker.departed:
            self.manager.telemetry.emit("worker-departed", worker=worker.name)
        else:
            self.manager.telemetry.emit(
                "worker-lost", worker=worker.name, reason=reason, leases=len(revoked)
            )
        for lease in revoked:
            self.manager.emit(
                lease.job_id,
                "cell-reassigned",
                cell=lease.cell_index,
                worker=worker.name,
                checkpoint_round=lease.checkpoint_round,
            )
            self.manager.requeue_cell(lease.job_id, lease.cell_index)

    # -- introspection -----------------------------------------------------

    def drained(self) -> bool:
        """No queued cells *and* no outstanding leases: idle workers may exit."""
        with self._lock:
            leased = bool(self._leases)
        return not leased and self.manager.drained()

    def status(self) -> dict:
        """JSON-able snapshot of workers and leases (the CLI/API view)."""
        now = time.monotonic()
        with self._lock:
            workers = [
                {
                    "name": worker.name,
                    "pid": worker.pid,
                    "alive": worker.alive,
                    "cells_done": worker.cells_done,
                    "last_seen_age": round(now - worker.last_seen, 3),
                }
                for worker in self._workers.values()
            ]
            leases = [
                {
                    "job": lease.job_id,
                    "cell": lease.cell_index,
                    "worker": lease.worker.name,
                    "pid": lease.worker.pid,
                    "checkpoint_round": lease.checkpoint_round,
                    "age": round(now - lease.granted, 3),
                }
                for lease in self._leases.values()
            ]
        return {
            "address": list(self.address),
            "workers": workers,
            "leases": leases,
            "pending_cells": self.manager.pending_count(),
            "drained": self.drained(),
        }
