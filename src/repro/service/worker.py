"""The federation worker: pull a cell, run it checkpointed, report back.

One :class:`FederationWorker` is one OS process's worth of capacity.
It registers with a coordinator (:mod:`repro.service.coordinator`),
keeps a heartbeat thread alive, and loops: request a cell, execute it
under the ordinary run orchestrator (:class:`repro.runs.orchestrator.Run`
in a scratch directory -- the same code path as ``repro run``), ship
every committed checkpoint to the coordinator through the
``on_checkpoint`` seam, and deliver the finished
:class:`~repro.experiments.results.CellRecord`.

Adoption: a lease may arrive with the newest checkpoint a previous
(dead) worker uploaded for the cell.  The blob is written into the
fresh local store before ``execute()``, whose resume path then treats
it exactly like a checkpoint this process wrote itself -- the cell
continues from the dead worker's last committed round, bit-identically
(and when no checkpoint exists, restarting from round 0 is *also*
bit-identical, because cell seeds live in the cell).

Scratch directories are token-suffixed, so a reassigned cell never
collides with a half-written directory from a previous attempt on the
same machine, and are removed once the coordinator acknowledges the
record.
"""

from __future__ import annotations

import os
import shutil
import socket as socketlib
import tempfile
import threading
import time
from pathlib import Path

from repro.experiments.executor import build_cell_simulation
from repro.experiments.results import CellRecord
from repro.runs.orchestrator import Run

from .wire import ChannelClosed, MessageChannel, connect_channel

__all__ = ["FederationWorker", "run_worker"]


class FederationWorker:
    """One registered worker process's pull-execute-report loop."""

    def __init__(
        self,
        address: tuple[str, int],
        name: str | None = None,
        workdir: str | Path | None = None,
        max_cells: int | None = None,
        exit_when_idle: bool = False,
        poll_interval: float = 0.5,
        token: str | None = None,
    ) -> None:
        if max_cells is not None and max_cells < 1:
            raise ValueError("max_cells must be >= 1")
        self.address = (str(address[0]), int(address[1]))
        self.name = name or f"{socketlib.gethostname()}-{os.getpid()}"
        self.token = token
        self._explicit_workdir = workdir
        self.max_cells = max_cells
        self.exit_when_idle = exit_when_idle
        self.poll_interval = float(poll_interval)
        self.cells_done = 0
        self._stop = threading.Event()

    # -- lifecycle --------------------------------------------------------

    def run(self) -> int:
        """Serve until drained/stopped; returns the number of cells run."""
        if self._explicit_workdir is not None:
            workdir = Path(self._explicit_workdir)
            workdir.mkdir(parents=True, exist_ok=True)
            cleanup_workdir = False
        else:
            workdir = Path(tempfile.mkdtemp(prefix="repro-worker-"))
            cleanup_workdir = True
        channel = connect_channel(self.address)
        try:
            payload = {"name": self.name, "pid": os.getpid()}
            if self.token is not None:
                payload["token"] = self.token
            channel.send(("register", payload))
            kind, info = channel.recv()
            if kind != "registered":
                detail = f": {info}" if kind == "error" else ""
                raise RuntimeError(f"registration rejected ({kind!r}){detail}")
            self.name = info["name"]
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                args=(channel, float(info["heartbeat_interval"])),
                name=f"heartbeat-{self.name}",
                daemon=True,
            )
            heartbeat.start()
            self._serve(channel, workdir)
            try:
                channel.send(("goodbye",))
            except BrokenPipeError:
                pass
        except (ChannelClosed, BrokenPipeError):
            pass  # coordinator went away; nothing left to serve
        finally:
            self._stop.set()
            channel.close()
            if cleanup_workdir:
                shutil.rmtree(workdir, ignore_errors=True)
        return self.cells_done

    def stop(self) -> None:
        """Ask the serve loop to exit after the cell in flight (thread-safe)."""
        self._stop.set()

    def _heartbeat_loop(self, channel: MessageChannel, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                channel.send(("heartbeat",))
            except BrokenPipeError:
                return

    # -- the pull loop ----------------------------------------------------

    def _serve(self, channel: MessageChannel, workdir: Path) -> None:
        while not self._stop.is_set():
            if self.max_cells is not None and self.cells_done >= self.max_cells:
                return
            channel.send(("request-cell",))
            kind, payload = channel.recv()
            if kind == "lease":
                self._run_cell(channel, workdir, payload)
                self.cells_done += 1
            elif kind == "idle":
                if self.exit_when_idle and payload.get("drained"):
                    return
                time.sleep(payload.get("retry_after", self.poll_interval))
            else:
                raise RuntimeError(f"unexpected coordinator reply {kind!r}")

    def _run_cell(self, channel: MessageChannel, workdir: Path, payload: dict) -> None:
        cell = payload["cell"]
        token = payload["token"]
        cell_dir = workdir / f"{payload['job']}-cell-{cell.index:04d}-{token[:8]}"

        def ship_checkpoint(manifest: dict, blob: bytes) -> None:
            channel.send(("checkpoint", token, manifest, blob))

        try:
            sim = build_cell_simulation(
                cell.policy,
                cell.system,
                cell.rho,
                cell.workload,
                cell.seed,
                cell.rounds,
                cell.warmup,
                cell.backend,
                cell.metrics,
            )
            run = Run.create(
                sim, cell_dir, checkpoint_every=payload["checkpoint_every"]
            )
            adoption = payload.get("checkpoint")
            if adoption is not None:
                manifest, blob = adoption
                run.store.write(
                    int(manifest["round"]),
                    blob,
                    meta={"engine": manifest.get("engine")},
                )
            result = run.execute(on_checkpoint=ship_checkpoint)
            record = CellRecord.of(cell, result)
            channel.send(("cell-done", token, record))
            channel.recv()  # ack; accepted either way, nothing to do locally
        except (ChannelClosed, BrokenPipeError):
            raise  # the coordinator is gone; unwind the serve loop
        except Exception as error:
            channel.send(
                ("cell-failed", token, f"{type(error).__name__}: {error}")
            )
            channel.recv()
        finally:
            shutil.rmtree(cell_dir, ignore_errors=True)


def run_worker(
    address: tuple[str, int],
    name: str | None = None,
    workdir: str | Path | None = None,
    max_cells: int | None = None,
    exit_when_idle: bool = False,
    poll_interval: float = 0.5,
    token: str | None = None,
) -> int:
    """Build and run one :class:`FederationWorker` (CLI / spawn target)."""
    return FederationWorker(
        address,
        name=name,
        workdir=workdir,
        max_cells=max_cells,
        exit_when_idle=exit_when_idle,
        poll_interval=poll_interval,
        token=token,
    ).run()
