"""Tests for the coordination service (repro.service).

The load-bearing property: an experiment executed by a federation of
workers -- through every failure the protocol claims to survive
(SIGKILL mid-cell, wedged workers that miss heartbeats, stale messages
from presumed-dead lease holders) -- produces records bit-identical to
a plain SerialExecutor run.  Around that sit the framed wire transport,
job bookkeeping, and the HTTP job API with its streaming telemetry
endpoint.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import tempfile
import threading
import time

import pytest
from _helpers import QUICK_SETTINGS
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.persistence import (
    experiment_from_descriptor,
    load_experiment,
)
from repro.experiments.executor import SerialExecutor
from repro.experiments.grid import Experiment
from repro.experiments.workload import WorkloadSpec
from repro.runs import iter_events
from repro.runs.checkpoint import _FORMAT_VERSION as CHECKPOINT_FORMAT_VERSION
from repro.runs.checkpoint import CheckpointStore
from repro.service import (
    ChannelClosed,
    FederationCoordinator,
    FederationWorker,
    JobManager,
    MessageChannel,
    ServiceAPI,
    run_worker,
    validate_submittable,
)
from repro.service.client import (
    ServiceError,
    iter_job_events,
    job_result,
    job_status,
    submit_job,
)
from repro.service.wire import connect_channel
from repro.workloads.scenarios import SystemSpec

SYSTEM = SystemSpec(num_servers=8, num_dispatchers=2)


def small_experiment(rounds: int = 400, loads=(0.8, 0.95)) -> Experiment:
    return Experiment(
        policies=["jsq", "scd"],
        systems=SYSTEM,
        loads=list(loads),
        rounds=rounds,
    )


def assert_no_leaked_threads() -> None:
    """Every coordinator and API thread joined (teardown check)."""
    leaked = [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("federation-", "service-api"))
    ]
    assert not leaked, f"service threads leaked: {leaked}"


def plant_checkpoint(store, round_index: int, version) -> None:
    """Commit a checkpoint stamped with format ``version`` whose payload
    raises if anything ever unpickles it."""
    store.write(round_index, b"not a pickle")
    path = store.manifest_paths()[0]
    manifest = json.loads(path.read_text())
    manifest["format_version"] = version
    path.write_text(json.dumps(manifest))


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s")


# ---------------------------------------------------------------------------
# The wire transport.
# ---------------------------------------------------------------------------


def channel_pair() -> tuple[MessageChannel, MessageChannel]:
    a, b = socket.socketpair()
    return MessageChannel(a), MessageChannel(b)


class TestMessageChannel:
    def test_round_trips_arbitrary_objects(self):
        left, right = channel_pair()
        payloads = [
            ("block", 3, list(range(100))),
            {"nested": {"tuple": (1, 2.5, None)}},
            b"\x00" * 100_000,  # larger than any single recv() chunk
        ]
        for payload in payloads:
            left.send(payload)
            assert right.recv() == payload
        left.close()
        right.close()

    def test_closed_peer_raises_channel_closed_as_eoferror(self):
        left, right = channel_pair()
        left.close()
        with pytest.raises(ChannelClosed):
            right.recv()
        assert issubclass(ChannelClosed, EOFError)  # pipe-clause compatible

    def test_poll_reflects_message_availability(self):
        left, right = channel_pair()
        assert not right.poll(0.0)
        left.send("ping")
        wait_until(lambda: right.poll(0.0))
        assert right.recv() == "ping"
        left.close()
        right.close()

    def test_oversized_frame_rejected_not_allocated(self):
        a, b = socket.socketpair()
        right = MessageChannel(b)
        a.sendall(struct.pack(">Q", 1 << 62))  # absurd length header
        with pytest.raises(ChannelClosed, match="oversized"):
            right.recv()
        a.close()
        right.close()

    def test_concurrent_senders_never_interleave_frames(self):
        left, right = channel_pair()
        per_thread = 50
        threads = [
            threading.Thread(
                target=lambda tag: [
                    left.send((tag, i, b"x" * 4096)) for i in range(per_thread)
                ],
                args=(tag,),
            )
            for tag in range(4)
        ]
        for thread in threads:
            thread.start()
        received = [right.recv() for _ in range(4 * per_thread)]
        for thread in threads:
            thread.join()
        by_tag = {tag: [] for tag in range(4)}
        for tag, i, blob in received:
            assert blob == b"x" * 4096  # a torn frame would garble this
            by_tag[tag].append(i)
        for sequence in by_tag.values():
            assert sequence == sorted(sequence)  # per-sender FIFO
        left.close()
        right.close()


# ---------------------------------------------------------------------------
# Job bookkeeping.
# ---------------------------------------------------------------------------


class TestJobManager:
    def test_cells_hand_out_in_grid_order(self, tmp_path):
        manager = JobManager(tmp_path)
        experiment = small_experiment()
        job = manager.submit(experiment)
        indices = []
        while (pulled := manager.next_cell()) is not None:
            pulled_job, cell, checkpoint_every, adoption = pulled
            assert pulled_job == job
            assert checkpoint_every == 1
            assert adoption is None
            indices.append(cell.index)
        assert indices == list(range(experiment.size))
        manager.close()

    @given(
        version=st.one_of(
            st.integers(-3, 50), st.none(), st.text(max_size=3)
        ).filter(lambda version: version != CHECKPOINT_FORMAT_VERSION)
    )
    @QUICK_SETTINGS
    def test_foreign_format_checkpoint_is_not_adopted(self, version):
        """A stored checkpoint of another format version is absent to
        adoption: the cell restarts from round 0."""
        with tempfile.TemporaryDirectory() as root:
            manager = JobManager(root)
            job = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
            plant_checkpoint(manager.job(job).cell_store(0), 256, version)
            with pytest.warns(RuntimeWarning, match="unsupported format version"):
                _, cell, _, adoption = manager.next_cell()
            assert cell.index == 0
            assert adoption is None
            manager.close()

    def test_requeued_cell_comes_back_first(self, tmp_path):
        manager = JobManager(tmp_path)
        job = manager.submit(small_experiment())
        _, first, _, _ = manager.next_cell()
        manager.requeue_cell(job, first.index)
        _, again, _, _ = manager.next_cell()
        assert again.index == first.index
        manager.close()

    def test_repeated_failures_fail_the_job(self, tmp_path):
        manager = JobManager(tmp_path)
        job = manager.submit(small_experiment())
        for _ in range(3):
            _, cell, _, _ = manager.next_cell()
            manager.requeue_cell(job, cell.index, failed=True)
            if manager.job_state(job) == "failed":
                break
        assert manager.job_state(job) == "failed"
        assert manager.next_cell() is None  # failed jobs stop handing out work
        manager.close()

    def test_duplicate_record_rejected(self, tmp_path):
        manager = JobManager(tmp_path)
        experiment = small_experiment(rounds=300, loads=(0.8,))
        job = manager.submit(experiment)
        records = SerialExecutor().run(experiment)
        assert manager.record_result(job, 0, records[0])
        assert not manager.record_result(job, 0, records[0])
        manager.close()

    def test_result_assembles_in_grid_order_regardless_of_arrival(self, tmp_path):
        manager = JobManager(tmp_path)
        experiment = small_experiment(rounds=300)
        job = manager.submit(experiment)
        records = SerialExecutor().run(experiment)
        for index in reversed(range(len(records))):  # deliver backwards
            manager.record_result(job, index, records[index])
        assert manager.job_state(job) == "finished"
        stored = load_experiment(manager.result_path(job))
        assert tuple(stored.records) == tuple(records)
        manager.close()

    def test_job_numbering_continues_from_disk(self, tmp_path):
        manager = JobManager(tmp_path)
        first = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
        manager.close()
        reborn = JobManager(tmp_path)
        second = reborn.submit(small_experiment(rounds=300, loads=(0.8,)))
        assert second != first
        assert int(second.split("-")[1]) > int(first.split("-")[1])
        reborn.close()

    def test_lossy_workloads_rejected_at_submission(self, tmp_path):
        manager = JobManager(tmp_path)
        # Bursty workloads are scenario strings: they survive the
        # descriptor round-trip and submit like the original object.
        bursty = Experiment(
            policies=["jsq"],
            systems=SYSTEM,
            loads=[0.9],
            rounds=300,
            workloads=(WorkloadSpec.bursty(3.0),),
        )
        rebuilt = experiment_from_descriptor(bursty.describe())
        assert rebuilt == bursty
        manager.submit(rebuilt)
        # Job-size distributions only serialize as a repr: still lossy,
        # still rejected loudly at the API boundary.
        from repro.sim.sized import GeometricSize

        sized = Experiment(
            policies=["jsq"],
            systems=SYSTEM,
            loads=[0.9],
            rounds=300,
            workloads=(WorkloadSpec.sized(GeometricSize(mean_size=2.0)),),
        )
        rebuilt_sized = experiment_from_descriptor(sized.describe())
        with pytest.raises(ValueError, match="round-trip"):
            validate_submittable(rebuilt_sized)
        with pytest.raises(ValueError, match="round-trip"):
            manager.submit(rebuilt_sized)
        # the original object (factories intact) submits fine in-process
        manager.submit(sized)
        manager.close()

    def test_checkpoint_cache_keeps_only_retained_rounds(self, tmp_path):
        manager = JobManager(tmp_path)
        job = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
        for round_index in (256, 512, 768):
            blob = pickle.dumps({"round": round_index})
            manager.store_checkpoint(
                job, 0, {"round": round_index, "engine": "unsized"}, blob
            )
        _, _, _, adoption = manager.next_cell()
        manifest, blob = adoption
        assert manifest["round"] == 768  # adoption always gets the newest
        manager.close()


# ---------------------------------------------------------------------------
# Federation end to end (in-process coordinator + worker threads).
# ---------------------------------------------------------------------------


@pytest.fixture()
def service(tmp_path):
    manager = JobManager(tmp_path / "data")
    coordinator = FederationCoordinator(
        manager, heartbeat_interval=0.2, heartbeat_misses=3, retry_after=0.05
    )
    coordinator.start()
    api = ServiceAPI(manager, coordinator)
    api.start()
    yield manager, coordinator, api
    api.stop()
    coordinator.stop()
    manager.close()
    assert_no_leaked_threads()


def start_worker_thread(coordinator, **kwargs) -> threading.Thread:
    kwargs.setdefault("exit_when_idle", True)
    kwargs.setdefault("poll_interval", 0.05)
    thread = threading.Thread(
        target=run_worker, args=(coordinator.address,), kwargs=kwargs
    )
    thread.start()
    return thread


class TestFederation:
    def test_two_workers_match_serial_execution(self, service):
        manager, coordinator, _api = service
        experiment = small_experiment()
        baseline = SerialExecutor().run(experiment)
        job = manager.submit(experiment)
        threads = [
            start_worker_thread(coordinator, name=f"w{i}") for i in range(2)
        ]
        for thread in threads:
            thread.join(timeout=120)
        assert manager.job_state(job) == "finished"
        stored = load_experiment(manager.result_path(job))
        assert tuple(stored.records) == tuple(baseline)

    def test_job_telemetry_event_contract(self, service):
        manager, coordinator, _api = service
        experiment = small_experiment(rounds=300, loads=(0.8,))
        job = manager.submit(experiment)
        start_worker_thread(coordinator, name="solo").join(timeout=120)
        kinds = [e["event"] for e in iter_events(manager.telemetry_path(job))]
        assert kinds[0] == "job-submitted"
        assert kinds[-1] == "job-finished"
        assert kinds.count("cell-leased") == experiment.size
        assert kinds.count("cell-finished") == experiment.size

    def test_old_format_checkpoint_reruns_cell_from_round_zero(self, service):
        """A version-1 snapshot left in the adoption cache is never
        unpickled (its payload would raise): the cell is leased without
        adoption and reruns from round 0 to the serial result."""
        manager, coordinator, _api = service
        experiment = Experiment(
            policies=["jsq"], systems=SYSTEM, loads=[0.8], rounds=600,
            backend="fast",
        )
        baseline = SerialExecutor().run(experiment)
        job = manager.submit(experiment)
        plant_checkpoint(manager.job(job).cell_store(0), 256, 1)
        with pytest.warns(RuntimeWarning, match="unsupported format version 1"):
            start_worker_thread(coordinator, name="solo").join(timeout=120)
        assert manager.job_state(job) == "finished"
        events = list(iter_events(manager.telemetry_path(job)))
        leases = [e for e in events if e["event"] == "cell-leased"]
        assert [e["adopted_round"] for e in leases] == [None]
        stored = load_experiment(manager.result_path(job))
        assert tuple(stored.records) == tuple(baseline)

    def test_stop_wakes_accept_and_joins_every_thread(self, tmp_path):
        """stop() returns promptly even with an idle connection open and
        leaves no coordinator thread behind."""
        manager = JobManager(tmp_path / "data")
        coordinator = FederationCoordinator(manager, heartbeat_interval=5.0)
        coordinator.start()
        idle = connect_channel(coordinator.address)
        wait_until(lambda: len(coordinator._threads) == 3)
        start = time.monotonic()
        coordinator.stop()
        assert time.monotonic() - start < 2.0
        assert all(not thread.is_alive() for thread in coordinator._threads)
        idle.close()
        manager.close()
        assert_no_leaked_threads()

    def test_worker_exception_requeues_then_fails_job(self, service):
        manager, coordinator, _api = service
        # Emulate a poisoned cell by breaking the grid object after
        # submission (Experiment validates backends at construction, so
        # the unknown name can only be injected at this seam) -- the
        # worker raises in build_cell_simulation, reports cell-failed,
        # and after MAX_CELL_FAILURES attempts the job fails.
        experiment = small_experiment(rounds=300, loads=(0.8,))
        job = manager.submit(experiment)
        poisoned = manager.job(job)
        for index, cell in list(poisoned.cells.items()):
            poisoned.cells[index] = cell.__class__(
                **{**cell.__dict__, "backend": "no-such-backend"}
            )
        start_worker_thread(coordinator, name="crasher").join(timeout=120)
        wait_until(lambda: manager.job_state(job) == "failed")
        kinds = [e["event"] for e in iter_events(manager.telemetry_path(job))]
        assert "cell-failed" in kinds
        assert "job-failed" in kinds


#: Set by unpickling a :class:`_Tripwire`; adoption must never get there.
_TRIPPED = threading.Event()


def _trip() -> None:
    _TRIPPED.set()


class _Tripwire:
    """A pickle payload whose unpickling sets :data:`_TRIPPED`."""

    def __reduce__(self):
        return (_trip, ())


class TestWorkerCheckpointPath:
    """A worker runs its cells in memory: it ships every checkpoint to
    the coordinator and writes nothing itself, and it unpickles an
    adopted checkpoint only after the same checks the coordinator's
    store applies."""

    def test_explicit_workdir_stays_empty(self, service, tmp_path):
        manager, coordinator, _api = service
        workdir = tmp_path / "worker"
        workdir.mkdir()
        job = manager.submit(small_experiment(rounds=600, loads=(0.8,)))
        start_worker_thread(coordinator, name="solo", workdir=workdir).join(
            timeout=120
        )
        assert manager.job_state(job) == "finished"
        assert list(workdir.iterdir()) == []

    def test_worker_thread_never_writes_or_fsyncs(self, service, monkeypatch):
        """Per thread, because the in-process coordinator writes and
        fsyncs its own copy of every uploaded checkpoint."""
        manager, coordinator, _api = service
        writes: list[str] = []
        fsyncs: list[str] = []
        store_write, fsync = CheckpointStore.write, os.fsync

        def counting_write(self, *args, **kwargs):
            writes.append(threading.current_thread().name)
            return store_write(self, *args, **kwargs)

        def counting_fsync(fd):
            fsyncs.append(threading.current_thread().name)
            return fsync(fd)

        monkeypatch.setattr(CheckpointStore, "write", counting_write)
        monkeypatch.setattr(os, "fsync", counting_fsync)
        experiment = small_experiment(rounds=600, loads=(0.8,))
        baseline = SerialExecutor().run(experiment)
        job = manager.submit(experiment)
        worker = threading.Thread(
            target=run_worker,
            args=(coordinator.address,),
            kwargs={"name": "solo", "exit_when_idle": True, "poll_interval": 0.05},
            name="worker-under-test",
        )
        worker.start()
        worker.join(timeout=120)
        assert manager.job_state(job) == "finished"
        stored = load_experiment(manager.result_path(job))
        assert tuple(stored.records) == tuple(baseline)
        # Two cells x two interior block boundaries reached the coordinator.
        assert len(writes) == 4 and len(fsyncs) >= 8
        assert "worker-under-test" not in writes + fsyncs

    @pytest.mark.parametrize("damage", ["format_version", "sha256"])
    def test_unverifiable_adoption_fails_the_cell_unpickled(self, service, damage):
        """The coordinator's own store never ships such a blob; a lease
        that carries one anyway (foreign format, or bytes that do not
        match their hash) fails the cell without unpickling it."""
        manager, coordinator, _api = service
        blob = pickle.dumps(_Tripwire())
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "round": 256,
            "engine": "unsized",
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        manifest[damage] = 1 if damage == "format_version" else "0" * 64
        job = manager.submit(small_experiment(rounds=600, loads=(0.8,)))
        next_cell = manager.next_cell

        def poisoned_next_cell():
            pulled = next_cell()
            if pulled is None:
                return None
            job_id, cell, checkpoint_every, _ = pulled
            return job_id, cell, checkpoint_every, (manifest, blob)

        manager.next_cell = poisoned_next_cell
        _TRIPPED.clear()
        start_worker_thread(coordinator, name="adopter").join(timeout=120)
        wait_until(lambda: manager.job_state(job) == "failed")
        assert not _TRIPPED.is_set()
        failures = [
            e
            for e in iter_events(manager.telemetry_path(job))
            if e["event"] == "cell-failed"
        ]
        assert failures
        assert all("adopted checkpoint rejected" in e["error"] for e in failures)


class TestFailover:
    def test_sigkilled_worker_cell_is_adopted_bit_identically(self, tmp_path):
        """The PR's headline guarantee, end to end: kill -9 a worker
        mid-cell, watch the lease revoke and the cell resume elsewhere
        from the dead worker's last uploaded checkpoint, and compare
        the final records against SerialExecutor bit for bit."""
        experiment = Experiment(
            policies=["jsq"],
            systems=SYSTEM,
            loads=[0.9],
            rounds=60_000,
            backend="fast",
        )
        baseline = SerialExecutor().run(experiment)
        manager = JobManager(tmp_path / "data")
        coordinator = FederationCoordinator(
            manager, heartbeat_interval=0.2, heartbeat_misses=3, retry_after=0.05
        )
        coordinator.start()
        try:
            job = manager.submit(experiment, checkpoint_every=8)
            context = multiprocessing.get_context()
            victim = context.Process(
                target=run_worker,
                args=(coordinator.address,),
                kwargs={"name": "victim"},
            )
            victim.start()

            def first_checkpoint_uploaded():
                leases = coordinator.status()["leases"]
                return bool(leases and leases[0]["checkpoint_round"])

            wait_until(first_checkpoint_uploaded, timeout=60)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()

            rescue = start_worker_thread(coordinator, name="rescue")
            rescue.join(timeout=180)
            assert manager.job_state(job) == "finished"

            events = list(iter_events(manager.telemetry_path(job)))
            reassigned = [e for e in events if e["event"] == "cell-reassigned"]
            assert reassigned and reassigned[0]["checkpoint_round"] >= 2048
            leases = [e for e in events if e["event"] == "cell-leased"]
            # the re-lease adopted the dead worker's newest checkpoint
            assert leases[-1]["adopted_round"] == reassigned[-1]["checkpoint_round"]

            stored = load_experiment(manager.result_path(job))
            assert tuple(stored.records) == tuple(baseline)
        finally:
            coordinator.stop()
            manager.close()
        assert_no_leaked_threads()

    def test_silent_worker_loses_lease_and_stale_messages_bounce(self, service):
        """A wedged worker (socket open, no heartbeats) is declared
        lost; its checkpoint uploads are dropped (torn lease) and its
        late cell-done is acknowledged-but-rejected (duplicate lease)."""
        manager, coordinator, _api = service
        experiment = small_experiment(rounds=300, loads=(0.8,))
        baseline = SerialExecutor().run(experiment)
        job = manager.submit(experiment)

        zombie = connect_channel(coordinator.address)
        zombie.send(("register", {"name": "zombie", "pid": 4242}))
        kind, info = zombie.recv()
        assert kind == "registered"
        zombie.send(("request-cell",))
        kind, lease = zombie.recv()
        assert kind == "lease"
        token = lease["token"]
        # ... then silence: no heartbeats, no progress.
        wait_until(lambda: not coordinator.status()["leases"], timeout=10)
        kinds = [e["event"] for e in iter_events(manager.telemetry_path(job))]
        assert "cell-reassigned" in kinds

        # Torn lease: a checkpoint upload quoting the revoked token is
        # dropped without touching the adoption cache.
        stale = connect_channel(coordinator.address)
        stale.send(("register", {"name": "late", "pid": 4243}))
        stale.recv()
        stale.send(
            ("checkpoint", token, {"round": 256, "engine": "unsized"}, b"blob")
        )
        # Duplicate lease: the revoked holder's finished record bounces.
        stale.send(("cell-done", token, baseline[lease["cell"].index]))
        kind, ack = stale.recv()
        assert (kind, ack["accepted"]) == ("ack", False)
        events = list(iter_events(manager.telemetry_path(job)))
        assert not [e for e in events if e["event"] == "checkpoint-received"]
        assert manager.job_status(job)["cells_done"] == 0

        # A healthy worker still completes the job bit-identically.
        start_worker_thread(coordinator, name="healthy").join(timeout=120)
        assert manager.job_state(job) == "finished"
        stored = load_experiment(manager.result_path(job))
        assert tuple(stored.records) == tuple(baseline)
        zombie.close()
        stale.close()


# ---------------------------------------------------------------------------
# The HTTP job API.
# ---------------------------------------------------------------------------


class TestServiceAPI:
    def test_submit_poll_stream_result_round_trip(self, service):
        manager, coordinator, api = service
        experiment = small_experiment(rounds=300, loads=(0.8,))
        baseline = SerialExecutor().run(experiment)

        created = submit_job(api.url, experiment.describe())
        job = created["job"]
        assert created["cells"] == experiment.size

        worker = start_worker_thread(coordinator, name="http-w")
        # follow=True streams live until the job leaves "running".
        events = list(iter_job_events(api.url, job, follow=True))
        worker.join(timeout=120)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "job-submitted"
        assert kinds[-1] == "job-finished"
        assert kinds.count("cell-finished") == experiment.size

        status = job_status(api.url, job)
        assert (status["state"], status["cells_done"]) == (
            "finished",
            experiment.size,
        )
        fetched = job_result(api.url, job)
        assert tuple(fetched.records) == tuple(baseline)
        # non-follow replay returns the same events and terminates
        replay = list(iter_job_events(api.url, job))
        assert [e["event"] for e in replay] == kinds

    def test_bad_descriptor_is_a_400(self, service):
        _manager, _coordinator, api = service
        with pytest.raises(ServiceError) as excinfo:
            submit_job(api.url, {"policies": []})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "policy, loads",
        [
            ({"name": "nope", "kwargs": {}}, [0.9]),
            ({"name": "scd-sized", "kwargs": {"mean_size": 0}}, [0.9]),
            ({"name": "jsq", "kwargs": {}}, [-1.0]),
        ],
    )
    def test_unbuildable_grid_is_a_400(self, service, policy, loads):
        _manager, _coordinator, api = service
        descriptor = small_experiment(rounds=300, loads=(0.9,)).describe()
        descriptor["policies"] = [policy]
        descriptor["loads"] = loads
        with pytest.raises(ServiceError) as excinfo:
            submit_job(api.url, descriptor)
        assert excinfo.value.code == 400

    def test_lossy_descriptor_is_a_400(self, service):
        from repro.sim.sized import GeometricSize

        _manager, _coordinator, api = service
        # Job-size distributions have no factory registry entry, so the
        # descriptor is lossy and the API must refuse it.
        sized = Experiment(
            policies=["jsq"],
            systems=SYSTEM,
            loads=[0.9],
            rounds=300,
            workloads=(WorkloadSpec.sized(GeometricSize(mean_size=2.0)),),
        )
        with pytest.raises(ServiceError) as excinfo:
            submit_job(api.url, sized.describe())
        assert excinfo.value.code == 400
        assert "round-trip" in str(excinfo.value)

    def test_registered_factory_descriptor_submits(self, service):
        _manager, coordinator, api = service
        # Bursty workloads survive the wire as scenario strings: the
        # job runs the same grid and yields the in-process records.
        bursty = Experiment(
            policies=["jsq"],
            systems=SYSTEM,
            loads=[0.9],
            rounds=300,
            workloads=(WorkloadSpec.bursty(3.0),),
        )
        created = submit_job(api.url, bursty.describe())
        assert created["job"].startswith("job-")
        start_worker_thread(coordinator, name="bursty-w").join(timeout=120)
        fetched = job_result(api.url, created["job"])
        assert tuple(fetched.records) == tuple(SerialExecutor().run(bursty))

    def test_unknown_job_is_a_404(self, service):
        _manager, _coordinator, api = service
        with pytest.raises(ServiceError) as excinfo:
            job_status(api.url, "job-9999")
        assert excinfo.value.code == 404

    def test_unfinished_result_is_a_404_with_state(self, service):
        manager, _coordinator, api = service
        job = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
        with pytest.raises(ServiceError) as excinfo:
            job_result(api.url, job)
        assert excinfo.value.code == 404


# ---------------------------------------------------------------------------
# CLI verbs against an in-process service.
# ---------------------------------------------------------------------------


class TestServiceCLI:
    def test_submit_status_and_worker_verbs(self, service, capsys):
        from repro.cli import main

        manager, coordinator, api = service
        experiment = small_experiment(rounds=300, loads=(0.8,))
        baseline = SerialExecutor().run(experiment)
        host, port = coordinator.address

        assert (
            main(
                [
                    "submit",
                    "--url",
                    api.url,
                    "--policies",
                    "jsq",
                    "scd",
                    "--systems",
                    "8x2",
                    "--loads",
                    "0.8",
                    "--rounds",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "submitted job-0001" in out

        worker = threading.Thread(
            target=main,
            args=(
                [
                    "worker",
                    "--connect",
                    f"{host}:{port}",
                    "--exit-when-idle",
                    "--poll-interval",
                    "0.05",
                ],
            ),
        )
        worker.start()
        worker.join(timeout=120)
        assert manager.job_state("job-0001") == "finished"
        stored = load_experiment(manager.result_path("job-0001"))
        assert tuple(stored.records) == tuple(baseline)

        assert main(["status", "--url", api.url]) == 0
        out = capsys.readouterr().out
        assert "worker(s)" in out
        assert main(["status", "--url", api.url, "job-0001", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "finished"


# ---------------------------------------------------------------------------
# Job priorities and cancellation.
# ---------------------------------------------------------------------------


class TestJobPriorities:
    def test_higher_priority_cells_lease_first(self, tmp_path):
        manager = JobManager(tmp_path)
        low = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
        high = manager.submit(
            small_experiment(rounds=300, loads=(0.8,)), priority=5
        )
        order = []
        while (pulled := manager.next_cell()) is not None:
            order.append(pulled[0])
        split = order.index(low)
        assert set(order[:split]) == {high}
        assert set(order[split:]) == {low}
        manager.close()

    def test_default_priority_keeps_fifo_submission_order(self, tmp_path):
        manager = JobManager(tmp_path)
        first = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
        second = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
        jobs = []
        while (pulled := manager.next_cell()) is not None:
            jobs.append(pulled[0])
        assert jobs == [first] * 2 + [second] * 2
        manager.close()

    def test_requeue_front_of_band_without_preempting(self, tmp_path):
        manager = JobManager(tmp_path)
        low = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
        job_id, cell, _, _ = manager.next_cell()
        assert job_id == low
        high = manager.submit(
            small_experiment(rounds=300, loads=(0.8,)), priority=9
        )
        manager.requeue_cell(low, cell.index)
        # Every high-priority cell still outranks the requeued one...
        assert manager.next_cell()[0] == high
        assert manager.next_cell()[0] == high
        # ...but within its band the requeued cell is first again.
        again_job, again, _, _ = manager.next_cell()
        assert (again_job, again.index) == (low, cell.index)
        manager.close()

    def test_priority_lands_in_status_and_manifest(self, tmp_path):
        manager = JobManager(tmp_path)
        job = manager.submit(
            small_experiment(rounds=300, loads=(0.8,)), priority=3
        )
        assert manager.job_status(job)["priority"] == 3
        manifest = json.loads(
            (manager.jobs_dir / job / "job.json").read_text()
        )
        assert manifest["priority"] == 3
        manager.close()


class TestJobCancellation:
    def test_cancel_drops_queued_cells(self, tmp_path):
        manager = JobManager(tmp_path)
        job = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
        assert manager.cancel(job)
        assert manager.job_state(job) == "cancelled"
        assert manager.next_cell() is None
        assert not manager.cancel(job)  # already left "running"
        manager.close()

    def test_inflight_lease_drains_harmlessly(self, tmp_path):
        manager = JobManager(tmp_path)
        experiment = small_experiment(rounds=300, loads=(0.8,))
        job = manager.submit(experiment)
        _, cell, _, _ = manager.next_cell()
        records = SerialExecutor().run(experiment)
        manager.cancel(job)
        # A late result and a revoked-lease requeue both hit the state
        # guard: acknowledged, dropped, nothing re-enters the queue.
        assert not manager.record_result(job, cell.index, records[cell.index])
        manager.requeue_cell(job, cell.index)
        assert manager.next_cell() is None
        assert manager.job_status(job)["cells_done"] == 0
        manager.close()

    def test_cancel_unknown_job_raises_key_error(self, tmp_path):
        manager = JobManager(tmp_path)
        with pytest.raises(KeyError):
            manager.cancel("job-9999")
        manager.close()

    def test_cancel_emits_telemetry(self, tmp_path):
        manager = JobManager(tmp_path)
        job = manager.submit(small_experiment(rounds=300, loads=(0.8,)))
        manager.cancel(job)
        kinds = [e["event"] for e in iter_events(manager.telemetry_path(job))]
        assert kinds[-1] == "job-cancelled"
        manager.close()

    def test_cancel_over_http_and_cli(self, service, capsys):
        from repro.cli import main
        from repro.service.client import cancel_job

        manager, _coordinator, api = service
        job = manager.submit(
            small_experiment(rounds=300, loads=(0.8,)), priority=2
        )
        status = cancel_job(api.url, job)
        assert (status["state"], status["priority"]) == ("cancelled", 2)
        # cancelling again over the CLI is a no-op 200, not an error
        assert main(["cancel", job, "--url", api.url]) == 0
        assert "cancelled" in capsys.readouterr().out
        with pytest.raises(ServiceError) as excinfo:
            cancel_job(api.url, "job-9999")
        assert excinfo.value.code == 404


# ---------------------------------------------------------------------------
# Worker auth tokens.
# ---------------------------------------------------------------------------


@pytest.fixture()
def token_service(tmp_path):
    manager = JobManager(tmp_path / "data")
    coordinator = FederationCoordinator(
        manager,
        heartbeat_interval=0.2,
        heartbeat_misses=3,
        retry_after=0.05,
        token="s3cret",
    )
    coordinator.start()
    yield manager, coordinator
    coordinator.stop()
    manager.close()
    assert_no_leaked_threads()


class TestWorkerAuth:
    def test_wrong_token_rejected_and_channel_closed(self, token_service):
        _manager, coordinator = token_service
        worker = FederationWorker(
            coordinator.address, name="intruder", token="wrong"
        )
        with pytest.raises(RuntimeError, match="invalid auth token"):
            worker.run()
        assert coordinator.status()["workers"] == []

    def test_missing_token_rejected(self, token_service):
        _manager, coordinator = token_service
        worker = FederationWorker(coordinator.address, name="anon")
        with pytest.raises(RuntimeError, match="invalid auth token"):
            worker.run()

    def test_correct_token_serves_jobs_end_to_end(self, token_service):
        manager, coordinator = token_service
        experiment = small_experiment(rounds=300, loads=(0.8,))
        baseline = SerialExecutor().run(experiment)
        job = manager.submit(experiment)
        start_worker_thread(
            coordinator, name="trusted", token="s3cret"
        ).join(timeout=120)
        assert manager.job_state(job) == "finished"
        stored = load_experiment(manager.result_path(job))
        assert tuple(stored.records) == tuple(baseline)

    def test_rejection_emits_telemetry(self, token_service):
        manager, coordinator = token_service
        with pytest.raises(RuntimeError):
            FederationWorker(coordinator.address, name="x", token="nope").run()
        events = list(iter_events(manager.telemetry.path))
        rejected = [e for e in events if e["event"] == "worker-rejected"]
        assert rejected and rejected[-1]["reason"] == "invalid-token"

    def test_empty_token_rejected_at_construction(self, tmp_path):
        manager = JobManager(tmp_path)
        with pytest.raises(ValueError):
            FederationCoordinator(manager, token="")
        manager.close()

    def test_tokenless_coordinator_still_accepts_anyone(self, service):
        manager, coordinator, _api = service
        experiment = small_experiment(rounds=300, loads=(0.8,))
        job = manager.submit(experiment)
        start_worker_thread(coordinator, name="open").join(timeout=120)
        assert manager.job_state(job) == "finished"
