"""Tests for the block driver's draw-ahead path.

The ``fast`` kernel draws block ``b + 1``'s workload on a helper thread,
from copies of the ``arrivals``, ``departures`` and ``sizes``
generators, while block ``b`` runs its tail; a copy's state is handed to
the simulation's own generator when block ``b + 1`` starts.  Under test:

* a run drawn ahead equals the same run drawn inline -- results, the
  generators' states at every block boundary and at the end -- for unit
  and sized ``rr`` and for ``scd``, with a partial last block;
* a checkpoint taken after block 1, once block 2 is already drawn,
  holds the generators exactly at round 256, and resumes to the
  uninterrupted run;
* the helper thread lives only as long as the ``drive_blocks`` call,
  and a one-block run starts none;
* only a process with a CPU to spare draws ahead: not one limited to a
  single CPU, nor a worker of a process pool;
* exactly the processes whose block draw keeps no state declare
  themselves stateless, and a subclass does not inherit it.

The inline side of each comparison runs processes from subclasses that
do not repeat the declaration, so they draw at block start as before.
The draw-ahead tests count the test process as having a CPU to spare,
whatever the machine it runs on.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from repro.policies.base import make_policy
from repro.policies.jsq import JSQPolicy
from repro.runs import CheckpointController, LegLimitReached, Run
from repro.runs.orchestrator import restore_checkpoint
from repro.sim import blockdriver
from repro.sim.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.sim.blockdriver import BLOCK_ROUNDS, declares_stateless
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.lifecycle import RunController
from repro.sim.scenarios.arrivals import ModulatedRateArrivals, SinusoidCurve
from repro.sim.service import (
    DeterministicService,
    GeometricService,
    ServiceProcess,
    TraceService,
)
from repro.sim.sized import (
    BimodalSize,
    DeterministicSize,
    GeometricSize,
    JobSizeDistribution,
)

#: Five full blocks and a partial sixth.
ROUNDS = 1300
STREAMS = ("arrivals", "departures", "policy", "sizes")
HELPER = "repro-draw-ahead"


class InlinePoisson(PoissonArrivals):
    """Poisson arrivals without the declaration: drawn at block start."""


class InlineGeometric(GeometricService):
    """Geometric capacities without the declaration: drawn at block start."""


def build(policy="rr", sizes=None, rounds=ROUNDS, inline=False, backend="fast"):
    """A 12 x 3 cell at 0.9 of its (work) capacity; ``policy`` is a
    registered name or a policy instance."""
    rates = np.random.default_rng(5).uniform(1.0, 6.0, size=12)
    mean_size = 1.0 if sizes is None else sizes.mean
    lambdas = np.full(3, 0.9 * rates.sum() / mean_size / 3)
    arrivals, service = (
        (InlinePoisson, InlineGeometric) if inline else (PoissonArrivals, GeometricService)
    )
    return Simulation(
        rates,
        make_policy(policy) if isinstance(policy, str) else policy,
        arrivals(lambdas),
        service(rates),
        SimulationConfig(rounds=rounds, seed=11, warmup=100, backend=backend),
        sizes,
    )


@pytest.fixture
def spare_cpu(monkeypatch) -> None:
    """Draw ahead on any machine, a one-CPU one included."""
    monkeypatch.setattr(blockdriver, "_has_spare_cpu", lambda: True)


def stream_states(sim) -> dict:
    return {label: getattr(sim._streams, label).bit_generator.state for label in STREAMS}


def result_arrays(result) -> dict:
    return {
        "final_queues": result.final_queues,
        "server_received": result.server_received,
        "server_departed": result.server_departed,
        "histogram": result.histogram.counts,
        "queue_series": result.queue_series.values,
        "totals": np.array([result.total_arrived, result.total_departed]),
    }


def assert_same_result(a, b) -> None:
    got, expected = result_arrays(a), result_arrays(b)
    for key in expected:
        np.testing.assert_array_equal(got[key], expected[key], err_msg=key)


class ArrivalDraws:
    """Records which thread drew each arrival block, and when it finished."""

    def __init__(self) -> None:
        self.threads: dict[int, str] = {}
        self._done = threading.Condition()

    def record(self, start_round: int) -> None:
        with self._done:
            self.threads[start_round] = threading.current_thread().name
            self._done.notify_all()

    def wait_for(self, start_round: int, rounds: int) -> None:
        """Block until the arrival block at ``start_round`` is drawn."""
        if start_round >= rounds:
            return
        with self._done:
            assert self._done.wait_for(lambda: start_round in self.threads, timeout=30)


@pytest.fixture
def arrival_draws(monkeypatch) -> ArrivalDraws:
    draws = ArrivalDraws()
    sample_many = PoissonArrivals.sample_many

    def recorded(self, rng, start_round, count):
        block = sample_many(self, rng, start_round, count)
        draws.record(start_round)
        return block

    monkeypatch.setattr(PoissonArrivals, "sample_many", recorded)
    return draws


class BoundaryStates(RunController):
    """Records the four generators' states at every block boundary.

    With ``draws`` set it first waits until the next block's arrivals
    are drawn, so a helper that drew on the live generators would show.
    """

    def __init__(self, sim, draws: ArrivalDraws | None = None) -> None:
        self._sim = sim
        self._draws = draws
        self.states: list[tuple[int, dict]] = []

    def after_block(self, next_round: int, export) -> None:
        if self._draws is not None:
            self._draws.wait_for(next_round, self._sim.config.rounds)
        self.states.append((next_round, stream_states(self._sim)))


class CheckpointOnceDrawn(CheckpointController):
    """A checkpoint controller that pickles only once the next block's
    arrivals are drawn."""

    def __init__(self, sim, commit, draws: ArrivalDraws, **kwargs) -> None:
        super().__init__(sim, commit, **kwargs)
        self._draws = draws
        self._rounds = sim.config.rounds

    def after_block(self, next_round: int, export) -> None:
        self._draws.wait_for(next_round, self._rounds)
        super().after_block(next_round, export)


CELLS = {
    "rr": ("rr", None),
    "rr-geometric": ("rr", GeometricSize(3.0)),
    "rr-bimodal": ("rr", BimodalSize(1, 8, 0.2)),
    "scd": ("scd", None),
}


@pytest.mark.usefixtures("spare_cpu")
class TestDrawAheadEqualsInline:
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_results_and_stream_states(self, cell, arrival_draws):
        policy, sizes = CELLS[cell]
        inline_sim = build(policy, sizes, inline=True)
        inline = BoundaryStates(inline_sim)
        expected = inline_sim.run(controller=inline)
        assert set(arrival_draws.threads.values()) == {"MainThread"}

        arrival_draws.threads.clear()
        ahead_sim = build(policy, sizes)
        ahead = BoundaryStates(ahead_sim, arrival_draws)
        got = ahead_sim.run(controller=ahead)

        # Block 0 is drawn inline, every later block on the helper.
        assert arrival_draws.threads[0] == "MainThread"
        later = {t for start, t in arrival_draws.threads.items() if start}
        assert len(later) == 1 and later.pop().startswith(HELPER)
        assert_same_result(got, expected)
        assert ahead.states == inline.states
        assert [r for r, _ in ahead.states] == [256, 512, 768, 1024, 1280, ROUNDS]
        assert stream_states(ahead_sim) == stream_states(inline_sim)

    def test_reference_kernel_agrees(self):
        reference = build("rr", GeometricSize(3.0), backend="reference").run()
        assert_same_result(build("rr", GeometricSize(3.0)).run(), reference)


@pytest.mark.usefixtures("spare_cpu")
class TestCheckpoints:
    @pytest.mark.parametrize("cell", ["rr", "rr-geometric"])
    def test_checkpoint_after_block_one(self, cell, arrival_draws):
        policy, sizes = CELLS[cell]

        def first_checkpoint(sim, controller_type, **kwargs):
            blobs = []
            controller = controller_type(
                sim, lambda header, blob, kernel: blobs.append(blob), max_legs=1, **kwargs
            )
            with pytest.raises(LegLimitReached):
                sim.run(controller=controller)
            return pickle.loads(blobs[0])

        inline = first_checkpoint(build(policy, sizes, inline=True), CheckpointController)
        ahead = first_checkpoint(
            build(policy, sizes), CheckpointOnceDrawn, draws=arrival_draws
        )
        # Block 2 was drawn on the helper before block 1's checkpoint.
        assert arrival_draws.threads[BLOCK_ROUNDS].startswith(HELPER)
        assert ahead["round"] == inline["round"] == BLOCK_ROUNDS
        for label in ("arrivals", "departures", "sizes"):
            assert (
                stream_states(ahead["sim"])[label] == stream_states(inline["sim"])[label]
            ), label

        sim, start, state = restore_checkpoint(ahead)
        resumed = sim.run(
            controller=CheckpointController(
                sim, lambda *args: None, start_round=start, state=state
            )
        )
        assert_same_result(resumed, build(policy, sizes).run())


class FailsInBlockTwo(JSQPolicy):
    """JSQ that raises on the first round of block 2."""

    def begin_round(self, round_index, queues):
        if round_index == BLOCK_ROUNDS:
            raise RuntimeError("policy failure in block 2")
        super().begin_round(round_index, queues)


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs.

    The block driver's executors stay referenced until the test ends, so
    a helper that was never shut down is still alive when the test looks,
    rather than exiting once its executor is collected.
    """
    started, executors = [], []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    class KeptExecutor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            executors.append(self)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    monkeypatch.setattr(blockdriver, "ThreadPoolExecutor", KeptExecutor)
    yield started
    for executor in executors:
        executor.shutdown(wait=True)


@pytest.mark.usefixtures("spare_cpu")
class TestHelperThread:
    @staticmethod
    def assert_helper_joined(started, before: int) -> None:
        assert [t.name.startswith(HELPER) for t in started] == [True]
        assert not started[0].is_alive()
        assert threading.active_count() == before

    def test_no_thread_outlives_a_run(self, started_threads):
        before = threading.active_count()
        build("rr", GeometricSize(3.0)).run()
        self.assert_helper_joined(started_threads, before)

    def test_no_thread_outlives_a_failed_run(self, started_threads):
        sim = build(FailsInBlockTwo())
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 2"):
            sim.run()
        self.assert_helper_joined(started_threads, before)

    def test_no_thread_outlives_a_paused_run(self, tmp_path, started_threads):
        run = Run.create(build("rr"), tmp_path / "run")
        before = threading.active_count()
        assert run.execute(max_legs=1) is None
        self.assert_helper_joined(started_threads, before)

    @pytest.mark.parametrize("rounds", [200, BLOCK_ROUNDS])
    def test_one_block_run_starts_no_thread(self, rounds, started_threads):
        build("rr", GeometricSize(3.0), rounds=rounds).run()
        assert started_threads == []


#: The usable CPUs :func:`_has_spare_cpu` sees in these tests.
TWO_CPUS = mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True)
ONE_CPU = mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True)


def pool_worker_has_spare_cpu() -> bool:
    """Run in a process-pool worker: the gate, with two CPUs usable."""
    with TWO_CPUS:
        return blockdriver._has_spare_cpu()


class TestSpareCpu:
    def test_two_cpus_in_a_plain_process(self):
        with TWO_CPUS:
            assert blockdriver._has_spare_cpu()

    def test_one_cpu(self):
        with ONE_CPU:
            assert not blockdriver._has_spare_cpu()

    def test_a_pool_worker_has_none(self):
        # Its sibling workers are taken to keep the other CPUs busy.
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            assert pool.submit(pool_worker_has_spare_cpu).result() is False

    def test_without_one_a_run_draws_inline(self, started_threads, arrival_draws):
        with ONE_CPU:
            got = build("rr", GeometricSize(3.0)).run()
        assert started_threads == []
        assert set(arrival_draws.threads.values()) == {"MainThread"}
        expected = build("rr", GeometricSize(3.0), inline=True).run()
        assert_same_result(got, expected)


#: Every class that declares its draw stateless, with an instance.
STATELESS = {
    PoissonArrivals: lambda: PoissonArrivals(np.array([1.5, 4.0])),
    TraceArrivals: lambda: TraceArrivals(np.arange(6).reshape(3, 2)),
    GeometricService: lambda: GeometricService(np.array([1.0, 2.5, 7.0])),
    TraceService: lambda: TraceService(np.arange(9).reshape(3, 3)),
    DeterministicSize: lambda: DeterministicSize(3),
    GeometricSize: lambda: GeometricSize(3.0),
    BimodalSize: lambda: BimodalSize(1, 20, 0.3),
}


def _subclasses(base: type) -> set[type]:
    found = set()
    for cls in base.__subclasses__():
        found |= {cls} | _subclasses(cls)
    return found


class TestDeclarations:
    def test_declared_classes(self):
        declared = {
            cls
            for base in (ArrivalProcess, ServiceProcess, JobSizeDistribution)
            for cls in _subclasses(base)
            if cls.__module__.startswith("repro.") and vars(cls).get("stateless") is True
        }
        assert declared == set(STATELESS)

    @pytest.mark.parametrize("cls", list(STATELESS), ids=lambda cls: cls.__name__)
    def test_a_draw_leaves_the_instance_unchanged(self, cls):
        process = STATELESS[cls]()
        assert declares_stateless(process)
        before = pickle.dumps(process)
        rng = np.random.default_rng(3)
        if isinstance(process, JobSizeDistribution):
            process.sample(rng, 50)
        else:
            process.sample_many(rng, 5, 4)
            process.sample(rng, 9)
        assert pickle.dumps(process) == before

    def test_stateful_processes_are_not_declared(self):
        curve = SinusoidCurve(0.4, 512)
        for process in (
            DeterministicArrivals(np.array([1.5, 2.5])),
            DeterministicService(np.array([2.5, 1.0])),
            ModulatedRateArrivals(np.array([1.5, 2.5]), curve),
        ):
            assert not declares_stateless(process), type(process).__name__

    def test_subclasses_do_not_inherit_the_declaration(self):
        assert not declares_stateless(InlinePoisson(np.array([1.0])))
        assert not declares_stateless(InlineGeometric(np.array([1.0])))
