"""Shared hypothesis settings, strategies and statistical assertions.

A plain helper module (not a conftest) so test files can ``from _helpers
import ...`` without depending on pytest's conftest import machinery --
importing from ``conftest`` breaks when another rootdir directory (e.g.
``benchmarks/``) registers its own ``conftest`` module first.

Hypothesis profiles set the suite-wide example budget: ``dev`` (the
default) keeps local iteration fast, ``ci`` runs thoroughly; select one
with ``HYPOTHESIS_PROFILE=ci``.  On top of the profile, tests pick a
named tier scaled from its budget:

``DETERMINISM_SETTINGS``
    Twice the profile's examples, for the bit-identity suites where
    determinism is the claim under test.
``QUICK_SETTINGS``
    A fifth of them (at least five), for I/O-bound tests such as the
    service's, where each example touches disk or sockets.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

__all__ = [
    "DETERMINISM_SETTINGS",
    "QUICK_SETTINGS",
    "server_instances",
    "edge_case_snapshots",
    "dispatch_instances",
    "random_store_blocks",
    "assert_store_matches_reference",
    "ensemble_tolerance",
    "assert_ensemble_close",
    "fingerprint",
]

settings.register_profile("ci", max_examples=200, deadline=None)
settings.register_profile("dev", max_examples=25, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

_PROFILE_EXAMPLES = settings().max_examples

#: Bit-identity suites: twice the profile's example budget.
DETERMINISM_SETTINGS = settings(max_examples=2 * _PROFILE_EXAMPLES, deadline=None)
#: I/O-bound tests: a fifth of the profile's budget, at least five.
QUICK_SETTINGS = settings(max_examples=max(5, _PROFILE_EXAMPLES // 5), deadline=None)


def ensemble_tolerance(n: int, base: float = 1.0, floor: float = 0.01) -> float:
    """Relative tolerance for an ``n``-sample ensemble vs a prediction.

    Sampling error of an ensemble mean shrinks like ``1/sqrt(n)``, so
    the tolerance is ``floor + base / sqrt(n)``: bigger ensembles (or
    bigger simulated systems) must match their analytical prediction
    *more* tightly, while ``floor`` absorbs model error that does not
    vanish with ``n`` (e.g. the O(1/n) finite-system gap to a
    mean-field limit, or histogram discretization).
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    return floor + base / math.sqrt(n)


def assert_ensemble_close(
    observed: float,
    predicted: float,
    *,
    n: int,
    base: float = 1.0,
    floor: float = 0.01,
    label: str = "ensemble mean",
) -> None:
    """Assert an empirical ensemble statistic matches a prediction.

    The shared check for every "simulation agrees with theory" test:
    second-moment formulas (``test_theory``), fluid-limit parity
    (``test_meanfield``).  Relative error is measured against the
    prediction; tolerance comes from :func:`ensemble_tolerance`.
    """
    scale = max(abs(float(predicted)), 1e-12)
    error = abs(float(observed) - float(predicted)) / scale
    tolerance = ensemble_tolerance(n, base=base, floor=floor)
    assert error <= tolerance, (
        f"{label}: observed {observed!r} vs predicted {predicted!r} -> "
        f"relative error {error:.4f} > tolerance {tolerance:.4f} (n={n})"
    )


def fingerprint(record) -> str:
    """Hash of a record's metrics and its result's integer arrays.

    The golden result pins compare these, so that "no result changed"
    stays checked across refactors of the dispatch paths.
    """
    result = record.result
    digest = hashlib.sha256(json.dumps(sorted(record.metrics.items())).encode())
    for array in (
        result.final_queues,
        result.server_received,
        result.server_departed,
        result.histogram.counts,
    ):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


@st.composite
def server_instances(draw, max_servers: int = 24, max_queue: int = 60):
    """A random (queues, rates) pair with well-conditioned rates."""
    n = draw(st.integers(min_value=1, max_value=max_servers))
    queues = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=max_queue),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    rates = np.array(
        draw(
            st.lists(
                st.floats(
                    min_value=0.25,
                    max_value=64.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    return queues, rates


@st.composite
def edge_case_snapshots(draw, max_servers: int = 24):
    """A (queues, rates) snapshot biased toward the solvers' edge cases.

    Small queues over rates drawn mostly from ``{1, 2, 4}`` give tied
    loads and tied ``(2q+1)/mu`` keys; one draw in a few has all-zero
    queues; ``n == 1`` is in range; other rates are heterogeneous floats.
    """
    n = draw(st.integers(min_value=1, max_value=max_servers))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        queues = np.zeros(n, dtype=np.int64)
    else:
        queues = np.array(
            draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)), dtype=np.int64
        )
    rate = st.one_of(
        st.sampled_from([1.0, 2.0, 4.0]),
        st.floats(min_value=0.25, max_value=64.0, allow_nan=False),
    )
    rates = np.array(draw(st.lists(rate, min_size=n, max_size=n)))
    return queues, rates


@st.composite
def dispatch_instances(draw, max_servers: int = 24, max_arrivals: int = 200):
    """A random (queues, rates, arrivals) dispatching instance."""
    queues, rates = draw(server_instances(max_servers=max_servers))
    arrivals = draw(st.integers(min_value=1, max_value=max_arrivals))
    return queues, rates, arrivals


def random_store_blocks(rng, n, block_len, max_sizes, max_jobs=4):
    """A random admission/completion stream for a batch store.

    One block per entry of ``max_sizes``: ``None`` makes a unit block,
    an integer a sized block with job sizes in ``[1, max_size]``.
    Returns ``[(start_round, jobs_block, sizes, done_block)]`` with
    ``sizes`` server-major (``None`` for unit blocks).  Each round
    completes a random share of the work queued after its admissions,
    so head jobs are often partly served across rounds and blocks.
    """
    queued = np.zeros(n, dtype=np.int64)
    blocks = []
    for index, max_size in enumerate(max_sizes):
        jobs = rng.integers(0, max_jobs, size=(block_len, n))
        if max_size is None:
            sizes, units = None, jobs
        else:
            sizes = rng.integers(1, max_size + 1, size=int(jobs.sum()))
            per_cell = jobs.T.ravel()
            totals = np.concatenate(([0], np.cumsum(sizes)))
            ends = np.cumsum(per_cell)
            units = (totals[ends] - totals[ends - per_cell]).reshape(n, block_len).T
        done = np.zeros((block_len, n), dtype=np.int64)
        for i in range(block_len):
            queued += units[i]
            done[i] = rng.integers(0, queued + 1)
            queued -= done[i]
        blocks.append((index * block_len, jobs, sizes, done))
    return blocks


def _reference_drain(n, blocks, warmup):
    """Replay a block stream through one ``SizedServerQueue`` per server.

    Returns the ``(server, departure_round, time, count)`` records, the
    leftover units and the leftover jobs per server.
    """
    from repro.sim.backends import SizedServerQueue

    servers = [SizedServerQueue() for _ in range(n)]
    records = []

    class Sink:
        def record(self, time, count):
            records.append((server, t, time, count))

    for start, jobs, sizes, done in blocks:
        server_jobs = jobs.sum(axis=0)
        taken = np.cumsum(server_jobs) - server_jobs
        for i in range(jobs.shape[0]):
            t = start + i
            for s in np.flatnonzero(jobs[i]):
                k = int(jobs[i, s])
                if sizes is None:
                    servers[s].admit(t, k)
                else:
                    servers[s].admit(t, k, sizes[taken[s] : taken[s] + k])
                    taken[s] += k
            for server in np.flatnonzero(done[i]):
                sink = Sink() if t >= warmup else None
                served = servers[server].complete(int(done[i, server]), t, sink)
                assert served == int(done[i, server])
    units = np.array([q.units for q in servers], dtype=np.int64)
    left = np.array(
        [sum(cell[2] for cell in q._cells) for q in servers], dtype=np.int64
    )
    return records, units, left


def _merged(records):
    """Adjacent records of one (server, round, time) key, summed."""
    out = []
    for server, round_index, time, count in records:
        key = (int(server), int(round_index), int(time))
        if out and out[-1][0] == key:
            out[-1][1] += int(count)
        else:
            out.append([key, int(count)])
    return out


def assert_store_matches_reference(n, block_len, blocks, warmup):
    """Run ``blocks`` through a ``BatchQueueStore`` and check it against
    the reference queues: the same ``response_sink`` records in FIFO
    order, the same histogram and the same leftover units and jobs."""
    from repro.sim.batchstore import BatchQueueStore
    from repro.sim.metrics import ResponseTimeHistogram

    store = BatchQueueStore(n)
    histogram = ResponseTimeHistogram()
    records = []

    def sink(rounds, times, counts, servers):
        records.extend(zip(servers, rounds, times, counts))

    for start, jobs, sizes, done in blocks:
        store.process_block(
            start, jobs, sizes, done, histogram, warmup, response_sink=sink
        )
    expected, units, left = _reference_drain(n, blocks, warmup)
    # Block by block, the store emits records server-major in FIFO
    # position order: departure round ascending, then arrival round
    # ascending.
    expected.sort(key=lambda r: (r[1] // block_len, r[0], r[1], -r[2]))
    assert _merged(records) == _merged(expected)
    expected_histogram = ResponseTimeHistogram()
    for _, _, time, count in expected:
        expected_histogram.record(time, count)
    np.testing.assert_array_equal(histogram.counts, expected_histogram.counts)
    np.testing.assert_array_equal(store.queued_units(), units)
    np.testing.assert_array_equal(store.queued_jobs(), left)
