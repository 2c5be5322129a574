"""Random-stream management for reproducible, comparable simulations.

The paper evaluates all policies under *identical* arrival and departure
processes ("we use the same random seed across all algorithms", Section 6).
We realize this with four independent generator streams per simulation:

* ``arrivals``   -- drives the per-dispatcher arrival processes,
* ``departures`` -- drives the per-server service processes,
* ``policy``     -- drives any randomness inside the dispatching policy,
* ``sizes``      -- draws job work sizes (sized workloads only).

Arrival and departure draws never depend on policy decisions (a server's
*capacity* ``c_s(t)`` is drawn each round regardless of how many jobs are
present), so two simulations differing only in policy consume the arrival
and departure streams identically -- common random numbers by construction.

The ``sizes`` stream is the fourth child (spawn index 3) of the master
seed sequence, so adding it left the first three streams' values
unchanged.  Each round's admitted jobs take the next sizes from it in
server-index order; how many sizes a round draws depends on the round's
job total only, never on the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimulationStreams", "spawn_streams", "derive_seed"]

_STREAM_LABELS = ("arrivals", "departures", "policy", "sizes")


@dataclass(frozen=True)
class SimulationStreams:
    """The four independent random streams of one simulation run."""

    arrivals: np.random.Generator
    departures: np.random.Generator
    policy: np.random.Generator
    sizes: np.random.Generator


def spawn_streams(seed: int | np.random.SeedSequence) -> SimulationStreams:
    """Create the four streams from one master seed.

    The same master seed always yields the same four streams, and the
    streams are statistically independent of each other.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(_STREAM_LABELS))
    gens = {
        label: np.random.Generator(np.random.PCG64(child))
        for label, child in zip(_STREAM_LABELS, children)
    }
    return SimulationStreams(**gens)


def derive_seed(*components: int | str | float) -> int:
    """Deterministically combine experiment coordinates into a seed.

    Used by the experiment runner so that (system, load, replication)
    define the workload realization while the policy does not:
    ``derive_seed(base, n, m, round(rho * 1000), rep)``.
    """
    mixed: list[int] = []
    for component in components:
        if isinstance(component, str):
            mixed.append(int.from_bytes(component.encode(), "little") % (2**32))
        elif isinstance(component, float):
            mixed.append(int(round(component * 1_000_003)) % (2**32))
        else:
            mixed.append(int(component) % (2**32))
    return int(np.random.SeedSequence(mixed).generate_state(1, dtype=np.uint64)[0])
