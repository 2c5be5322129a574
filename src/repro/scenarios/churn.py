"""Server churn: capacity masks over the fleet, changing at block edges.

A :class:`ChurnSchedule` maps each 256-round block to a boolean
*capacity mask* (``True`` = server accepts work).  Masked servers keep
draining whatever they hold -- departures are a property of the service
process and the FIFO stores, untouched here -- but receive no new
dispatches; policies see their queues as unavailable.

The mechanism is :class:`ChurnPolicyAdapter`, a policy wrapper installed
by :func:`repro.scenarios.base.apply_scenario`:

* ``begin_round`` builds a masked queue view (unavailable servers show a
  huge sentinel length) and feeds *that* to the wrapped policy, so
  queue-aware policies (JSQ, SED, SCD...) never choose a masked server.
* ``dispatch`` / ``dispatch_round`` deterministically redirect whatever
  a queue-oblivious policy (rr, wrr, random...) still assigned to masked
  servers onto the least-loaded available server (lowest index on ties).

Because the adapter transforms the policy's *inputs and outputs* and
holds no engine hooks, it is bit-identical wherever the policy life
cycle runs -- the reference loop and the block driver both drive it
the same way -- and the existing engine guards do the right thing
automatically: overriding ``begin_round`` disables cross-round batching
(:func:`~repro.policies.base.supports_round_batching`) and the exact
type checks in :func:`repro.sim.compiled.compiled_round_kernel_for`
disable the whole-block compiled dispatch, both falling back to the
per-round path the adapter needs.  The adapter pickles with the
simulation, so checkpoints and federation adoption carry the mask state
for free, and it exposes :meth:`ChurnPolicyAdapter.capacity_mask` so
the fast kernels can stamp the block's mask onto the batch stores
(:meth:`repro.sim.batchstore.BatchQueueStore.set_capacity_mask`) as an
admission guard.
"""

from __future__ import annotations

import math

import numpy as np

from repro.policies.base import Policy
from repro.sim.blockdriver import BLOCK_ROUNDS

from .base import Scenario, register_scenario

__all__ = [
    "UNAVAILABLE_QUEUE",
    "ChurnSchedule",
    "PeriodicChurnSchedule",
    "ElasticChurnSchedule",
    "ChurnPolicyAdapter",
    "ChurnScenario",
    "ElasticScenario",
]

#: Queue length masked servers present to the wrapped policy: large
#: enough that no load-aware rule prefers them, small enough that int64
#: arithmetic (ratios against rates, additions of batch sizes) is safe.
UNAVAILABLE_QUEUE = 1 << 40


class ChurnSchedule:
    """Block-indexed capacity masks over a fixed fleet of ``n`` servers."""

    def __init__(self, num_servers: int) -> None:
        if num_servers < 1:
            raise ValueError("need at least one server")
        self.num_servers = int(num_servers)
        self._cached_block = -1
        self._cached_mask: np.ndarray | None = None

    def mask_for_block(self, block_index: int) -> np.ndarray:
        """The ``(n,)`` bool availability mask of block ``block_index``."""
        raise NotImplementedError

    def mask_for_round(self, round_index: int) -> np.ndarray:
        """The mask in force during ``round_index`` (block-aligned, cached)."""
        block = round_index // BLOCK_ROUNDS
        if block != self._cached_block:
            mask = np.asarray(self.mask_for_block(block), dtype=bool)
            if mask.shape != (self.num_servers,):
                raise ValueError(
                    f"churn mask has shape {mask.shape}, "
                    f"expected ({self.num_servers},)"
                )
            if not mask.any():
                raise ValueError(
                    f"churn schedule masks every server in block {block}; "
                    f"at least one must stay available"
                )
            self._cached_block = block
            self._cached_mask = mask
        return self._cached_mask


def _offline_count(num_servers: int, fraction: float) -> int:
    """Servers taken offline for a fraction, always leaving one up."""
    return min(num_servers - 1, int(round(fraction * num_servers)))


class PeriodicChurnSchedule(ChurnSchedule):
    """A square-wave fleet: full for part of each period, reduced after.

    Every ``period`` blocks, the first ``up`` blocks run the full fleet
    and the remaining blocks run with the ``down`` fraction of servers
    (the highest-indexed ones) offline.
    """

    def __init__(
        self,
        num_servers: int,
        down: float = 0.25,
        period: int = 8,
        duty: float = 0.5,
        offset: int = 0,
    ) -> None:
        super().__init__(num_servers)
        if not 0.0 < down < 1.0:
            raise ValueError("down must be a fraction in (0, 1)")
        if period < 2:
            raise ValueError("period must be >= 2 blocks")
        if not 0.0 < duty < 1.0:
            raise ValueError("duty must be a fraction in (0, 1)")
        self.down = float(down)
        self.period = int(period)
        self.duty = float(duty)
        self.offset = int(offset)
        self._up_blocks = max(1, round(self.duty * self.period))
        self._offline = _offline_count(self.num_servers, self.down)

    def mask_for_block(self, block_index: int) -> np.ndarray:
        mask = np.ones(self.num_servers, dtype=bool)
        phase = (block_index + self.offset) % self.period
        if phase >= self._up_blocks and self._offline:
            mask[self.num_servers - self._offline :] = False
        return mask


class ElasticChurnSchedule(ChurnSchedule):
    """Capacity tracking a sinusoidal demand curve (autoscaling).

    At each block the offline count follows the *inverse* of the demand
    factor ``1 + amplitude * sin(...)`` evaluated at the block midpoint:
    all servers up at peak demand, up to ``reserve * n`` of the
    highest-indexed servers down at the trough.
    """

    def __init__(
        self,
        num_servers: int,
        amplitude: float = 0.4,
        period: float = 4096,
        reserve: float = 0.25,
        phase: float = 0.0,
    ) -> None:
        super().__init__(num_servers)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if period < 1:
            raise ValueError("period must be >= 1 round")
        if not 0.0 < reserve < 1.0:
            raise ValueError("reserve must be a fraction in (0, 1)")
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.reserve = float(reserve)
        self.phase = float(phase)

    def mask_for_block(self, block_index: int) -> np.ndarray:
        midpoint = block_index * BLOCK_ROUNDS + BLOCK_ROUNDS / 2.0
        factor = 1.0 + self.amplitude * math.sin(
            (2.0 * math.pi / self.period) * (midpoint + self.phase)
        )
        if self.amplitude > 0.0:
            demand = (factor - (1.0 - self.amplitude)) / (2.0 * self.amplitude)
        else:
            demand = 1.0
        offline = min(
            self.num_servers - 1,
            int(round(self.reserve * self.num_servers * (1.0 - demand))),
        )
        mask = np.ones(self.num_servers, dtype=bool)
        if offline:
            mask[self.num_servers - offline :] = False
        return mask


class ChurnPolicyAdapter(Policy):
    """Drives a wrapped policy against churn-masked queue views.

    Stateless beyond the current round's mask (recomputed from the
    round index each ``begin_round``), so pickled checkpoints resume
    bit-identically: the schedule is a pure function of time.
    """

    def __init__(self, inner: Policy, schedule: ChurnSchedule) -> None:
        super().__init__()
        if inner.ctx is not None:
            raise ValueError("wrap policies before they are bound")
        self.inner = inner
        self.schedule = schedule
        # Records and grids key on the policy name: churn is part of the
        # workload/scenario axis, not the policy axis, so keep the name.
        self.name = inner.name
        self._mask: np.ndarray | None = None
        self._masked: np.ndarray | None = None

    def _on_bind(self) -> None:
        if self.schedule.num_servers != self.ctx.num_servers:
            raise ValueError(
                f"churn schedule covers {self.schedule.num_servers} servers "
                f"but the system has {self.ctx.num_servers}"
            )
        self.inner.bind(self.ctx)

    def capacity_mask(self) -> np.ndarray | None:
        """The mask in force this round (the stores' admission guard)."""
        return self._mask

    def _masked_view(self, queues: np.ndarray) -> np.ndarray:
        view = queues.copy()
        view[~self._mask] = UNAVAILABLE_QUEUE
        return view

    # -- round life-cycle, forwarded against masked views -----------------

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._mask = self.schedule.mask_for_round(round_index)
        self._masked = self._masked_view(queues)
        self.inner.begin_round(round_index, self._masked)

    def end_round(self, round_index: int, queues: np.ndarray) -> None:
        self.inner.end_round(round_index, self._masked_view(queues))

    def observe_total_arrivals(self, total: int) -> None:
        self.inner.observe_total_arrivals(total)

    # -- dispatching, with deterministic redirection ----------------------

    def _redirect_target(self) -> int:
        # Least-loaded available server, lowest index on ties: the
        # sentinel makes a plain argmin over the masked snapshot correct.
        return int(np.argmin(self._masked))

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        row = self.inner.dispatch(dispatcher, num_jobs)
        off = ~self._mask
        moved = int(row[off].sum())
        if moved:
            row[off] = 0
            row[self._redirect_target()] += moved
        return row

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        # Every dispatcher's row redirects to the same target, so the
        # totals redirect at once.
        totals = self.inner.dispatch_round(batch, self._masked)
        off = ~self._mask
        moved = int(totals[off].sum())
        if moved:
            totals[off] = 0
            totals[self._redirect_target()] += moved
        return totals


@register_scenario("churn")
class ChurnScenario(Scenario):
    """Periodic server churn over stationary arrivals."""

    name = "churn"
    description = (
        "periodic fleet churn: the 'down' fraction of servers leaves for "
        "part of every 'period'-block cycle and rejoins at block edges"
    )

    def __init__(
        self,
        down: float = 0.25,
        period: int = 8,
        duty: float = 0.5,
        offset: int = 0,
    ) -> None:
        self.down = float(down)
        self.period = int(period)
        self.duty = float(duty)
        self.offset = int(offset)
        # Fail bad parameters at spec-parse time (WorkloadSpec/CLI
        # validation), not when the first cell builds its schedule.
        self.churn_schedule(2)

    def churn_schedule(self, num_servers: int) -> PeriodicChurnSchedule:
        return PeriodicChurnSchedule(
            num_servers,
            down=self.down,
            period=self.period,
            duty=self.duty,
            offset=self.offset,
        )


@register_scenario("elastic")
class ElasticScenario(Scenario):
    """Diurnal arrivals with capacity scaled to track the demand curve."""

    name = "elastic"
    description = (
        "elastic capacity: diurnal arrival cycle plus an autoscaling "
        "fleet that sheds up to 'reserve' of its servers off-peak"
    )

    def __init__(
        self,
        amplitude: float = 0.4,
        period: float = 4096,
        reserve: float = 0.25,
        phase: float = 0.0,
    ) -> None:
        from .arrivals import SinusoidCurve

        self.curve = SinusoidCurve(amplitude, period, phase)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.reserve = float(reserve)
        self.phase = float(phase)
        self.churn_schedule(2)  # range-check reserve at parse time

    def wrap_arrivals(self, arrivals):
        from .arrivals import ModulatedRateArrivals, _base_lambdas

        return ModulatedRateArrivals(_base_lambdas(arrivals), self.curve)

    def churn_schedule(self, num_servers: int) -> ElasticChurnSchedule:
        return ElasticChurnSchedule(
            num_servers,
            amplitude=self.amplitude,
            period=self.period,
            reserve=self.reserve,
            phase=self.phase,
        )
