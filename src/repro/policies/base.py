"""Dispatching-policy framework.

Every load-balancing technique in the paper (SCD and the ten baselines) is
a :class:`Policy`.  The simulation engine drives policies through a small
life-cycle:

1. :meth:`Policy.bind` -- once per simulation, with the immutable
   :class:`SystemContext` (server rates, dimensions, RNG stream).
2. :meth:`Policy.begin_round` -- once per round with the queue-length
   snapshot all dispatchers observe (the model of Section 2 gives every
   dispatcher the same `q_s(t)`).
3. :meth:`Policy.dispatch` -- once per dispatcher with a non-empty batch;
   returns per-server job counts for that dispatcher's whole batch.  The
   vectorized engine backend instead makes one :meth:`Policy.dispatch_round`
   call per round (the *batch protocol*); its base implementation falls
   back to looping ``dispatch``, and snapshot-only policies override it
   with a native numpy path.
4. :meth:`Policy.end_round` -- after departures, with the updated queues
   (used by policies with local state, e.g. LSQ's sampled refreshes).

Policies must be *independent across dispatchers within a round*: a
``dispatch`` call may use only the shared snapshot, the dispatcher's own
batch size, and per-dispatcher private state.  That restriction is what
makes the model distributed -- it is asserted in tests, not enforced at
runtime.

A registry (:func:`register_policy` / :func:`make_policy`) maps the names
used in the paper's figures (``"scd"``, ``"jsq"``, ``"hlsq"``, ...) to
policy factories so experiments can be specified as plain strings.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SystemContext",
    "Policy",
    "register_policy",
    "make_policy",
    "available_policies",
    "has_native_dispatch_round",
    "supports_round_batching",
]


@dataclass
class SystemContext:
    """Immutable facts a policy may rely on, fixed for a whole simulation.

    Attributes
    ----------
    rates:
        Server processing rates ``mu_s`` (float array, length ``n``).
    num_dispatchers:
        ``m``, the number of dispatchers sharing the server pool.
    rng:
        The policy's private random stream.  Seeded independently of the
        arrival/departure streams so that different policies can be
        compared under *identical* workload realizations.
    """

    rates: np.ndarray
    num_dispatchers: int
    rng: np.random.Generator

    num_servers: int = field(init=False)

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=np.float64)
        if self.rates.ndim != 1 or self.rates.size == 0:
            raise ValueError("rates must be a non-empty 1-D array")
        if np.any(self.rates <= 0):
            raise ValueError("service rates must be strictly positive")
        if self.num_dispatchers < 1:
            raise ValueError("need at least one dispatcher")
        self.num_servers = int(self.rates.size)


class Policy(ABC):
    """Base class for dispatching policies.

    Subclasses set :attr:`name` (the identifier used in figures and the
    registry) and implement :meth:`dispatch`; the remaining hooks default
    to no-ops.
    """

    #: Registry / display name, e.g. ``"scd"`` or ``"hjsq(2)"``.
    name: str = "abstract"

    def __init__(self) -> None:
        self.ctx: SystemContext | None = None

    # -- life-cycle -------------------------------------------------------

    def bind(self, ctx: SystemContext) -> None:
        """Attach the policy to a system; called once before the first round.

        A policy instance carries per-system mutable state (local views,
        rotation positions, credit counters...), so binding an
        already-bound instance to a second system would silently share
        that state across simulations.  Rebinding therefore raises;
        build a fresh instance (``make_policy``) per simulation.
        """
        if self.ctx is not None:
            raise RuntimeError(
                f"policy {self.name!r} is already bound to a system; "
                f"policies carry per-system state, so build a fresh "
                f"instance (e.g. via make_policy) for each simulation"
            )
        self.ctx = ctx
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook: allocate per-system state (local arrays, CDFs...)."""

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        """Receive the round's shared queue-length snapshot.

        ``queues`` is the engine's live int64 array; policies must treat it
        as read-only and must not keep references past the round.
        """

    @abstractmethod
    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        """Assign ``num_jobs`` jobs for dispatcher ``dispatcher``.

        Returns an int64 array of length ``n`` whose entries sum to
        ``num_jobs``: the count of jobs this dispatcher forwards to each
        server this round.
        """

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """Assign a whole round's batches in one call (the batch protocol).

        Parameters
        ----------
        batch:
            Int array of length ``m``: each dispatcher's batch size this
            round (zeros allowed).
        queues:
            The round's shared queue-length snapshot (length ``n``,
            read-only) -- the same array ``begin_round`` received.

        Returns
        -------
        numpy.ndarray
            An ``(m, n)`` int64 matrix; row ``d`` is dispatcher ``d``'s
            per-server job counts and sums to ``batch[d]``.

        The base implementation loops over the classic per-dispatcher
        :meth:`dispatch` in dispatcher order, skipping empty batches --
        *bit-identical* to what the reference engine backend does, for
        any policy.  Policies whose decisions depend only on the shared
        snapshot (and not on per-dispatcher sequential state fed by
        earlier rounds' RNG draws) override this with a native
        vectorized path.  Deterministic overrides must reproduce the
        fallback exactly.  Stochastic overrides either draw the
        identical stream -- SCD's one broadcast multinomial per round,
        LSQ/LED's vectorized refreshes -- and are then bit-identical
        too, or restructure their RNG consumption (statistically
        equivalent, not bit-equal).  An override may call this base loop
        for the configurations it has no native path for (SCD with a
        connectivity mask or a non-vectorized solver).
        """
        assert self.ctx is not None, "policy used before bind()"
        rows = np.zeros((self.ctx.num_dispatchers, self.ctx.num_servers), dtype=np.int64)
        for d in range(self.ctx.num_dispatchers):
            k = int(batch[d])
            if k == 0:
                continue
            rows[d] = self.dispatch(d, k)
        return rows

    def dispatch_rounds(self, batch_block: np.ndarray) -> np.ndarray | None:
        """Assign a whole *block* of rounds in one call (cross-round batching).

        Parameters
        ----------
        batch_block:
            ``(L, m)`` int array: row ``i`` is round ``i``'s per-dispatcher
            batch sizes (zeros allowed).

        Returns
        -------
        numpy.ndarray or None
            An ``(L, n)`` int64 matrix of per-round, per-server admission
            counts (dispatcher rows already summed), with all rotation /
            credit state advanced exactly as ``L`` consecutive
            ``dispatch_round`` calls would have left it -- or ``None`` to
            decline, sending the engine back to the per-round protocol.

        Only *queue-oblivious* policies may override this: the engine
        skips ``begin_round`` / ``end_round`` / ``observe_total_arrivals``
        and never exposes intermediate queue states on this path, so an
        override is valid only when those hooks are no-ops and dispatch
        decisions never read the queue snapshot (``rr``, ``wrr``,
        uniform random...).  Overrides must be bit-identical to the
        per-round path; :func:`supports_round_batching` is the guard the
        engines check before using it.
        """
        return None

    def end_round(self, round_index: int, queues: np.ndarray) -> None:
        """Observe post-departure queues (for local-state policies)."""

    def observe_total_arrivals(self, total: int) -> None:
        """Feed the true round total (consumed only by oracle estimators)."""

    # -- conveniences ------------------------------------------------------

    @property
    def rates(self) -> np.ndarray:
        assert self.ctx is not None, "policy used before bind()"
        return self.ctx.rates

    @property
    def rng(self) -> np.random.Generator:
        assert self.ctx is not None, "policy used before bind()"
        return self.ctx.rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: dict[str, Callable[..., Policy]] = {}


def register_policy(name: str) -> Callable[[Callable[..., Policy]], Callable[..., Policy]]:
    """Class decorator registering a policy factory under ``name``."""

    def decorator(factory: Callable[..., Policy]) -> Callable[..., Policy]:
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"policy {name!r} registered twice")
        _REGISTRY[key] = factory
        return factory

    return decorator


def make_policy(spec: str | Policy, **kwargs) -> Policy:
    """Instantiate a policy from its registry name (or pass one through).

    Examples
    --------
    >>> make_policy("scd").name
    'scd'
    >>> make_policy("jsq(d)", d=3).name
    'jsq(3)'
    """
    if isinstance(spec, Policy):
        return spec
    key = spec.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown policy {spec!r}; known policies: {known}")
    return _REGISTRY[key](**kwargs)


def available_policies() -> list[str]:
    """Names accepted by :func:`make_policy`, sorted."""
    return sorted(_REGISTRY)


def has_native_dispatch_round(policy: Policy) -> bool:
    """True when ``policy`` overrides the batch protocol with a native path.

    Policies using the base-class fallback are bit-identical between the
    reference and fast engine backends; native stochastic overrides are
    bit-identical only when they draw the identical stream (SCD, LSQ,
    LED, JIQ) and otherwise only statistically equivalent (they reshape
    RNG consumption), which tests and benchmarks need to know.  An
    override that defers some configurations to the base loop still
    counts as native here.
    """
    return type(policy).dispatch_round is not Policy.dispatch_round


def supports_round_batching(policy: Policy) -> bool:
    """True when the engines may drive ``policy`` via ``dispatch_rounds``.

    Requires the cross-round override itself plus base-class (no-op)
    round hooks: a policy that observes ``begin_round`` / ``end_round``
    queue snapshots or round totals cannot legally skip them, whatever
    its ``dispatch_rounds`` claims.
    """
    cls = type(policy)
    return (
        cls.dispatch_rounds is not Policy.dispatch_rounds
        and cls.begin_round is Policy.begin_round
        and cls.end_round is Policy.end_round
        and cls.observe_total_arrivals is Policy.observe_total_arrivals
    )
