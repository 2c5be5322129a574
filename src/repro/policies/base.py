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
   block-structured engine backends instead make one
   :meth:`Policy.dispatch_round` call per round (the *batch protocol*),
   which returns the round's per-server admissions: an ``(n,)`` vector,
   the sum of the dispatchers' rows.  Its base implementation sums
   ``dispatch`` rows in dispatcher order; most policies override it with
   a native numpy path.
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
    "sample_servers",
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
        if not (np.isfinite(self.rates).all() and (self.rates > 0).all()):
            raise ValueError("service rates must be finite and strictly positive")
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
            The round's per-server admissions: an int64 ``(n,)`` vector
            summing to ``batch.sum()`` -- one round of what
            :meth:`dispatch_rounds` returns per block.

        The base implementation sums the classic per-dispatcher
        :meth:`dispatch` rows in dispatcher order, skipping empty
        batches -- *bit-identical* to what the reference engine backend
        does, for any policy.  Overrides must return the same totals and
        leave the same state: deterministic ones compute the totals
        directly (JSQ/SED from one shared snapshot, with no per-dispatcher
        rows at all), stochastic ones draw the identical stream -- SCD's
        and WR's one broadcast multinomial per round, power-of-d's one
        pooled candidate draw, LSQ/LED's vectorized refreshes.  An
        override may call this base loop for the configurations it has
        no native path for (SCD with a connectivity mask, JIQ in rounds
        with idle servers).  Per-dispatcher rows stay observable through
        :meth:`dispatch`.
        """
        assert self.ctx is not None, "policy used before bind()"
        jobs = np.zeros(self.ctx.num_servers, dtype=np.int64)
        for d in np.flatnonzero(batch).tolist():
            jobs += self.dispatch(d, int(batch[d]))
        return jobs

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


def sample_servers(
    rng: np.random.Generator,
    n: int,
    cdf: np.ndarray | None,
    size: int | tuple[int, ...],
) -> np.ndarray:
    """Draw server indices of shape ``size``, i.i.d. across entries.

    ``cdf is None`` samples uniformly over the ``n`` servers; otherwise
    server ``s`` is drawn with the probability ``cdf`` steps by at ``s``
    (the heterogeneity-aware baselines pass the cumulative sum of
    ``mu / sum(mu)``, so server ``s`` is picked with probability
    ``mu_s / sum(mu)``).  numpy fills either draw element by element, so
    one call of size ``k1 + k2`` realizes two calls of sizes ``k1`` and
    ``k2`` -- the fused draws of the batch protocol rely on it.
    """
    if cdf is None:
        return rng.integers(0, n, size=size)
    return np.searchsorted(cdf, rng.random(size))


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

    Every registered policy is bit-identical between the reference and
    fast engine backends, native path or not; tests use this to tell
    which code the fast backend actually runs.  An override that defers some
    configurations to the base loop still counts as native here.
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
