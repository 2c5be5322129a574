"""Shared machinery for the engine-backend and probe registries.

:mod:`repro.sim.backends` (round kernels) and
:mod:`repro.sim.probes` (observability probes) expose the same
name -> factory surface: a class decorator to register, a ``make``
resolver accepting names or instances, and sorted name/description
listings for the CLI.  Keeping that behavior in one place means the
registries cannot drift (case handling, duplicate detection, error
shapes) and another registry costs one instantiation.

:func:`parse_params` is the one ``key=value[,key=value...]`` grammar of
spec-string parameters: scenario suffixes (``"flash:spike=6,at=2048"``)
and ``repro --metrics`` tokens (``"windowed_mean:window=50"``) both
parse through it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

T = TypeVar("T")

__all__ = ["BackendCapabilities", "BackendRegistry", "parse_params"]


def _coerce(text: str):
    """Best-effort int -> float -> str coercion for ``key=value`` params."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_params(text: str, kind: str, kwargs: dict | None = None) -> dict:
    """``"key=value[,key=value...]"`` -> kwargs, values coerced int/float/str.

    ``kind`` names the spec family in errors (``"scenario"``,
    ``"probe"``).  A repeated key -- within ``text`` or against the
    given ``kwargs`` -- is an error, never a silent last-one-wins.
    """
    params = dict(kwargs or {})
    for pair in text.split(","):
        key, eq, value = pair.partition("=")
        if not eq or not key:
            raise ValueError(f"invalid {kind} parameter {pair!r}; expected key=value")
        if key in params:
            raise ValueError(f"duplicate {kind} parameter {key!r}")
        params[key] = _coerce(value)
    return params


@dataclass(frozen=True)
class BackendCapabilities:
    """What one engine backend can honestly promise.

    The simulation kernels (reference/fast) checkpoint at block
    boundaries, feed every registered probe and run sized workloads, so
    the default flags are all-True and nothing changes for them.  Analytical backends (the mean-field fluid engine) have no
    RNG streams, no block-aligned kernel state, no discrete events and
    no work units, so they declare themselves out of the checkpoint
    path and the sized workloads and restrict probes to the summaries
    they can synthesize from their own state.
    ``Experiment`` construction, ``Run.create`` and the service's
    submission validator consult these flags to fail fast instead of
    mid-run.
    """

    #: The kernel exports block-aligned state (``repro run`` / resume /
    #: federated execution all require this).
    supports_checkpoint: bool = True
    #: The kernel feeds arbitrary registered probes with discrete
    #: events.  When False only :attr:`probe_allowlist` names work.
    supports_probes: bool = True
    #: Probe names honored even when :attr:`supports_probes` is False
    #: (the backend synthesizes their summaries itself).
    probe_allowlist: frozenset[str] = field(default_factory=frozenset)
    #: Deterministic analytical solution: seeds and replications do not
    #: change the result (``repro compare`` runs one rep instead of an
    #: ensemble).
    analytic: bool = False
    #: The kernel runs sized workloads (``Simulation(sizes=...)``).
    supports_sized: bool = True

    def allows_probe(self, name: str) -> bool:
        """True when the backend can feed (or synthesize) probe ``name``."""
        return self.supports_probes or name in self.probe_allowlist

    def describe(self) -> str:
        """Compact capability column for ``repro backends`` listings."""
        parts = [
            "checkpoint" if self.supports_checkpoint else "no-checkpoint",
            "probes" if self.supports_probes else (
                "probes:" + "+".join(sorted(self.probe_allowlist))
                if self.probe_allowlist
                else "no-probes"
            ),
            "sized" if self.supports_sized else "unit-only",
        ]
        if self.analytic:
            parts.append("analytic")
        return ",".join(parts)


class BackendRegistry(Generic[T]):
    """A name -> factory registry for one family of engine backends.

    Parameters
    ----------
    kind:
        Human label used in error messages, e.g. ``"engine backend"``.
    plural:
        Label for the known-names listing in errors, e.g. ``"backends"``.
    base:
        The family's abstract base class; ``make`` passes instances of
        it through untouched.
    deferred:
        Name -> module for entries registered by a module this package
        must not import; the module is imported on the first lookup of
        the name (listings of names need no import).
    """

    def __init__(
        self, kind: str, plural: str, base: type, deferred: dict[str, str] | None = None
    ) -> None:
        self._kind = kind
        self._plural = plural
        self._base = base
        self._factories: dict[str, Callable[[], T]] = {}
        self._deferred = dict(deferred or {})

    def _load(self, key: str) -> None:
        """Import the module registering ``key``'s head, if it is deferred."""
        head = key.partition(":")[0]
        if head in self._deferred:
            importlib.import_module(self._deferred[head])
            del self._deferred[head]

    def register(self, name: str) -> Callable[[type], type]:
        """Class decorator registering a backend factory under ``name``."""

        def decorator(cls: type) -> type:
            key = name.lower()
            if key in self._factories:
                raise ValueError(f"{self._kind} {name!r} registered twice")
            self._factories[key] = cls
            return cls

        return decorator

    def make(self, spec: "str | T", **kwargs) -> T:
        """Instantiate from a registry name (or pass an instance through).

        ``kwargs`` go to the factory (probes take constructor
        parameters; engine backends take none) and are rejected with an
        instance, which is already built.
        """
        if isinstance(spec, self._base):
            if kwargs:
                raise ValueError(f"cannot pass kwargs with a {self._kind} instance")
            return spec
        return self.factory(spec)(**kwargs)

    def factory(self, name: str) -> Callable[..., T]:
        """The factory registered under ``name`` (same error as ``make``).

        Names may carry a ``:``-separated parameter suffix
        (``"meanfield:rk4:dt=0.1"``): the head resolves the registered class and
        the remainder goes to its ``from_param`` classmethod, so
        parameterized backends stay plain strings everywhere names
        travel (configs, persistence, the CLI).  Heads without a
        ``from_param`` reject parameters.
        """
        key = name.lower()
        self._load(key)
        if key in self._factories:
            return self._factories[key]
        head, sep, param = key.partition(":")
        if sep and head in self._factories:
            cls = self._factories[head]
            from_param = getattr(cls, "from_param", None)
            if from_param is None:
                raise ValueError(
                    f"{self._kind} {head!r} takes no ':' parameters (got {name!r})"
                )
            return lambda **kwargs: from_param(param, **kwargs)
        known = ", ".join(self.available())
        raise ValueError(
            f"unknown {self._kind} {name!r}; known {self._plural}: {known}"
        )

    def available(self) -> list[str]:
        """Names accepted by :meth:`make`, sorted."""
        return sorted({*self._factories, *self._deferred})

    def descriptions(self) -> dict[str, str]:
        """Name -> one-line ``description`` attribute, for CLI listings."""
        for name in list(self._deferred):
            self._load(name)
        return {
            name: self._factories[name].description
            for name in sorted(self._factories)
        }

    def capabilities(self, spec: "str | T") -> BackendCapabilities:
        """Capability flags for a backend name, parameter suffixes included.

        Works without instantiating (``capabilities`` is a classmethod
        on the base classes), so listings and validators can ask about
        every registered name cheaply.  Instances answer for themselves.
        """
        if isinstance(spec, self._base):
            return spec.capabilities()
        key = spec.lower()
        self._load(key)
        head = key if key in self._factories else key.partition(":")[0]
        if head not in self._factories:
            self.factory(spec)  # raise the canonical unknown-name error
        return self._factories[head].capabilities()
