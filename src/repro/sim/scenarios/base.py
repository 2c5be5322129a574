"""Scenario registry and the ``NAME[:k=v,...]`` spec grammar.

A *scenario* reshapes a stationary simulation into a nonstationary one
without touching the round loop: it may wrap the arrival process (rate
curves -- diurnal cycles, flash crowds, regime switching) and/or supply
a :class:`~repro.sim.scenarios.churn.ChurnSchedule` (servers leaving and
rejoining the fleet at block boundaries).  Scenarios travel as plain
strings -- ``"diurnal"``, ``"flash:spike=6,at=2048"`` -- through
:class:`~repro.experiments.workload.WorkloadSpec`,
:class:`~repro.sim.engine.SimulationConfig`, persistence descriptors
and the ``repro experiment --scenario`` CLI, exactly like probe and
backend names.

The registry mirrors the probe/backend idiom
(:class:`repro.sim._registry.BackendRegistry`): classes register under a
name, ``make_scenario`` resolves names (with an optional ``:``-separated
``key=value`` parameter suffix) to instances, and the sorted listings
feed ``repro scenarios``.

Application happens in one place -- the engine constructors call
:func:`apply_scenario` on their policy/arrivals pair before binding --
so every kernel (reference and fast) sees the identical reshaped
objects and bit-identity across kernels is inherited rather than
re-proved per scenario.
"""

from __future__ import annotations

from abc import ABC

from repro.sim._registry import BackendRegistry, parse_params

__all__ = [
    "Scenario",
    "register_scenario",
    "make_scenario",
    "available_scenarios",
    "scenario_descriptions",
    "apply_scenario",
]


class Scenario(ABC):
    """One named reshaping of a stationary run.

    Subclasses set :attr:`name` / :attr:`description` and override one
    or both hooks; the defaults leave the simulation untouched, so a
    scenario may be arrivals-only, churn-only, or both (elastic
    capacity).
    """

    #: Registry / display name, e.g. ``"diurnal"`` or ``"churn"``.
    name: str = "abstract"
    #: One-line description shown by ``repro scenarios``.
    description: str = ""

    def wrap_arrivals(self, arrivals):
        """Return the arrival process this scenario drives (default: as-is)."""
        return arrivals

    def churn_schedule(self, num_servers: int):
        """Return a :class:`ChurnSchedule` for ``num_servers``, or ``None``."""
        return None

    @classmethod
    def from_param(cls, param: str, **kwargs) -> "Scenario":
        """Build from a ``key=value[,key=value...]`` parameter suffix.

        This is the :meth:`BackendRegistry.factory` seam: the registry
        splits ``"flash:spike=6,at=2048"`` at the first ``:`` and hands
        the remainder here, so every scenario shares one grammar
        (:func:`~repro.sim._registry.parse_params`).
        """
        kwargs = parse_params(param, "scenario", kwargs)
        try:
            return cls(**kwargs)
        except TypeError as error:
            # Unknown/misspelled keys must fail the spec string, not
            # surface as a TypeError deep inside WorkloadSpec validation.
            raise ValueError(
                f"invalid {cls.name!r} scenario parameters: {error}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: BackendRegistry[Scenario] = BackendRegistry(
    "scenario", "scenarios", Scenario
)

#: Class decorator registering a scenario under a name.
register_scenario = _REGISTRY.register
#: Instantiate a scenario from ``NAME[:k=v,...]`` (or pass one through).
make_scenario = _REGISTRY.make
#: Names accepted by :func:`make_scenario`, sorted.
available_scenarios = _REGISTRY.available
#: Name -> one-line description, for CLI listings.
scenario_descriptions = _REGISTRY.descriptions


def apply_scenario(spec, policy, arrivals, num_servers: int):
    """Reshape a (policy, arrivals) pair for one scenario spec string.

    The single application point: both engine constructors call this
    before binding the policy, so the wrapped objects are what gets
    pickled into run manifests and checkpoints -- resume and federation
    adoption then carry the scenario state for free.

    Returns the possibly-wrapped ``(policy, arrivals)`` pair.
    ``spec=None`` is the stationary default: both objects pass through
    untouched.
    """
    from .churn import ChurnPolicyAdapter

    if spec is None:
        return policy, arrivals
    scenario = make_scenario(spec)
    arrivals = scenario.wrap_arrivals(arrivals)
    schedule = scenario.churn_schedule(num_servers)
    if schedule is not None:
        policy = ChurnPolicyAdapter(policy, schedule)
    return policy, arrivals
