"""Scenarios, part of the simulation model: nonstationary arrivals and churn.

Scenarios reshape a stationary run -- fixed Poisson rates over a fixed
fleet -- into the regimes production systems actually face: diurnal
cycles, flash crowds, regime-switching bursts, servers joining and
leaving, elastic capacity.  They travel as plain ``NAME[:k=v,...]``
strings through :class:`~repro.experiments.workload.WorkloadSpec`,
:class:`~repro.sim.engine.SimulationConfig`, persistence and the
``repro experiment --scenario`` CLI, and are applied in exactly one
place (the engine constructors, via :func:`apply_scenario`) so every
kernel family sees identical reshaped objects.

Built-ins: ``diurnal``, ``flash``, ``regime`` (arrival shaping),
``churn`` (fleet capacity masks), ``elastic`` (both, anti-phase).
``repro scenarios`` lists them with their parameters' defaults.
"""

from .base import (
    Scenario,
    apply_scenario,
    available_scenarios,
    make_scenario,
    register_scenario,
    scenario_descriptions,
)
from .arrivals import (
    DiurnalScenario,
    FlashCrowdCurve,
    FlashCrowdScenario,
    ModulatedRateArrivals,
    RateCurve,
    RegimeSwitchingCurve,
    RegimeSwitchingScenario,
    SinusoidCurve,
)
from .churn import (
    UNAVAILABLE_QUEUE,
    ChurnPolicyAdapter,
    ChurnSchedule,
    ChurnScenario,
    ElasticChurnSchedule,
    ElasticScenario,
    PeriodicChurnSchedule,
)

__all__ = [
    "Scenario",
    "register_scenario",
    "make_scenario",
    "available_scenarios",
    "scenario_descriptions",
    "apply_scenario",
    "RateCurve",
    "SinusoidCurve",
    "FlashCrowdCurve",
    "RegimeSwitchingCurve",
    "ModulatedRateArrivals",
    "DiurnalScenario",
    "FlashCrowdScenario",
    "RegimeSwitchingScenario",
    "UNAVAILABLE_QUEUE",
    "ChurnSchedule",
    "PeriodicChurnSchedule",
    "ElasticChurnSchedule",
    "ChurnPolicyAdapter",
    "ChurnScenario",
    "ElasticScenario",
]
