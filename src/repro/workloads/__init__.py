"""Workload construction: heterogeneity profiles and paper scenarios."""

from .heterogeneity import bimodal_rates, constant_rates, make_rates, uniform_rates
from .scenarios import (
    EXTRA_POLICIES,
    MAIN_POLICIES,
    PAPER_LOADS,
    PAPER_SYSTEMS,
    TAIL_LOADS,
    SystemSpec,
    lambdas_for_load,
    paper_system,
)

__all__ = [
    "uniform_rates",
    "bimodal_rates",
    "constant_rates",
    "make_rates",
    "SystemSpec",
    "paper_system",
    "PAPER_SYSTEMS",
    "PAPER_LOADS",
    "TAIL_LOADS",
    "MAIN_POLICIES",
    "EXTRA_POLICIES",
    "lambdas_for_load",
]
