"""Evaluation analysis: tails, replication statistics, run-time and stability."""

from .ccdf import ccdf_series, tail_improvement_factor, tail_quantiles
from .replication import ReplicatedResult, paired_comparison
from .runtime import (
    RUNTIME_TECHNIQUES,
    DecisionSnapshot,
    collect_snapshots,
    measure_decision_times,
    runtime_cdf_summary,
)
from .stability import StabilityVerdict, assess_stability
from .tables import format_series_table, format_table

__all__ = [
    "ccdf_series",
    "tail_quantiles",
    "tail_improvement_factor",
    "DecisionSnapshot",
    "collect_snapshots",
    "measure_decision_times",
    "runtime_cdf_summary",
    "RUNTIME_TECHNIQUES",
    "ReplicatedResult",
    "paired_comparison",
    "assess_stability",
    "StabilityVerdict",
    "format_table",
    "format_series_table",
]
