"""Replicated experiments with confidence intervals.

A single simulation is one realization of the arrival/departure processes;
for publication-grade comparisons the evaluation should be replicated over
independent workload realizations.  These helpers run R replications
(seeded so that replication r is common across policies -- paired
comparisons stay paired) and summarize means with Student-t confidence
intervals.

scipy is imported inside :meth:`ReplicatedResult.confidence_interval`
and :func:`paired_comparison`, the only two places that use it, so that
``import repro`` and every simulation load numpy only: ``scipy.stats``
alone costs about a second of interpreter start-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.runner import ExperimentConfig
from repro.experiments.grid import Experiment, PolicySpec
from repro.workloads.scenarios import SystemSpec

__all__ = ["ReplicatedResult", "replicated_runs", "paired_comparison"]


@dataclass(frozen=True)
class ReplicatedResult:
    """Mean response time over R independent workload replications."""

    policy: str
    system: SystemSpec
    rho: float
    replication_means: tuple[float, ...]

    @property
    def replications(self) -> int:
        """Number of independent runs."""
        return len(self.replication_means)

    @property
    def mean(self) -> float:
        """Grand mean of the per-replication means."""
        return float(np.mean(self.replication_means))

    @property
    def std_error(self) -> float:
        """Standard error of the grand mean (0 for one replication)."""
        if self.replications < 2:
            return 0.0
        return float(
            np.std(self.replication_means, ddof=1) / np.sqrt(self.replications)
        )

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Student-t interval for the true mean response time."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        if self.replications < 2:
            return (self.mean, self.mean)
        from scipy import stats

        halfwidth = self.std_error * stats.t.ppf(
            0.5 + level / 2.0, df=self.replications - 1
        )
        return (self.mean - halfwidth, self.mean + halfwidth)

    def __str__(self) -> str:
        lo, hi = self.confidence_interval()
        return (
            f"{self.policy}: {self.mean:.3f} "
            f"[{lo:.3f}, {hi:.3f}] over {self.replications} reps"
        )


def replicated_runs(
    policy: str,
    system: SystemSpec,
    rho: float,
    config: ExperimentConfig | None = None,
    replications: int = 5,
    **policy_kwargs,
) -> ReplicatedResult:
    """Run ``replications`` independent workload realizations.

    A thin wrapper over a one-policy :class:`repro.experiments.Experiment`
    with ``replications`` along the replication axis.  Replication ``r``
    shifts the experiment's base seed by ``r``; two policies replicated
    with the same arguments therefore see *matching* workloads per
    replication (paired design).
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    config = config or ExperimentConfig()
    experiment = Experiment(
        policies=(PolicySpec(name=policy, kwargs=tuple(sorted(policy_kwargs.items()))),),
        systems=(system,),
        loads=(rho,),
        replications=replications,
        rounds=config.rounds,
        warmup=config.warmup,
        base_seed=config.base_seed,
        backend=config.backend,
    )
    records = experiment.run(keep_results=False).records
    means = [r.metrics["mean"] for r in sorted(records, key=lambda r: r.replication)]
    return ReplicatedResult(
        policy=policy,
        system=system,
        rho=rho,
        replication_means=tuple(means),
    )


def paired_comparison(
    candidate: ReplicatedResult,
    baseline: ReplicatedResult,
    level: float = 0.95,
) -> dict[str, float | bool]:
    """Paired-t comparison of two policies replicated on matched workloads.

    Returns the mean per-replication difference (baseline - candidate; a
    positive value favors the candidate), the p-value of the paired t-test,
    and whether the candidate is significantly better at ``level``.

    Raises
    ------
    ValueError
        If the two results do not come from matching replication designs.
    """
    if (
        candidate.replications != baseline.replications
        or candidate.system != baseline.system
        or candidate.rho != baseline.rho
    ):
        raise ValueError("results are not from matching replication designs")
    if candidate.replications < 2:
        raise ValueError("paired comparison needs at least two replications")
    diffs = np.asarray(baseline.replication_means) - np.asarray(
        candidate.replication_means
    )
    from scipy import stats

    t_stat, p_two_sided = stats.ttest_rel(
        baseline.replication_means, candidate.replication_means
    )
    # One-sided: candidate better means diffs > 0.
    p_one_sided = p_two_sided / 2.0 if t_stat > 0 else 1.0 - p_two_sided / 2.0
    return {
        "mean_improvement": float(diffs.mean()),
        "p_value": float(p_one_sided),
        "significant": bool(p_one_sided < 1.0 - level),
    }
