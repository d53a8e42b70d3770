"""Campaign-level metrics: acceleration factor, yields, extrapolations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.plans import BayesianCampaignResult
from ..core.results import CampaignSummary


@dataclass(frozen=True)
class AccelerationReport:
    """The paper's headline comparison (E2).

    ``exhaustive_seconds`` is the extrapolated cost of running the full
    min/max grid; ``bayesian_seconds`` covers training + mining +
    validating the mined faults.  The paper's analogue: 615 days vs
    < 4 hours = 3690x.
    """

    grid_experiments: int
    per_experiment_seconds: float
    exhaustive_seconds: float
    bayesian_seconds: float
    critical_found: int
    hazards_confirmed: int

    @property
    def acceleration_factor(self) -> float:
        """Exhaustive cost over Bayesian cost."""
        if self.bayesian_seconds <= 0:
            return float("inf")
        return self.exhaustive_seconds / self.bayesian_seconds

    @property
    def precision(self) -> float:
        """Confirmed hazards per mined fault (paper: 460/561 = 82%)."""
        if self.critical_found == 0:
            return 0.0
        return self.hazards_confirmed / self.critical_found


def acceleration_report(grid_experiments: int,
                        sample: CampaignSummary,
                        bayesian: BayesianCampaignResult
                        ) -> AccelerationReport:
    """Build the E2 comparison from a grid sample and a Bayesian run.

    ``sample`` is any strided subsample of the exhaustive grid; its mean
    per-experiment wall time extrapolates the full-grid cost, exactly as
    the paper extrapolates 615 days from per-experiment duration.
    """
    if sample.total == 0:
        raise ValueError("need at least one sampled experiment")
    per_experiment = sample.wall_seconds / sample.total
    return AccelerationReport(
        grid_experiments=grid_experiments,
        per_experiment_seconds=per_experiment,
        exhaustive_seconds=per_experiment * grid_experiments,
        bayesian_seconds=bayesian.total_wall_seconds,
        critical_found=len(bayesian.candidates),
        hazards_confirmed=bayesian.summary.hazards)


def hazard_table(summary: CampaignSummary) -> list[tuple[str, int, int, float]]:
    """Per-variable (experiments, hazards, rate) rows, highest rate first."""
    experiments = summary.experiments_by_variable()
    hazards = summary.hazards_by_variable()
    rows = []
    for variable, count in experiments.items():
        n_hazards = hazards.get(variable, 0)
        rows.append((variable, count, n_hazards,
                     n_hazards / count if count else 0.0))
    rows.sort(key=lambda row: (-row[3], row[0]))
    return rows


@dataclass(frozen=True)
class DegradationReport:
    """Efficacy of the graceful-degradation fallback in one campaign.

    ``engaged`` counts experiments where the safe-stop fallback took
    command at least once; ``masked`` is the subset that still ended
    hazard-free — the faults degradation absorbed.  ``violations`` are
    experiments that ended hazardous *despite* the fallback engaging:
    the residual the staleness TTL did not cover.
    """

    total: int
    engaged: int
    masked: int

    @property
    def violations(self) -> int:
        """Experiments where degradation engaged but a hazard landed."""
        return self.engaged - self.masked


def degradation_report(summary: CampaignSummary) -> DegradationReport:
    """Fold a campaign summary into the masked-vs-violation split."""
    return DegradationReport(total=summary.total,
                             engaged=summary.degraded,
                             masked=summary.masked)


def delta_distribution(deltas: np.ndarray,
                       edges: list[float] | None = None
                       ) -> list[tuple[str, int]]:
    """Histogram of safety potentials for the scene study (E4)."""
    deltas = np.asarray(deltas, dtype=float)
    edges = edges or [-np.inf, 0.0, 5.0, 15.0, 40.0, 100.0, np.inf]
    rows = []
    for low, high in zip(edges[:-1], edges[1:]):
        count = int(np.sum((deltas > low) & (deltas <= high)))
        label = f"({low:g}, {high:g}]"
        rows.append((label, count))
    return rows


def critical_scene_count(deltas: np.ndarray,
                         threshold: float = 5.0) -> int:
    """Scenes whose margin is at or below ``threshold`` metres."""
    return int(np.sum(np.asarray(deltas) <= threshold))
