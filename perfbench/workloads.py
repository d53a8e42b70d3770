"""The benchmark's workloads: what each campaign runs, and why.

Every workload builds its inputs from the benchmark's ``--seed`` and
runs through the public :class:`repro.core.Campaign` API with the
default :class:`repro.core.CampaignConfig` apart from ``seed``: no
``cache_dir``, serial, scalar engine.  The program receives only the
generated scenarios and the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.core import Campaign
from repro.sim import (Scenario, adjacent_traffic, braking_lead,
                       default_scenarios, empty_road, highway_cruise,
                       lead_vehicle_cutin, stalled_vehicle, stop_and_go,
                       two_lead_reveal)


@dataclass(frozen=True)
class Outcome:
    """What one campaign call produced, besides its record stream."""

    jobs: int                       # experiments the campaign scheduled
    reported_seconds: float         # the program's own clock for the run
    ranking: list                   # ranked candidates (bayesian only)
    n_scored: int                   # mining combinations scored
    stages: dict                    # the summary's stage_timings block


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: Callable[[int], list[Scenario]]
    run: Callable[[Campaign, int, object], Outcome]


# -- bayesian-paper -----------------------------------------------------------

#: Candidates validated.  The seed moves the mined set between about 100
#: and 160 candidates, and with it the validation time; every seed tried
#: mines more than this, so each run validates the same number.
BAYESIAN_TOP_K = 80


def _run_bayesian(campaign: Campaign, seed: int, sink) -> Outcome:
    result = campaign.bayesian_campaign(top_k=BAYESIAN_TOP_K,
                                        record_sink=sink)
    return Outcome(jobs=len(result.candidates),
                   reported_seconds=result.total_wall_seconds,
                   ranking=result.candidates,
                   n_scored=result.mining.n_scored,
                   stages=_stages(result.summary))


def _stages(summary) -> dict:
    return summary.extra_info.get("stage_timings", {})


# -- random-dense -------------------------------------------------------------

#: ~53 experiments per scenario: long same-scenario chunks.
DENSE_EXPERIMENTS = 160


def _dense_scenarios(seed: int) -> list[Scenario]:
    return [lead_vehicle_cutin(), two_lead_reveal(), braking_lead()]


def _run_dense(campaign: Campaign, seed: int, sink) -> Outcome:
    summary = campaign.random_campaign(DENSE_EXPERIMENTS, seed=seed,
                                       record_sink=sink)
    return Outcome(jobs=DENSE_EXPERIMENTS,
                   reported_seconds=summary.wall_seconds,
                   ranking=[], n_scored=0, stages=_stages(summary))


# -- random-sparse ------------------------------------------------------------

SPARSE_SCENARIOS = 40
#: Three experiments per scenario on average.
SPARSE_EXPERIMENTS = 120
SPARSE_INTERFACE_SHARE = 0.25

#: Public scenario factories with parameter ranges drawn uniformly.
#: Every range moves away from the default's danger (more gap, less
#: speed), so each fault-free golden run stays collision-free and keeps
#: its injection window.  ``merging_traffic`` and ``crossing_pedestrian``
#: are left out: their fault-free runs collide.
_SPARSE_FACTORIES = (
    (empty_road, {"ego_speed": (25.0, 32.0)}),
    (highway_cruise, {"ego_speed": (28.0, 32.0), "lead_gap": (60.0, 80.0)}),
    (lead_vehicle_cutin, {"ego_speed": (29.0, 31.0),
                          "cutin_gap": (9.0, 14.0)}),
    (two_lead_reveal, {"ego_speed": (30.0, 33.5),
                       "second_gap": (210.0, 240.0)}),
    (braking_lead, {"lead_gap": (55.0, 70.0), "final_speed": (8.0, 12.0)}),
    (stop_and_go, {"lead_gap": (35.0, 45.0)}),
    (stalled_vehicle, {"gap": (160.0, 200.0)}),
    (adjacent_traffic, {"ego_speed": (27.0, 30.0)}),
)


def sparse_library(seed: int,
                   count: int = SPARSE_SCENARIOS) -> list[Scenario]:
    """``count`` seeded variants of the public scenario factories.

    Factories are used round-robin; each variant draws its parameters
    from the factory's range, gets a unique name and a 13-17 s duration
    via ``dataclasses.replace``.  The same seed gives the same library.
    """
    rng = random.Random(seed)
    library = []
    for index in range(count):
        factory, ranges = _SPARSE_FACTORIES[index % len(_SPARSE_FACTORIES)]
        params = {key: round(rng.uniform(low, high), 2)
                  for key, (low, high) in ranges.items()}
        base = factory(**params)
        library.append(replace(base, name=f"{base.name}-{index:02d}",
                               duration=13.0 + 0.5 * rng.randrange(9)))
    return library


def _run_sparse(campaign: Campaign, seed: int, sink) -> Outcome:
    summary = campaign.random_campaign(
        SPARSE_EXPERIMENTS, seed=seed, record_sink=sink,
        interface_share=SPARSE_INTERFACE_SHARE)
    return Outcome(jobs=SPARSE_EXPERIMENTS,
                   reported_seconds=summary.wall_seconds,
                   ranking=[], n_scored=0, stages=_stages(summary))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="bayesian-paper",
        why=("the paper's train -> mine -> validate loop on the default "
             "scenarios, top 80 candidates validated; the only workload "
             "where mining works and precision is defined"),
        scenarios=lambda seed: default_scenarios(),
        run=_run_bayesian),
    Workload(
        name="random-dense",
        why=("random value faults, many per hazard-prone scenario: "
             "validation-bound, long same-scenario chunks (the side "
             "where batch fusion pays)"),
        scenarios=_dense_scenarios,
        run=_run_dense),
    Workload(
        name="random-sparse",
        why=("random faults, 1 in 4 at interfaces, over a seeded library "
             "of 40 scenario variants: golden runs and ladder spill take "
             "their largest share"),
        scenarios=sparse_library,
        run=_run_sparse),
)}
