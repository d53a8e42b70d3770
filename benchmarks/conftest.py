"""Shared fixtures for the benchmark suite.

Each bench regenerates one table or figure of the paper (see DESIGN.md's
experiment index) on a scaled-down but structurally identical workload,
prints the regenerated artifact, and attaches headline numbers to the
pytest-benchmark record via ``extra_info``.
"""

import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import Campaign, CampaignConfig, execute_experiment
from repro.sim import (adjacent_traffic, braking_lead, empty_road,
                       highway_cruise, lead_vehicle_cutin,
                       occluded_pedestrian, overtake_cutin, queued_traffic,
                       stalled_vehicle, two_lead_reveal)


# The reference loop the record-equality asserts compare against lives
# with the equivalence suites (tests/reference.py).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

#: Single-round wall-clock gates are opt-in: on a shared host one timed
#: round is too noisy to fail the tier-1 suite on.  The CI benchmarks
#: job sets this variable on its timed steps.
GATES_ENV = "REPRO_BENCH_GATES"


def timing_gates(benchmark) -> bool:
    """Whether to enforce wall-clock gates: the bench is timed (not
    ``--benchmark-disable``) and ``REPRO_BENCH_GATES=1``.  Record
    equality and correctness asserts never depend on this."""
    return not benchmark.disabled and os.environ.get(GATES_ENV) == "1"


def host_info() -> dict:
    """Host metadata for a bench's ``extra_info``: usable CPUs,
    numpy/Python versions and the checked-out git sha (``-dirty`` when
    the tree has uncommitted changes)."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).resolve().parent).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"usable_cpus": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "git_sha": sha}


def round_summary(seconds) -> dict:
    """Median and quartiles of round seconds."""
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "rounds": len(seconds)}


def interleaved_ratio(oracle, shortcut, check, rounds: int):
    """Time ``rounds`` rounds of both sides, alternating which goes
    first (the oracle on even rounds), and check every result with
    ``check(side, result)``.  Returns the ratio of median seconds
    (oracle / shortcut) and each side's :func:`round_summary`, keyed
    ``"oracle"`` and ``"shortcut"``.  The gate pattern of every
    wall-clock bench: a ratio of medians over interleaved rounds, with
    the spread recorded beside it."""
    seconds = {"oracle": [], "shortcut": []}
    sides = [("oracle", oracle), ("shortcut", shortcut)]
    for index in range(rounds):
        for side, run in (sides if index % 2 == 0 else sides[::-1]):
            start = time.perf_counter()
            result = run()
            seconds[side].append(time.perf_counter() - start)
            check(side, result)
    stats = {side: round_summary(times) for side, times in seconds.items()}
    return stats["oracle"]["median"] / stats["shortcut"]["median"], stats


def scalar_engine_records(campaign, jobs):
    """The scalar engine on ``jobs``, forked from the campaign's resident
    checkpoint ladders (warm them with ``golden_runs()``): one
    :func:`execute_experiment` per job, in job order.  The side fused
    validation is timed and checked against."""
    return [execute_experiment(
        campaign._by_name[name], campaign.config, fault,
        campaign.checkpoints.nearest(name, fault.start_tick))
        for name, fault in jobs]


def bench_scenarios():
    """The scenario population used by campaign benches.

    Includes the scripted scenegen templates (overtake cut-in,
    stop-and-go queue, occluded pedestrian crossing) so benches exercise
    multi-vehicle and small-object workloads, not just the paper's core
    situations.
    """
    return [replace(empty_road(), duration=15.0),
            replace(highway_cruise(), duration=20.0),
            replace(lead_vehicle_cutin(), duration=15.0),
            replace(two_lead_reveal(), duration=20.0),
            replace(braking_lead(), duration=20.0),
            replace(stalled_vehicle(), duration=20.0),
            replace(adjacent_traffic(), duration=15.0),
            replace(overtake_cutin(), duration=20.0),
            replace(queued_traffic(), duration=20.0),
            replace(occluded_pedestrian(), duration=20.0)]


@pytest.fixture(scope="session")
def campaign():
    """One shared campaign (golden runs are cached inside)."""
    return Campaign(bench_scenarios(), CampaignConfig())


@pytest.fixture(scope="session")
def bayesian_result(campaign):
    """One shared Bayesian campaign (mining + validation), reused by
    the acceleration, comparison, and fidelity benches."""
    return campaign.bayesian_campaign()
