"""Validation throughput: fused batched lanes vs the scalar oracle.

PR 2 made validation fork from golden-prefix checkpoints; what still
cost one Python interpreter pass per experiment was the simulation
itself — every world stepped its own RK4, collision sweep, and safety
envelope through scalar numpy calls.  The batch engine
(:mod:`repro.sim.batch`) steps up to ``batch_sim`` same-scenario
experiments per fused kernel call, and the campaign drivers chunk jobs
into those batches transparently.

This bench times the *shipped* batched configuration — fused lanes on
a process pool (``batch_sim=16, workers=4``) — against the serial
scalar oracle on the same checkpoint-forked job population, and pins
exact record agreement between the two.  Since the ADS pipeline itself
batches too (:mod:`repro.ads.batch`, PR 10), serial fusion alone is
~2x (the ``serial_batched_speedup`` extra_info;
``test_bench_batch_ads`` gates it), and the ≥3x gate applies to the
batched+pooled path, which needs real cores; with fewer usable CPUs
than workers the gate is skipped and only equivalence is asserted.
"""

import os
import time
from dataclasses import replace

import pytest

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.core.fault_models import minmax_fault_grid
from repro.core.parallel import run_experiments

from conftest import bench_scenarios, timing_gates

WORKERS = 4
BATCH = 16


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without affinity
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def batch_campaign():
    """Golden-warmed campaign over a mixed-traffic scenario subset."""
    campaign = Campaign(bench_scenarios()[1:5], CampaignConfig())
    campaign.golden_runs()   # warm golden traces + checkpoint ladders
    return campaign


def validation_jobs(campaign):
    """A strided brake/throttle grid: long same-scenario runs, so the
    drivers cut them into full ``batch_sim`` chunks plus remainders."""
    jobs = []
    for scenario in campaign.scenarios:
        ticks = campaign.injection_ticks(scenario)
        grid = minmax_fault_grid(
            ticks[::len(ticks) // 8 or 1], ["brake", "throttle"],
            duration_ticks=campaign.config.fault_duration_ticks)
        jobs.extend((scenario.name, fault) for fault in grid)
    return jobs


def test_bench_batch_sim(benchmark, batch_campaign):
    campaign = batch_campaign
    jobs = validation_jobs(campaign)
    assert len(jobs) >= 40
    scalar_config = campaign.config
    batched_config = replace(scalar_config, batch_sim=BATCH)

    def validate_scalar_serial():
        return run_experiments(campaign.scenarios, scalar_config, jobs,
                               checkpoints=campaign.checkpoints)

    def validate_batched_serial():
        return run_experiments(campaign.scenarios, batched_config, jobs,
                               checkpoints=campaign.checkpoints)

    def validate_batched_pooled():
        return run_experiments(campaign.scenarios, batched_config, jobs,
                               workers=WORKERS,
                               checkpoints=campaign.checkpoints)

    # Warm process-wide caches all paths share (RK4 stop kernels, numpy
    # dispatch, golden traces) so timing order doesn't bias the
    # comparison, then time manually — best-of-two per path keeps the
    # gate robust against scheduler noise, and the manual numbers also
    # work under --benchmark-disable smoke runs.
    validate_batched_serial()

    pooled_records = benchmark(validate_batched_pooled)

    def best_of_two(run):
        result, seconds = None, float("inf")
        for _ in range(2):
            start = time.perf_counter()
            result = run()
            seconds = min(seconds, time.perf_counter() - start)
        return result, seconds

    scalar_records, scalar_seconds = best_of_two(validate_scalar_serial)
    serial_batch_records, serial_batch_seconds = \
        best_of_two(validate_batched_serial)
    _, pooled_seconds = best_of_two(validate_batched_pooled)

    speedup = scalar_seconds / pooled_seconds
    serial_speedup = scalar_seconds / serial_batch_seconds

    print("\nValidation throughput: fused batched lanes vs scalar oracle")
    print(ascii_table(
        ["metric", "scalar serial", f"batched serial",
         f"batched x{WORKERS} workers"], [
            ["experiments", len(scalar_records),
             len(serial_batch_records), len(pooled_records)],
            ["wall seconds", f"{scalar_seconds:.3f}",
             f"{serial_batch_seconds:.3f}", f"{pooled_seconds:.3f}"],
            ["experiments / s", f"{len(jobs) / scalar_seconds:,.1f}",
             f"{len(jobs) / serial_batch_seconds:,.1f}",
             f"{len(jobs) / pooled_seconds:,.1f}"],
            ["speedup", "1x", f"{serial_speedup:,.2f}x",
             f"{speedup:,.2f}x"],
        ]))
    benchmark.extra_info["scalar_serial_seconds"] = scalar_seconds
    benchmark.extra_info["batched_serial_seconds"] = serial_batch_seconds
    benchmark.extra_info["batched_pooled_seconds"] = pooled_seconds
    benchmark.extra_info["serial_batched_speedup"] = serial_speedup
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["experiments"] = len(jobs)
    benchmark.extra_info["batch_sim"] = BATCH
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # The batched paths must agree with the scalar oracle record for
    # record (wall clock aside) — asserted unconditionally...
    def strip(records):
        return [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.seed, r.hazard, r.landed,
                 r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
                 r.min_delta_lat, r.sim_seconds) for r in records]

    oracle = strip(scalar_records)
    assert strip(serial_batch_records) == oracle
    assert strip(pooled_records) == oracle
    # ...and the shipped configuration must pay for itself when there
    # are cores to pool over.  The per-lane ADS pipeline serializes on
    # a single CPU (Amdahl), so with fewer usable CPUs than workers the
    # ≥3x gate is unreachable and skipped; wall-clock gates are
    # opt-in (timing_gates).
    if not timing_gates(benchmark):
        return
    if usable_cpus() < WORKERS:
        print(f"only {usable_cpus()} usable CPU(s) for {WORKERS} "
              f"workers: speedup gate skipped")
        return
    assert speedup >= 3.0, (
        f"batched validation only {speedup:.2f}x faster than the "
        f"scalar serial oracle with batch_sim={BATCH}, "
        f"workers={WORKERS}")
