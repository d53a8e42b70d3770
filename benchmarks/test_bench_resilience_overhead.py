"""Supervision overhead: supervised pool vs a bare process pool.

The resilience layer (PR 6) runs every pooled experiment under
:class:`repro.core.resilience.SupervisedExecutor` — per-job wall-clock
timeouts, crash respawn, bounded retries — instead of a bare
``ProcessPoolExecutor``.  Supervision must be effectively free on the
fault-free path: the whole point is to leave it on by default, so a
healthy campaign may not pay for the insurance.  This bench runs the
same job set with ``workers=4`` through :meth:`Campaign.run_jobs` and
through a bare pool driving the same worker entry points
(``_init_pipeline_worker``/``_pipeline_validate_chunk``), both forking
from the campaign's checkpoint ladders with golden runs warmed
beforehand, and pins record-for-record
agreement plus the overhead bound (supervised within 5% of
unsupervised wall-clock).

The overhead gate needs real cores (with oversubscribed CPUs the noise
floor swamps a 5% bound), so it only applies when the runner exposes at
least ``WORKERS`` usable CPUs — equivalence is asserted unconditionally.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import replace

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig, FaultSpec
from repro.core.parallel import _pool_context
from repro.core.pipeline import (_init_pipeline_worker,
                                 _pipeline_validate_chunk, _validation_parts)
from repro.sim import (braking_lead, highway_cruise, lead_vehicle_cutin,
                       queued_traffic, stalled_vehicle, two_lead_reveal)

from conftest import timing_gates

WORKERS = 4


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without affinity
        return os.cpu_count() or 1


def bench_population():
    return [replace(lead_vehicle_cutin(), duration=14.0),
            replace(two_lead_reveal(), duration=14.0),
            replace(stalled_vehicle(), duration=16.0),
            replace(queued_traffic(), duration=16.0),
            replace(braking_lead(), duration=18.0),
            replace(highway_cruise(), duration=18.0)]


def bench_jobs(scenarios):
    """A deterministic mixed grid: every scenario, three ticks, three
    variables — enough work that per-job supervision cost would show."""
    jobs = []
    for scenario in scenarios:
        for tick in (20, 60, 100):
            for variable, value in (("brake", 0.0), ("throttle", 1.0),
                                    ("steering", 0.35)):
                jobs.append((scenario.name,
                             FaultSpec(variable, value, tick, 4)))
    return jobs


def run_unsupervised(scenarios, config, spool, jobs):
    """The pre-resilience engine: a bare pool, no timeouts, no retries,
    no crash recovery — the overhead baseline supervision is held to.
    The tasks are the parts the driver cuts this job set into
    (``_validation_parts``: one wide fused part per worker)."""
    records = [None] * len(jobs)
    items = [(slot, name, fault) for slot, (name, fault) in enumerate(jobs)]
    with ProcessPoolExecutor(max_workers=WORKERS,
                             mp_context=_pool_context(None),
                             initializer=_init_pipeline_worker,
                             initargs=(scenarios, config,
                                       str(spool))) as pool:
        futures = [pool.submit(_pipeline_validate_chunk, list(part))
                   for part in _validation_parts(config, items, WORKERS)]
        for future in as_completed(futures):
            for slot, record in future.result():
                records[slot] = record
    return records


def test_bench_resilience_overhead(benchmark):
    scenarios = bench_population()
    config = CampaignConfig()
    jobs = bench_jobs(scenarios)
    campaign = Campaign(scenarios, config)
    campaign.golden_runs()      # outside both timings; spills the ladders

    # Warm the process-wide caches both engines share so timing order
    # doesn't favour the second run.
    warm = Campaign(scenarios[:2], CampaignConfig())
    warm.exhaustive_campaign(tick_stride=64, variable_names=["brake"],
                             workers=WORKERS)

    base_start = time.perf_counter()
    baseline = run_unsupervised(scenarios, config,
                                campaign._ladder_spool_dir(), jobs)
    baseline_seconds = time.perf_counter() - base_start

    def timed_supervised():
        start = time.perf_counter()
        records = campaign.run_jobs(jobs, workers=WORKERS).records
        return records, time.perf_counter() - start

    supervised, supervised_seconds = benchmark.pedantic(
        timed_supervised, rounds=1, iterations=1)

    overhead = supervised_seconds / baseline_seconds

    print("\nSupervised pool vs bare ProcessPoolExecutor (no faults)")
    print(ascii_table(["metric", "bare pool", "supervised"], [
        ["experiments", len(baseline), len(supervised)],
        ["wall seconds", f"{baseline_seconds:.2f}",
         f"{supervised_seconds:.2f}"],
        ["overhead", "1x", f"{overhead:,.3f}x"],
    ]))
    benchmark.extra_info["baseline_seconds"] = baseline_seconds
    benchmark.extra_info["supervised_seconds"] = supervised_seconds
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["experiments"] = len(jobs)
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # Supervision must not change one record on the healthy path...
    def strip(records):
        return [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.seed, r.hazard, r.landed,
                 r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
                 r.min_delta_lat, r.sim_seconds) for r in records]

    assert strip(supervised) == strip(baseline)
    assert all(r.error is None for r in supervised)
    # ...and must cost at most 5% wall-clock when there are real cores
    # to time it on.  The wall-clock gate is opt-in (timing_gates).
    if not timing_gates(benchmark):
        return
    if usable_cpus() < WORKERS:
        print(f"only {usable_cpus()} usable CPU(s) for {WORKERS} "
              f"workers: overhead gate skipped")
        return
    assert overhead <= 1.05, (
        f"supervised execution cost {overhead:.3f}x the bare pool on a "
        f"fault-free run (budget: 1.05x)")
