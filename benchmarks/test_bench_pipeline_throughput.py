"""End-to-end pipeline throughput: streaming driver vs barrier phases.

PR 3 parallelized each campaign phase internally, but the phases still
synchronize globally: every golden run must finish before the first
experiment validates, so one long scenario idles every worker (the
motivating failure mode — campaign wall-clock is gated by barriers, not
by per-experiment cost).  This bench runs the same exhaustive campaign
over a mixed-duration population — one long scenario queued last, the
realistic worst case for a barrier — through both drivers with
``workers=4`` and pins record-for-record agreement plus the speedup
the per-scenario streaming buys.

The speedup gate needs real cores: with fewer usable CPUs than workers
there is no idle capacity for streaming to reclaim, so the ≥1.3x
assertion only applies when the runner exposes at least ``WORKERS``
usable CPUs (CI runners do).  Equivalence is asserted unconditionally.
"""

import os
import time
from dataclasses import replace

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.sim import (braking_lead, highway_cruise, lead_vehicle_cutin,
                       overtake_cutin, queued_traffic, stalled_vehicle,
                       two_lead_reveal)

from conftest import timing_gates

WORKERS = 4
TICK_STRIDE = 16
VARIABLES = ["brake", "throttle", "steering"]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without affinity
        return os.cpu_count() or 1


def bench_population():
    """Mixed-duration population, the long scenario submitted last.

    Real campaigns mix short scripted situations with long soak
    scenarios; a barrier driver pays the worst one twice (idle workers
    during its golden run, then again waiting to start validation).
    """
    return [replace(lead_vehicle_cutin(), duration=14.0),
            replace(two_lead_reveal(), duration=14.0),
            replace(stalled_vehicle(), duration=16.0),
            replace(queued_traffic(), duration=16.0),
            replace(overtake_cutin(), duration=18.0),
            replace(braking_lead(), duration=18.0),
            replace(highway_cruise(), duration=48.0)]


def fresh_campaign() -> Campaign:
    """A cold campaign: no golden traces, no checkpoints, no caches."""
    return Campaign(bench_population(),
                    CampaignConfig(checkpoint_stride=2))


def run_campaign(pipeline: bool):
    campaign = fresh_campaign()
    summary = campaign.exhaustive_campaign(
        tick_stride=TICK_STRIDE, variable_names=VARIABLES,
        workers=WORKERS, pipeline=pipeline)
    return summary


def test_bench_pipeline_throughput(benchmark):
    # Warm process-wide caches both paths share (RK4 stop kernels,
    # numpy dispatch) so timing order doesn't favour the second run.
    warm = Campaign(bench_population()[:2],
                    CampaignConfig(checkpoint_stride=2))
    warm.exhaustive_campaign(tick_stride=64, variable_names=["brake"],
                             workers=WORKERS)

    barrier_start = time.perf_counter()
    barrier_summary = run_campaign(pipeline=False)
    barrier_seconds = time.perf_counter() - barrier_start

    def timed_pipeline():
        start = time.perf_counter()
        summary = run_campaign(pipeline=True)
        return summary, time.perf_counter() - start

    (pipeline_summary, pipeline_seconds) = benchmark.pedantic(
        timed_pipeline, rounds=1, iterations=1)

    speedup = barrier_seconds / pipeline_seconds

    print("\nEnd-to-end campaign throughput: barrier vs streaming "
          "pipeline")
    print(ascii_table(["metric", "barrier", "pipeline"], [
        ["experiments", barrier_summary.total, pipeline_summary.total],
        ["wall seconds", f"{barrier_seconds:.2f}",
         f"{pipeline_seconds:.2f}"],
        ["speedup", "1x", f"{speedup:,.2f}x"],
    ]))
    benchmark.extra_info["barrier_seconds"] = barrier_seconds
    benchmark.extra_info["pipeline_seconds"] = pipeline_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["experiments"] = barrier_summary.total
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # The streaming pipeline must agree with the barrier oracle record
    # for record (wall clock aside)...
    def strip(records):
        return [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.seed, r.hazard, r.landed,
                 r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
                 r.min_delta_lat, r.sim_seconds) for r in records]

    assert strip(pipeline_summary.records) == \
        strip(barrier_summary.records)
    assert pipeline_summary.same_aggregates(barrier_summary)
    # ...and the reclaimed barrier idle time must show up as wall-clock
    # when there are cores to reclaim it on.  Wall-clock gates are
    # opt-in (timing_gates).
    if not timing_gates(benchmark):
        return
    if usable_cpus() < WORKERS:
        print(f"only {usable_cpus()} usable CPU(s) for {WORKERS} "
              f"workers: speedup gate skipped")
        return
    assert speedup >= 1.3, (
        f"streaming pipeline only {speedup:.2f}x faster than the "
        f"barrier driver with workers={WORKERS}")


def test_bench_sharded_pipeline_merge(tmp_path):
    """Two shards cover the campaign and merge back to the whole."""
    from repro.core.persistence import JsonlRecordSink, merge_record_shards

    reference = Campaign(bench_population(),
                         CampaignConfig(checkpoint_stride=2)) \
        .exhaustive_campaign(tick_stride=64, variable_names=["brake"])
    paths = []
    for shard in range(2):
        config = CampaignConfig(checkpoint_stride=2, shard_index=shard,
                                shard_count=2)
        path = tmp_path / f"shard-{shard}.jsonl.gz"
        with JsonlRecordSink(path) as sink:
            Campaign(bench_population(), config).exhaustive_campaign(
                tick_stride=64, variable_names=["brake"],
                workers=2, record_sink=sink)
        paths.append(path)
    merged = merge_record_shards(paths)
    assert merged.same_aggregates(reference)
