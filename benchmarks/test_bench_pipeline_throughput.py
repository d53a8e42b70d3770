"""End-to-end pipeline throughput on a mixed-duration population.

Campaign phases synchronizing globally — every golden run finishing
before the first experiment validates — would let one long scenario
idle every worker.  The streaming driver flows each scenario through
golden -> validation on its own, so this bench runs an exhaustive
campaign over a mixed-duration population (one long scenario queued
last, the worst case for phase barriers) with ``workers=4``, records
its wall clock and throughput, and pins record-for-record agreement
with the reference loop (serial full replay of the same jobs).

The streaming driver is the only campaign driver, so there is no second
path to race and no speedup gate; the numbers go to ``extra_info`` for
the trajectory.
"""

import os
import time
from dataclasses import replace

from reference import exhaustive_jobs, reference_records, strip_wall

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.sim import (braking_lead, highway_cruise, lead_vehicle_cutin,
                       overtake_cutin, queued_traffic, stalled_vehicle,
                       two_lead_reveal)

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
    scenarios; a phase barrier pays the worst one twice (idle workers
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
    return Campaign(bench_population(), CampaignConfig())


def test_bench_pipeline_throughput(benchmark):
    # Warm process-wide caches (RK4 stop kernels, numpy dispatch) so the
    # timed run measures the campaign, not first-call setup.
    warm = Campaign(bench_population()[:2], CampaignConfig())
    warm.exhaustive_campaign(tick_stride=64, variable_names=["brake"],
                             workers=WORKERS)
    campaign = fresh_campaign()

    def timed_pipeline():
        start = time.perf_counter()
        summary = campaign.exhaustive_campaign(
            tick_stride=TICK_STRIDE, variable_names=VARIABLES,
            workers=WORKERS)
        return summary, time.perf_counter() - start

    (summary, seconds) = benchmark.pedantic(timed_pipeline, rounds=1,
                                            iterations=1)

    print("\nEnd-to-end exhaustive campaign on the streaming pipeline")
    print(ascii_table(["metric", "pipeline"], [
        ["experiments", summary.total],
        ["wall seconds", f"{seconds:.2f}"],
        ["experiments / s", f"{summary.total / seconds:,.1f}"],
    ]))
    benchmark.extra_info["pipeline_seconds"] = seconds
    benchmark.extra_info["experiments"] = summary.total
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # The pooled, checkpoint-forked, streamed campaign must agree with
    # the reference loop record for record (wall clock aside).
    jobs = exhaustive_jobs(campaign, tick_stride=TICK_STRIDE,
                           variable_names=VARIABLES)
    reference = reference_records(campaign, jobs)
    assert strip_wall(summary.records) == strip_wall(reference)


def test_bench_sharded_pipeline_merge(tmp_path):
    """Two shards cover the campaign and merge back to the whole."""
    from repro.core.persistence import JsonlRecordSink, merge_record_shards

    reference = Campaign(bench_population(), CampaignConfig()) \
        .exhaustive_campaign(tick_stride=64, variable_names=["brake"])
    paths = []
    for shard in range(2):
        config = CampaignConfig(shard_index=shard, shard_count=2)
        path = tmp_path / f"shard-{shard}.jsonl.gz"
        with JsonlRecordSink(path) as sink:
            Campaign(bench_population(), config).exhaustive_campaign(
                tick_stride=64, variable_names=["brake"],
                workers=2, record_sink=sink)
        paths.append(path)
    merged = merge_record_shards(paths)
    assert merged.same_aggregates(reference)
