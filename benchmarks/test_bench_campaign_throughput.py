"""End-to-end campaign throughput: serial vs sharded + streamed.

PR 1 batched mining and PR 2 checkpoint-resumed validation; what was
left serial was golden-trace collection, and every campaign still
accumulated its records in memory.  This bench times the *whole*
Bayesian campaign pipeline — golden collection (with checkpoint-ladder
capture), training, mining, and validation — serial versus sharded over
``workers=4`` with records streamed to a JSONL sink, and pins exact
record agreement between the two.

The speedup gate needs real cores: process-level sharding cannot beat
serial on a single-CPU host, and with fewer cores than workers 2x is at
the theoretical ceiling, so the ≥2x assertion only applies when the
runner exposes at least ``WORKERS`` usable CPUs (CI runners do).
Record equivalence is asserted unconditionally.
"""

import os
import time

import pytest

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig, ListSink
from repro.core.persistence import JsonlRecordSink, load_summary_jsonl

from conftest import bench_scenarios, timing_gates

WORKERS = 4
TOP_K = 24


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without affinity
        return os.cpu_count() or 1


def fresh_campaign() -> Campaign:
    """A cold campaign: no golden traces, no checkpoints, no caches.

    Each timed run gets its own instance so both paths pay the full
    golden + train + mine + validate pipeline from scratch.
    """
    return Campaign(bench_scenarios(),
                    CampaignConfig(checkpoint_stride=2))


def test_bench_campaign_throughput(benchmark, tmp_path):
    # Warm process-wide caches both paths share (RK4 stop kernels,
    # conditioning plans, numpy dispatch) on a scaled-down campaign so
    # the serial-first timing order doesn't hand the sharded run warmer
    # caches through fork inheritance.
    warmup = Campaign(bench_scenarios()[:2],
                      CampaignConfig(checkpoint_stride=2))
    warmup.bayesian_campaign(top_k=4)

    def run_serial():
        campaign = fresh_campaign()
        result = campaign.bayesian_campaign(top_k=TOP_K)
        return campaign, result

    def run_sharded():
        campaign = fresh_campaign()
        sink = ListSink()
        result = campaign.bayesian_campaign(top_k=TOP_K, workers=WORKERS,
                                            record_sink=sink)
        return campaign, result, sink

    serial_start = time.perf_counter()
    serial_campaign, serial_result = run_serial()
    serial_seconds = time.perf_counter() - serial_start

    def timed_sharded():
        start = time.perf_counter()
        out = run_sharded()
        return out, time.perf_counter() - start

    (sharded_out, sharded_seconds) = benchmark.pedantic(
        timed_sharded, rounds=1, iterations=1)
    sharded_campaign, sharded_result, sink = sharded_out

    speedup = serial_seconds / sharded_seconds
    experiments = serial_result.summary.total

    print("\nEnd-to-end campaign throughput: serial vs sharded+streamed")
    print(ascii_table(["metric", "serial", f"workers={WORKERS}"], [
        ["scenarios", len(serial_campaign.scenarios),
         len(sharded_campaign.scenarios)],
        ["experiments", experiments, sharded_result.summary.total],
        ["wall seconds", f"{serial_seconds:.2f}",
         f"{sharded_seconds:.2f}"],
        ["speedup", "1x", f"{speedup:,.2f}x"],
    ]))
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["sharded_seconds"] = sharded_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["experiments"] = experiments
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # The sharded, streamed campaign must agree with the serial oracle
    # candidate-for-candidate and record-for-record (wall clock aside)...
    assert [(c.scenario, c.injection_tick, c.variable, c.value)
            for c in sharded_result.candidates] == \
           [(c.scenario, c.injection_tick, c.variable, c.value)
            for c in serial_result.candidates]

    def strip(records):
        return [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.seed, r.hazard, r.landed,
                 r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
                 r.min_delta_lat, r.sim_seconds) for r in records]

    assert strip(sink.records) == strip(serial_result.summary.records)
    # ...streaming must keep the summary record-free while agreeing on
    # every aggregate...
    assert sharded_result.summary.records == []
    assert sharded_result.summary.same_aggregates(serial_result.summary)
    # ...and sharding must pay for itself when there are cores to shard
    # over.  With fewer usable CPUs than workers a 2x gain is at or
    # above the theoretical ceiling (Amdahl plus pool overhead), so the
    # gate requires the full worker count; wall-clock gates are
    # opt-in (timing_gates).
    if not timing_gates(benchmark):
        return
    if usable_cpus() < WORKERS:
        print(f"only {usable_cpus()} usable CPU(s) for {WORKERS} "
              f"workers: speedup gate skipped")
        return
    assert speedup >= 2.0, (
        f"sharded campaign only {speedup:.2f}x faster than serial "
        f"with workers={WORKERS}")


def test_bench_streamed_records_roundtrip(tmp_path):
    """A streamed campaign's JSONL reloads into an equivalent summary."""
    campaign = fresh_campaign()
    path = tmp_path / "campaign-records.jsonl"
    with JsonlRecordSink(path) as sink:
        summary = campaign.random_campaign(40, seed=9, record_sink=sink)
    assert summary.records == []           # bounded: nothing retained
    assert sink.count == 40
    loaded = load_summary_jsonl(path, keep_records=False)
    assert loaded.same_aggregates(summary)
