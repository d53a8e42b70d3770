"""Campaign-service overhead: ``repro serve`` vs the direct CLI path.

The always-on service (PR 7) wraps every campaign in a durable job
lifecycle: HTTP submission, the job journal, a runner subprocess, and
NDJSON event streaming back to the caller.  That machinery must be
cheap enough to leave on — an operator pointing campaigns at a service
host instead of invoking the pipeline in-process may not pay
meaningfully for the supervision.  This bench runs the same random
campaign both ways with ``workers=4`` and pins record-for-record
agreement, submission→first-record latency, and the wall-clock
overhead bound (service within 10% of the direct run).

Like the resilience bench, the overhead gate needs real cores — on an
oversubscribed runner the noise floor swamps a 10% bound — so it only
applies with at least ``WORKERS`` usable CPUs.  Both wall-clock gates
(overhead and first-record latency) fire only with
``REPRO_BENCH_GATES=1``; equivalence is asserted unconditionally.
"""

import json
import time
from dataclasses import asdict, replace

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.core.persistence import JsonlRecordSink, iter_records_jsonl
from repro.service import ServiceConfig, ServiceThread
from repro.service.client import ServiceClient
from repro.sim import (braking_lead, highway_cruise, lead_vehicle_cutin,
                       queued_traffic, stalled_vehicle, two_lead_reveal)

from conftest import timing_gates

WORKERS = 4
N_EXPERIMENTS = 40
SEED = 5

BENCH_SCENARIOS = (("lead_vehicle_cutin", 14.0), ("two_lead_reveal", 14.0),
                   ("stalled_vehicle", 16.0), ("queued_traffic", 16.0),
                   ("braking_lead", 18.0), ("highway_cruise", 18.0))


def usable_cpus() -> int:
    import os
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without affinity
        return os.cpu_count() or 1


def bench_population():
    builders = {"lead_vehicle_cutin": lead_vehicle_cutin,
                "two_lead_reveal": two_lead_reveal,
                "stalled_vehicle": stalled_vehicle,
                "queued_traffic": queued_traffic,
                "braking_lead": braking_lead,
                "highway_cruise": highway_cruise}
    return [replace(builders[name](), duration=duration)
            for name, duration in BENCH_SCENARIOS]


def bench_spec():
    return {"style": "random",
            "params": {"n": N_EXPERIMENTS, "seed": SEED},
            "workers": WORKERS,
            "scenarios": [{"name": name, "duration": duration}
                          for name, duration in BENCH_SCENARIOS]}


def strip_wall(records):
    rows = []
    for record in records:
        row = asdict(record)
        row.pop("wall_seconds")
        rows.append(row)
    return rows


def run_direct(cache_dir, record_path) -> float:
    """The baseline: the same campaign the runner drives, in-process."""
    campaign = Campaign(bench_population(), CampaignConfig(),
                        cache_dir=cache_dir)
    start = time.perf_counter()
    with JsonlRecordSink(record_path, style="random") as sink:
        campaign.random_campaign(N_EXPERIMENTS, seed=SEED,
                                 workers=WORKERS, record_sink=sink)
    return time.perf_counter() - start


def test_bench_service_overhead(benchmark, tmp_path):
    # Separate cache roots: neither side may reuse the other's golden
    # traces or journal, or the comparison times different work.
    direct_cache = tmp_path / "direct-cache"
    service_cache = tmp_path / "service-cache"

    # Warm process-wide caches so timing order doesn't favour side two.
    warm = Campaign(bench_population()[:2], CampaignConfig())
    warm.exhaustive_campaign(tick_stride=64, variable_names=["brake"],
                             workers=WORKERS)

    baseline_seconds = run_direct(direct_cache,
                                  tmp_path / "direct-records.jsonl")

    def timed_service():
        config = ServiceConfig(cache_dir=service_cache,
                               default_workers=WORKERS)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.port)
            start = time.perf_counter()
            job = client.submit(bench_spec())
            first_record = None
            for event in client.events(job["id"]):
                if (first_record is None
                        and event.get("type") == "progress"
                        and event.get("stage") == "validated"):
                    first_record = time.perf_counter() - start
            final = client.wait(job["id"], timeout=600)
            elapsed = time.perf_counter() - start
            assert final["state"] == "completed"
            raw = client.records(job["id"])
        return raw, elapsed, first_record

    raw, service_seconds, first_record_seconds = benchmark.pedantic(
        timed_service, rounds=1, iterations=1)

    overhead = service_seconds / baseline_seconds

    print("\nCampaign service vs direct in-process campaign")
    print(ascii_table(["metric", "direct", "service"], [
        ["experiments", N_EXPERIMENTS, N_EXPERIMENTS],
        ["wall seconds", f"{baseline_seconds:.2f}",
         f"{service_seconds:.2f}"],
        ["submit->first record (s)", "-",
         f"{first_record_seconds:.2f}"],
        ["overhead", "1x", f"{overhead:,.3f}x"],
    ]))
    benchmark.extra_info["baseline_seconds"] = baseline_seconds
    benchmark.extra_info["service_seconds"] = service_seconds
    benchmark.extra_info["first_record_seconds"] = first_record_seconds
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["experiments"] = N_EXPERIMENTS
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # The service must not change one record vs the direct pipeline...
    service_records = list(iter_records_jsonl(_spool(tmp_path, raw)))
    direct_records = list(iter_records_jsonl(
        tmp_path / "direct-records.jsonl"))
    assert strip_wall(service_records) == strip_wall(direct_records)

    # ...and the lifecycle machinery may not dominate when there are
    # real cores to time it on.  The wall-clock gates are opt-in
    # (timing_gates).
    if not timing_gates(benchmark):
        return
    if usable_cpus() < WORKERS:
        print(f"only {usable_cpus()} usable CPU(s) for {WORKERS} "
              f"workers: overhead gates skipped")
        return
    assert overhead <= 1.10, (
        f"service campaign cost {overhead:.3f}x the direct run "
        f"(budget: 1.10x)")
    # First validated record within half the direct campaign: the
    # stream is live, not a batch dump at completion.
    assert first_record_seconds <= max(10.0, baseline_seconds), (
        f"first record took {first_record_seconds:.1f}s "
        f"(direct campaign: {baseline_seconds:.1f}s)")


def _spool(tmp_path, raw: bytes):
    path = tmp_path / "service-records.jsonl"
    path.write_bytes(raw)
    return path
