"""Degradation-watch overhead: graceful degradation on vs off.

The interface-fault extension (PR 8) routes every stage payload through
the :class:`~repro.ads.channels.ChannelBus` and, when graceful
degradation is enabled (the default), checks per-channel staleness
against the TTL every control tick.  That watch must be effectively
free on the fault-free path — degradation ships on by default, so every
healthy campaign pays for it on every tick of every experiment.

This bench runs one deterministic value-fault grid twice through the
serial engine — degradation enabled vs ``DegradationConfig(enabled=
False)`` — and pins record-for-record agreement plus the overhead bound
(enabled within 5% of disabled wall-clock).  The timing gate needs a
quiet core, so it only applies with at least two usable CPUs and
``REPRO_BENCH_GATES=1``; equivalence is asserted unconditionally.
"""

import os
import time
from dataclasses import asdict, replace

from repro.analysis import ascii_table
from repro.core import (Campaign, CampaignConfig, DegradationConfig,
                        FaultSpec, ListSink)
from repro.ads.runtime import ADSConfig
from repro.sim import (braking_lead, highway_cruise, lead_vehicle_cutin,
                       two_lead_reveal)

from conftest import timing_gates


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without affinity
        return os.cpu_count() or 1


def bench_population():
    return [replace(lead_vehicle_cutin(), duration=14.0),
            replace(two_lead_reveal(), duration=14.0),
            replace(braking_lead(), duration=16.0),
            replace(highway_cruise(), duration=16.0)]


def bench_jobs(scenarios):
    """Value faults only: the interface machinery stays on the no-op
    path, which is exactly the overhead being measured."""
    jobs = []
    for scenario in scenarios:
        for tick in (20, 60, 100):
            for variable, value in (("brake", 0.0), ("throttle", 1.0),
                                    ("steering", 0.35)):
                jobs.append((scenario.name,
                             FaultSpec(variable, value, tick, 4)))
    return jobs


def run_grid(scenarios, config, jobs):
    campaign = Campaign(scenarios, config)
    sink = ListSink()
    start = time.perf_counter()
    for scenario_name, fault in jobs:
        sink.add(campaign.run_fault(scenario_name, fault))
    return sink.records, time.perf_counter() - start


def strip(records):
    rows = []
    for record in records:
        row = asdict(record)
        row.pop("wall_seconds")
        rows.append(row)
    return rows


def test_bench_interface_degradation_overhead(benchmark):
    scenarios = bench_population()
    jobs = bench_jobs(scenarios)
    enabled_config = CampaignConfig()
    disabled_config = CampaignConfig(
        ads=ADSConfig(degradation=DegradationConfig(enabled=False)))

    # Warm the golden-run caches on both configs so neither timed run
    # pays the first-touch cost.
    Campaign(scenarios, enabled_config).golden_runs()
    Campaign(scenarios, disabled_config).golden_runs()

    baseline, baseline_seconds = run_grid(scenarios, disabled_config, jobs)

    def timed_enabled():
        return run_grid(scenarios, enabled_config, jobs)

    degraded, degraded_seconds = benchmark.pedantic(
        timed_enabled, rounds=1, iterations=1)

    overhead = degraded_seconds / baseline_seconds

    print("\nGraceful degradation on vs off (fault-free value grid)")
    print(ascii_table(["metric", "degradation off", "degradation on"], [
        ["experiments", len(baseline), len(degraded)],
        ["wall seconds", f"{baseline_seconds:.2f}",
         f"{degraded_seconds:.2f}"],
        ["overhead", "1x", f"{overhead:,.3f}x"],
    ]))
    benchmark.extra_info["baseline_seconds"] = baseline_seconds
    benchmark.extra_info["degraded_seconds"] = degraded_seconds
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["experiments"] = len(jobs)
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # The degradation watch must not change one record on a fault-free
    # grid (no interface fault ever lands, so nothing may engage)...
    assert strip(degraded) == strip(baseline)
    assert not any(r.degraded for r in degraded)
    # ...and must cost at most 5% wall-clock when there is a quiet core
    # to time it on.  The wall-clock gate is opt-in (timing_gates).
    if not timing_gates(benchmark):
        return
    if usable_cpus() < 2:
        print(f"only {usable_cpus()} usable CPU(s): overhead gate skipped")
        return
    assert overhead <= 1.05, (
        f"degradation watch cost {overhead:.3f}x the disabled path on a "
        f"fault-free grid (budget: 1.05x)")
