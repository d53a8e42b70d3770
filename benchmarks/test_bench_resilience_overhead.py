"""Supervision overhead: supervised pool vs a bare process pool.

The resilience layer runs every pooled experiment under
:class:`repro.core.resilience.SupervisedExecutor` — per-job wall-clock
timeouts, crash respawn, bounded retries — instead of a bare
``ProcessPoolExecutor``.  Supervision must be effectively free on the
fault-free path: the whole point is to leave it on by default, so a
healthy campaign may not pay for the insurance.  This bench runs the
same job set with ``workers=4`` through :meth:`Campaign.run_jobs` and
through a bare pool driving the same worker entry points
(``_init_pipeline_worker``/``_pipeline_validate_chunk``), both forking
from the campaign's checkpoint ladders with golden runs warmed
beforehand.  Timings interleave bare and supervised rounds
(``conftest.interleaved_ratio``); the overhead is the ratio of the
median round times, and both sides' medians and quartiles go to
``extra_info`` with the host's metadata.  Record-for-record agreement
is asserted on every round, and the overhead bound (supervised within
5% of unsupervised wall-clock) is an opt-in gate.

The overhead gate needs real cores (with oversubscribed CPUs the noise
floor swamps a 5% bound), so it only applies when the runner exposes at
least ``WORKERS`` usable CPUs — equivalence is asserted unconditionally.
"""

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import replace

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig, FaultSpec
from repro.core.parallel import _pool_context
from repro.core.pipeline import (_init_pipeline_worker,
                                 _pipeline_validate_chunk, _validation_parts)
from repro.sim import (braking_lead, highway_cruise, lead_vehicle_cutin,
                       queued_traffic, stalled_vehicle, two_lead_reveal)

from conftest import host_info, interleaved_ratio, timing_gates

WORKERS = 4
#: Interleaved bare/supervised rounds of the timed comparison.
ROUNDS = 5
#: Gate on the ratio of median round times (supervised / bare).
MAX_OVERHEAD = 1.05


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
    spool = campaign._ladder_spool_dir()

    def bare():
        return run_unsupervised(scenarios, config, spool, jobs)

    def supervised():
        return campaign.run_jobs(jobs, workers=WORKERS).records

    # Supervision must not change one record on the healthy path —
    # asserted on every round.
    def strip(records):
        return [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.seed, r.hazard, r.landed,
                 r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
                 r.min_delta_lat, r.sim_seconds) for r in records]

    expected = strip(bare())

    def check(side, records):
        assert strip(records) == expected, side
        assert all(r.error is None for r in records), side

    check("supervised", benchmark.pedantic(supervised, rounds=1,
                                           iterations=1))
    ratio, stats = interleaved_ratio(bare, supervised, check, ROUNDS)
    overhead = 1.0 / ratio
    baseline_seconds = stats["oracle"]["median"]
    supervised_seconds = stats["shortcut"]["median"]

    print(f"\nSupervised pool vs bare ProcessPoolExecutor (no faults; "
          f"median of {ROUNDS} interleaved rounds)")
    print(ascii_table(["metric", "bare pool", "supervised"], [
        ["experiments", len(expected), len(expected)],
        ["wall seconds", f"{baseline_seconds:.2f}",
         f"{supervised_seconds:.2f}"],
        ["overhead", "1x", f"{overhead:,.3f}x"],
    ]))
    for side, name in (("oracle", "baseline"), ("shortcut", "supervised")):
        for key, value in stats[side].items():
            benchmark.extra_info[f"{name}_{key}"] = value
    benchmark.extra_info["baseline_seconds"] = baseline_seconds
    benchmark.extra_info["supervised_seconds"] = supervised_seconds
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["experiments"] = len(jobs)
    benchmark.extra_info["workers"] = WORKERS
    host = host_info()
    benchmark.extra_info.update(host)

    # Supervision must cost at most 5% wall-clock when there are real
    # cores to time it on.  The wall-clock gate is opt-in
    # (timing_gates).
    if not timing_gates(benchmark):
        return
    if host["usable_cpus"] < WORKERS:
        print(f"only {host['usable_cpus']} usable CPU(s) for {WORKERS} "
              f"workers: overhead gate skipped")
        return
    assert overhead <= MAX_OVERHEAD, (
        f"supervised execution cost {overhead:.3f}x the bare pool on a "
        f"fault-free run (median of {ROUNDS} interleaved rounds; budget: "
        f"{MAX_OVERHEAD}x)")
