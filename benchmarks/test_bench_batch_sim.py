"""Validation throughput: fused batched lanes vs the scalar oracle.

Validation forks from golden-prefix checkpoints; what still costs
one Python interpreter pass per experiment is the simulation itself —
every world steps its own RK4, collision sweep, and safety envelope
through scalar numpy calls.  The batch engine
(:mod:`repro.sim.batch`) steps up to ``MAX_LANES`` experiments of any
mix of scenarios per fused kernel call, and the campaign driver fuses
the fusable jobs of a dispatch, whatever their scenarios, when there
are at least ``LANES`` of them, as one wide batch.

``test_bench_batch_sim`` times the *shipped* batched configuration —
fused lanes on a process pool (``workers=4``), through
:meth:`Campaign.run_jobs` on groups of at least ``LANES`` jobs —
against the serial scalar engine on the same checkpoint-forked job
population (``conftest.scalar_engine_records``), and pins exact record
agreement between them.  Serial fusion alone is the
``serial_batched_speedup`` extra_info (``test_bench_batch_ads`` gates
it), and the ≥3x gate applies to the batched+pooled path, which needs
real cores; with fewer usable CPUs than workers the gate is skipped and
only equivalence is asserted.

``test_bench_batch_width`` is the width sweep that derives
``MAX_LANES``: one wave per width, with as many jobs of one scenario
as lanes, so every width runs one fused batch and no refill.  Rounds
interleave the widths (ascending, then descending), and each width's
records must equal the widest run's on the same jobs.  Its extra_info
holds per-width seconds per job, the width the cap rule picks
(``derived_max_lanes``: the smallest width within 5% of the fastest
width's per-job time; the widest width has measured slower per job
than 512 lanes, so the rule reads the fastest, not the widest), and per width the tracemalloc peak per extra
live lane: the peak's growth over the 16-lane wave, over the lanes
added.  Its gates fire only under ``REPRO_BENCH_GATES=1``.

``test_bench_mixed_batch`` is the sparse-campaign round: about three
random value faults per scenario over a seeded library of public-factory
variants, so no scenario reaches ``LANES`` alone.  The driver
(:meth:`Campaign.run_jobs`) runs them as one mixed batch; the scalar
engine on the same forks is the other side.  Rounds interleave
(``conftest.interleaved_ratio``), records are checked equal on every
round, and the opt-in gate is on the ratio of median round times.
"""

import os
import random
import statistics
import time
import tracemalloc
from dataclasses import asdict, replace

import pytest
from reference import random_jobs

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.core.fault_models import minmax_fault_grid
from repro.core.parallel import LANES, MAX_LANES
from repro.core.simulate import run_experiments_batched
from repro.sim import (adjacent_traffic, braking_lead, empty_road,
                       highway_cruise, lead_vehicle_cutin, stalled_vehicle,
                       stop_and_go, two_lead_reveal)

from conftest import (bench_scenarios, host_info, interleaved_ratio,
                      scalar_engine_records, timing_gates)

WORKERS = 4

#: The narrow end of the width sweep: the lanes a batch held when the
#: driver cut groups into ``LANES``-job parts.
NARROW = 16
#: Widths of the sweep; each runs one wave of as many jobs.
SWEEP_WIDTHS = (NARROW, 64, 128, 256, 512, 1024)
#: Interleaved rounds of the sweep.
SWEEP_ROUNDS = 3
#: The cap rule: the smallest width whose per-job seconds are within
#: this share of the fastest width's.
CAP_TOLERANCE = 0.05
#: Width-sweep gates (``REPRO_BENCH_GATES=1`` only): the per-job
#: speedup of a ``MAX_LANES`` wave over a ``NARROW`` one, and the
#: tracemalloc peak per extra live lane at ``MAX_LANES``, half of the
#: 61 KB a live lane cost by peak RSS before samples went columnar.
MIN_WIDTH_SPEEDUP = 1.25
MAX_LANE_KB = 30.0


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


def test_bench_batch_sim(benchmark, batch_campaign):
    campaign = batch_campaign
    jobs = validation_jobs(campaign)
    assert len(jobs) >= 40
    for scenario in campaign.scenarios:
        assert sum(name == scenario.name for name, _ in jobs) >= LANES

    def validate_scalar_serial():
        return scalar_engine_records(campaign, jobs)

    def validate_batched_serial():
        return campaign.run_jobs(jobs).records

    def validate_batched_pooled():
        return campaign.run_jobs(jobs, workers=WORKERS).records

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
    benchmark.extra_info["lanes"] = LANES
    benchmark.extra_info["max_lanes"] = MAX_LANES
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info.update(host_info())

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
        f"scalar serial engine with {LANES} lanes, "
        f"workers={WORKERS}")


@pytest.fixture(scope="module")
def width_group():
    """``max(SWEEP_WIDTHS)`` random value faults of one scenario, with
    the golden checkpoint each forks from."""
    campaign = Campaign([lead_vehicle_cutin()], CampaignConfig(seed=1))
    campaign.golden_runs()   # golden trace + its schedule ladder
    scenario = campaign.scenarios[0]
    faults = [fault for _, fault in
              random_jobs(campaign, max(SWEEP_WIDTHS), seed=1)]
    forks = [campaign.checkpoints.nearest(scenario.name, fault.start_tick)
             for fault in faults]
    assert all(forks), "the golden ladder misses a job tick"
    return campaign, scenario, faults, forks


def cap_rule(per_job: dict[int, float]) -> int:
    """The smallest width within :data:`CAP_TOLERANCE` of the fastest
    width's per-job seconds."""
    fastest = min(per_job.values())
    return min(width for width, seconds in per_job.items()
               if seconds <= fastest * (1.0 + CAP_TOLERANCE))


def test_bench_batch_width(benchmark, width_group):
    campaign, scenario, faults, forks = width_group
    config = campaign.config
    assert NARROW < MAX_LANES and MAX_LANES in SWEEP_WIDTHS

    def run(width):
        """One wave: the first ``width`` jobs on ``width`` lanes."""
        return run_experiments_batched(
            [scenario] * width, [[fault] for fault in faults[:width]],
            ads_config=config.ads,
            safety_config=config.safety, seed=config.seed,
            checkpoints=list(forks[:width]),   # the batch consumes it
            horizon_after_fault=config.horizon_after_fault,
            batch_size=width)

    def strip(results):
        rows = []
        for result in results:
            row = asdict(result)
            for name in ("wall_seconds", "trace", "checkpoints"):
                row.pop(name)
            rows.append(row)
        return rows

    expected = strip(run(max(SWEEP_WIDTHS)))   # also warms the stop table
    seconds = {width: [] for width in SWEEP_WIDTHS}
    for index in range(SWEEP_ROUNDS):
        for width in (SWEEP_WIDTHS if index % 2 == 0
                      else SWEEP_WIDTHS[::-1]):
            start = time.perf_counter()
            results = run(width)
            seconds[width].append(time.perf_counter() - start)
            assert strip(results) == expected[:width], width

    peaks = {}
    for width in SWEEP_WIDTHS:
        tracemalloc.start()
        run(width)
        peaks[width] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    lane_kb = {width: (peaks[width] - peaks[NARROW]) / (width - NARROW) / 1e3
               for width in SWEEP_WIDTHS if width > NARROW}

    benchmark.pedantic(run, args=(MAX_LANES,), rounds=1, iterations=1)

    per_job = {width: statistics.median(times) / width
               for width, times in seconds.items()}
    derived = cap_rule(per_job)
    speedup = per_job[NARROW] / per_job[MAX_LANES]
    print(f"\nFused batch width: one wave of {scenario.name} jobs per "
          f"width, median of {SWEEP_ROUNDS} interleaved rounds")
    print(ascii_table(
        ["width", "ms per job", "tracemalloc peak MB",
         "KB per extra live lane"],
        [[width, f"{1e3 * per_job[width]:.3f}", f"{peaks[width] / 1e6:.2f}",
          f"{lane_kb[width]:.1f}" if width in lane_kb else "-"]
         for width in SWEEP_WIDTHS]))
    print(f"cap rule picks {derived} (MAX_LANES = {MAX_LANES}); "
          f"{MAX_LANES} lanes {speedup:.2f}x faster per job than {NARROW}")
    benchmark.extra_info["widths"] = list(SWEEP_WIDTHS)
    benchmark.extra_info["max_lanes"] = MAX_LANES
    benchmark.extra_info["derived_max_lanes"] = derived
    benchmark.extra_info["cap_tolerance"] = CAP_TOLERANCE
    for width in SWEEP_WIDTHS:
        benchmark.extra_info[f"seconds_{width}"] = seconds[width]
        benchmark.extra_info[f"s_per_job_{width}"] = per_job[width]
        benchmark.extra_info[f"peak_bytes_{width}"] = peaks[width]
        if width in lane_kb:
            benchmark.extra_info[f"kb_per_live_lane_{width}"] = lane_kb[width]
    benchmark.extra_info["width_speedup"] = speedup
    benchmark.extra_info["kb_per_live_lane"] = lane_kb[MAX_LANES]
    benchmark.extra_info.update(host_info())

    if not timing_gates(benchmark):
        return
    assert speedup >= MIN_WIDTH_SPEEDUP, (
        f"{MAX_LANES}-lane waves only {speedup:.2f}x faster per job than "
        f"{NARROW}-lane ones")
    assert lane_kb[MAX_LANES] <= MAX_LANE_KB, (
        f"a live fused lane costs {lane_kb[MAX_LANES]:.1f} KB of peak "
        f"memory")


#: Scenario variants and jobs of the mixed round: three jobs per
#: scenario on average.
MIXED_SCENARIOS = 24
MIXED_JOBS = 72
#: Interleaved scalar/fused rounds of the mixed round.
MIXED_ROUNDS = 5
#: Mixed-round gate (``REPRO_BENCH_GATES=1`` only): the fused driver's
#: speedup over the scalar engine, as a ratio of median round times.
MIN_MIXED_SPEEDUP = 1.3

#: Public scenario factories and the parameter ranges the mixed library
#: draws from (each moves away from the default's danger, so every
#: golden run keeps its injection window).
MIXED_FACTORIES = (
    (empty_road, {"ego_speed": (25.0, 32.0)}),
    (highway_cruise, {"ego_speed": (28.0, 32.0), "lead_gap": (60.0, 80.0)}),
    (lead_vehicle_cutin, {"ego_speed": (29.0, 31.0),
                          "cutin_gap": (9.0, 14.0)}),
    (two_lead_reveal, {"ego_speed": (30.0, 33.5),
                       "second_gap": (210.0, 240.0)}),
    (braking_lead, {"lead_gap": (55.0, 70.0), "final_speed": (8.0, 12.0)}),
    (stop_and_go, {"lead_gap": (35.0, 45.0)}),
    (stalled_vehicle, {"gap": (160.0, 200.0)}),
    (adjacent_traffic, {"ego_speed": (27.0, 30.0)}),
)


def mixed_library(seed=1, count=MIXED_SCENARIOS):
    """``count`` seeded variants of the public factories, round-robin,
    each with a unique name and a 12-14 s duration."""
    rng = random.Random(seed)
    library = []
    for index in range(count):
        factory, ranges = MIXED_FACTORIES[index % len(MIXED_FACTORIES)]
        params = {key: round(rng.uniform(low, high), 2)
                  for key, (low, high) in ranges.items()}
        base = factory(**params)
        library.append(replace(base, name=f"{base.name}-{index:02d}",
                               duration=12.0 + 0.5 * rng.randrange(5)))
    return library


@pytest.fixture(scope="module")
def mixed_campaign():
    """Golden-warmed campaign over the mixed library, with its jobs."""
    campaign = Campaign(mixed_library(), CampaignConfig(seed=1))
    campaign.golden_runs()   # warm golden traces + checkpoint ladders
    return campaign, random_jobs(campaign, MIXED_JOBS, seed=1)


def test_bench_mixed_batch(benchmark, mixed_campaign):
    campaign, jobs = mixed_campaign
    per_scenario = [sum(name == scenario.name for name, _ in jobs)
                    for scenario in campaign.scenarios]
    assert max(per_scenario) < LANES <= len(jobs)

    def strip(records):
        rows = []
        for record in records:
            row = asdict(record)
            row.pop("wall_seconds")
            rows.append(row)
        return rows

    expected = strip(scalar_engine_records(campaign, jobs))

    def check(side, records):
        assert strip(records) == expected, side

    def fused():
        return campaign.run_jobs(jobs).records

    check("fused", benchmark.pedantic(fused, rounds=1, iterations=1))
    speedup, stats = interleaved_ratio(
        lambda: scalar_engine_records(campaign, jobs), fused, check,
        MIXED_ROUNDS)

    print(f"\nMixed batch: {len(jobs)} jobs over {len(per_scenario)} "
          f"scenarios (at most {max(per_scenario)} per scenario), median "
          f"of {MIXED_ROUNDS} interleaved rounds")
    print(ascii_table(
        ["engine", "median s", "q1 s", "q3 s"],
        [[name, f"{stats[side]['median']:.3f}", f"{stats[side]['q1']:.3f}",
          f"{stats[side]['q3']:.3f}"]
         for side, name in (("oracle", "scalar"),
                            ("shortcut", "fused (one batch)"))]))
    print(f"speedup {speedup:.2f}x")
    for side, name in (("oracle", "scalar"), ("shortcut", "fused")):
        for key, value in stats[side].items():
            benchmark.extra_info[f"{name}_{key}"] = value
    benchmark.extra_info["mixed_speedup"] = speedup
    benchmark.extra_info["jobs"] = len(jobs)
    benchmark.extra_info["scenarios"] = len(per_scenario)
    benchmark.extra_info["max_jobs_per_scenario"] = max(per_scenario)
    benchmark.extra_info.update(host_info())

    if not timing_gates(benchmark):
        return
    assert speedup >= MIN_MIXED_SPEEDUP, (
        f"a mixed batch only {speedup:.2f}x faster than the scalar "
        f"engine (median of {MIXED_ROUNDS} interleaved rounds)")
