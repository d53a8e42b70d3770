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
beforehand.  It does so in two rounds, one per engine:

* ``fused``: the default ADS configuration, where the driver cuts the
  job set into one wide fused part per worker (fewer parts than
  workers here, each of at least ``LANES`` jobs);
* ``scalar``: a non-default IDM exponent, which
  :func:`repro.ads.batch.can_fuse` refuses, so every job runs the
  scalar engine in about four small parts per worker: the per-task
  supervision cost this bench bounds.

Timings interleave bare and supervised rounds
(``conftest.interleaved_ratio``); each round's overhead is the ratio of
the median round times, and both sides' medians and quartiles go to
``extra_info`` with the host's metadata (the fused round's under the
unprefixed keys, the scalar round's under ``scalar_``).  Record-for-record
agreement is asserted on every round, and the overhead bound
(supervised within 5% of unsupervised wall-clock, both rounds) is an
opt-in gate.

The overhead gate needs real cores (with oversubscribed CPUs the noise
floor swamps a 5% bound), so it only applies when the runner exposes at
least ``WORKERS`` usable CPUs — equivalence is asserted unconditionally.
"""

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import replace

from repro.ads.batch import can_fuse
from repro.ads.runtime import ADSConfig
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


def scalar_config():
    """A configuration the fused engine refuses: a non-default IDM
    exponent (the fused planner has only the closed-form exponent-4
    kernel)."""
    ads = ADSConfig()
    config = CampaignConfig(ads=replace(
        ads, planner=replace(ads.planner, idm_exponent=3.0)))
    assert not can_fuse(config.ads)
    return config


def run_unsupervised(scenarios, config, spool, jobs):
    """The pre-resilience engine: a bare pool, no timeouts, no retries,
    no crash recovery — the overhead baseline supervision is held to.
    The tasks are the parts the driver cuts this job set into
    (``_validation_parts``)."""
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


def strip(records):
    """What supervision must not change of a record."""
    return [(r.scenario, r.injection_tick, r.variable, r.value,
             r.duration_ticks, r.seed, r.hazard, r.landed,
             r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
             r.min_delta_lat, r.sim_seconds) for r in records]


def measure(scenarios, config, jobs, benchmark=None):
    """One round: ``ROUNDS`` interleaved bare/supervised runs of
    ``jobs`` under ``config``, records checked on every run.  Returns
    the overhead, both sides' :func:`conftest.round_summary` and the
    number of pool tasks per run.  With ``benchmark``, the first
    supervised run is also its one timed round."""
    campaign = Campaign(scenarios, config)
    campaign.golden_runs()      # outside both timings; spills the ladders
    spool = campaign._ladder_spool_dir()

    def bare():
        return run_unsupervised(scenarios, config, spool, jobs)

    def supervised():
        return campaign.run_jobs(jobs, workers=WORKERS).records

    # Supervision must not change one record on the healthy path —
    # asserted on every run.
    expected = strip(bare())

    def check(side, records):
        assert strip(records) == expected, side
        assert all(r.error is None for r in records), side

    if benchmark is not None:
        check("supervised", benchmark.pedantic(supervised, rounds=1,
                                               iterations=1))
    ratio, stats = interleaved_ratio(bare, supervised, check, ROUNDS)
    items = [(slot, name, fault) for slot, (name, fault) in enumerate(jobs)]
    return 1.0 / ratio, stats, len(_validation_parts(config, items, WORKERS))


def test_bench_resilience_overhead(benchmark):
    scenarios = bench_population()
    jobs = bench_jobs(scenarios)
    rounds = {"fused": measure(scenarios, CampaignConfig(), jobs, benchmark),
              "scalar": measure(scenarios, scalar_config(), jobs)}
    # The fused round runs fewer parts than workers; the scalar round
    # several small parts per worker.
    assert rounds["fused"][2] < WORKERS < rounds["scalar"][2]

    print(f"\nSupervised pool vs bare ProcessPoolExecutor (no faults; "
          f"median of {ROUNDS} interleaved rounds)")
    rows = [["experiments", len(jobs), len(jobs), ""]]
    for engine, (overhead, stats, parts) in rounds.items():
        rows += [[f"{engine}: pool tasks", parts, parts, ""],
                 [f"{engine}: wall seconds",
                  f"{stats['oracle']['median']:.2f}",
                  f"{stats['shortcut']['median']:.2f}",
                  f"{overhead:,.3f}x"]]
    print(ascii_table(["metric", "bare pool", "supervised", "overhead"],
                      rows))
    for engine, (overhead, stats, parts) in rounds.items():
        prefix = "" if engine == "fused" else f"{engine}_"
        for side, name in (("oracle", "baseline"),
                           ("shortcut", "supervised")):
            for key, value in stats[side].items():
                benchmark.extra_info[f"{prefix}{name}_{key}"] = value
        benchmark.extra_info[f"{prefix}baseline_seconds"] = \
            stats["oracle"]["median"]
        benchmark.extra_info[f"{prefix}supervised_seconds"] = \
            stats["shortcut"]["median"]
        benchmark.extra_info[f"{prefix}overhead"] = overhead
        benchmark.extra_info[f"{prefix}pool_tasks"] = parts
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
    for engine, (overhead, _, _) in rounds.items():
        assert overhead <= MAX_OVERHEAD, (
            f"supervised execution cost {overhead:.3f}x the bare pool on "
            f"a fault-free {engine} run (median of {ROUNDS} interleaved "
            f"rounds; budget: {MAX_OVERHEAD}x)")
