"""Validation throughput: checkpoint resume vs full replay.

PR 1 made mining 40-60x faster, leaving campaign wall time dominated by
validation: every experiment used to re-simulate the fault-free prefix
from tick 0 even though it is bit-identical to the scenario's golden
run.  The checkpoint engine forks each experiment from the golden-prefix
snapshot at its injection tick, simulating only the fault window plus
the post-fault horizon.  Against 40 s scenarios with injections in the
later half of the window that cuts simulated ticks per experiment by
3-6x; this bench pins the wall-clock speedup and — more importantly —
exact record agreement between the two paths.
"""

import time

import pytest

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.core.fault_models import minmax_fault_grid
from repro.core.parallel import run_experiments
from repro.sim import highway_cruise, stop_and_go

from conftest import timing_gates


@pytest.fixture(scope="module")
def validation_campaign():
    """Full-length (40 s) scenarios so prefixes dominate full replay."""
    campaign = Campaign([highway_cruise(), stop_and_go()],
                        CampaignConfig())
    campaign.golden_runs()   # warm golden traces + checkpoint ladders
    return campaign


def late_window_jobs(campaign):
    """Brake/throttle grid over injections in the later injection window.

    Late ticks are where checkpoint resume pays most (long prefix,
    short remainder); they are also the common case for mined faults,
    which cluster around scripted scenario events.
    """
    jobs = []
    for scenario in campaign.scenarios:
        ticks = campaign.injection_ticks(scenario)
        late = [t for t in ticks
                if t * campaign.config.ads.control_period
                >= 0.55 * scenario.duration]
        grid = minmax_fault_grid(
            late[::18], ["brake", "throttle"],
            duration_ticks=campaign.config.fault_duration_ticks)
        jobs.extend((scenario.name, fault) for fault in grid)
    return jobs


def test_bench_validation_throughput(benchmark, validation_campaign):
    campaign = validation_campaign
    jobs = late_window_jobs(campaign)
    assert len(jobs) >= 20

    def validate_checkpointed():
        return run_experiments(campaign.scenarios, campaign.config, jobs,
                               checkpoints=campaign.checkpoints)

    def validate_full_replay():
        return run_experiments(campaign.scenarios, campaign.config, jobs,
                               checkpoints=None)

    # Warm shared caches (RK4 stop kernels) so the comparison isolates
    # per-tick simulation cost, then time both paths manually — the
    # manual numbers also work under --benchmark-disable smoke runs.
    # Best-of-two timing per path keeps the speedup gate robust against
    # scheduler noise on shared CI runners.
    resumed_records = benchmark(validate_checkpointed)

    def best_of_two(run):
        result, seconds = None, float("inf")
        for _ in range(2):
            start = time.perf_counter()
            result = run()
            seconds = min(seconds, time.perf_counter() - start)
        return result, seconds

    full_records, full_seconds = best_of_two(validate_full_replay)
    _, resumed_seconds = best_of_two(validate_checkpointed)

    speedup = full_seconds / resumed_seconds

    print("\nValidation throughput: checkpoint resume vs full replay")
    print(ascii_table(["metric", "full replay", "checkpointed"], [
        ["experiments", len(full_records), len(resumed_records)],
        ["wall seconds", f"{full_seconds:.3f}", f"{resumed_seconds:.3f}"],
        ["experiments / s", f"{len(jobs) / full_seconds:,.1f}",
         f"{len(jobs) / resumed_seconds:,.1f}"],
        ["speedup", "1x", f"{speedup:,.1f}x"],
    ]))
    benchmark.extra_info["full_replay_seconds"] = full_seconds
    benchmark.extra_info["checkpointed_seconds"] = resumed_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["experiments"] = len(jobs)

    # The two paths must agree record-for-record (wall clock aside)...
    def strip(records):
        return [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.seed, r.hazard, r.landed,
                 r.pre_delta_long, r.pre_delta_lat, r.min_delta_long,
                 r.min_delta_lat, r.sim_seconds) for r in records]

    assert strip(resumed_records) == strip(full_records)
    # ...and forking from the golden prefix must pay for itself.  The
    # wall-clock gate is opt-in (timing_gates).
    # The gate was 3.0x when the scalar ADS tick dominated; the
    # closed-form kernel rewrite roughly halved per-tick cost, so the
    # fixed fork/restore overhead is now a larger fraction of each
    # checkpointed experiment and the structural advantage lands ~2x.
    if timing_gates(benchmark):
        assert speedup >= 1.5, (
            f"checkpoint resume only {speedup:.1f}x faster than full "
            f"replay")
