"""Checkpoint cost: one snapshot and one restore against one control tick.

A golden run pays one snapshot per ladder tick, and every forked
experiment pays one restore, so both are priced in control ticks (one
``ADSPipeline.tick`` plus one ``World.step``, the cost of simulating the
tick instead).  A snapshot is what a ladder stores per tick:
``World.snapshot`` plus ``ADSPipeline.snapshot``, whose latched plan,
world model and channel-bus payloads are a single pickle.  A restore
rebuilds both into a spare stack of the same scenario and unpickles
that blob once.

Each round drives the stack of every scenario through its whole
duration, timing every tick, and at every eligible injection tick one
snapshot and one restore.  The restored stack must snapshot to the same
state as the original on every pass.  Rounds repeat; the gate compares
medians over the rounds, the quartiles go to ``extra_info``, and, like
every wall-clock gate, it fires only with ``REPRO_BENCH_GATES=1``
(``conftest.timing_gates``).
"""

import pickle
import statistics
import time
from dataclasses import replace

from repro.ads.runtime import ADSPipeline
from repro.analysis import ascii_table
from repro.core import Campaign
from repro.sim import (adjacent_traffic, highway_cruise, lead_vehicle_cutin,
                       two_lead_reveal)

from conftest import host_info, timing_gates

#: Rounds per timed comparison.
ROUNDS = 5
#: Gate on the ratio of medians: a snapshot costs less than the tick a
#: fork skips by restoring it.  Before the payloads became one pickle
#: it cost about 1.4 ticks on a 2-vCPU Xeon VM; it now costs about 0.7,
#: most of it the pickler's fixed cost of about 1 us per message object.
MAX_SNAPSHOT_TICKS = 1.0

OPS = ("tick", "snapshot", "restore")


def same_state(original, restored) -> bool:
    """Whether two (world, pipeline) snapshots capture equal state.

    The payload blob is compared by value: unpickling interns the
    message field names, so a payload string that was the very object
    of a field name re-pickles as a separate copy."""
    (world, pipeline), (world_again, pipeline_again) = original, restored
    return (pickle.dumps(world) == pickle.dumps(world_again)
            and pickle.dumps(replace(pipeline, payloads=b""))
            == pickle.dumps(replace(pipeline_again, payloads=b""))
            and pickle.loads(pipeline.payloads)
            == pickle.loads(pipeline_again.payloads))


def timed_round(scenarios) -> dict:
    """Drive every scenario once; return mean seconds per operation."""
    nanos = dict.fromkeys(OPS, 0)
    counts = dict.fromkeys(OPS, 0)
    clock = time.perf_counter_ns
    for scenario in scenarios:
        eligible = set(Campaign([scenario]).schedule_injection_ticks(
            scenario))
        world, pipeline = scenario.make_world(), ADSPipeline(seed=0)
        spare_world, spare = scenario.make_world(), ADSPipeline(seed=0)
        dt = pipeline.config.control_period
        for tick in range(int(round(scenario.duration / dt))):
            if tick in eligible:
                started = clock()
                snapshot = (world.snapshot(), pipeline.snapshot())
                snapped = clock()
                spare_world.restore(snapshot[0])
                spare.restore(snapshot[1])
                restored = clock()
                nanos["snapshot"] += snapped - started
                nanos["restore"] += restored - snapped
                counts["snapshot"] += 1
                counts["restore"] += 1
                assert same_state(snapshot, (spare_world.snapshot(),
                                             spare.snapshot())), \
                    (scenario.name, tick)
            started = clock()
            command = pipeline.tick(world)
            world.step(command.throttle, command.brake, command.steering,
                       dt)
            nanos["tick"] += clock() - started
            counts["tick"] += 1
    return {op: nanos[op] / counts[op] / 1e9 for op in OPS}


def _summary(seconds):
    """Median and quartiles of per-round seconds."""
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "rounds": len(seconds)}


def test_bench_checkpoint(benchmark):
    scenarios = [highway_cruise(), lead_vehicle_cutin(), two_lead_reveal(),
                 adjacent_traffic()]
    rounds = [timed_round(scenarios) for _ in range(ROUNDS - 1)]
    # The pytest-benchmark record times one more whole round.
    rounds.append(benchmark.pedantic(timed_round, args=(scenarios,),
                                     rounds=1, iterations=1))

    stats = {op: _summary([r[op] for r in rounds]) for op in OPS}
    tick = stats["tick"]["median"]
    ratios = {op: stats[op]["median"] / tick for op in ("snapshot",
                                                        "restore")}
    print(f"\nCheckpoint cost per operation (median of {ROUNDS} rounds)")
    print(ascii_table(["operation", "us", "q1 us", "q3 us", "ticks"], [
        [op, f"{1e6 * stats[op]['median']:.1f}",
         f"{1e6 * stats[op]['q1']:.1f}", f"{1e6 * stats[op]['q3']:.1f}",
         f"{stats[op]['median'] / tick:.2f}"] for op in OPS]))
    for op in OPS:
        for key, value in stats[op].items():
            benchmark.extra_info[f"{op}_{key}"] = value
    for op, ratio in ratios.items():
        benchmark.extra_info[f"{op}_over_tick"] = ratio
    benchmark.extra_info["scenarios"] = [s.name for s in scenarios]
    benchmark.extra_info.update(host_info())

    if not timing_gates(benchmark):
        return
    assert ratios["snapshot"] < MAX_SNAPSHOT_TICKS, (
        f"a snapshot costs {ratios['snapshot']:.2f} control ticks")
