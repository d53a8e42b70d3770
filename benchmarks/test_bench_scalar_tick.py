"""Scalar tick shortcuts: prescreened collision checks and packed
sensor-noise draws against their oracles in ``tests/reference.py``.

Small same-scenario groups (the random-sparse campaign mix: about three
jobs per scenario) never reach ``LANES`` and run every tick on the
scalar engine.  Two per-tick costs there had exact shortcuts only in
the batched engine, and now share them:

* ``World.in_collision`` prescreens each obstacle by axis-aligned bounds
  and runs the SAT only on the survivors
  (oracle: :func:`reference.reference_in_collision`, the SAT over every
  obstacle);
* ``SensorSuite.measure`` draws one ``random()`` plus one
  ``standard_normal(k)`` per visible obstacle and one
  ``standard_normal(6)`` for the ego terms
  (oracle: :func:`reference.reference_measure`, one ``normal()`` per
  noise term).

The tick stream is recorded once from ADS-driven runs of the public
scenario factories the sparse library varies, one with a steering
swerve into adjacent traffic so contacts occur.  Results are asserted
equal on every pass.  Timings interleave oracle and shortcut rounds;
the gates compare medians over the rounds, the spread goes to
``extra_info``, and, like every wall-clock gate, they fire only with
``REPRO_BENCH_GATES=1`` (``conftest.timing_gates``).
"""

import statistics
import time

import numpy as np
import pytest

from repro.ads.runtime import ADSPipeline
from repro.ads.sensors import SensorSuite
from repro.analysis import ascii_table
from repro.sim import (NPCVehicle, Vehicle, World, adjacent_traffic,
                       braking_lead, empty_road, highway_cruise,
                       lead_vehicle_cutin, stalled_vehicle, stop_and_go,
                       two_lead_reveal)

from conftest import host_info, timing_gates
from reference import reference_in_collision, reference_measure

#: Interleaved oracle/shortcut rounds per timed comparison.
ROUNDS = 5
#: Gates on the ratio of median round times (oracle / shortcut).
MIN_COLLISION_SPEEDUP = 4.0
MIN_SENSING_SPEEDUP = 1.15


def _frame(world):
    """A standalone copy of ``world``'s tick-time ground truth."""
    npcs = [NPCVehicle(npc_id=o.obstacle_id, x=o.x, y=o.y, v=o.v,
                       length=o.length, width=o.width)
            for o in world.obstacles()]
    frame = World(road=world.road,
                  ego=Vehicle(state=world.ego.state,
                              params=world.ego.params),
                  npcs=npcs, time=world.time)
    frame.obstacles()      # build the per-tick obstacle list up front
    return frame


def record_tick_stream():
    """Every tick's world, from ADS-driven runs of the sparse library's
    scenario factories; ``adjacent_traffic`` swerves into the next lane
    for four ticks (a steering fault's shape), so some ticks collide."""
    frames = []
    scenarios = (empty_road(), highway_cruise(), lead_vehicle_cutin(),
                 two_lead_reveal(), braking_lead(), stop_and_go(),
                 stalled_vehicle(), adjacent_traffic())
    for scenario in scenarios:
        world = scenario.make_world()
        pipeline = ADSPipeline(seed=0)
        dt = pipeline.config.control_period
        swerve = scenario.name == "adjacent_traffic"
        for tick in range(int(round(13.0 / dt))):
            command = pipeline.tick(world)
            steering = command.steering
            if swerve and 48 <= tick < 52:
                steering = 0.42
            world.step(command.throttle, command.brake, steering, dt)
            frames.append(_frame(world))
    return frames


@pytest.fixture(scope="module")
def tick_stream():
    return record_tick_stream()


def _summary(seconds):
    """Median and quartiles of round seconds."""
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "rounds": len(seconds)}


def _compare(oracle, shortcut, check, rounds=ROUNDS):
    """Alternate timed rounds of both sides (oracle first on even
    rounds), checking every result with ``check``; return the ratio of
    median seconds (oracle / shortcut) and each side's summary."""
    seconds = {"oracle": [], "shortcut": []}
    sides = [("oracle", oracle), ("shortcut", shortcut)]
    for index in range(rounds):
        for side, run in (sides if index % 2 == 0 else sides[::-1]):
            start = time.perf_counter()
            result = run()
            seconds[side].append(time.perf_counter() - start)
            check(side, result)
    stats = {side: _summary(times) for side, times in seconds.items()}
    return stats["oracle"]["median"] / stats["shortcut"]["median"], stats


def test_bench_scalar_tick(benchmark, tick_stream):
    frames = tick_stream
    assert len(frames) >= 2000

    # -- collision -----------------------------------------------------
    expected_hits = [reference_in_collision(w) for w in frames]
    assert any(expected_hits) and not all(expected_hits)

    def check_collisions(side, hits):
        assert hits == expected_hits, side

    collision_speedup, collision_stats = _compare(
        lambda: [reference_in_collision(w) for w in frames],
        lambda: [w.in_collision() for w in frames],
        check_collisions)

    # -- sensing -------------------------------------------------------
    def read_stream(measure):
        sensors = SensorSuite(rng=np.random.default_rng(7))
        bundles = [measure(sensors, w) for w in frames]
        return bundles, sensors.rng.bit_generator.state, (
            sensors._last_speed, sensors._last_time)

    expected_read = read_stream(reference_measure)

    def check_reads(side, read):
        assert read == expected_read, side

    sensing_speedup, sensing_stats = _compare(
        lambda: read_stream(reference_measure),
        lambda: read_stream(SensorSuite.measure),
        check_reads)

    # The pytest-benchmark record times the shortcut tick pair.
    def shortcut_tick_pair():
        sensors = SensorSuite(rng=np.random.default_rng(7))
        for world in frames:
            sensors.measure(world)
            world.in_collision()

    benchmark(shortcut_tick_pair)

    ticks = len(frames)
    rows = []
    for name, stats, speedup in (
            ("collision", collision_stats, collision_speedup),
            ("sensing", sensing_stats, sensing_speedup)):
        rows.append([name,
                     f"{1e6 * stats['oracle']['median'] / ticks:.2f}",
                     f"{1e6 * stats['shortcut']['median'] / ticks:.2f}",
                     f"{speedup:.2f}x"])
        for side in ("oracle", "shortcut"):
            for key, value in stats[side].items():
                benchmark.extra_info[f"{name}_{side}_{key}"] = value
        benchmark.extra_info[f"{name}_speedup"] = speedup
    print(f"\nScalar tick shortcuts vs tests/ oracles ({ticks} ticks, "
          f"median of {ROUNDS} interleaved rounds)")
    print(ascii_table(["layer", "oracle us/tick", "shortcut us/tick",
                       "speedup"], rows))
    benchmark.extra_info["ticks"] = ticks
    benchmark.extra_info["collision_ticks"] = sum(expected_hits)
    benchmark.extra_info.update(host_info())

    if not timing_gates(benchmark):
        return
    assert collision_speedup >= MIN_COLLISION_SPEEDUP, (
        f"prescreened collision check only {collision_speedup:.2f}x "
        f"faster than the unscreened SAT")
    assert sensing_speedup >= MIN_SENSING_SPEEDUP, (
        f"packed sensor draws only {sensing_speedup:.2f}x faster than "
        f"per-term draws")
