"""Scalar tick shortcuts against their oracles in ``tests/reference.py``.

Every job the fused engine cannot take runs every tick on the scalar
engine: interface faults (a quarter of the random-sparse campaign mix),
golden runs, and any dispatch with fewer than ``LANES`` fusable jobs.
Its per-tick shortcuts, each timed against its oracle:

* ``World.in_collision`` prescreens each obstacle by axis-aligned bounds
  and runs the SAT only on the survivors
  (oracle: :func:`reference.reference_in_collision`, the SAT over every
  obstacle);
* ``SensorSuite.measure`` draws one ``random()`` per camera-visible
  obstacle and merges the normals between them into one
  ``standard_normal(k)`` call
  (oracle: :func:`reference.reference_measure`, one ``normal()`` per
  noise term);
* ``rk4_step`` is straight-line float code with one ``tan`` per
  distinct steering angle
  (oracle: :func:`reference.reference_rk4_step`, four derivative calls);
* the whole tick, ``ADSPipeline.tick`` plus ``World.step``: quiet ticks
  skip the fault hooks, sensing merges its draws, and the ego
  integrates through the float RK4 into one state per step
  (oracle: the same loop with :func:`reference.hooks_always`,
  :func:`reference.reference_packed_bundle` and
  :func:`reference.reference_rk4_step` swapped in).

The tick stream is recorded once from ADS-driven runs of the public
scenario factories the sparse library varies, one with a steering
swerve into adjacent traffic so contacts occur; the whole-tick round
drives the same scenarios with a brake fault armed in each.  Results
are asserted equal on every pass.  Timings interleave oracle and
shortcut rounds; the gates compare medians over the rounds, the spread
goes to ``extra_info``, and, like every wall-clock gate, they fire only
with ``REPRO_BENCH_GATES=1`` (``conftest.timing_gates``).
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.ads import sensors as sensors_module
from repro.ads.runtime import ADSPipeline
from repro.ads.sensors import SensorSuite
from repro.analysis import ascii_table
from repro.sim import (NPCVehicle, Vehicle, World, adjacent_traffic,
                       braking_lead, empty_road, highway_cruise,
                       lead_vehicle_cutin, stalled_vehicle, stop_and_go,
                       two_lead_reveal)
from repro.sim import vehicle as vehicle_module
from repro.sim.kinematics import rk4_step

from conftest import host_info, interleaved_ratio, timing_gates
from reference import (hooks_always, reference_in_collision,
                       reference_measure, reference_packed_bundle,
                       reference_rk4_step)

#: Interleaved oracle/shortcut rounds per timed comparison.
ROUNDS = 5
#: Gates on the ratio of median round times (oracle / shortcut).  The
#: RK4 and whole-tick gates sit below the 1.9-2.5x and 1.12-1.34x that
#: repeated runs measured on a 2-vCPU Xeon VM.
MIN_COLLISION_SPEEDUP = 4.0
MIN_SENSING_SPEEDUP = 1.15
MIN_RK4_SPEEDUP = 1.6
MIN_TICK_SPEEDUP = 1.05


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


#: The sparse library's scenario factories.
SCENARIOS = (empty_road, highway_cruise, lead_vehicle_cutin,
             two_lead_reveal, braking_lead, stop_and_go, stalled_vehicle,
             adjacent_traffic)
#: Simulated seconds per scenario.
SECONDS = 13.0


def record_tick_stream():
    """Every tick's world, from ADS-driven runs of the sparse library's
    scenario factories; ``adjacent_traffic`` swerves into the next lane
    for four ticks (a steering fault's shape), so some ticks collide."""
    frames = []
    scenarios = [factory() for factory in SCENARIOS]
    for scenario in scenarios:
        world = scenario.make_world()
        pipeline = ADSPipeline(seed=0)
        dt = pipeline.config.control_period
        swerve = scenario.name == "adjacent_traffic"
        for tick in range(int(round(SECONDS / dt))):
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


def _reference_components(state, acceleration, steering_rate, wheelbase,
                          dt):
    ref = reference_rk4_step(state, acceleration, steering_rate,
                             wheelbase, dt)
    return ref.x, ref.y, ref.v, ref.theta, ref.phi


@contextmanager
def reference_tick():
    """The whole tick on its oracles: fault hooks on every tick,
    one ``standard_normal`` call per obstacle, four-call RK4."""
    saved = (sensors_module.noisy_bundle, vehicle_module.rk4_components)
    sensors_module.noisy_bundle = reference_packed_bundle
    vehicle_module.rk4_components = _reference_components
    try:
        with hooks_always():
            yield
    finally:
        sensors_module.noisy_bundle, vehicle_module.rk4_components = saved


def drive_scenarios():
    """Closed-loop ticks of every scenario with a 4-tick full-brake
    fault armed at 6 s; returns each tick's command and ego state."""
    out = []
    for factory in SCENARIOS:
        world = factory().make_world()
        pipeline = ADSPipeline(seed=0)
        dt = pipeline.config.control_period
        pipeline.arm_fault("brake", 1.0, int(round(6.0 / dt)), 4)
        for _ in range(int(round(SECONDS / dt))):
            command = pipeline.tick(world)
            world.step(command.throttle, command.brake, command.steering,
                       dt)
            out.append((command, world.ego.state))
    return out


def rk4_inputs(frames):
    """One ``rk4_step`` argument tuple per recorded tick: the tick's ego
    state under a control drawn to cover braking through zero speed,
    the steering limit and zero steering rate."""
    rng = np.random.default_rng(1)
    inputs = []
    for world in frames:
        accel = float(rng.uniform(-7.0, 3.5))
        rate = float(rng.choice([0.0, rng.uniform(-0.6, 0.6)]))
        inputs.append((world.ego.state, accel, rate,
                       world.ego.params.wheelbase, 0.05))
    return inputs


def test_bench_scalar_tick(benchmark, tick_stream):
    frames = tick_stream
    assert len(frames) >= 2000

    # -- collision -----------------------------------------------------
    expected_hits = [reference_in_collision(w) for w in frames]
    assert any(expected_hits) and not all(expected_hits)

    def check_collisions(side, hits):
        assert hits == expected_hits, side

    collision_speedup, collision_stats = interleaved_ratio(
        lambda: [reference_in_collision(w) for w in frames],
        lambda: [w.in_collision() for w in frames],
        check_collisions, ROUNDS)

    # -- sensing -------------------------------------------------------
    def read_stream(measure):
        sensors = SensorSuite(rng=np.random.default_rng(7))
        bundles = [measure(sensors, w) for w in frames]
        return bundles, sensors.rng.bit_generator.state, (
            sensors._last_speed, sensors._last_time)

    expected_read = read_stream(reference_measure)

    def check_reads(side, read):
        assert read == expected_read, side

    sensing_speedup, sensing_stats = interleaved_ratio(
        lambda: read_stream(reference_measure),
        lambda: read_stream(SensorSuite.measure),
        check_reads, ROUNDS)

    # -- RK4 ---------------------------------------------------------
    inputs = rk4_inputs(frames)
    expected_states = [reference_rk4_step(*args) for args in inputs]

    def check_states(side, states):
        assert states == expected_states, side

    rk4_speedup, rk4_stats = interleaved_ratio(
        lambda: [reference_rk4_step(*args) for args in inputs],
        lambda: [rk4_step(*args) for args in inputs],
        check_states, ROUNDS)

    # -- whole tick ----------------------------------------------------
    with reference_tick():
        expected_drive = drive_scenarios()

    def check_drive(side, drive):
        assert drive == expected_drive, side

    def reference_drive():
        with reference_tick():
            return drive_scenarios()

    tick_speedup, tick_stats = interleaved_ratio(
        reference_drive, drive_scenarios, check_drive, ROUNDS)
    drive_ticks = len(expected_drive)

    # The pytest-benchmark record times the shortcut tick pair.
    def shortcut_tick_pair():
        sensors = SensorSuite(rng=np.random.default_rng(7))
        for world in frames:
            sensors.measure(world)
            world.in_collision()

    benchmark(shortcut_tick_pair)

    ticks = len(frames)
    rows = []
    for name, stats, speedup, n in (
            ("collision", collision_stats, collision_speedup, ticks),
            ("sensing", sensing_stats, sensing_speedup, ticks),
            ("rk4", rk4_stats, rk4_speedup, ticks),
            ("tick", tick_stats, tick_speedup, drive_ticks)):
        rows.append([name,
                     f"{1e6 * stats['oracle']['median'] / n:.2f}",
                     f"{1e6 * stats['shortcut']['median'] / n:.2f}",
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
    benchmark.extra_info["drive_ticks"] = drive_ticks
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
    assert rk4_speedup >= MIN_RK4_SPEEDUP, (
        f"straight-line RK4 only {rk4_speedup:.2f}x faster than the "
        f"four-call form")
    assert tick_speedup >= MIN_TICK_SPEEDUP, (
        f"whole tick only {tick_speedup:.2f}x faster than on its oracles")
