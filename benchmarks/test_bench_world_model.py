"""World-model stage: straight-line float filter kernels against the
loop-form oracles in ``tests/reference.py``.

The world model (the object tracker plus the ego EKF) is the ADS stage
both engines spend most on: each fused lane runs its own
``MultiObjectTracker`` and ``EgoLocalizer``, exactly as the scalar
engine does.  ``repro.ads.kernels`` runs their predict and update steps
as straight-line code on Python floats; the oracles are the index-loop
forms, whose EKF predict left ``numpy.float64`` scalars in the
localizer's state.

The inputs are recorded once: every planning tick's fused detections,
GPS fix, IMU sample and planner period from ADS-driven runs of the
default scenarios.  Each round replays them through fresh filters on
one side's kernels (:func:`reference.reference_kernels` swaps the
oracles in), and every round's outputs — tracks, ego estimates and the
final filter snapshots — are asserted equal to the oracle's.  Timings
interleave oracle and kernel rounds; the gate compares medians over
the rounds, the spread goes to ``extra_info``, and, like every
wall-clock gate, it fires only with ``REPRO_BENCH_GATES=1``
(``conftest.timing_gates``).
"""

import statistics
import time

import pytest

from repro.ads.localization import EgoLocalizer
from repro.ads.runtime import ADSPipeline
from repro.ads.tracking import MultiObjectTracker
from repro.analysis import ascii_table
from repro.sim import default_scenarios

from conftest import host_info, timing_gates
from reference import reference_kernels

#: Interleaved oracle/kernel rounds.
ROUNDS = 5
#: Gate on the ratio of median round times (kernels / oracle).
MAX_RATIO = 0.6


def record_inputs():
    """Per default scenario, the world-model inputs of every planning
    tick: ``(detections, gps, imu, dt)``."""
    streams = []
    for scenario in default_scenarios():
        world = scenario.make_world()
        pipeline = ADSPipeline(seed=0)
        dt = pipeline.config.control_period
        stream = []
        for _ in range(int(round(scenario.duration / dt))):
            planned = pipeline.is_planning_tick or pipeline.last_plan is None
            command = pipeline.tick(world)
            if planned:
                bundle = pipeline.bus.held("sensing")
                stream.append((pipeline.bus.held("perception"), bundle.gps,
                               bundle.imu, pipeline.config.planner_period))
            world.step(command.throttle, command.brake, command.steering,
                       dt)
        streams.append(stream)
    return streams


@pytest.fixture(scope="module")
def input_streams():
    return record_inputs()


def replay(streams):
    """Every stream through a fresh tracker and localizer: each
    update's outputs, then both filters' final snapshots."""
    outputs = []
    for stream in streams:
        tracker = MultiObjectTracker()
        localizer = EgoLocalizer()
        for detections, gps, imu, dt in stream:
            outputs.append(tracker.update(detections, dt))
            outputs.append(localizer.update(gps, imu, imu.yaw_rate, dt))
        outputs.append(tracker.snapshot())
        outputs.append(localizer.snapshot())
    return outputs


def replay_oracle(streams):
    with reference_kernels():
        return replay(streams)


def _summary(seconds):
    """Median and quartiles of round seconds."""
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "rounds": len(seconds)}


def test_bench_world_model(benchmark, input_streams):
    streams = input_streams
    updates = sum(len(stream) for stream in streams)
    assert updates >= 1000
    expected = replay_oracle(streams)

    seconds = {"oracle": [], "kernels": []}
    sides = [("oracle", replay_oracle), ("kernels", replay)]
    for index in range(ROUNDS):
        for side, run in (sides if index % 2 == 0 else sides[::-1]):
            start = time.perf_counter()
            outputs = run(streams)
            seconds[side].append(time.perf_counter() - start)
            assert outputs == expected, side
    stats = {side: _summary(times) for side, times in seconds.items()}
    ratio = stats["kernels"]["median"] / stats["oracle"]["median"]

    # The pytest-benchmark record times the kernel side.
    benchmark(replay, streams)

    rows = [[side, f"{1e6 * stats[side]['median'] / updates:.2f}",
             f"{1e6 * stats[side]['q1'] / updates:.2f}",
             f"{1e6 * stats[side]['q3'] / updates:.2f}"]
            for side in ("oracle", "kernels")]
    print(f"\nWorld model: tracker + localizer per planning tick "
          f"({updates} updates, median of {ROUNDS} interleaved rounds); "
          f"kernels / oracle = {ratio:.2f}x")
    print(ascii_table(["kernels", "us/update", "q1", "q3"], rows))
    for side in ("oracle", "kernels"):
        for key, value in stats[side].items():
            benchmark.extra_info[f"{side}_{key}"] = value
    benchmark.extra_info["ratio"] = ratio
    benchmark.extra_info["updates"] = updates
    benchmark.extra_info.update(host_info())

    if not timing_gates(benchmark):
        return
    assert ratio <= MAX_RATIO, (
        f"straight-line world model takes {ratio:.2f}x the loop-form "
        f"oracle's time (gate {MAX_RATIO}x)")
