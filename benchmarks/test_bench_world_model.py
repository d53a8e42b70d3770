"""World-model stage: the filter kernels, two ways.

The world model (the object tracker plus the ego EKF) is one of the ADS
stages both engines spend most on.  ``repro.ads.kernels`` runs their
predict and update steps as straight-line, polymorphic code: the scalar
engine's ``MultiObjectTracker``/``EgoLocalizer`` pass Python floats, and
the fused engine's columnar world model
(``repro.ads.batch.BatchADSState``) passes one float64 column per lane
or per track.

The inputs are recorded once: every planning tick's fused detections,
GPS fix, IMU sample and planner period from ADS-driven runs of the
default scenarios.

* ``test_bench_world_model`` replays them through fresh filters on the
  kernels and on the loop-form oracles in ``tests/reference.py``
  (:func:`reference.reference_kernels` swaps them in; their EKF predict
  left ``numpy.float64`` scalars in the localizer's state).
* ``test_bench_world_model_fused`` feeds them to 128 lanes at once: the
  columnar world model of one ``BatchADSState`` against one scalar
  tracker and localizer per lane, the two engines' world models.

Every round's outputs are asserted equal to the oracle side's.  Timings
interleave the two sides; the gates compare medians over the rounds,
the spread goes to ``extra_info``, and, like every wall-clock gate,
they fire only with ``REPRO_BENCH_GATES=1`` (``conftest.timing_gates``).
"""

import statistics
import time

import numpy as np
import pytest

from repro.ads.batch import BatchADSState
from repro.ads.localization import EgoLocalizer
from repro.ads.messages import SensorBundle, WorldModel
from repro.ads.runtime import ADSPipeline
from repro.ads.tracking import MultiObjectTracker
from repro.analysis import ascii_table
from repro.sim import BatchWorldState, default_scenarios

from conftest import host_info, interleaved_ratio, timing_gates
from reference import reference_kernels

#: Interleaved oracle/kernel rounds.
ROUNDS = 5
#: Gate on the ratio of median round times (kernels / oracle).
MAX_RATIO = 0.6
#: Fused lanes fed at once, the driver's batch width.
LANES = 128
#: Gate on the fused round's speedup (per-lane filters / columns).
MIN_FUSED_SPEEDUP = 1.5


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


def lane_inputs(streams, lanes=LANES):
    """``lanes`` lanes of recorded inputs, cut to a common length: lane
    ``i`` replays stream ``i % len(streams)`` from a lane-specific
    offset, each planning tick as ``(detections, bundle, dt)``."""
    cut = [stream[3 * (i // len(streams)):]
           for i, stream in enumerate(streams * lanes)][:lanes]
    ticks = min(len(stream) for stream in cut)
    return [[(detections, SensorBundle(time=0.0, gps=gps, imu=imu), dt)
             for detections, gps, imu, dt in stream[:ticks]]
            for stream in cut]


def per_lane_world_models(lanes):
    """The scalar engine's world model, lane by lane: each planning
    tick's planner inputs and, at the end, every lane's filter
    snapshots."""
    filters = [(MultiObjectTracker(), EgoLocalizer()) for _ in lanes]
    ticks = []
    for step in range(len(lanes[0])):
        inputs = []
        for lane, (tracker, localizer) in zip(lanes, filters):
            detections, bundle, dt = lane[step]
            model = WorldModel(
                time=bundle.time, tracks=tracker.update(detections, dt),
                ego=localizer.update(bundle.gps, bundle.imu,
                                     bundle.imu.yaw_rate, dt),
                lane_offset=bundle.lane_offset,
                lane_heading=bundle.lane_heading)
            lead = model.lead_track()
            inputs.append((model.ego.x, model.ego.v,
                           model.ego.x if lead is None else lead.x,
                           0.0 if lead is None else lead.vx,
                           lead is not None, model.lane_offset,
                           model.lane_heading))
        ticks.append(inputs)
    return ticks, [(tracker.snapshot().tracks, localizer.snapshot().mean)
                   for tracker, localizer in filters]


def fused_state(n_lanes):
    """A fresh ``BatchADSState`` with ``n_lanes`` attached lanes."""
    scenario = default_scenarios()[1]
    ads = BatchADSState(BatchWorldState([scenario.make_world()
                                         for _ in range(n_lanes)]),
                        ADSPipeline().config)
    for slot in range(n_lanes):
        ads.attach(slot, ADSPipeline(seed=slot))
    return ads


def column_inputs(lanes):
    """The same inputs as the fused engine's sensing and perception hand
    them on: per planning tick, the ``sensed`` columns of every lane and
    the detections as ``(3, d)`` columns with per-lane counts."""
    steps = []
    for step in range(len(lanes[0])):
        bundles = [lane[step][1] for lane in lanes]
        detections = [lane[step][0] for lane in lanes]
        steps.append((
            np.array([(b.gps.x, b.gps.y, b.imu.v, b.imu.heading,
                       b.imu.yaw_rate, b.lane_offset, b.lane_heading)
                      for b in bundles], dtype=float).T,
            np.array([(d.x, d.y, d.v) for lane in detections
                      for d in lane], dtype=float).reshape(-1, 3).T,
            [len(lane) for lane in detections]))
    return steps


def columnar_world_models(ads, steps):
    """The fused engine's world model on the same inputs: one columnar
    update of every lane per planning tick."""
    rows = np.arange(steps[0][0].shape[1])
    ticks = []
    for sensed, det, counts in steps:
        ads.sensed[:, rows] = sensed
        ticks.append(list(zip(*ads._world_model(rows, det, counts)[1])))
    states = []
    for slot in rows.tolist():
        table = np.flatnonzero(ads.track_slot == slot)
        states.append((
            tuple((int(ads.track_id[row]),
                   tuple(ads.track_mean[:, row].tolist()),
                   tuple(ads.track_cov[:, row].tolist()),
                   int(ads.track_age[row]), int(ads.track_misses[row]))
                  for row in table),
            tuple(ads.ego_mean[:, slot].tolist())
            if ads.ego_fixed[slot] else None))
    return ticks, states


def test_bench_world_model_fused(benchmark, input_streams):
    lanes = lane_inputs(input_streams)
    updates = len(lanes) * len(lanes[0])
    assert len(lanes) == LANES and updates >= 10_000
    expected = per_lane_world_models(lanes)
    # Each columnar round starts from a fresh batch, built untimed, on
    # the inputs in column form.
    fresh = [fused_state(LANES) for _ in range(ROUNDS + 1)]
    steps = column_inputs(lanes)

    def check(side, outputs):
        assert outputs == expected, side

    speedup, stats = interleaved_ratio(
        lambda: per_lane_world_models(lanes),
        lambda: columnar_world_models(fresh.pop(), steps), check, ROUNDS)

    # The pytest-benchmark record times one columnar round.
    benchmark.pedantic(columnar_world_models, args=(fresh.pop(), steps),
                       rounds=1, iterations=1)

    rows = [[side, f"{1e6 * stats[key]['median'] / updates:.2f}",
             f"{1e6 * stats[key]['q1'] / updates:.2f}",
             f"{1e6 * stats[key]['q3'] / updates:.2f}"]
            for side, key in (("per-lane filters", "oracle"),
                              ("columns", "shortcut"))]
    print(f"\nWorld model, {LANES} fused lanes ({updates} lane updates, "
          f"median of {ROUNDS} interleaved rounds): columns "
          f"{speedup:.2f}x faster than per-lane filters")
    print(ascii_table(["world model", "us/lane update", "q1", "q3"], rows))
    for side, key in (("per_lane", "oracle"), ("columnar", "shortcut")):
        for name, value in stats[key].items():
            benchmark.extra_info[f"{side}_{name}"] = value
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["lanes"] = LANES
    benchmark.extra_info["lane_updates"] = updates
    benchmark.extra_info.update(host_info())

    if not timing_gates(benchmark):
        return
    assert speedup >= MIN_FUSED_SPEEDUP, (
        f"columnar world model only {speedup:.2f}x faster than per-lane "
        f"filters (gate {MIN_FUSED_SPEEDUP}x)")
