"""Property-based tests (hypothesis): batched ADS == scalar pipeline.

The fused ADS engine's contract is *bitwise* equality with the scalar
:class:`~repro.ads.runtime.ADSPipeline` oracle, lane for lane, under
any lane count, seed, value-fault mix, lane order, or retirement
pattern.  These properties fuzz that contract at the
:func:`~repro.core.simulate.run_experiments_batched` driver level (the
campaign-level equivalence suite covers the full orchestration stack,
where interface-fault jobs run scalar).  The fused engine refuses what
it cannot represent: :meth:`~repro.ads.batch.BatchADSState.attach`
raises on an interface-fault pipeline.  The fused engine's columnar
world model is also held, tick by tick, to one scalar tracker and
localizer per lane.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ads import (Detection, EgoLocalizer, GpsFix, ImuSample,
                       MultiObjectTracker)
from repro.ads.batch import BatchADSState, can_fuse
from repro.ads.messages import SensorBundle, WorldModel
from repro.ads.runtime import ADSConfig, ADSPipeline
from repro.ads.tracking import TrackerConfig
from repro.ads.variables import variable_by_name
from repro.core.interface_faults import CHANNELS, INTERFACE_KINDS
from repro.core.simulate import (FaultSpec, _arm_faults,
                                 run_experiments_batched, run_scenario)
from repro.sim import (BatchWorldState, adjacent_traffic, empty_road,
                       highway_cruise, lead_vehicle_cutin, stop_and_go,
                       two_lead_reveal)

SCENARIO = replace(highway_cruise(), duration=10.0)
HORIZON = 3.0
CONFIG = ADSConfig()
DT = CONFIG.control_period

#: One registry variable per pipeline stage, so the fused fault paths
#: (real setters for sensing/perception/world-model, masked column
#: writes for planning/actuation) all get fuzzed.
VARIABLES = ["imu_speed", "gps_y", "detection_x", "tracked_gap",
             "planned_speed", "raw_throttle", "brake", "steering"]

value_faults = st.builds(
    FaultSpec,
    variable=st.sampled_from(VARIABLES),
    value=st.sampled_from([0.0, 0.4, 5.0, 40.0, 120.0]),
    start_tick=st.integers(10, 80),
    duration_ticks=st.integers(1, 4))

interface_faults = st.builds(
    lambda kind, channel, tick, duration: FaultSpec(
        variable=f"{kind}@{channel}", value=2.0, start_tick=tick,
        duration_ticks=duration, kind=kind, channel=channel),
    st.sampled_from(INTERFACE_KINDS),
    st.sampled_from(CHANNELS),
    st.integers(10, 80),
    st.integers(1, 4))

#: Per-lane fault lists: at least one fault per lane keeps the
#: post-fault horizon bounded, so every property run stays short.
fused_lane = st.lists(value_faults, min_size=1, max_size=2)
fault_lists = st.lists(fused_lane, min_size=1, max_size=5)
seeds = st.integers(0, 3)
batch_sizes = st.integers(1, 4)


def _strip(result):
    row = asdict(result)
    row.pop("wall_seconds")     # host timing necessarily differs
    row.pop("trace")            # empty: no run records one here
    row.pop("checkpoints")
    return row


def _run_batched(lists, seed, batch_size):
    return [_strip(result) for result in run_experiments_batched(
        [SCENARIO] * len(lists), lists, seed=seed,
        horizon_after_fault=HORIZON, batch_size=batch_size)]


def _run_scalar(lists, seed):
    return [_strip(run_scenario(SCENARIO, seed=seed, faults=faults,
                                horizon_after_fault=HORIZON,
                                record_trace=False))
            for faults in lists]


class TestLockstepEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(fault_lists, seeds, batch_sizes)
    def test_lanes_match_scalar_pipelines_bitwise(self, lists, seed,
                                                  batch_size):
        assert _run_batched(lists, seed, batch_size) \
            == _run_scalar(lists, seed)

    @settings(max_examples=8, deadline=None)
    @given(fault_lists, seeds, batch_sizes, st.randoms())
    def test_lane_order_is_irrelevant(self, lists, seed, batch_size,
                                      rng):
        order = list(range(len(lists)))
        rng.shuffle(order)
        straight = _run_batched(lists, seed, batch_size)
        shuffled = _run_batched([lists[i] for i in order], seed,
                                batch_size)
        for lane, source in enumerate(order):
            assert shuffled[lane] == straight[source]


class TestRetirement:
    @settings(max_examples=8, deadline=None)
    @given(st.lists(fused_lane, min_size=2, max_size=5), seeds)
    def test_staggered_retirement_does_not_perturb_survivors(self, lists,
                                                             seed):
        """Lanes whose horizons differ retire at different ticks; every
        lane's record equals the same lane run alone."""
        together = _run_batched(lists, seed, batch_size=len(lists))
        alone = [_run_batched([faults], seed, batch_size=1)[0]
                 for faults in lists]
        assert together == alone


#: Scenarios of 0 to 3 NPCs for mixed batches, each named apart.
MIXED = [replace(factory(), name=f"{factory.__name__}-mixed", duration=8.0)
         for factory in (empty_road, highway_cruise, lead_vehicle_cutin,
                         two_lead_reveal, stop_and_go, adjacent_traffic)]

mixed_lanes = st.lists(st.tuples(st.integers(0, len(MIXED) - 1),
                                 fused_lane), min_size=1, max_size=6)


class TestMixedScenarios:
    """Lanes of different scenarios share one batch, lane for lane
    equal to the scalar pipeline."""

    @settings(max_examples=12, deadline=None)
    @given(mixed_lanes, seeds, batch_sizes)
    def test_mixed_lanes_match_scalar_pipelines(self, lanes, seed,
                                                batch_size):
        scenarios = [MIXED[index] for index, _ in lanes]
        lists = [faults for _, faults in lanes]
        fused = run_experiments_batched(
            scenarios, lists, seed=seed, horizon_after_fault=HORIZON,
            batch_size=batch_size)
        scalar = [run_scenario(scenario, seed=seed, faults=faults,
                               horizon_after_fault=HORIZON,
                               record_trace=False)
                  for scenario, faults in zip(scenarios, lists)]
        assert [_strip(result) for result in fused] == \
            [_strip(result) for result in scalar]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(MIXED) - 1),
                              st.floats(-8.0, 8.0), st.floats(-1.5, 12.5)),
                    min_size=1, max_size=6), seeds)
    def test_sensing_sees_only_real_columns(self, lanes, seed):
        """Egos anywhere near the origin, where a padded column would
        sit if padding were a position: the fused sensing's bundles
        equal the scalar sensor suite's, range gates, occluders and
        the visible list included."""
        worlds = []
        for index, x, y in lanes:
            world = MIXED[index].make_world()
            world.ego.state = replace(world.ego.state, x=x, y=y)
            worlds.append(world)
        batch = BatchWorldState(worlds)
        ads = BatchADSState(batch, CONFIG)
        expected = []
        for slot, world in enumerate(worlds):
            ads.attach(slot, ADSPipeline(CONFIG, seed=seed + slot))
            expected.append(ADSPipeline(CONFIG, seed=seed + slot)
                            .sensors.measure(world))
        ads._sense(np.arange(len(worlds)))
        assert ads.bundles == expected


class TestFusability:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(value_faults, max_size=2),
           st.lists(interface_faults, min_size=1, max_size=2))
    def test_attach_rejects_interface_fault_pipelines(self, values,
                                                      interfaces):
        """Only value-fault jobs fuse: :func:`can_fuse` refuses a job
        with an interface fault, and :meth:`BatchADSState.attach`
        raises ``ValueError`` on its pipeline."""
        faults = values + interfaces
        assert can_fuse(CONFIG, values)
        assert not can_fuse(CONFIG, faults)
        batch = BatchWorldState([SCENARIO.make_world()])
        ads = BatchADSState(batch, CONFIG)
        pipeline = ADSPipeline(CONFIG, seed=0)
        _arm_faults(pipeline, faults)
        with pytest.raises(ValueError):
            ads.attach(0, pipeline)
        assert not ads.active.any()
        with pytest.raises(ValueError):
            run_experiments_batched([SCENARIO], [faults],
                                    horizon_after_fault=HORIZON)


# -- the columnar world model against per-lane scalar filters --------------

#: Detection coordinates on a coarse grid around the association gate
#: (4.5 m): distances land on it, just inside and just outside it, and
#: several tracks and detections share positions (age and distance ties).
GRID = st.sampled_from([0.0, 1.0, 3.0, 4.5, 4.499999999999999,
                        4.500000000000001, 9.0, -4.5])

detections = st.lists(
    st.builds(lambda x, dx, dy, v: Detection(40.0 + x + dx, dy, v),
              st.sampled_from([0.0, 20.0]), GRID, GRID,
              st.sampled_from([-2.0, 0.0, 12.5])),
    max_size=4)

#: One planning tick of one lane: its detections, GPS fix and IMU
#: sample, or ``None`` when the lane does not plan on that tick.  GPS
#: y values sit 1.9 m (the lead corridor's edge) from grid detections,
#: and IMU speeds far below zero trip the EKF's speed clamp.
lane_tick = st.one_of(st.none(), st.tuples(
    detections, st.sampled_from([0.0, 38.0]) | st.floats(-20.0, 60.0),
    st.sampled_from([-1.9, 1.9, 2.6]) | st.floats(-3.0, 3.0),
    st.sampled_from([-30.0, 0.0, 12.5]) | st.floats(-2.0, 30.0),
    st.floats(-0.3, 0.3), st.floats(-0.2, 0.2)))

world_model_lanes = st.lists(st.tuples(
    st.lists(lane_tick, min_size=1, max_size=10),
    st.integers(0, 3)), min_size=1, max_size=5)

tracker_configs = st.builds(
    TrackerConfig, max_misses=st.integers(-1, 3),
    confirm_age=st.integers(1, 3), enabled=st.booleans())


def _bundle(gps_x, gps_y, speed, heading, yaw_rate):
    return SensorBundle(time=0.0, gps=GpsFix(gps_x, gps_y),
                        imu=ImuSample(speed, 0.0, yaw_rate, heading),
                        lane_offset=0.25, lane_heading=-0.01)


def _filter_state(tracker, localizer):
    """Bit patterns of a scalar tracker's and localizer's state."""
    snapshot = tracker.snapshot()
    tracks = [(track_id, [float(v).hex() for v in mean + covariance], age,
               misses)
              for track_id, mean, covariance, age, misses
              in snapshot.tracks]
    belief = localizer.snapshot()
    ego = (None if belief.mean is None else
           [float(v).hex() for v in belief.mean + belief.covariance])
    return tracks, snapshot.next_id, ego


def _column_state(ads, slot):
    """The same state read from the batch's columns."""
    rows = np.flatnonzero(ads.track_slot == slot)
    tracks = [(int(ads.track_id[row]),
               [float(v).hex() for v in ads.track_mean[:, row].tolist()
                + ads.track_cov[:, row].tolist()],
               int(ads.track_age[row]), int(ads.track_misses[row]))
              for row in rows]
    ego = ([float(v).hex() for v in ads.ego_mean[:, slot].tolist()
            + ads.ego_cov[:, slot].tolist()]
           if ads.ego_fixed[slot] else None)
    return tracks, ads.next_track_id[slot], ego


class TestColumnarWorldModel:
    """``BatchADSState``'s world-model columns against one scalar
    ``MultiObjectTracker`` + ``EgoLocalizer`` per lane, bit for bit:
    the tracks (ids, ages, misses, mean, covariance), the ego estimate
    and the planner's lead pick, every planning tick.  Lanes plan on
    ticks of their own (a first fix mid-batch), some attach from
    restored filter snapshots, and one may sit in a world-model fault
    window."""

    #: A one-track, one-detection lane at exactly the gate: the track
    #: stands still, the detection lands 4.5 m ahead (no match).
    GATE_EDGE = [([([Detection(40.0, 0.0, 0.0)], 0.0, 0.0, 0.0, 0.0, 0.0),
                   ([Detection(44.5, 0.0, 0.0)], 0.0, 0.0, 0.0, 0.0, 0.0),
                   ([Detection(44.5, 0.0, 0.0)], 0.0, 0.0, 0.0, 0.0, 0.0)],
                  0)]

    @settings(max_examples=200, deadline=None)
    @example(GATE_EDGE, TrackerConfig(confirm_age=1), True, None)
    @given(world_model_lanes, tracker_configs, st.booleans(),
           st.sampled_from([None, "tracked_gap", "tracked_speed",
                            "ego_speed_estimate"]))
    def test_columns_match_scalar_filters(self, lanes, tracker_config,
                                          localizing, fault_variable):
        config = replace(CONFIG, tracker=tracker_config,
                         localizer=replace(CONFIG.localizer,
                                           enabled=localizing))
        dt = config.planner_period
        batch = BatchWorldState([SCENARIO.make_world() for _ in lanes])
        ads = BatchADSState(batch, config)
        oracles = []
        for slot, (ticks, warmup) in enumerate(lanes):
            # Warm the scalar filters on the lane's first ticks and attach
            # a pipeline restored from their snapshots.
            tracker = MultiObjectTracker(config.tracker)
            localizer = EgoLocalizer(config.localizer)
            for tick in ticks[:warmup]:
                if tick is not None:
                    dets, *sensed = tick
                    bundle = _bundle(*sensed)
                    tracker.update(dets, dt)
                    localizer.update(bundle.gps, bundle.imu,
                                     bundle.imu.yaw_rate, dt)
            pipeline = ADSPipeline(config, seed=slot)
            pipeline.tracker.restore(tracker.snapshot())
            pipeline.localizer.restore(localizer.snapshot())
            if fault_variable is not None and slot == 0:
                pipeline.arm_fault(fault_variable, 7.0, 0, 1000)
            ads.attach(slot, pipeline)
            oracles.append((tracker, localizer))
            assert _column_state(ads, slot) == _filter_state(tracker,
                                                             localizer)
        if fault_variable is not None:
            ads._hot = {0}
        fault = variable_by_name(fault_variable) if fault_variable else None

        steps = max(len(ticks) for ticks, _ in lanes)
        for step in range(steps):
            planning = [slot for slot, (ticks, warmup) in enumerate(lanes)
                        if warmup + step < len(ticks)
                        and ticks[warmup + step] is not None]
            if not planning:
                continue
            expected = []
            for slot in planning:
                ticks, warmup = lanes[slot]
                dets, *sensed = ticks[warmup + step]
                bundle = _bundle(*sensed)
                ads.bundles[slot] = bundle
                ads.detections[slot] = [replace(d) for d in dets]
                tracker, localizer = oracles[slot]
                model = WorldModel(
                    time=0.0, tracks=tracker.update(dets, dt),
                    ego=localizer.update(bundle.gps, bundle.imu,
                                         bundle.imu.yaw_rate, dt),
                    lane_offset=bundle.lane_offset,
                    lane_heading=bundle.lane_heading)
                if fault is not None and slot == 0:
                    fault.setter(model, 7.0)
                lead = model.lead_track()
                expected.append((
                    model.ego.x, model.ego.v,
                    model.ego.x if lead is None else lead.x,
                    0.0 if lead is None else lead.vx, lead is not None,
                    model.lane_offset, model.lane_heading))
            live, inputs = ads._world_model(np.array(planning))
            got = list(zip(*inputs))
            assert [[float(v).hex() for v in row] for row in got] == \
                [[float(v).hex() for v in row] for row in expected]
            assert live == sum(oracles[slot][0].track_count
                               for slot in planning)
            for slot, (tracker, localizer) in enumerate(oracles):
                assert _column_state(ads, slot) == \
                    _filter_state(tracker, localizer)
