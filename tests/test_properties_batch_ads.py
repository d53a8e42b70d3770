"""Property-based tests (hypothesis): batched ADS == scalar pipeline.

The fused ADS engine's contract is *bitwise* equality with the scalar
:class:`~repro.ads.runtime.ADSPipeline` oracle, lane for lane, under
any lane count, seed, value-fault mix, lane order, or retirement
pattern.  These properties fuzz that contract at the
:func:`~repro.core.simulate.run_experiments_batched` driver level (the
campaign-level equivalence suite covers the full orchestration stack).
The fused engine refuses what it cannot represent:
:meth:`~repro.ads.batch.BatchADSState.attach` raises on a pipeline with
an interface fault still pending, and a lane with interface faults
joins its batch only after a scalar segment through their windows,
which :class:`TestFusability` also fuzzes.  The fused engine's columnar
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
from repro.ads.batch import BatchADSState, can_fuse, fuse_detections
from repro.ads.messages import SensorBundle, WorldModel
from repro.ads.perception import Perception, PerceptionConfig
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


def _hex(values):
    """Bit patterns of a sequence of floats."""
    return [float(value).hex() for value in values]


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
        sit if padding were a position: the fused sensing's columns
        equal the scalar sensor suite's bundle field by field, range
        gates, occluders and camera dropout included, and every lane's
        noise stream ends where the scalar one does."""
        worlds = []
        for index, x, y in lanes:
            world = MIXED[index].make_world()
            world.ego.state = replace(world.ego.state, x=x, y=y)
            worlds.append(world)
        batch = BatchWorldState(worlds)
        ads = BatchADSState(batch, CONFIG)
        scalar = []
        for slot, world in enumerate(worlds):
            ads.attach(slot, ADSPipeline(CONFIG, seed=seed + slot))
            scalar.append(ADSPipeline(CONFIG, seed=seed + slot).sensors)
        expected = [sensors.measure(world)
                    for sensors, world in zip(scalar, worlds)]
        rows = np.arange(len(worlds))
        camera, radar = ads._sense(rows, np.ones(rows.size, dtype=bool))
        for slot, bundle in enumerate(expected):
            assert _hex(ads.sensed[:, slot].tolist()) == _hex(
                [bundle.gps.x, bundle.gps.y, bundle.imu.v,
                 bundle.imu.heading, bundle.imu.yaw_rate,
                 bundle.lane_offset, bundle.lane_heading])
            for (on, x, y, v), sensed in ((camera, bundle.camera),
                                          (radar, bundle.radar)):
                where = on[slot]
                assert _hex(x[slot, where].tolist()) == _hex(
                    [d.x for d in sensed])
                assert _hex(y[slot, where].tolist()) == _hex(
                    [d.y for d in sensed])
                assert _hex(v[slot, where].tolist()) == _hex(
                    [d.v for d in sensed])
            assert ads.rngs[slot].bit_generator.state == \
                scalar[slot].rng.bit_generator.state


# -- columnar sensing and perception against the scalar oracles -----------

#: The sensing- and perception-stage variables: the stages whose fused
#: lanes build real messages only while such a fault is active.
SENSING_VARIABLES = ["gps_x", "gps_y", "imu_speed", "sensed_lane_offset",
                     "detection_x", "detection_y"]

sensing_faults = st.tuples(st.sampled_from(SENSING_VARIABLES),
                           st.sampled_from([0.0, 2.0, 45.0, 250.0]),
                           st.integers(0, 24), st.integers(1, 6))

#: One lockstep lane: its scenario, seed, the scalar ticks it runs
#: before it attaches (so lanes plan on ticks of different parity), and
#: its faults (start ticks counted from the attach).
lockstep_lanes = st.lists(st.tuples(
    st.integers(0, len(MIXED) - 1), st.integers(0, 3), st.integers(0, 3),
    st.lists(sensing_faults, max_size=2)), min_size=1, max_size=5)


def _lockstep(lanes, n_ticks=30):
    """Run ``lanes`` fused and on one scalar pipeline each, tick by tick.

    Yields, after every tick, the scalar and the fused side's noise
    stream states, executed commands and fault ``landed`` flags."""
    scalar, fused, faults = [], [], []
    for index, seed, warmup, specs in lanes:
        pair = []
        for _ in range(2):
            world = MIXED[index].make_world()
            pipeline = ADSPipeline(CONFIG, seed=seed)
            for _ in range(warmup):
                command = pipeline.tick(world)
                world.step(command.throttle, command.brake,
                           command.steering, DT)
            for variable, value, start, duration in specs:
                pipeline.arm_fault(variable, value, warmup + start,
                                   duration)
            pair.append((world, pipeline))
        scalar.append(pair[0])
        fused.append(pair[1])
    batch = BatchWorldState([world for world, _ in fused])
    ads = BatchADSState(batch, CONFIG)
    for slot, (_, pipeline) in enumerate(fused):
        ads.attach(slot, pipeline)
    for _ in range(n_ticks):
        commands = []
        for world, pipeline in scalar:
            command = pipeline.tick(world)
            world.step(command.throttle, command.brake, command.steering,
                       DT)
            commands.append(_hex((command.throttle, command.brake,
                                  command.steering)))
        ads.tick_all()
        batch.step(DT)
        yield ((
            [pipeline.sensors.rng.bit_generator.state
             for _, pipeline in scalar],
            commands,
            [[fault.landed for fault in pipeline.faults]
             for _, pipeline in scalar]), (
            [rng.bit_generator.state for rng in ads.rngs],
            [_hex(column) for column in zip(
                ads.cmd_throttle.tolist(), ads.cmd_brake.tolist(),
                ads.cmd_steering.tolist())],
            [[fault.landed for fault in pipeline.faults]
             for _, pipeline in fused]))


class TestColumnarSensing:
    """Fused lanes draw their noise every tick and build messages only
    while a sensing or perception fault is active; tick by tick, every
    lane's noise stream, executed command and fault outcomes equal one
    scalar pipeline's, on planning and non-planning ticks alike."""

    @settings(max_examples=25, deadline=None)
    @given(lockstep_lanes)
    def test_noise_streams_match_every_tick(self, lanes):
        for scalar, fused in _lockstep(lanes):
            assert fused[0] == scalar[0]
            assert fused[1] == scalar[1]

    @settings(max_examples=25, deadline=None)
    @example([(0, 0, 1, [("detection_x", 250.0, 0, 6),
                         ("imu_speed", 0.0, 2, 6)]),
              (2, 1, 0, [("detection_y", 2.0, 0, 6),
                         ("gps_x", 0.0, 1, 3)]),
              (4, 2, 1, [("sensed_lane_offset", 2.0, 0, 6),
                         ("gps_y", 45.0, 4, 1)])])
    @given(lockstep_lanes)
    def test_hot_lanes_land_like_scalar(self, lanes):
        """Every sensing and perception fault lands (or is masked, as a
        detection fault on a lane that sees nothing) on the tick the
        scalar pipeline's does."""
        for scalar, fused in _lockstep(lanes):
            assert fused[2] == scalar[2]


#: Detection coordinates around the association gate (3.5 m): a camera
#: at 40.0 and radars at 36.5/43.5 sit exactly on it, (2.1, 2.8) offsets
#: within a rounding of it, and radars at 39.0 and 41.0 tie.
FUSION_X = st.sampled_from([36.5, 39.0, 40.0, 41.0, 42.1, 43.5,
                            43.49999999999999, 43.50000000000001])
FUSION_Y = st.sampled_from([0.0, 1.0, -1.0, 2.8, -2.8])

fusion_detections = st.lists(st.builds(
    lambda x, y, v, gap: (Detection(x, y, v), gap), FUSION_X, FUSION_Y,
    st.sampled_from([0.0, 12.5]), st.booleans()), max_size=4)


def _grid(lanes):
    """Per-lane detection lists as ``(on, x, y, v)`` grids; a detection
    flagged with a gap follows an off entry at NaN, as a padded or
    unseen NPC column would sit between two seen ones."""
    rows = []
    for lane in lanes:
        row = []
        for detection, gap in lane:
            if gap:
                row.append((False, np.nan, np.nan, 0.0))
            row.append((True, detection.x, detection.y, detection.v))
        rows.append(row)
    width = max(len(row) for row in rows)
    rows = [row + [(False, np.nan, np.nan, 0.0)] * (width - len(row))
            for row in rows]
    on = np.array([[entry[0] for entry in row] for row in rows],
                  dtype=bool).reshape(len(rows), width)
    x, y, v = (np.array([[entry[i] for entry in row] for row in rows],
                        dtype=float).reshape(len(rows), width)
               for i in (1, 2, 3))
    return on, x, y, v


class TestColumnarFusion:
    """:func:`fuse_detections` against :meth:`Perception.process`, lane
    by lane: camera order, the strict gate, first radar on ties, used
    radars skipped, unmatched radars last."""

    @settings(max_examples=300, deadline=None)
    @example([([(Detection(40.0, 0.0, 0.0), False)],
               [(Detection(43.5, 0.0, 1.0), False),
                (Detection(36.5, 0.0, 2.0), False)]),
              ([(Detection(40.0, 0.0, 0.0), False),
                (Detection(40.0, 0.0, 12.5), True)],
               [(Detection(41.0, 0.0, 1.0), True),
                (Detection(39.0, 0.0, 2.0), False)])],
             PerceptionConfig())
    @given(st.lists(st.tuples(fusion_detections, fusion_detections),
                    min_size=1, max_size=5),
           st.builds(PerceptionConfig,
                     association_gate=st.sampled_from([3.5, 1.0]),
                     camera_weight=st.sampled_from([0.55, 0.3])))
    def test_fusion_matches_perception(self, lanes, config):
        x, y, v, valid, fused = fuse_detections(
            _grid([camera for camera, _ in lanes]),
            _grid([radar for _, radar in lanes]), config)
        n_cameras = fused.shape[1]
        perception = Perception(config)
        for i, (camera, radar) in enumerate(lanes):
            expected = perception.process(SensorBundle(
                time=0.0, camera=[d for d, _ in camera],
                radar=[replace(d, sensor="radar") for d, _ in radar]))
            got = [(x[i, c], y[i, c], v[i, c],
                    "radar" if c >= n_cameras else
                    "fused" if fused[i, c] else "camera")
                   for c in np.flatnonzero(valid[i]).tolist()]
            assert [(_hex((gx, gy, gv)), sensor)
                    for gx, gy, gv, sensor in got] == \
                [(_hex((d.x, d.y, d.v)), d.sensor) for d in expected]


class TestFusability:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(value_faults, max_size=2),
           st.lists(interface_faults, min_size=1, max_size=2))
    def test_attach_rejects_interface_fault_pipelines(self, values,
                                                      interfaces):
        """:func:`can_fuse` reads only the configuration, so a job with
        interface faults fuses late: :meth:`BatchADSState.attach` raises
        ``ValueError`` on its pipeline while an interface fault is
        pending, and the batched run, scalar up to its hand-off tick and
        fused from there, equals the scalar run."""
        faults = values + interfaces
        assert can_fuse(CONFIG)
        assert not can_fuse(replace(
            CONFIG, planner=replace(CONFIG.planner, idm_exponent=3.0)))
        batch = BatchWorldState([SCENARIO.make_world()])
        ads = BatchADSState(batch, CONFIG)
        pipeline = ADSPipeline(CONFIG, seed=0)
        _arm_faults(pipeline, faults)
        with pytest.raises(ValueError):
            ads.attach(0, pipeline)
        assert not ads.active.any()
        assert _run_batched([faults], 0, 1) == _run_scalar([faults], 0)


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


def _sensed_columns(bundle):
    """A bundle as one column of ``BatchADSState.sensed``."""
    return (bundle.gps.x, bundle.gps.y, bundle.imu.v, bundle.imu.heading,
            bundle.imu.yaw_rate, bundle.lane_offset, bundle.lane_heading)


def _detection_columns(lanes):
    """Per-lane ``(x, y, v)`` lists as ``(3, d)`` columns and counts."""
    return (np.array([row for lane in lanes for row in lane],
                     dtype=float).reshape(-1, 3).T,
            [len(lane) for lane in lanes])


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
            columns = []
            for slot in planning:
                ticks, warmup = lanes[slot]
                dets, *sensed = ticks[warmup + step]
                bundle = _bundle(*sensed)
                ads.sensed[:, slot] = _sensed_columns(bundle)
                columns.append([(d.x, d.y, d.v) for d in dets])
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
            live, inputs = ads._world_model(np.array(planning),
                                            *_detection_columns(columns))
            got = list(zip(*inputs))
            assert [[float(v).hex() for v in row] for row in got] == \
                [[float(v).hex() for v in row] for row in expected]
            assert live == sum(oracles[slot][0].track_count
                               for slot in planning)
            for slot, (tracker, localizer) in enumerate(oracles):
                assert _column_state(ads, slot) == \
                    _filter_state(tracker, localizer)
