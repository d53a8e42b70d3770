"""Property-based tests (hypothesis): batched ADS == scalar pipeline.

The fused ADS engine's contract is *bitwise* equality with the scalar
:class:`~repro.ads.runtime.ADSPipeline` oracle, lane for lane, under
any lane count, seed, fault mix, lane order, peel/retirement pattern,
or snapshot/restore cut.  These properties fuzz that contract at the
:func:`~repro.core.simulate.run_experiments_batched` driver level and
at the :class:`~repro.ads.batch.BatchADSState` engine level (the
campaign-level equivalence suite covers the full orchestration stack).
"""

import pickle
from dataclasses import asdict, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.batch import BatchADSState, can_fuse
from repro.ads.runtime import ADSConfig, ADSPipeline
from repro.core.interface_faults import CHANNELS, INTERFACE_KINDS
from repro.core.simulate import (FaultSpec, run_experiments_batched,
                                 run_scenario)
from repro.sim import BatchWorldState, highway_cruise

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
peeled_lane = st.lists(interface_faults, min_size=1, max_size=2)
mixed_lane = st.one_of(fused_lane, peeled_lane,
                       st.tuples(value_faults, interface_faults)
                       .map(list))
fault_lists = st.lists(mixed_lane, min_size=1, max_size=5)
seeds = st.integers(0, 3)
batch_sizes = st.integers(1, 4)


def _strip(result):
    row = asdict(result)
    row.pop("wall_seconds")     # host timing necessarily differs
    row.pop("trace")            # None with record_trace=False
    row.pop("checkpoints")
    return row


def _run_batched(lists, seed, batch_size):
    return [_strip(result) for result in run_experiments_batched(
        SCENARIO, lists, seed=seed, horizon_after_fault=HORIZON,
        batch_size=batch_size, record_trace=False)]


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


class TestPeelAndRetirement:
    @settings(max_examples=8, deadline=None)
    @given(st.lists(fused_lane, min_size=1, max_size=3),
           st.lists(peeled_lane, min_size=1, max_size=2),
           seeds, st.randoms())
    def test_peeled_lanes_do_not_perturb_fused_survivors(self, fused,
                                                         peeled, seed,
                                                         rng):
        """Interleaving scalar-peeled lanes (interface faults) into the
        batch leaves every fused lane's record bit-for-bit unchanged —
        as does the staggered retirement their horizons cause."""
        lists = [("fused", i, faults) for i, faults in enumerate(fused)] \
            + [("peel", i, faults) for i, faults in enumerate(peeled)]
        rng.shuffle(lists)
        alone = _run_batched(fused, seed, batch_size=len(lists))
        mixed = _run_batched([faults for _, _, faults in lists], seed,
                             batch_size=len(lists))
        for lane, (kind, i, _) in enumerate(lists):
            if kind == "fused":
                assert mixed[lane] == alone[i]


def _arm(pipeline, faults):
    for fault in faults:
        pipeline.arm_fault(fault.variable, fault.value, fault.start_tick,
                           fault.duration_ticks)


def _drive_batched(n_lanes, seed, n_ticks, faults):
    """A minimal fused-batch drive (no safety/recording machinery)."""
    worlds = [SCENARIO.make_world() for _ in range(n_lanes)]
    batch = BatchWorldState(worlds)
    ads = BatchADSState(batch, CONFIG)
    for slot in range(n_lanes):
        pipeline = ADSPipeline(CONFIG, seed=seed)
        if slot == 0:
            _arm(pipeline, faults)
        assert can_fuse(pipeline)
        ads.attach(slot, pipeline)
    for _ in range(n_ticks):
        ads.tick_all()
        batch.step(DT)
    return batch, ads


def _drive_scalar(seed, n_ticks, faults):
    world = SCENARIO.make_world()
    pipeline = ADSPipeline(CONFIG, seed=seed)
    _arm(pipeline, faults)
    for _ in range(n_ticks):
        command = pipeline.tick(world)
        world.step(command.throttle, command.brake, command.steering, DT)
    return world, pipeline


def _continue_scalar(world, pipeline, n_ticks):
    commands = []
    for _ in range(n_ticks):
        command = pipeline.tick(world)
        world.step(command.throttle, command.brake, command.steering, DT)
        commands.append((command.throttle, command.brake,
                         command.steering))
    state = world.ego.state
    return commands, (state.x, state.y, state.v, state.theta, state.phi)


class TestSnapshotRestore:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 4), seeds, st.integers(1, 40),
           st.integers(1, 20), st.lists(value_faults, max_size=2),
           st.data())
    def test_fused_lane_snapshot_replays_bitwise(self, n_lanes, seed,
                                                 prefix, suffix, faults,
                                                 data):
        """A fused lane cut mid-batch by :meth:`snapshot_lane` restores
        into a *scalar* pipeline that continues exactly like the scalar
        twin — and the snapshot's plain fields match the twin's own
        snapshot structurally."""
        slot = data.draw(st.integers(0, n_lanes - 1))
        batch, ads = _drive_batched(n_lanes, seed, prefix,
                                    faults if slot == 0 else [])
        world, pipeline = _drive_scalar(seed, prefix,
                                        faults if slot == 0 else [])
        fused_snap = ads.snapshot_lane(slot)
        scalar_snap = pipeline.snapshot()

        assert fused_snap.tick_index == scalar_snap.tick_index
        assert fused_snap.command == scalar_snap.command
        assert fused_snap.controller == scalar_snap.controller
        assert fused_snap.sensors == scalar_snap.sensors
        # The latched plan is the first entry of the payload pickle.
        assert pickle.loads(fused_snap.payloads)[0] == \
            pickle.loads(scalar_snap.payloads)[0]
        assert fused_snap.faults == scalar_snap.faults
        assert fused_snap.degraded_ticks == scalar_snap.degraded_ticks
        for mine, twin in ((fused_snap.localizer.mean,
                            scalar_snap.localizer.mean),
                           (fused_snap.localizer.covariance,
                            scalar_snap.localizer.covariance)):
            if twin is None:
                assert mine is None
            else:
                assert np.array_equal(np.asarray(mine).ravel(),
                                      np.asarray(twin).ravel())

        restored = ADSPipeline(CONFIG, seed=seed)
        restored.restore(fused_snap)
        batch.scatter([slot])
        assert _continue_scalar(batch.worlds[slot], restored, suffix) \
            == _continue_scalar(world, pipeline, suffix)
