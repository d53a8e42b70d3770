"""Property-based tests (hypothesis): batched ADS == scalar pipeline.

The fused ADS engine's contract is *bitwise* equality with the scalar
:class:`~repro.ads.runtime.ADSPipeline` oracle, lane for lane, under
any lane count, seed, value-fault mix, lane order, or retirement
pattern.  These properties fuzz that contract at the
:func:`~repro.core.simulate.run_experiments_batched` driver level (the
campaign-level equivalence suite covers the full orchestration stack,
where interface-fault jobs run scalar).  The fused engine refuses what
it cannot represent: :meth:`~repro.ads.batch.BatchADSState.attach`
raises on an interface-fault pipeline.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.batch import BatchADSState, can_fuse
from repro.ads.runtime import ADSConfig, ADSPipeline
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
