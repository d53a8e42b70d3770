"""Property-based tests (hypothesis): batched lanes == scalar worlds.

The batched engine's contract is *bitwise* equality with the scalar
:class:`~repro.sim.world.World` oracle, lane for lane, under any lane
count, lane order, retirement pattern, or mix of scenarios in one
batch (rosters of different sizes, padded NPC columns, scripts of
different lengths, lanes forked from snapshots with part of their
lane changes consumed, and released slots refilled by another
scenario).  These properties fuzz that contract directly at the
:class:`~repro.sim.batch.BatchWorldState` level (the campaign-level
equivalence suite covers the full driver stack).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.safety import world_safety_inputs
from repro.sim import (BatchWorldState, LaneChangeCommand, NPCVehicle, Road,
                       SpeedCommand, World)
from repro.sim.scenario import scenario_by_name

DT = 0.1
SCENARIOS = ["highway_cruise", "lead_vehicle_cutin", "braking_lead"]

lane_controls = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                          st.floats(-0.1, 0.1))
batches = st.lists(lane_controls, min_size=1, max_size=6)
scenario_names = st.sampled_from(SCENARIOS)
step_counts = st.integers(1, 60)


def _worlds(name, n):
    scenario = scenario_by_name(name)
    return [scenario.make_world() for _ in range(n)]


def _state_tuple(world):
    """Every float the engines advance, as exact Python floats, and
    each NPC's remaining lane changes."""
    s = world.ego.state
    return ((s.x, s.y, s.v, s.theta, s.phi), world.time,
            tuple((npc.x, npc.y, npc.v, npc._lane_start_y,
                   tuple(npc.lane_commands)) for npc in world.npcs))


def _run_scalar(name, controls, n_steps):
    worlds = _worlds(name, len(controls))
    for _ in range(n_steps):
        for world, (throttle, brake, steering) in zip(worlds, controls):
            world.step(throttle, brake, steering, DT)
    return [_state_tuple(world) for world in worlds]


def _run_batched(name, controls, n_steps, retire_at=None, retired=()):
    worlds = _worlds(name, len(controls))
    batch = BatchWorldState(worlds)
    for step in range(n_steps):
        if retire_at is not None and step == retire_at:
            for lane in retired:
                batch.deactivate(lane)
        _advance(batch, controls, 1)
    return [_state_tuple(world) for world in batch.worlds]


def _advance(batch, controls, n_steps):
    """Step the live lanes of ``batch`` under per-slot ``controls``."""
    throttle, brake, steering = (np.array(column)
                                 for column in zip(*controls))
    for _ in range(n_steps):
        rows = np.nonzero(batch.active)[0]
        batch.apply_controls(rows, throttle[rows], brake[rows],
                             steering[rows], DT)
        batch.step(DT)
        # Scattered every step, as at retirement: a world written back
        # mid-run must hold the same floats as its scalar twin.
        batch.scatter()


def _build_weave():
    """Two lane changes for one NPC and one for another, with a speed
    command: forks between them consume part of the script."""
    world = World.on_highway(ego_speed=27.0)
    road = world.road
    weaver = NPCVehicle(npc_id=1, x=25.0, y=road.lane_center(1), v=25.0)
    weaver.lane_commands += [
        LaneChangeCommand(t=0.5, target_y=road.lane_center(2),
                          duration=1.5),
        LaneChangeCommand(t=3.0, target_y=road.lane_center(1),
                          duration=2.0)]
    weaver.speed_commands.append(SpeedCommand(t=2.0, target=30.0))
    merger = NPCVehicle(npc_id=2, x=60.0, y=road.lane_center(0), v=22.0,
                        length=6.0, width=2.2, acceleration_limit=2.5)
    merger.lane_commands.append(
        LaneChangeCommand(t=1.5, target_y=road.lane_center(1),
                          duration=2.5))
    world.add_npc(weaver)
    world.add_npc(merger)
    return world


#: Builds of 0 (``empty_road``), 1, 2 and 3 (``adjacent_traffic``)
#: NPCs, ``stop_and_go``'s five speed commands, the single lane changes
#: of the cut-in and the reveal, and the weave's two.
BUILDS = {name: scenario_by_name(name).build
          for name in ("empty_road", "highway_cruise",
                       "lead_vehicle_cutin", "two_lead_reveal",
                       "stop_and_go", "adjacent_traffic")}
BUILDS["weave"] = _build_weave

#: A lane of a mixed batch: its build, the scalar steps its snapshot
#: was taken after (its fork tick), and its controls.
mixed_lanes = st.tuples(st.sampled_from(sorted(BUILDS)),
                        st.integers(0, 60), lane_controls)


def _forked(key, fork, controls):
    """A fresh build restored from a snapshot taken ``fork`` scalar
    steps in (a checkpoint fork; ``fork`` 0 is a fresh world)."""
    world = BUILDS[key]()
    for _ in range(fork):
        world.step(*controls, DT)
    lane = BUILDS[key]()
    lane.restore(world.snapshot())
    return lane


def _scalar(lane, n_steps):
    key, fork, controls = lane
    world = _forked(key, fork, controls)
    for _ in range(n_steps):
        world.step(*controls, DT)
    return _state_tuple(world)


class TestLockstepEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(scenario_names, batches, step_counts)
    def test_lanes_match_scalar_worlds_bitwise(self, name, controls,
                                               n_steps):
        scalar = _run_scalar(name, controls, n_steps)
        batched = _run_batched(name, controls, n_steps)
        assert batched == scalar    # tuple equality: exact floats

    @settings(max_examples=20, deadline=None)
    @given(scenario_names, batches, step_counts, st.randoms())
    def test_lane_order_is_irrelevant(self, name, controls, n_steps,
                                      rng):
        order = list(range(len(controls)))
        rng.shuffle(order)
        permuted = [controls[i] for i in order]
        straight = _run_batched(name, controls, n_steps)
        shuffled = _run_batched(name, permuted, n_steps)
        for lane, source in enumerate(order):
            assert shuffled[lane] == straight[source]


class TestLaneRetirement:
    @settings(max_examples=20, deadline=None)
    @given(scenario_names,
           st.lists(lane_controls, min_size=2, max_size=6),
           st.integers(1, 40), st.integers(1, 20), st.data())
    def test_retired_lanes_do_not_perturb_survivors(self, name, controls,
                                                    before, after, data):
        retired = data.draw(st.sets(
            st.integers(0, len(controls) - 1), min_size=1,
            max_size=len(controls) - 1))
        survivors = [lane for lane in range(len(controls))
                     if lane not in retired]
        full = _run_batched(name, controls, before + after,
                            retire_at=before, retired=sorted(retired))
        alone = _run_batched(name, [controls[lane] for lane in survivors],
                             before + after)
        for position, lane in enumerate(survivors):
            assert full[lane] == alone[position]


class TestMixedBatches:
    """Lanes of different scenarios share one batch."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(mixed_lanes, min_size=1, max_size=6), step_counts)
    def test_mixed_lanes_match_scalar_worlds_bitwise(self, lanes,
                                                     n_steps):
        batch = BatchWorldState([_forked(*lane) for lane in lanes])
        _advance(batch, [controls for _, _, controls in lanes], n_steps)
        assert [_state_tuple(world) for world in batch.worlds] == \
            [_scalar(lane, n_steps) for lane in lanes]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(mixed_lanes, min_size=1, max_size=5), mixed_lanes,
           st.integers(1, 30), st.integers(1, 30), st.data())
    def test_refilled_slot_matches_scalar_world(self, lanes, newcomer,
                                                before, after, data):
        """A released slot refilled by a lane of another build (maybe
        a larger roster, sized for by ``references``) runs as that lane
        alone, and the survivors as before."""
        slot = data.draw(st.integers(0, len(lanes) - 1))
        keys = {key for key, _, _ in lanes + [newcomer]}
        batch = BatchWorldState([_forked(*lane) for lane in lanes],
                                references=[BUILDS[key]()
                                            for key in sorted(keys)])
        controls = [controls for _, _, controls in lanes]
        _advance(batch, controls, before)
        batch.release(slot)
        batch.attach(slot, _forked(*newcomer))
        controls[slot] = newcomer[2]
        _advance(batch, controls, after)
        expected = [_scalar(lane, before + after) for lane in lanes]
        expected[slot] = _scalar(newcomer, after)
        assert [_state_tuple(world) for world in batch.worlds] == expected

    def test_attach_needs_the_room(self):
        """A lane with a larger roster than the batch was sized for is
        refused, as is one on another road or with another ego."""
        batch = BatchWorldState([BUILDS["highway_cruise"]()])
        batch.release(0)
        with pytest.raises(ValueError):
            batch.attach(0, BUILDS["adjacent_traffic"]())
        wide = World.on_highway(ego_speed=30.0, road=Road(n_lanes=4))
        with pytest.raises(ValueError):
            batch.attach(0, wide)


#: An ego anywhere near the origin and at any small heading, on or just
#: off the road: where a padded column would count if padding were a
#: position rather than NaN.
teleports = st.tuples(st.floats(-8.0, 8.0), st.floats(-1.5, 12.5),
                      st.floats(-0.3, 0.3))


def _teleported(key, x, y, theta):
    world = BUILDS[key]()
    world.ego.state = replace(world.ego.state, x=x, y=y, theta=theta)
    return world


class TestPaddedColumns:
    """Padded NPC columns never count: every batched ground-truth
    reader equals the scalar world's, lane for lane."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(BUILDS)), teleports),
                    min_size=1, max_size=6))
    def test_readers_match_scalar_worlds(self, lanes):
        worlds = [_teleported(key, *pose) for key, pose in lanes]
        batch = BatchWorldState(worlds)
        gap, lead_speed, lateral_free = batch.safety_inputs()
        for lane, world in enumerate(worlds):
            _, _, _, want_gap, want_lead, want_free = \
                world_safety_inputs(world)
            assert gap[lane] == want_gap
            lead = float(lead_speed[lane])
            assert (None if lead != lead else lead) == want_lead
            assert lateral_free[lane] == want_free
        assert batch.collided_mask().tolist() == \
            [world.in_collision() for world in worlds]
        assert batch.off_road_mask().tolist() == \
            [world.off_road() for world in worlds]
