"""Property-based tests (hypothesis): batched lanes == scalar worlds.

The batched engine's contract is *bitwise* equality with the scalar
:class:`~repro.sim.world.World` oracle, lane for lane, under any lane
count, lane order, or retirement pattern.  These properties fuzz that
contract directly at the
:class:`~repro.sim.batch.BatchWorldState` level (the campaign-level
equivalence suite covers the full driver stack).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BatchWorldState
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
    """Every float the engines advance, as exact Python floats."""
    s = world.ego.state
    return ((s.x, s.y, s.v, s.theta, s.phi), world.time,
            tuple((npc.x, npc.y, npc.v, npc._lane_start_y,
                   len(npc.lane_commands)) for npc in world.npcs))


def _run_scalar(name, controls, n_steps):
    worlds = _worlds(name, len(controls))
    for _ in range(n_steps):
        for world, (throttle, brake, steering) in zip(worlds, controls):
            world.step(throttle, brake, steering, DT)
    return [_state_tuple(world) for world in worlds]


def _run_batched(name, controls, n_steps, retire_at=None, retired=()):
    worlds = _worlds(name, len(controls))
    batch = BatchWorldState(worlds,
                            reference=scenario_by_name(name).make_world())
    throttle, brake, steering = (np.array(column)
                                 for column in zip(*controls))
    for step in range(n_steps):
        if retire_at is not None and step == retire_at:
            for lane in retired:
                batch.deactivate(lane)
        rows = np.nonzero(batch.active)[0]
        batch.apply_controls(rows, throttle[rows], brake[rows],
                             steering[rows], DT)
        batch.step(DT)
        # Scattered every step, as at retirement: a world written back
        # mid-run must hold the same floats as its scalar twin.
        batch.scatter()
    return [_state_tuple(world) for world in batch.worlds]


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
