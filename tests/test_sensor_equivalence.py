"""The merged sensor draws against the per-draw and per-obstacle reads.

``SensorSuite.measure`` (and, per lane, the batched engine's sensing)
draws one ``random()`` per camera-visible obstacle and merges every run
of normals between two of them into one ``standard_normal(k)`` call,
the 6 ego terms joining the last run.  These tests pin that this is
bit-for-bit the one-``normal()``-per-term stream of
:func:`reference.reference_measure` and the one-call-per-obstacle
stream of :func:`reference.reference_packed_bundle`, generator state
included, and pin the numpy identities the merging rests on.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_measure, reference_packed_bundle
from repro.ads.sensors import SensorSuite, SensorSuiteConfig, noisy_bundle
from repro.sim import NPCVehicle, World, default_scenarios

SIGMAS = (0.35, 0.6, 0.25, 0.8, 0.08, 0.004, 0.02, 0.002, 1e-300, 7.5)


# -- the numpy identities -----------------------------------------------------

class TestPackedDrawIdentities:
    """``standard_normal(k)`` is ``k`` sequential ``normal(0, s)`` draws
    read as ``0.0 + s * z``, also between interleaved ``random()``."""

    @staticmethod
    def _replay(seed, ops):
        """Run ``ops`` packed on one generator and per draw on another;
        return both generators."""
        packed = np.random.default_rng(seed)
        serial = np.random.default_rng(seed)
        for op, sigma_index in ops:
            if op == 0:
                assert packed.random() == serial.random()
                continue
            block = packed.standard_normal(op)
            for i, (z, z_array) in enumerate(zip(block.tolist(), block)):
                sigma = SIGMAS[(sigma_index + i) % len(SIGMAS)]
                expected = serial.normal(0, sigma)
                assert expected == 0.0 + sigma * z
                assert expected == 0.0 + sigma * z_array
        return packed, serial

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 + 5])
    def test_blocks_equal_sequential_draws(self, seed):
        ops = [(k, k) for k in (1, 2, 3, 5, 6, 64)]
        packed, serial = self._replay(seed, ops)
        assert packed.bit_generator.state == serial.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_sensor_shaped_stream_with_interleaved_uniforms(self, seed):
        # Three obstacles (camera+radar, dropped camera + radar, radar
        # only), then the six ego terms: the shape measure() draws.
        ops = [(0, 0), (5, 0), (0, 0), (3, 2), (3, 2), (6, 3)] * 50
        packed, serial = self._replay(seed, ops)
        assert packed.bit_generator.state == serial.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 63),
           st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    max_size=40))
    def test_any_interleaving(self, seed, ops):
        packed, serial = self._replay(seed, ops)
        assert packed.bit_generator.state == serial.bit_generator.state


# -- measure() against the reference read ------------------------------------

def _pair(config, seed):
    """Two identically seeded suites: packed and reference."""
    return (SensorSuite(config, np.random.default_rng(seed)),
            SensorSuite(config, np.random.default_rng(seed)))


def _assert_same_read(packed, reference, world):
    bundle = packed.measure(world)
    expected = reference_measure(reference, world)
    assert bundle == expected
    assert (packed.rng.bit_generator.state
            == reference.rng.bit_generator.state)
    assert packed._last_speed == reference._last_speed
    assert packed._last_time == reference._last_time
    return bundle


#: Obstacle offsets ahead of the ego that sit on the range gates (the
#: default camera and radar ranges, 150 m and 220 m) or just past them,
#: plus behind, level and ordinary positions.
EDGE_AHEAD = (150.0, 150.25, 149.75, 220.0, 220.25, 219.75, 0.0, -8.0,
              1.0, 12.5, 60.0, 400.0)


def _edge_world(n_obstacles):
    """A world with ``n_obstacles`` NPCs, repositioned each tick by
    :func:`_reposition`."""
    world = World.on_highway(ego_speed=25.0)
    for npc_id in range(n_obstacles):
        world.add_npc(NPCVehicle(npc_id=npc_id, x=0.0, y=0.0, v=0.0))
    return world


def _reposition(world, rng):
    """Teleport ego and NPCs: range-gate edges, stacked same-lane NPCs
    (occlusion) and a clock that sometimes stands still."""
    road = world.road
    ego_x = float(rng.integers(0, 4000)) + 0.5   # exact differences
    lane = int(rng.integers(0, road.n_lanes))
    world.ego.state = replace(world.ego.state, x=ego_x,
                              y=road.lane_center(lane),
                              v=float(rng.uniform(0.0, 40.0)),
                              theta=float(rng.uniform(-0.05, 0.05)),
                              phi=float(rng.uniform(-0.1, 0.1)))
    for npc in world.npcs:
        if rng.random() < 0.5:
            ahead = EDGE_AHEAD[int(rng.integers(len(EDGE_AHEAD)))]
        else:
            ahead = float(rng.uniform(-20.0, 260.0))
        npc.x = ego_x + ahead
        # Mostly the ego lane, so nearer NPCs shadow farther ones.
        npc_lane = lane if rng.random() < 0.6 else int(
            rng.integers(0, road.n_lanes))
        npc.y = road.lane_center(npc_lane) + float(rng.uniform(-1.6, 1.6))
        npc.v = float(rng.uniform(0.0, 35.0))
    if rng.random() >= 0.1:
        world.time = round(world.time + 0.05, 10)
    world.invalidate_obstacles()


class TestMeasureMatchesReference:
    @pytest.mark.parametrize("n_obstacles", [0, 1, 2, 3])
    @pytest.mark.parametrize("dropout", [0.02, 0.4])
    def test_teleported_worlds(self, n_obstacles, dropout):
        config = SensorSuiteConfig(camera_dropout=dropout)
        packed, reference = _pair(config, seed=100 + n_obstacles)
        layout = np.random.default_rng(n_obstacles)
        world = _edge_world(n_obstacles)
        seen = {"camera": 0, "radar": 0, "occluded": 0, "dropped": 0}
        for _ in range(400):
            _reposition(world, layout)
            bundle = _assert_same_read(packed, reference, world)
            seen["camera"] += len(bundle.camera)
            seen["radar"] += len(bundle.radar)
            ego_x = world.ego.state.x
            obstacles = world.obstacles()
            for obstacle in obstacles:
                ahead = obstacle.x - ego_x
                if 0.0 < ahead <= config.radar_range:
                    if packed._occluded(obstacle, obstacles, ego_x):
                        seen["occluded"] += 1
                    elif ahead <= config.camera_range and not any(
                            d.v == obstacle.v for d in bundle.camera):
                        seen["dropped"] += 1
        if n_obstacles:
            assert seen["camera"] and seen["radar"]
            assert seen["dropped"] or dropout < 0.1
        if n_obstacles >= 2:
            assert seen["occluded"]

    def test_range_gate_edges_are_inclusive(self):
        config = SensorSuiteConfig(camera_dropout=0.0)
        packed, reference = _pair(config, seed=5)
        world = World.on_highway(ego_speed=20.0)
        y = world.ego.state.y
        for npc_id, (ahead, dy) in enumerate(((150.0, 2.0),
                                              (220.0, -2.0),
                                              (220.5, 4.0))):
            world.add_npc(NPCVehicle(npc_id=npc_id, x=0.0 + ahead,
                                     y=y + dy, v=10.0))
        bundle = _assert_same_read(packed, reference, world)
        assert [d.v for d in bundle.camera] == [10.0]
        assert len(bundle.radar) == 2

    @pytest.mark.parametrize("scenario", default_scenarios(),
                             ids=lambda s: s.name)
    def test_scenario_drives(self, scenario):
        # Stepped worlds: traffic scripts, cut-ins and reveals move the
        # bodies through the gates and shadows on their own.
        packed, reference = _pair(SensorSuiteConfig(camera_dropout=0.1),
                                  seed=9)
        world = scenario.make_world()
        for tick in range(300):
            _assert_same_read(packed, reference, world)
            world.step(0.2 if tick % 40 < 25 else 0.0,
                       0.0 if tick % 40 < 25 else 0.4,
                       0.002 * ((tick % 7) - 3), 0.05)


# -- noisy_bundle against the per-obstacle draws ------------------------------

def _visible(rng, n, radar_only_share):
    """``n`` visible-obstacle tuples, camera+radar or radar only."""
    rows = []
    for _ in range(n):
        camera = bool(rng.random() >= radar_only_share)
        rows.append((float(rng.uniform(1.0, 220.0)),
                     float(rng.uniform(-6.0, 6.0)),
                     float(rng.uniform(0.0, 35.0)), camera, True))
    return rows


class TestMergedRuns:
    """:func:`noisy_bundle` merges normal draws across obstacles; the
    bundle and the generator's end state must equal one
    ``standard_normal`` call per obstacle."""

    @staticmethod
    def _assert_same(visible, cfg, seed):
        merged = np.random.default_rng(seed)
        packed = np.random.default_rng(seed)
        args = (1.5, visible, 100.0, 3.5, 25.0, 0.01, -0.4, 0.002, 1.75)
        bundle = noisy_bundle(merged, cfg, *args)
        assert bundle == reference_packed_bundle(packed, cfg, *args)
        assert merged.bit_generator.state == packed.bit_generator.state
        return bundle

    def test_zero_obstacles(self):
        bundle = self._assert_same([], SensorSuiteConfig(), seed=1)
        assert bundle.camera == [] and bundle.radar == []

    @pytest.mark.parametrize("pattern", [
        "C", "R", "RR", "CRC", "RCR", "CRRC", "RRCRR", "CCCC"])
    @pytest.mark.parametrize("dropout", [0.0, 0.5, 1.0])
    def test_radar_only_between_camera_obstacles(self, pattern, dropout):
        cfg = SensorSuiteConfig(camera_dropout=dropout)
        for seed in range(20):
            visible = [(10.0 * i + 5.0, 0.5 * i, 20.0 + i, kind == "C",
                        True) for i, kind in enumerate(pattern)]
            bundle = self._assert_same(visible, cfg, seed)
            assert len(bundle.radar) == len(pattern)
            if dropout == 1.0:      # every camera read dropped
                assert bundle.camera == []

    def test_camera_only_obstacles(self):
        # Past the radar gate nothing is camera-only (camera range <
        # radar range), but noisy_bundle takes any flags.
        visible = [(5.0, 0.0, 10.0, True, False),
                   (15.0, 1.0, 11.0, False, True),
                   (25.0, 2.0, 12.0, True, False)]
        for dropout in (0.0, 0.5, 1.0):
            for seed in range(20):
                self._assert_same(
                    visible, SensorSuiteConfig(camera_dropout=dropout), seed)

    @pytest.mark.parametrize("dropout", [0.02, 0.4, 1.0])
    def test_random_mixes(self, dropout):
        cfg = SensorSuiteConfig(camera_dropout=dropout)
        layout = np.random.default_rng(17)
        for seed in range(300):
            visible = _visible(layout, int(layout.integers(0, 7)),
                               radar_only_share=0.4)
            self._assert_same(visible, cfg, seed)
