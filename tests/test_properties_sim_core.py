"""Property-based tests (hypothesis) for the simulator and safety model."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_in_collision
from repro.core import (SafetyConfig, longitudinal_envelope,
                        safety_potential, steering_excursion,
                        stopping_displacement)
from repro.sim import (Obstacle, VehicleState, World,
                       batched_collision_prescreen, obb_overlap, rk4_step,
                       longitudinal_safe_distance)
from repro.sim.collision import aabb_half_extents, collision_candidates

speeds = st.floats(0.0, 45.0)
headings = st.floats(-0.3, 0.3)
steerings = st.floats(-0.55, 0.55)


class TestKinematicsProperties:
    @settings(max_examples=50, deadline=None)
    @given(speeds, steerings)
    def test_braking_reduces_speed(self, v, phi):
        state = VehicleState(v=v, phi=phi)
        after = rk4_step(state, -3.0, 0.0, 2.8, dt=0.1)
        assert after.v <= v + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(speeds, st.floats(-3.0, 3.0))
    def test_speed_never_negative(self, v, accel):
        state = VehicleState(v=v)
        for _ in range(20):
            state = rk4_step(state, accel, 0.0, 2.8, dt=0.25)
        assert state.v >= 0.0

    @settings(max_examples=50, deadline=None)
    @given(speeds, headings)
    def test_forward_motion_along_heading(self, v, theta):
        state = VehicleState(v=v, theta=theta)
        after = rk4_step(state, 0.0, 0.0, 2.8, dt=0.1)
        displacement = np.hypot(after.x, after.y)
        assert displacement <= v * 0.1 + 1e-6


class TestStoppingProperties:
    @settings(max_examples=40, deadline=None)
    @given(speeds)
    def test_straight_stop_matches_closed_form(self, v):
        stop = stopping_displacement(v, 0.0, 0.0)
        assert abs(stop.longitudinal - v ** 2 / 12.0) < max(
            0.02 * v ** 2 / 12.0, 0.3)

    @settings(max_examples=40, deadline=None)
    @given(speeds, speeds)
    def test_monotone_in_speed(self, v1, v2):
        lo, hi = sorted([v1, v2])
        d_lo = stopping_displacement(lo, 0.0, 0.0).longitudinal
        d_hi = stopping_displacement(hi, 0.0, 0.0).longitudinal
        assert d_hi >= d_lo - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(speeds, steerings)
    def test_lateral_antisymmetric_in_steering(self, v, phi):
        left = stopping_displacement(v, 0.0, phi).lateral
        right = stopping_displacement(v, 0.0, -phi).lateral
        assert abs(left + right) < 1e-6 + 0.02 * abs(left)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(5.0, 45.0), st.floats(0.005, 0.5))
    def test_steering_shortens_longitudinal_stop(self, v, phi):
        straight = stopping_displacement(v, 0.0, 0.0).longitudinal
        curved = stopping_displacement(v, 0.0, phi).longitudinal
        assert curved <= straight + 1e-6


class TestEnvelopeProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 200.0), speeds)
    def test_envelope_at_least_gap(self, gap, lead_v):
        assert longitudinal_envelope(gap, lead_v) >= min(gap, 250.0) - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 200.0), speeds, speeds)
    def test_envelope_monotone_in_lead_speed(self, gap, v1, v2):
        lo, hi = sorted([v1, v2])
        assert (longitudinal_envelope(gap, hi)
                >= longitudinal_envelope(gap, lo) - 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(speeds, st.floats(1.0, 200.0), speeds)
    def test_potential_monotone_in_gap(self, v, gap, lead_v):
        near = safety_potential(v, 0.0, 0.0, gap, lead_v, 3.0)
        far = safety_potential(v, 0.0, 0.0, gap + 10.0, lead_v, 3.0)
        assert far.longitudinal >= near.longitudinal - 1e-9


class TestExcursionProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(5.0, 40.0), st.floats(0.0, 0.55))
    def test_excursion_non_negative(self, v, phi):
        assert steering_excursion(v, phi, window=0.2) >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(5.0, 40.0))
    def test_excursion_grows_with_angle(self, v):
        small = steering_excursion(v, 0.05, window=0.2)
        large = steering_excursion(v, 0.5, window=0.2)
        assert large >= small - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 0.55))
    def test_excursion_grows_with_window(self, phi):
        short = steering_excursion(30.0, phi, window=0.1)
        long = steering_excursion(30.0, phi, window=0.6)
        assert long >= short - 1e-9


class TestGeometryProperties:
    boxes = st.tuples(st.floats(-30, 30), st.floats(-30, 30),
                      st.floats(0.2, np.pi))

    @settings(max_examples=50, deadline=None)
    @given(boxes, boxes)
    def test_overlap_symmetric(self, a, b):
        def corners(cx, cy, angle):
            base = np.array([[2.4, 0.95], [2.4, -0.95],
                             [-2.4, -0.95], [-2.4, 0.95]])
            c, s = np.cos(angle), np.sin(angle)
            return base @ np.array([[c, -s], [s, c]]).T + np.array([cx, cy])
        ca, cb = corners(*a), corners(*b)
        assert obb_overlap(ca, cb) == obb_overlap(cb, ca)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 240), st.floats(0.0, 11.0))
    def test_safe_distance_never_exceeds_sensor_range(self, x, y):
        obstacle = Obstacle(1, x=x, y=y)
        gap = longitudinal_safe_distance(0.0, 5.55, 4.8, 1.9, [obstacle])
        assert gap <= 250.0


class TestCollisionPrescreenOracle:
    """``World.in_collision`` (bounds prescreen, then SAT) against the
    unscreened SAT over every obstacle (``reference_in_collision``)."""

    ego_headings = st.floats(-np.pi / 2, np.pi / 2)
    obstacle_headings = st.one_of(st.just(0.0), st.floats(-np.pi, np.pi))
    sizes = st.tuples(st.floats(0.5, 18.0), st.floats(0.4, 3.5))

    @staticmethod
    def _world(ego_x, ego_y, ego_theta, obstacles):
        world = World.on_highway()
        world.ego.state = VehicleState(x=ego_x, y=ego_y, theta=ego_theta)
        # The obstacle cache is what in_collision reads; seeding it
        # directly lets the fuzz use rotated bodies (NPCs are always
        # axis-aligned).
        world._obstacle_cache = list(obstacles)
        return world

    @staticmethod
    def _touching_distance(ego_fp, obstacle, ux, uy):
        """Bisect the offset along (ux, uy) at which ``obstacle`` moved
        from the ego centre stops overlapping the ego."""
        low, high = 0.0, 40.0
        for _ in range(80):
            mid = (low + high) / 2.0
            moved = replace(obstacle, x=obstacle.x + mid * ux,
                            y=obstacle.y + mid * uy)
            if obb_overlap(ego_fp, moved.footprint()):
                low = mid
            else:
                high = mid
        return low

    def _assert_prescreens_keep_overlaps(self, world):
        state = world.ego.state
        params = world.ego.params
        kept = collision_candidates(state.x, state.y, state.theta,
                                    params.length, params.width,
                                    world.obstacles())
        ego = world.ego.footprint()
        for obstacle in world.obstacles():
            if not obb_overlap(ego, obstacle.footprint()):
                continue
            assert obstacle in kept
            if obstacle.theta == 0.0:
                assert batched_collision_prescreen(
                    np.array([state.x]), np.array([state.y]),
                    np.array([state.theta]), params.length, params.width,
                    np.array([[obstacle.x]]), np.array([[obstacle.y]]),
                    [obstacle.length], [obstacle.width])[0]

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-500.0, 500.0), st.floats(-20.0, 20.0), ego_headings,
           st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(-8.0, 8.0),
                              obstacle_headings, sizes), max_size=4))
    def test_random_placements(self, ego_x, ego_y, theta, bodies):
        obstacles = [Obstacle(i, x=ego_x + dx, y=ego_y + dy, theta=angle,
                              length=length, width=width)
                     for i, (dx, dy, angle, (length, width))
                     in enumerate(bodies)]
        world = self._world(ego_x, ego_y, theta, obstacles)
        assert world.in_collision() == reference_in_collision(world)
        self._assert_prescreens_keep_overlaps(world)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-500.0, 500.0), st.floats(-20.0, 20.0), ego_headings,
           obstacle_headings, sizes, st.floats(-np.pi, np.pi),
           st.floats(-1e-9, 1e-9))
    def test_near_touching(self, ego_x, ego_y, theta, angle, size,
                           direction, nudge):
        ux, uy = np.cos(direction), np.sin(direction)
        length, width = size
        probe = Obstacle(0, x=ego_x, y=ego_y, theta=angle, length=length,
                         width=width)
        ego_fp = self._world(ego_x, ego_y, theta, []).ego.footprint()
        touch = self._touching_distance(ego_fp, probe, ux, uy) + nudge
        obstacle = replace(probe, x=ego_x + touch * ux,
                           y=ego_y + touch * uy)
        world = self._world(ego_x, ego_y, theta, [obstacle])
        assert world.in_collision() == reference_in_collision(world)
        self._assert_prescreens_keep_overlaps(world)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-500.0, 500.0), ego_headings,
           st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi]),
           st.floats(-1e-9, 1e-9), st.booleans())
    def test_face_contact_on_the_bounds(self, ego_x, theta, angle, nudge,
                                        along_x):
        # Obstacle bounds exactly meet the ego's bounds on one axis: the
        # prescreen's own decision boundary, where its slack matters.
        world = self._world(ego_x, 5.0, theta, [])
        params = world.ego.params
        half_x, half_y = aabb_half_extents(params.length, params.width,
                                           np.cos(theta), np.sin(theta))
        reach_x, reach_y = aabb_half_extents(4.8, 1.9, np.cos(angle),
                                             np.sin(angle))
        if along_x:
            dx, dy = half_x + reach_x + nudge, 0.0
        else:
            dx, dy = 0.0, half_y + reach_y + nudge
        obstacle = Obstacle(0, x=ego_x + dx, y=5.0 + dy, theta=angle)
        world = self._world(ego_x, 5.0, theta, [obstacle])
        assert world.in_collision() == reference_in_collision(world)
        self._assert_prescreens_keep_overlaps(world)
