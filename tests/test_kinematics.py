"""Tests for the bicycle model and RK4 integration."""

import struct

import numpy as np
import pytest
from reference import reference_rk4_step

from repro.sim import (Vehicle, VehicleParameters, VehicleState,
                       bicycle_derivatives, fastmath, rk4_step,
                       simulate_constant_controls)
from repro.sim.fastmath import clip_scalar

WHEELBASE = 2.8


class TestState:
    def test_array_round_trip(self):
        state = VehicleState(1.0, 2.0, 3.0, 0.1, 0.05)
        assert VehicleState.from_array(state.as_array()) == state

    def test_with_speed(self):
        state = VehicleState(v=10.0).with_speed(5.0)
        assert state.v == 5.0


class TestDerivatives:
    def test_straight_motion(self):
        deriv = bicycle_derivatives(np.array([0, 0, 10.0, 0.0, 0.0]),
                                    acceleration=0.0, steering_rate=0.0,
                                    wheelbase=WHEELBASE)
        assert np.allclose(deriv, [10.0, 0.0, 0.0, 0.0, 0.0])

    def test_heading_rotates_velocity(self):
        deriv = bicycle_derivatives(
            np.array([0, 0, 10.0, np.pi / 2, 0.0]), 0.0, 0.0, WHEELBASE)
        assert deriv[0] == pytest.approx(0.0, abs=1e-12)
        assert deriv[1] == pytest.approx(10.0)

    def test_steering_creates_yaw_rate(self):
        deriv = bicycle_derivatives(np.array([0, 0, 10.0, 0.0, 0.1]),
                                    0.0, 0.0, WHEELBASE)
        assert deriv[3] == pytest.approx(10.0 * np.tan(0.1) / WHEELBASE)

    def test_negative_speed_clamped_in_derivative(self):
        deriv = bicycle_derivatives(np.array([0, 0, -1.0, 0.0, 0.0]),
                                    0.0, 0.0, WHEELBASE)
        assert deriv[0] == 0.0


class TestRK4:
    def test_constant_speed_straight_line(self):
        state = VehicleState(v=20.0)
        state = rk4_step(state, 0.0, 0.0, WHEELBASE, dt=1.0)
        assert state.x == pytest.approx(20.0)
        assert state.y == pytest.approx(0.0, abs=1e-12)

    def test_constant_acceleration_distance(self):
        # x = v0 t + a t^2 / 2 is exact for RK4 on this system.
        state = VehicleState(v=10.0)
        for _ in range(100):
            state = rk4_step(state, 2.0, 0.0, WHEELBASE, dt=0.01)
        assert state.v == pytest.approx(12.0)
        assert state.x == pytest.approx(10.0 * 1 + 2.0 * 0.5, rel=1e-6)

    def test_braking_does_not_reverse(self):
        state = VehicleState(v=1.0)
        for _ in range(100):
            state = rk4_step(state, -5.0, 0.0, WHEELBASE, dt=0.05)
        assert state.v == 0.0
        assert state.x > 0.0

    def test_stopped_vehicle_stays_put(self):
        state = VehicleState(v=0.0)
        state = rk4_step(state, -3.0, 0.0, WHEELBASE, dt=0.5)
        assert state.x == pytest.approx(0.0, abs=1e-6)

    def test_circular_motion_radius(self):
        # Constant speed and steering trace a circle of radius L / tan(phi).
        phi = 0.2
        speed = 10.0
        radius = WHEELBASE / np.tan(phi)
        state = VehicleState(v=speed, phi=phi)
        states = simulate_constant_controls(state, 0.0, 0.0, WHEELBASE,
                                            dt=0.005,
                                            n_steps=2000)
        xs = np.array([s.x for s in states])
        ys = np.array([s.y for s in states])
        # Circle center is at (0, radius) for theta0 = 0.
        distances = np.sqrt(xs ** 2 + (ys - radius) ** 2)
        assert np.allclose(distances, radius, rtol=1e-4)

    def test_heading_integral_matches_turn(self):
        phi = 0.1
        state = VehicleState(v=5.0, phi=phi)
        for _ in range(100):
            state = rk4_step(state, 0.0, 0.0, WHEELBASE, dt=0.01)
        expected = 5.0 * np.tan(phi) / WHEELBASE * 1.0
        assert state.theta == pytest.approx(expected, rel=1e-6)

    def test_steering_rate_integrates(self):
        state = VehicleState(v=10.0)
        state = rk4_step(state, 0.0, 0.05, WHEELBASE, dt=1.0)
        assert state.phi == pytest.approx(0.05)

    def test_simulate_returns_initial_state_first(self):
        state = VehicleState(v=3.0)
        states = simulate_constant_controls(state, 0.0, 0.0, WHEELBASE,
                                            dt=0.1, n_steps=5)
        assert states[0] == state
        assert len(states) == 6


class TestScalarPathRegression:
    """The allocation-free scalar hot path is bit-for-bit stable."""

    @staticmethod
    def _reference_rk4_step(state, acceleration, steering_rate,
                            wheelbase, dt):
        """Straightforward array-based RK4 (one allocation per stage).

        The shape the scalar path had before the allocation-free
        rewrite; :func:`rk4_step` must reproduce it bit for bit.
        """
        arr = state.as_array()
        k1 = bicycle_derivatives(arr, acceleration, steering_rate,
                                 wheelbase)
        k2 = bicycle_derivatives(arr + 0.5 * dt * k1, acceleration,
                                 steering_rate, wheelbase)
        k3 = bicycle_derivatives(arr + 0.5 * dt * k2, acceleration,
                                 steering_rate, wheelbase)
        k4 = bicycle_derivatives(arr + dt * k3, acceleration,
                                 steering_rate, wheelbase)
        new = arr + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if new[2] < 0.0:
            new[2] = 0.0
        return VehicleState.from_array(new)

    def test_rk4_step_bitwise_equals_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = VehicleState(
                x=float(rng.normal(scale=100.0)),
                y=float(rng.normal(scale=3.0)),
                v=float(rng.uniform(-1.0, 40.0)),
                theta=float(rng.normal(scale=0.3)),
                phi=float(rng.normal(scale=0.1)))
            accel = float(rng.uniform(-6.0, 3.5))
            rate = float(rng.uniform(-0.5, 0.5))
            dt = float(rng.choice([0.01, 0.05, 0.1]))
            fast = rk4_step(state, accel, rate, WHEELBASE, dt)
            ref = self._reference_rk4_step(state, accel, rate,
                                           WHEELBASE, dt)
            assert fast == ref    # dataclass equality: all five floats

    def test_rk4_trajectory_bitwise_equals_reference(self):
        # Divergence compounds over steps, so chain the comparison.
        fast = ref = VehicleState(v=22.0, phi=0.02)
        for step in range(500):
            accel = 1.5 if step < 250 else -4.0
            fast = rk4_step(fast, accel, 0.01, WHEELBASE, 0.02)
            ref = self._reference_rk4_step(ref, accel, 0.01,
                                           WHEELBASE, 0.02)
            assert fast == ref


def _bits(state: VehicleState) -> bytes:
    """A state's five doubles as bytes: signed zeros and NaNs count."""
    return struct.pack("<5d", state.x, state.y, state.v, state.theta,
                       state.phi)


def _oracle_cases(n, seed):
    """``n`` seeded ``(state, acceleration, steering_rate, dt)`` cases.

    Besides broad random draws they cover the corners of the
    straight-line form: speeds that cross 0 inside the step (one, two
    or all stages clamped), ``v`` of exactly ``+0.0``/``-0.0``,
    steering pinned at the ±0.55 rad mechanical limit, zero and
    negative-zero steering rates, and large headings.
    """
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 45.0, n)
    kind = rng.integers(0, 5, n)
    v[kind == 1] = rng.uniform(0.0, 0.3, (kind == 1).sum())
    v[kind == 2] = rng.choice([0.0, -0.0], (kind == 2).sum())
    accel = rng.uniform(-8.0, 4.0, n)
    accel[kind == 1] = rng.uniform(-8.0, -1.0, (kind == 1).sum())
    phi = rng.uniform(-0.6, 0.6, n)
    pinned = rng.random(n) < 0.2
    phi[pinned] = rng.choice([0.55, -0.55, 0.0, -0.0], pinned.sum())
    rate = rng.uniform(-0.6, 0.6, n)
    still = rng.random(n) < 0.2
    rate[still] = rng.choice([0.0, -0.0], still.sum())
    theta = rng.normal(0.0, 0.5, n)
    theta[kind == 3] = rng.uniform(-40.0, 40.0, (kind == 3).sum())
    x = rng.normal(0.0, 500.0, n)
    y = rng.normal(0.0, 5.0, n)
    dt = rng.choice([0.05, 0.01, 0.1, 0.5], n)
    for row in zip(x.tolist(), y.tolist(), v.tolist(), theta.tolist(),
                   phi.tolist(), accel.tolist(), rate.tolist(),
                   dt.tolist()):
        yield VehicleState(*row[:5]), row[5], row[6], row[7]


class TestRk4Oracle:
    """The straight-line :func:`rk4_step` against the four-call
    :func:`reference.reference_rk4_step`, bit for bit."""

    def test_seeded_states(self):
        clamped = crossing = 0
        for state, accel, rate, dt in _oracle_cases(100_000, seed=23):
            fast = rk4_step(state, accel, rate, WHEELBASE, dt)
            assert _bits(fast) == _bits(reference_rk4_step(
                state, accel, rate, WHEELBASE, dt)), (state, accel, rate,
                                                      dt)
            clamped += fast.v == 0.0
            crossing += state.v > 0.0 and state.v + dt * accel < 0.0
        assert clamped > 1000 and crossing > 1000

    def test_numpy_trig_when_the_gate_fails(self, monkeypatch):
        monkeypatch.setattr(fastmath, "_TRIG_EXACT", False)
        assert not fastmath.numpy_trig_exact()
        for state, accel, rate, dt in _oracle_cases(10_000, seed=5):
            assert _bits(rk4_step(state, accel, rate, WHEELBASE, dt)) == \
                _bits(reference_rk4_step(state, accel, rate, WHEELBASE, dt))

    def test_apply_actuation_clamps(self):
        """One state per step, with the ``max_speed`` and steering-angle
        clamps of the old build-then-replace sequence."""
        params = VehicleParameters(max_speed=20.0)
        rng = np.random.default_rng(3)
        capped = 0
        for _ in range(3000):
            state = VehicleState(x=float(rng.normal(0.0, 50.0)),
                                 y=float(rng.normal(0.0, 2.0)),
                                 v=float(rng.uniform(10.0, 20.0)),
                                 theta=float(rng.normal(0.0, 0.2)),
                                 phi=float(rng.uniform(-0.55, 0.55)))
            throttle, brake = (float(p) for p in rng.uniform(-0.2, 1.2, 2))
            steering = float(rng.uniform(-0.8, 0.8))
            dt = float(rng.choice([0.05, 0.5, 1.0]))
            vehicle = Vehicle(state=state, params=params)
            accel, rate = vehicle.controls_for(throttle, brake, steering,
                                               dt)
            ref = reference_rk4_step(state, accel, rate, params.wheelbase,
                                     dt)
            if ref.v > params.max_speed:
                ref = ref.with_speed(params.max_speed)
                capped += 1
            ref = VehicleState(ref.x, ref.y, ref.v, ref.theta, clip_scalar(
                ref.phi, -params.max_steering_angle,
                params.max_steering_angle))
            assert _bits(vehicle.apply_actuation(throttle, brake, steering,
                                                 dt)) == _bits(ref)
            assert vehicle.state is not state
        assert capped > 50


class TestClipScalar:
    """``clip_scalar`` must equal ``float(np.clip(...))`` bitwise.

    The contract :mod:`repro.sim.fastmath` promises: every IEEE-754
    double *value* — signed zeros, NaNs, infinities, denormals — over
    every ordered bound pair (``lo <= hi``, signed zeros in either
    slot).  NaN or inverted bounds are outside the contract: numpy's
    ``minimum(maximum(...))`` composition answers those differently,
    and no call site can produce them.
    """

    CORNERS = [0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"),
               float("nan"), 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 1e308, -1e308, 0.5, -0.5]
    BOUNDS = [(-1.0, 1.0), (0.0, 1.0), (0.0, -0.0), (-0.0, 0.0),
              (-0.0, -0.0), (0.0, 0.0), (float("-inf"), float("inf")),
              (float("-inf"), 0.0), (-0.0, float("inf"))]

    @staticmethod
    def _bits(value: float) -> bytes:
        return struct.pack("<d", value)

    def test_corner_inputs_bitwise(self):
        for low, high in self.BOUNDS:
            for value in self.CORNERS:
                ours = clip_scalar(value, low, high)
                theirs = float(np.clip(value, low, high))
                assert self._bits(ours) == self._bits(theirs), \
                    (value, low, high, ours, theirs)

    def test_random_inputs_bitwise(self):
        rng = np.random.default_rng(11)
        raw = rng.integers(0, 2 ** 64, size=6000, dtype=np.uint64)
        doubles = raw.view(np.float64)
        checked = 0
        for i in range(0, len(doubles), 3):
            value, low, high = (float(doubles[i]), float(doubles[i + 1]),
                                float(doubles[i + 2]))
            if not low <= high:    # unordered/NaN bounds: no contract
                low, high = min(high, low), max(high, low)
                if not low <= high:
                    continue
            checked += 1
            ours = clip_scalar(value, low, high)
            theirs = float(np.clip(value, low, high))
            assert self._bits(ours) == self._bits(theirs), \
                (value, low, high)
        assert checked > 500
