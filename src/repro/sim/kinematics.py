"""Bicycle-model vehicle kinematics (Eq. 3 of the paper) with RK4.

State is ``(x, y, v, theta, phi)``: planar position, speed, heading, and
steering angle.  The equations of motion are

    dx/dt     = v cos(theta)
    dy/dt     = v sin(theta)
    dtheta/dt = v tan(phi) / L

with ``L`` the wheelbase.  Speed and steering are driven by the control
inputs (longitudinal acceleration and steering rate), which is how both
the ego vehicle and the emergency-stop maneuver integrate forward.

Two implementations share the exact same floating-point contract:

* the scalar path (:func:`rk4_step`, :func:`rk4_components`) integrates
  one vehicle as straight-line float code — no per-call array
  allocations, one ``tan`` per distinct steering angle — and is the
  bit-for-bit oracle;
* the batched path (:func:`batched_rk4_step`) integrates N vehicles per
  call over an ``(N, 5)`` structure-of-arrays matrix with one set of
  elementwise ufunc calls and preallocated scratch (see
  :class:`BatchKernelWorkspace`), producing bitwise-identical
  trajectories lane for lane.

Bitwise equivalence holds because both paths perform the same IEEE-754
double operations in the same order.  The batched path's trig is numpy's
ufuncs; the scalar path takes ``cos``/``sin`` from :mod:`math` where the
trig gate (:func:`~repro.sim.fastmath.numpy_trig_exact`) finds them
equal to numpy's bit for bit, and from numpy elsewhere.  ``tan`` stays
``np.tan`` on both paths: :mod:`math`'s differs from it in the last ulp
on some steering angles.  Add/mul/div are correctly rounded everywhere,
and clamps are expressed as the same compare-and-select (numpy's
``maximum``/``minimum`` are deliberately avoided — their signed-zero
semantics differ from Python's ``max``/``min``).  The four-call
derivative form the scalar path replaced is kept as its oracle in
``tests/reference.py`` (``reference_rk4_step``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fastmath import numpy_trig_exact


@dataclass(frozen=True)
class VehicleState:
    """Instantaneous kinematic state of one vehicle."""

    x: float = 0.0
    y: float = 0.0
    v: float = 0.0
    theta: float = 0.0
    phi: float = 0.0

    def as_array(self) -> np.ndarray:
        """State as ``[x, y, v, theta, phi]``."""
        return np.array([self.x, self.y, self.v, self.theta, self.phi])

    @classmethod
    def from_array(cls, array: np.ndarray) -> "VehicleState":
        """Inverse of :meth:`as_array`."""
        x, y, v, theta, phi = (float(value) for value in array)
        return cls(x=x, y=y, v=v, theta=theta, phi=phi)

    def with_speed(self, v: float) -> "VehicleState":
        """Copy with a new speed."""
        return replace(self, v=float(v))


def bicycle_derivatives(state: np.ndarray, acceleration: float,
                        steering_rate: float,
                        wheelbase: float) -> np.ndarray:
    """Time derivatives of ``[x, y, v, theta, phi]``.

    Speed is clamped at zero inside the integrator (a braking vehicle does
    not reverse), so the derivative uses the non-negative part of ``v``.
    """
    _, _, v, theta, phi = state
    if v < 0.0:
        v = 0.0
    return np.array([v * np.cos(theta), v * np.sin(theta), acceleration,
                     v * np.tan(phi) / wheelbase, steering_rate])


def _np_cos(angle: float) -> float:
    return float(np.cos(angle))


def _np_sin(angle: float) -> float:
    return float(np.sin(angle))


def rk4_components(state: VehicleState, acceleration: float,
                   steering_rate: float, wheelbase: float, dt: float
                   ) -> tuple[float, float, float, float, float]:
    """:func:`rk4_step` as a bare ``(x, y, v, theta, phi)`` tuple, for
    callers that clamp the result before building a state.

    Straight-line float code.  The controls are constant over the step,
    so every stage's ``dv`` is ``acceleration`` and every stage's
    ``dphi`` is ``steering_rate``: stages 2 and 3 share their speed and
    steering angle, hence one clamp and one ``dtheta``.  The operation
    order mirrors the textbook ``y1 = y0 + (dt/6) * (k1 + 2*k2 + 2*k3 +
    k4)`` exactly, so results stay bit-for-bit stable across refactors.
    """
    if numpy_trig_exact():
        cos, sin = math.cos, math.sin
    else:
        cos, sin = _np_cos, _np_sin
    tan = np.tan
    x0 = state.x
    y0 = state.y
    v0 = state.v
    t0 = state.theta
    p0 = state.phi
    half = 0.5 * dt

    v = 0.0 if v0 < 0.0 else v0
    k1x = v * cos(t0)
    k1y = v * sin(t0)
    k1t = v * float(tan(p0)) / wheelbase

    v = v0 + half * acceleration
    if v < 0.0:
        v = 0.0
    t = t0 + half * k1t
    k2x = v * cos(t)
    k2y = v * sin(t)
    k2t = k3t = v * float(tan(p0 + half * steering_rate)) / wheelbase
    t = t0 + half * k2t
    k3x = v * cos(t)
    k3y = v * sin(t)

    v = v0 + dt * acceleration
    if v < 0.0:
        v = 0.0
    t = t0 + dt * k3t
    k4x = v * cos(t)
    k4y = v * sin(t)
    k4t = v * float(tan(p0 + dt * steering_rate)) / wheelbase

    sixth = dt / 6.0
    v1 = v0 + sixth * (acceleration + 2 * acceleration + 2 * acceleration
                       + acceleration)
    if v1 < 0.0:
        v1 = 0.0
    return (float(x0 + sixth * (k1x + 2 * k2x + 2 * k3x + k4x)),
            float(y0 + sixth * (k1y + 2 * k2y + 2 * k3y + k4y)),
            float(v1),
            float(t0 + sixth * (k1t + 2 * k2t + 2 * k3t + k4t)),
            float(p0 + sixth * (steering_rate + 2 * steering_rate
                                + 2 * steering_rate + steering_rate)))


def rk4_step(state: VehicleState, acceleration: float, steering_rate: float,
             wheelbase: float, dt: float) -> VehicleState:
    """One classical Runge-Kutta step of the bicycle model.

    The returned state has ``v`` clamped to be non-negative: the model
    covers forward driving and braking to a halt, not reversing.  See
    :func:`rk4_components` for the arithmetic.
    """
    return VehicleState(*rk4_components(state, acceleration, steering_rate,
                                        wheelbase, dt))


# -- batched kernels ---------------------------------------------------------


class BatchKernelWorkspace:
    """Preallocated scratch for :func:`batched_rk4_step`.

    One workspace serves any batch of up to ``capacity`` lanes; reusing
    it across steps keeps the integrator allocation-free (the point of
    batching is one set of ufunc calls per step, not N).
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        n = self.capacity
        self.k1 = np.empty((n, 5))
        self.k2 = np.empty((n, 5))
        self.k3 = np.empty((n, 5))
        self.k4 = np.empty((n, 5))
        self.stage = np.empty((n, 5))
        self.accum = np.empty((n, 5))
        self.speed = np.empty(n)
        self.trig = np.empty(n)
        self.mask = np.empty(n, dtype=bool)


def batched_bicycle_derivatives(states: np.ndarray, acceleration,
                                steering_rate, wheelbase: float,
                                out: np.ndarray | None = None,
                                workspace: BatchKernelWorkspace | None = None
                                ) -> np.ndarray:
    """Derivatives for N lanes at once; ``states`` is ``(N, 5)``.

    ``acceleration`` and ``steering_rate`` broadcast over lanes (scalar
    or ``(N,)``).  Elementwise-identical to N calls of
    :func:`bicycle_derivatives`.
    """
    states = np.asarray(states, dtype=np.float64)
    n = states.shape[0]
    if workspace is None or workspace.capacity < n:
        workspace = BatchKernelWorkspace(n)
    if out is None:
        out = np.empty_like(states)
    v = workspace.speed[:n]
    trig = workspace.trig[:n]
    mask = workspace.mask[:n]
    np.copyto(v, states[:, 2])
    # Same select as ``max(v, 0.0)`` — np.maximum would flip -0.0 to +0.0.
    np.less(v, 0.0, out=mask)
    np.copyto(v, 0.0, where=mask)
    np.cos(states[:, 3], out=trig)
    np.multiply(v, trig, out=out[:, 0])
    np.sin(states[:, 3], out=trig)
    np.multiply(v, trig, out=out[:, 1])
    out[:, 2] = acceleration
    np.tan(states[:, 4], out=trig)
    np.multiply(v, trig, out=trig)
    np.divide(trig, wheelbase, out=out[:, 3])
    out[:, 4] = steering_rate
    return out


def batched_rk4_step(states: np.ndarray, acceleration, steering_rate,
                     wheelbase: float, dt: float,
                     out: np.ndarray | None = None,
                     workspace: BatchKernelWorkspace | None = None
                     ) -> np.ndarray:
    """One RK4 step for N lanes; bitwise-equal per lane to
    :func:`rk4_step`.

    Every arithmetic step is the same IEEE operation in the same order
    as the scalar path (sums regrouped only by commutative additions,
    which are exact); the final speed clamp is the same
    compare-and-select.  With a caller-provided ``workspace`` and
    ``out`` the kernel performs no per-step allocations.
    """
    states = np.asarray(states, dtype=np.float64)
    n = states.shape[0]
    if workspace is None or workspace.capacity < n:
        workspace = BatchKernelWorkspace(n)
    if out is None:
        out = np.empty_like(states)
    ws = workspace
    k1, k2, k3, k4 = ws.k1[:n], ws.k2[:n], ws.k3[:n], ws.k4[:n]
    stage, accum = ws.stage[:n], ws.accum[:n]

    batched_bicycle_derivatives(states, acceleration, steering_rate,
                                wheelbase, out=k1, workspace=ws)
    half = 0.5 * dt
    np.multiply(k1, half, out=stage)
    stage += states
    batched_bicycle_derivatives(stage, acceleration, steering_rate,
                                wheelbase, out=k2, workspace=ws)
    np.multiply(k2, half, out=stage)
    stage += states
    batched_bicycle_derivatives(stage, acceleration, steering_rate,
                                wheelbase, out=k3, workspace=ws)
    np.multiply(k3, dt, out=stage)
    stage += states
    batched_bicycle_derivatives(stage, acceleration, steering_rate,
                                wheelbase, out=k4, workspace=ws)

    np.multiply(k2, 2.0, out=accum)
    accum += k1
    np.multiply(k3, 2.0, out=k2)
    accum += k2
    accum += k4
    accum *= dt / 6.0
    np.add(states, accum, out=out)
    speed = out[:, 2]
    mask = ws.mask[:n]
    np.less(speed, 0.0, out=mask)
    np.copyto(speed, 0.0, where=mask)
    return out


def simulate_constant_controls(state: VehicleState, acceleration: float,
                               steering_rate: float, wheelbase: float,
                               dt: float, n_steps: int) -> list[VehicleState]:
    """Integrate ``n_steps`` of constant controls; returns all states.

    Runs on the batched kernel (a 1-lane batch stepped in place with a
    preallocated workspace) and unpacks to the historical
    list-of-states shape; bitwise-identical to a scalar
    :func:`rk4_step` loop.
    """
    states = [state]
    if n_steps <= 0:
        return states
    lane = state.as_array().reshape(1, 5)
    scratch = np.empty_like(lane)
    workspace = BatchKernelWorkspace(1)
    for _ in range(n_steps):
        batched_rk4_step(lane, acceleration, steering_rate, wheelbase, dt,
                         out=scratch, workspace=workspace)
        lane, scratch = scratch, lane
        states.append(VehicleState.from_array(lane[0]))
    return states
