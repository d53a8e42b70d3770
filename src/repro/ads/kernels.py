"""Shared closed-form numeric kernels for the ADS stack.

One implementation, two callers.  Every kernel here is polymorphic: the
scalar modules (:mod:`repro.ads.tracking`, :mod:`repro.ads.localization`,
:mod:`repro.ads.planning`, :mod:`repro.ads.control`) pass Python floats,
and the batched pipeline (:mod:`repro.ads.batch`) passes float64 arrays
with one element per fused lane (or, for the track filter, per live
track of every fused lane).  Because both paths execute the *same*
expressions in the *same* order, the batched lanes are bit-for-bit the
scalar oracle by construction — the repo-wide equivalence contract.
The batched pipeline keeps what is not arithmetic — track association,
births, drops and the lead pick — as short per-lane loops over floats
that follow the scalar tracker's order.

Three rules keep that true:

* **No BLAS.**  ``np.linalg.inv`` and ``@`` accumulate in an order that
  varies with backend and shape, so the 3x3 innovation solve and the
  4x4 covariance products are written out element by element
  (adjugate/determinant inverse, explicit row/column updates).
* **No ``**`` with float exponents.**  Python's ``float.__pow__``,
  numpy's scalar power, and numpy's array power disagree in the last
  ulp; squares and fourth powers are multiplication chains.
* **Branches are ``where`` selects** in the polymorphic kernels.
  Callers pass ``where``/``clip`` (:func:`py_where` + ``clip_scalar``
  for floats, ``np.where`` + ``np.clip`` for arrays); both operands of
  every select are safe to evaluate (guarded denominators), and the
  select mappings mirror the scalar ``max``/``min``/``if`` forms
  exactly, including signed zeros (``max(a, 0.0)`` keeps ``a`` on
  ties, hence ``where(0.0 > a, 0.0, a)``; ``max(0.0, b)`` keeps
  ``0.0`` on ties, hence ``where(b > 0.0, b, 0.0)``).

Transcendentals and the association distance go through numpy
(``np.cos``/``np.sin``/``np.hypot`` on Python floats and on arrays
agree bitwise element for element; ``math.cos`` and ``math.hypot`` do
not), pinned by ``tests/test_world_model_kernels.py``.
"""

from __future__ import annotations

import numpy as np

_INF = float("inf")


def py_where(condition, if_true, if_false):
    """Scalar twin of ``np.where`` (both operands already evaluated)."""
    return if_true if condition else if_false


# -- constant-velocity Kalman filter (object tracks, state [x,y,vx,vy]) ----
#
# The filter kernels take a state as components and return new tuples:
# ``mean`` is any 4-sequence and ``cov`` any row-major 16-sequence of
# Python floats (the scalar filters' tuples) or of equal-length float64
# arrays (a ``(4, k)`` / ``(16, k)`` column block of the batched world
# model unpacks row by row).  Each is straight-line code on locals;
# ``tests/reference.py`` keeps the index-loop forms they match bit for
# bit.

def kf_predict4(mean, cov, dt: float, q: float) -> tuple:
    """Constant-velocity predict: F = I + dt*(x<-vx, y<-vy), plus
    white-acceleration process noise q * g g^T with g = [a,a,dt,dt]
    structure (a = dt^2/2), exactly the scalar tracker's model.

    Returns ``(mean, cov)`` as a 4-tuple and a 16-tuple."""
    m0, m1, m2, m3 = mean
    (p00, p01, p02, p03, p10, p11, p12, p13,
     p20, p21, p22, p23, p30, p31, p32, p33) = cov
    # fP: row0 += dt*row2, row1 += dt*row3.
    t00 = p00 + dt * p20
    t01 = p01 + dt * p21
    t02 = p02 + dt * p22
    t03 = p03 + dt * p23
    t10 = p10 + dt * p30
    t11 = p11 + dt * p31
    t12 = p12 + dt * p32
    t13 = p13 + dt * p33
    a = (dt * dt) / 2.0
    qaa = q * (a * a)
    qad = q * (a * dt)
    qdd = q * (dt * dt)
    # (fP)F^T: col0 += dt*col2, col1 += dt*col3 (rows 2-3 of fP are
    # P's), then the process noise.
    return ((m0 + dt * m2, m1 + dt * m3, m2, m3),
            (t00 + dt * t02 + qaa, t01 + dt * t03, t02 + qad, t03,
             t10 + dt * t12, t11 + dt * t13 + qaa, t12, t13 + qad,
             p20 + dt * p22 + qad, p21 + dt * p23, p22 + qdd, p23,
             p30 + dt * p32, p31 + dt * p33 + qad, p32, p33 + qdd))


def _inv3(s00, s01, s02, s10, s11, s12, s20, s21, s22):
    """Adjugate/determinant inverse of a 3x3 (returns 9 elements).

    Deterministic elementwise arithmetic — the replacement for
    ``np.linalg.inv`` on the innovation covariance.
    """
    c00 = s11 * s22 - s12 * s21
    c01 = s10 * s22 - s12 * s20
    c02 = s10 * s21 - s11 * s20
    det = s00 * c00 - s01 * c01 + s02 * c02
    idet = 1.0 / det
    return (c00 * idet,
            -(s01 * s22 - s02 * s21) * idet,
            (s01 * s12 - s02 * s11) * idet,
            -c01 * idet,
            (s00 * s22 - s02 * s20) * idet,
            -(s00 * s12 - s02 * s10) * idet,
            c02 * idet,
            -(s00 * s21 - s01 * s20) * idet,
            (s00 * s11 - s01 * s10) * idet)


def _update_h012(mean, cov, z0, z1, z2, r0, r1, r2) -> tuple:
    """Measurement update with H = rows 0,1,2 of I (shared by the track
    filter and the EKF correct): S = P[:3,:3] + diag(r), K = P[:,:3]
    S^-1, mean += K (z - H mean), P = (I - K H) P.  Returns ``(mean,
    cov)``."""
    (p00, p01, p02, p03, p10, p11, p12, p13,
     p20, p21, p22, p23, p30, p31, p32, p33) = cov
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = _inv3(
        p00 + r0, p01, p02,
        p10, p11 + r1, p12,
        p20, p21, p22 + r2)
    m0, m1, m2, m3 = mean
    v0 = z0 - m0
    v1 = z1 - m1
    v2 = z2 - m2
    # K, one row per state component.
    k00 = p00 * i00 + p01 * i10 + p02 * i20
    k01 = p00 * i01 + p01 * i11 + p02 * i21
    k02 = p00 * i02 + p01 * i12 + p02 * i22
    k10 = p10 * i00 + p11 * i10 + p12 * i20
    k11 = p10 * i01 + p11 * i11 + p12 * i21
    k12 = p10 * i02 + p11 * i12 + p12 * i22
    k20 = p20 * i00 + p21 * i10 + p22 * i20
    k21 = p20 * i01 + p21 * i11 + p22 * i21
    k22 = p20 * i02 + p21 * i12 + p22 * i22
    k30 = p30 * i00 + p31 * i10 + p32 * i20
    k31 = p30 * i01 + p31 * i11 + p32 * i21
    k32 = p30 * i02 + p31 * i12 + p32 * i22
    # P - K (H P), where H P is rows 0-2 of P.
    return ((m0 + (k00 * v0 + k01 * v1 + k02 * v2),
             m1 + (k10 * v0 + k11 * v1 + k12 * v2),
             m2 + (k20 * v0 + k21 * v1 + k22 * v2),
             m3 + (k30 * v0 + k31 * v1 + k32 * v2)),
            (p00 - (k00 * p00 + k01 * p10 + k02 * p20),
             p01 - (k00 * p01 + k01 * p11 + k02 * p21),
             p02 - (k00 * p02 + k01 * p12 + k02 * p22),
             p03 - (k00 * p03 + k01 * p13 + k02 * p23),
             p10 - (k10 * p00 + k11 * p10 + k12 * p20),
             p11 - (k10 * p01 + k11 * p11 + k12 * p21),
             p12 - (k10 * p02 + k11 * p12 + k12 * p22),
             p13 - (k10 * p03 + k11 * p13 + k12 * p23),
             p20 - (k20 * p00 + k21 * p10 + k22 * p20),
             p21 - (k20 * p01 + k21 * p11 + k22 * p21),
             p22 - (k20 * p02 + k21 * p12 + k22 * p22),
             p23 - (k20 * p03 + k21 * p13 + k22 * p23),
             p30 - (k30 * p00 + k31 * p10 + k32 * p20),
             p31 - (k30 * p01 + k31 * p11 + k32 * p21),
             p32 - (k30 * p02 + k31 * p12 + k32 * p22),
             p33 - (k30 * p03 + k31 * p13 + k32 * p23)))


def kf_update4(mean, cov, zx, zy, zv, r_pos, r_speed) -> tuple:
    """Track measurement update: z = [x, y, vx], R = diag of squared
    noises (squares as multiplication chains, not ``**``).  On columns
    the noises may be columns too, so one call can update filters with
    different noises (the batched EKF correct and track update)."""
    return _update_h012(mean, cov, zx, zy, zv,
                        r_pos * r_pos, r_pos * r_pos, r_speed * r_speed)


# -- ego EKF (localization, state [x, y, v, theta]) ------------------------
#
# Same layout, calling convention and style as the track filter.

def ekf_predict(mean, cov, yaw_rate, dt: float, q_pos: float,
                q_speed: float, q_heading: float) -> tuple:
    """Bicycle-model predict with the heading-linearized Jacobian
    F = [[1,0,c*dt,-v*s*dt],[0,1,s*dt,v*c*dt],[0,0,1,0],[0,0,0,1]].

    The trig goes through numpy; on a float state it comes back as
    ``float``, so a float state stays float (numpy scalars would slow
    every later step)."""
    m0, m1, v, theta = mean
    c = np.cos(theta)
    s = np.sin(theta)
    if c.ndim == 0:
        c = float(c)
        s = float(s)
    a02 = c * dt
    a03 = -v * s * dt
    a12 = s * dt
    a13 = v * c * dt
    (p00, p01, p02, p03, p10, p11, p12, p13,
     p20, p21, p22, p23, p30, p31, p32, p33) = cov
    # FP: row0 += a02*row2 + a03*row3; row1 += a12*row2 + a13*row3.
    t00 = p00 + (a02 * p20 + a03 * p30)
    t01 = p01 + (a02 * p21 + a03 * p31)
    t02 = p02 + (a02 * p22 + a03 * p32)
    t03 = p03 + (a02 * p23 + a03 * p33)
    t10 = p10 + (a12 * p20 + a13 * p30)
    t11 = p11 + (a12 * p21 + a13 * p31)
    t12 = p12 + (a12 * p22 + a13 * p32)
    t13 = p13 + (a12 * p23 + a13 * p33)
    # (FP)F^T: col0 += a02*col2 + a03*col3; col1 += a12*col2 + a13*col3
    # (rows 2-3 of FP are P's), then the process noise.
    q_xy = q_pos * dt
    return ((m0 + v * c * dt, m1 + v * s * dt, v, theta + yaw_rate * dt),
            (t00 + (a02 * t02 + a03 * t03) + q_xy,
             t01 + (a12 * t02 + a13 * t03), t02, t03,
             t10 + (a02 * t12 + a03 * t13),
             t11 + (a12 * t12 + a13 * t13) + q_xy, t12, t13,
             p20 + (a02 * p22 + a03 * p23),
             p21 + (a12 * p22 + a13 * p23), p22 + q_speed * dt, p23,
             p30 + (a02 * p32 + a03 * p33),
             p31 + (a12 * p32 + a13 * p33), p32, p33 + q_heading * dt))


def ekf_correct(mean, cov, zx, zy, zv, gps_noise: float,
                imu_speed_noise: float, where) -> tuple:
    """GPS + IMU-speed correct: the track filter's update (H = rows
    0,1,2) with the GPS and IMU-speed noises, then
    :func:`clamp_speed`."""
    (m0, m1, v, theta), cov = kf_update4(mean, cov, zx, zy, zv, gps_noise,
                                         imu_speed_noise)
    return (m0, m1, clamp_speed(v, where), theta), cov


def clamp_speed(v, where):
    """The EKF's non-negative speed clamp (``if v < 0.0: v = 0.0``) as a
    ``where`` select."""
    return where(v < 0.0, 0.0, v)


# -- IDM planner -----------------------------------------------------------

def plan_step(ego_x, ego_v, lead_x, lead_vx, has_lead,
              lane_offset, lane_heading, no_lead_gap, cfg, where, clip):
    """The full planning step of :class:`repro.ads.planning.Planner`.

    Only valid for ``cfg.idm_exponent == 4.0`` (the free-flow term is a
    multiplication chain); the planner falls back to its own ``**`` for
    other exponents and such configs never fuse.  ``lead_x``/``lead_vx``
    must be finite where ``has_lead`` is false (selected out).

    Returns ``(target_speed, throttle, brake, steering, gap, closing)``.
    """
    v = where(0.0 > ego_v, 0.0, ego_v)                    # max(ego.v, 0.0)
    raw_gap = (lead_x - ego_x) - cfg.body_length
    bounded = where(0.01 > raw_gap, 0.01, raw_gap)        # max(raw, 0.01)
    gap = where(has_lead, bounded, no_lead_gap)
    closing = where(has_lead, v - lead_vx, 0.0)

    v0 = max(cfg.cruise_speed, 0.1)
    desired = (cfg.min_gap + v * cfg.time_headway
               + v * closing
               / (2.0 * np.sqrt(cfg.comfort_accel * cfg.comfort_decel)))
    desired = where(cfg.min_gap > desired, cfg.min_gap, desired)
    rv = v / v0
    rv2 = rv * rv
    rg = desired / gap
    accel = cfg.comfort_accel * (1.0 - rv2 * rv2 - rg * rg)

    # Hard brake when the ground-truth-style TTC falls below threshold
    # (prediction.time_to_collision: gap<0 -> 0, closing<=1e-9 -> inf).
    safe_closing = where(closing > 1e-9, closing, 1.0)
    ttc = where(raw_gap < 0.0, 0.0,
                where(closing > 1e-9, raw_gap / safe_closing, _INF))
    accel = where(has_lead & (ttc < cfg.hard_brake_ttc),
                  -cfg.vehicle_max_decel, accel)
    accel = clip(accel, -cfg.vehicle_max_decel, cfg.comfort_accel)

    positive = accel >= 0.0
    throttle = where(positive, accel / cfg.vehicle_max_accel, 0.0)
    brake = where(positive, 0.0, -accel / cfg.vehicle_max_decel)
    steering = clip(-cfg.lateral_gain * lane_offset
                    - cfg.heading_gain * lane_heading,
                    -cfg.max_steering, cfg.max_steering)
    target_speed = clip(v + accel * cfg.speed_horizon, 0.0,
                        cfg.cruise_speed)
    return (target_speed, clip(throttle, 0.0, 1.0), clip(brake, 0.0, 1.0),
            steering, gap, closing)


# -- PID + slew controller -------------------------------------------------

def control_step(plan_target, plan_throttle, plan_brake, plan_steering,
                 measured_speed, dt, integral, last_error, has_last_error,
                 last_throttle, last_brake, last_steering,
                 cfg, where, clip):
    """One :meth:`VehicleController.actuate` cycle (enabled path).

    Returns ``(throttle, brake, steering, new_integral, error)`` where
    the command triple is already ``.clipped()`` — it is both the slew
    memory and the pre-corruption command.  The caller stores ``error``
    as the PID's last error.  ``last_error`` must be finite where
    ``has_last_error`` is false (its derivative is selected out).
    """
    feedforward = (plan_throttle * cfg.vehicle_max_accel
                   - plan_brake * cfg.vehicle_max_decel)
    error = plan_target - measured_speed
    derivative = where(has_last_error, (error - last_error) / dt, 0.0)
    candidate = integral + error * dt
    output = (cfg.speed_kp * error + cfg.speed_ki * candidate
              + 0.0 * derivative)
    low, high = -cfg.vehicle_max_decel, cfg.vehicle_max_accel
    new_integral = where((low < output) & (output < high),
                         candidate, integral)
    accel = feedforward + clip(output, low, high)

    positive = accel >= 0.0
    raw_throttle = where(positive, accel / cfg.vehicle_max_accel, 0.0)
    raw_brake = where(positive, 0.0, -accel / cfg.vehicle_max_decel)
    pedal_delta = cfg.pedal_slew_rate * dt
    steer_delta = cfg.steering_slew_rate * dt
    throttle = last_throttle + clip(raw_throttle - last_throttle,
                                    -pedal_delta, pedal_delta)
    brake = last_brake + clip(raw_brake - last_brake,
                              -pedal_delta, pedal_delta)
    steering = last_steering + clip(plan_steering - last_steering,
                                    -steer_delta, steer_delta)
    return (clip(throttle, 0.0, 1.0), clip(brake, 0.0, 1.0),
            clip(steering, -0.55, 0.55), new_integral, error)
