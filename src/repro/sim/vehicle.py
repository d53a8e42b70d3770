"""Vehicle bodies: physical parameters plus actuation-driven dynamics.

The ADS emits an :class:`~repro.ads.messages.ActuationCommand`-style
triple (throttle, brake, steering angle); :class:`Vehicle` turns it into
longitudinal acceleration and a rate-limited steering motion, then
integrates the bicycle model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .collision import box_footprint
from .fastmath import clip_scalar
from .kinematics import VehicleState, rk4_components


@dataclass(frozen=True)
class VehicleParameters:
    """Physical limits of one vehicle.

    ``max_deceleration`` is the paper's ``a_max``: the maximum comfortable
    deceleration assumed by the emergency-stop maneuver that defines
    ``d_stop``.
    """

    wheelbase: float = 2.8          # m
    length: float = 4.8             # m (bounding box)
    width: float = 1.9              # m (bounding box)
    max_acceleration: float = 3.5   # m/s^2 at full throttle
    max_deceleration: float = 6.0   # m/s^2 at full brake (a_max)
    max_speed: float = 45.0         # m/s
    max_steering_angle: float = 0.55    # rad
    max_steering_rate: float = 0.6      # rad/s
    drag: float = 0.0004            # quadratic speed-loss coefficient
                                    # (~0.4 m/s^2 at highway speed)


@dataclass
class Vehicle:
    """A vehicle body that integrates actuation commands."""

    state: VehicleState
    params: VehicleParameters = field(default_factory=VehicleParameters)

    def acceleration_for(self, throttle: float, brake: float) -> float:
        """Longitudinal acceleration for pedal positions in [0, 1].

        Pedals are clipped to their physical range; drag grows with the
        square of speed so top speed is naturally bounded.
        """
        throttle = clip_scalar(throttle, 0.0, 1.0)
        brake = clip_scalar(brake, 0.0, 1.0)
        accel = (throttle * self.params.max_acceleration
                 - brake * self.params.max_deceleration
                 - self.params.drag * (self.state.v * self.state.v))
        return accel

    def controls_for(self, throttle: float, brake: float, steering: float,
                     dt: float) -> tuple[float, float]:
        """Map an actuation command to ``(acceleration, steering_rate)``.

        This is the scalar control mapping shared with the batch engine:
        the quadratic drag term and the steering-rate slew depend on the
        *current* state, so batched lanes call it lane-by-lane (cheap)
        and feed the results to the fused RK4 kernel.
        """
        accel = self.acceleration_for(throttle, brake)
        target = clip_scalar(steering, -self.params.max_steering_angle,
                             self.params.max_steering_angle)
        error = target - self.state.phi
        steering_rate = clip_scalar(error / dt if dt > 0 else 0.0,
                                    -self.params.max_steering_rate,
                                    self.params.max_steering_rate)
        return accel, steering_rate

    def apply_actuation(self, throttle: float, brake: float,
                        steering: float, dt: float) -> VehicleState:
        """Advance ``dt`` seconds under an actuation command.

        ``steering`` is the commanded steering angle; the actual angle
        slews toward it at the steering-rate limit, and is clipped to the
        mechanical range.  Returns (and stores) the new state.
        """
        accel, steering_rate = self.controls_for(throttle, brake, steering,
                                                 dt)
        params = self.params
        x, y, v, theta, phi = rk4_components(self.state, accel,
                                             steering_rate, params.wheelbase,
                                             dt)
        if v > params.max_speed:
            v = float(params.max_speed)
        self.state = VehicleState(x, y, v, theta,
                                  clip_scalar(phi,
                                              -params.max_steering_angle,
                                              params.max_steering_angle))
        return self.state

    def footprint(self) -> np.ndarray:
        """Corners of the oriented bounding box, shape (4, 2)."""
        state = self.state
        return box_footprint(state.x, state.y, state.theta,
                             self.params.length, self.params.width)
