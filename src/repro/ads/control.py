"""Actuation control: PID speed tracking plus slew-rate smoothing.

The paper's PID stage turns the planner's raw actuation ``U_A,t`` into
the final command ``A_t`` while "ensuring the AV does not make any sudden
changes".  That smoothing is the third resilience mechanism against
transient faults: a one-frame corrupted raw command is rate-limited
before it reaches the actuators.  The ``enabled`` flag exists for the
resilience ablation (E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.fastmath import clip_scalar
from .kernels import control_step, py_where
from .messages import ActuationCommand, PlannerOutput


@dataclass
class PIDController:
    """Textbook PID with output clamping and anti-windup."""

    kp: float
    ki: float = 0.0
    kd: float = 0.0
    output_low: float = -1.0
    output_high: float = 1.0
    _integral: float = 0.0
    _last_error: float | None = None

    def reset(self) -> None:
        """Clear integral and derivative memory."""
        self._integral = 0.0
        self._last_error = None

    def step(self, error: float, dt: float) -> float:
        """One control step; returns the clamped output."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        derivative = 0.0
        if self._last_error is not None:
            derivative = (error - self._last_error) / dt
        self._last_error = error
        candidate_integral = self._integral + error * dt
        output = (self.kp * error + self.ki * candidate_integral
                  + self.kd * derivative)
        if self.output_low < output < self.output_high:
            self._integral = candidate_integral  # integrate only unsaturated
        return clip_scalar(output, self.output_low, self.output_high)


@dataclass(frozen=True)
class ControllerSnapshot:
    """PID memory plus the slew limiter's last command."""

    integral: float
    last_error: float | None
    last_command: tuple[float, float, float]   # throttle, brake, steering


@dataclass(frozen=True)
class ControllerConfig:
    """Smoothing and speed-tracking parameters."""

    speed_kp: float = 0.30
    speed_ki: float = 0.04
    pedal_slew_rate: float = 2.5      # pedal fraction per second
    steering_slew_rate: float = 0.5   # rad per second
    vehicle_max_accel: float = 3.5
    vehicle_max_decel: float = 6.0
    enabled: bool = True              # ablation: raw pass-through if False


class VehicleController:
    """Smooths planner output into the final actuation command ``A_t``."""

    def __init__(self, config: ControllerConfig | None = None):
        self.config = config or ControllerConfig()
        self._speed_pid = PIDController(
            kp=self.config.speed_kp, ki=self.config.speed_ki,
            output_low=-self.config.vehicle_max_decel,
            output_high=self.config.vehicle_max_accel)
        self._last = ActuationCommand(0.0, 0.0, 0.0)

    def reset(self) -> None:
        """Forget controller state (new scenario)."""
        self._speed_pid.reset()
        self._last = ActuationCommand(0.0, 0.0, 0.0)

    def snapshot(self) -> ControllerSnapshot:
        """Capture PID and slew-limiter memory."""
        return ControllerSnapshot(
            integral=self._speed_pid._integral,
            last_error=self._speed_pid._last_error,
            last_command=(self._last.throttle, self._last.brake,
                          self._last.steering))

    def restore(self, snapshot: ControllerSnapshot) -> None:
        """Rewind PID and slew-limiter memory."""
        self._speed_pid._integral = snapshot.integral
        self._speed_pid._last_error = snapshot.last_error
        self._last = ActuationCommand(*snapshot.last_command)

    def actuate(self, plan: PlannerOutput, measured_speed: float,
                dt: float) -> ActuationCommand:
        """PID speed tracking + slew-limited pedals and steering."""
        cfg = self.config
        if not cfg.enabled:
            command = ActuationCommand(plan.throttle, plan.brake,
                                       plan.steering).clipped()
            self._remember(command)
            return command

        if dt <= 0:
            raise ValueError("dt must be positive")
        # Feedforward from the planner's pedals, PID feedback on speed
        # error, then slew limiting — all in the shared closed-form
        # kernel (the same expressions the batched controller evaluates
        # over lane arrays).  The returned triple is already clipped.
        pid = self._speed_pid
        has_last = pid._last_error is not None
        throttle, brake, steering, integral, error = control_step(
            plan.target_speed, plan.throttle, plan.brake, plan.steering,
            measured_speed, dt, pid._integral,
            pid._last_error if has_last else 0.0, has_last,
            self._last.throttle, self._last.brake, self._last.steering,
            cfg, py_where, clip_scalar)
        pid._integral = integral
        pid._last_error = error
        command = ActuationCommand(throttle, brake, steering)
        self._remember(command)
        return command

    def _remember(self, command: ActuationCommand) -> None:
        # Keep a private copy: the runtime may corrupt the returned
        # message in place (fault injection), and the controller's slew
        # memory is a separate architectural location.
        self._last = ActuationCommand(command.throttle, command.brake,
                                      command.steering)


def safe_stop_command(last_command: ActuationCommand | None,
                      brake_level: float) -> ActuationCommand:
    """The graceful-degradation fallback: when critical inputs go stale
    the pipeline stops trusting the planner/controller stack and asks
    for a controlled stop — zero throttle, a firm configured brake, and
    the last commanded steering held (yanking the wheel to center on a
    curve would trade one hazard for another)."""
    steering = 0.0 if last_command is None else last_command.steering
    return ActuationCommand(throttle=0.0, brake=float(brake_level),
                            steering=steering)
