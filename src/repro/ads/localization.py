"""Ego localization: an extended Kalman filter fusing GPS and IMU.

State is ``[x, y, v, theta]`` with a bicycle-model motion prediction
(nonlinear in theta, hence the EKF Jacobian).  GPS observes position, the
IMU observes speed.  Like the object tracker, the EKF is a masking
mechanism: a single corrupted GPS fix is weighed against the motion
model instead of teleporting the pose estimate.

The predict/correct math lives in :mod:`repro.ads.kernels` as explicit
closed-form arithmetic (no BLAS), here on Python floats.  This class is
the scalar engine's localizer and the oracle of the batched one: the
fused lanes hold every lane's belief as columns
(:class:`~repro.ads.batch.BatchADSState`) and run the *same* kernels on
them, first fix and disabled mode included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import ekf_correct, ekf_predict, py_where
from .messages import EgoEstimate, GpsFix, ImuSample

#: First-fix covariance diag([2, 2, 1, 0.05]) in the flat row-major layout.
FIRST_FIX_COV = (2.0, 0.0, 0.0, 0.0,
                 0.0, 2.0, 0.0, 0.0,
                 0.0, 0.0, 1.0, 0.0,
                 0.0, 0.0, 0.0, 0.05)


@dataclass(frozen=True)
class LocalizerSnapshot:
    """Frozen copy of the EKF belief in the kernels' flat layout
    (``None`` before the first fix)."""

    mean: tuple | None
    covariance: tuple | None


@dataclass(frozen=True)
class LocalizerConfig:
    """EKF noise parameters."""

    position_process_noise: float = 0.05
    speed_process_noise: float = 0.3
    heading_process_noise: float = 0.005
    gps_noise: float = 0.9
    imu_speed_noise: float = 0.1
    enabled: bool = True     # ablation switch: believe raw sensors if off


class EgoLocalizer:
    """EKF over ``[x, y, v, theta]``.

    The belief is held as a 4-tuple mean and a row-major 16-tuple
    covariance of Python floats (the kernels' layout).
    """

    def __init__(self, config: LocalizerConfig | None = None):
        self.config = config or LocalizerConfig()
        self._mean: tuple | None = None
        self._cov: tuple | None = None

    def reset(self) -> None:
        """Forget the state (new scenario)."""
        self._mean = None
        self._cov = None

    def snapshot(self) -> LocalizerSnapshot:
        """Capture the belief."""
        return LocalizerSnapshot(mean=self._mean, covariance=self._cov)

    def restore(self, snapshot: LocalizerSnapshot) -> None:
        """Rewind the belief to a snapshot (immutable tuples, shared)."""
        self._mean = snapshot.mean
        self._cov = snapshot.covariance

    def update(self, gps: GpsFix, imu: ImuSample, yaw_rate: float,
               dt: float) -> EgoEstimate:
        """One predict-update cycle; returns the fused estimate."""
        if not self.config.enabled:
            return EgoEstimate(x=gps.x, y=gps.y, v=imu.v, theta=imu.heading)
        if self._mean is None:
            self._mean = (gps.x, gps.y, imu.v, imu.heading)
            self._cov = FIRST_FIX_COV
            return self._estimate()
        cfg = self.config
        mean, cov = ekf_predict(self._mean, self._cov, yaw_rate, dt,
                                cfg.position_process_noise,
                                cfg.speed_process_noise,
                                cfg.heading_process_noise)
        self._mean, self._cov = ekf_correct(
            mean, cov, gps.x, gps.y, imu.v, cfg.gps_noise,
            cfg.imu_speed_noise, py_where)
        return self._estimate()

    def _estimate(self) -> EgoEstimate:
        x, y, v, theta = self._mean
        return EgoEstimate(x=float(x), y=float(y), v=float(v),
                           theta=float(theta))
