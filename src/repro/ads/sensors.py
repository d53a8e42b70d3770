"""Sensor simulation: noisy views of the ground-truth world.

Each sensor draws from an explicit ``numpy.random.Generator`` so runs are
reproducible.  Noise magnitudes default to values typical of automotive
hardware; perception-level faults are injected downstream of here, on the
:class:`~repro.ads.messages.SensorBundle` fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.world import World
from .messages import Detection, GpsFix, ImuSample, SensorBundle


@dataclass(frozen=True)
class SensorSnapshot:
    """Mutable sensor-suite state: RNG stream position + accel memory.

    ``rng_state`` is the bit generator's state dict; restoring it makes
    every subsequent noise draw bit-identical to the run the snapshot
    was taken from.
    """

    rng_state: dict
    last_speed: float | None
    last_time: float | None


@dataclass(frozen=True)
class SensorSuiteConfig:
    """Noise and coverage parameters of the ego sensor set."""

    camera_range: float = 150.0
    camera_position_noise: float = 0.35     # m (1 sigma)
    camera_dropout: float = 0.02            # per-object miss probability
    radar_range: float = 220.0
    radar_position_noise: float = 0.6       # m
    radar_speed_noise: float = 0.25         # m/s
    gps_noise: float = 0.8                  # m
    imu_speed_noise: float = 0.08           # m/s
    imu_yaw_noise: float = 0.004            # rad/s
    lane_offset_noise: float = 0.02         # m
    lane_heading_noise: float = 0.002       # rad
    #: A body hides anything behind it within this lateral half-width.
    #: This is what makes the paper's Example 2 (Tesla crash shape)
    #: reproducible: the stopped second lead is invisible until the
    #: first lead moves aside.
    occlusion_half_width: float = 1.5


class SensorSuite:
    """The full ego sensor set: camera, radar, GPS, IMU, lane camera."""

    def __init__(self, config: SensorSuiteConfig | None = None,
                 rng: np.random.Generator | None = None):
        self.config = config or SensorSuiteConfig()
        self.rng = rng or np.random.default_rng(0)
        self._last_speed: float | None = None
        self._last_time: float | None = None

    def snapshot(self) -> SensorSnapshot:
        """Capture the RNG position and the acceleration estimator."""
        return SensorSnapshot(rng_state=self.rng.bit_generator.state,
                              last_speed=self._last_speed,
                              last_time=self._last_time)

    def restore(self, snapshot: SensorSnapshot) -> None:
        """Rewind the noise stream and estimator memory."""
        self.rng.bit_generator.state = snapshot.rng_state
        self._last_speed = snapshot.last_speed
        self._last_time = snapshot.last_time

    def measure(self, world: World) -> SensorBundle:
        """One synchronized snapshot of every sensor."""
        cfg = self.config
        ego = world.ego.state
        obstacles = world.obstacles()
        visible = []
        for obstacle in obstacles:
            ahead = obstacle.x - ego.x
            if not 0.0 < ahead:
                continue
            camera = ahead <= cfg.camera_range
            radar = ahead <= cfg.radar_range
            if ((camera or radar)
                    and not self._occluded(obstacle, obstacles, ego.x)):
                visible.append((obstacle.x, obstacle.y, obstacle.v,
                                camera, radar))
        acceleration = self._estimate_acceleration(world.time, ego.v)
        # A float, as in the fused engine: numpy scalars pickle slowly.
        yaw_rate = (ego.v * float(np.tan(ego.phi))
                    / world.ego.params.wheelbase)
        lane_center = world.road.lane_center(world.road.lane_of(ego.y))
        return noisy_bundle(self.rng, cfg, world.time, visible, ego.x,
                            ego.y, ego.v, ego.theta, acceleration,
                            yaw_rate, lane_center)

    def _occluded(self, target, obstacles, ego_x: float) -> bool:
        half_width = self.config.occlusion_half_width
        for other in obstacles:
            if other is target:
                continue
            if (ego_x + 1.0 < other.x < target.x
                    and abs(other.y - target.y) < half_width):
                return True
        return False

    def _estimate_acceleration(self, time: float, speed: float) -> float:
        if self._last_time is None or time <= self._last_time:
            accel = 0.0
        else:
            accel = (speed - self._last_speed) / (time - self._last_time)
        self._last_time = time
        self._last_speed = speed
        return accel


def noisy_bundle(rng: np.random.Generator, cfg: SensorSuiteConfig,
                 time: float, visible, x: float, y: float, v: float,
                 theta: float, acceleration: float, yaw_rate: float,
                 lane_center: float) -> SensorBundle:
    """Draw one tick's sensor noise and build the bundle.

    ``visible`` holds ``(x, y, v, camera, radar)`` per obstacle, in
    world order, for obstacles ahead that are unoccluded and inside at
    least one range gate (``camera``/``radar`` say which).  The draw is
    :func:`draw_noise`, the build :func:`build_bundle`.
    """
    seen, z = draw_noise(rng, cfg.camera_dropout, visible)
    return build_bundle(cfg, time, visible, seen, z, x, y, v, theta,
                        acceleration, yaw_rate, lane_center)


def draw_noise(rng: np.random.Generator, dropout: float,
               flags) -> tuple[list[bool], list[float]]:
    """One tick's sensor noise: the camera-dropout draws and every
    normal, for obstacles whose range-gate flags ``(camera, radar)``
    are the last two items of ``flags[j]`` (a ``visible`` row of
    :func:`noisy_bundle` or a bare pair; an obstacle with neither flag
    draws nothing).

    Returns ``(seen, z)``: ``seen[j]`` says whether obstacle ``j``'s
    camera read survived dropout, and ``z`` holds, per obstacle with a
    read, 2 normals for the camera (if seen) and 3 for the radar, then
    6 for GPS, IMU and lane.  The stream is, per obstacle, one
    ``random()`` for camera dropout if the camera sees it, then its
    normals.  Consecutive normals are merged into one
    ``standard_normal(k)`` call: a run ends only at the next
    camera-dropout ``random()``, and the 6 ego terms join the last run,
    so a tick with no camera-visible obstacle draws once.  That stream
    is bit-for-bit the sequential ``normal(0, sigma)`` calls it
    replaces, read as ``0.0 + sigma * z``, and leaves the generator in
    the same state (pinned by ``tests/test_sensor_equivalence.py``
    against the per-term and the per-obstacle draws of
    ``tests/reference.py``).  Both engines draw through here:
    :meth:`SensorSuite.measure` and the batched
    ``BatchADSState._sense``, per lane.
    """
    normal = rng.standard_normal
    seen = []
    z: list[float] = []
    run = 0         # normals owed since the last random()
    for row in flags:
        sees_cam = row[-2]
        if sees_cam:
            if run:
                z += normal(run).tolist()
                run = 0
            sees_cam = rng.random() >= dropout
            if sees_cam:
                run += 2
        if row[-1]:
            run += 3
        seen.append(sees_cam)
    z += normal(run + 6).tolist()
    return seen, z


def build_bundle(cfg: SensorSuiteConfig, time: float, visible, seen,
                 z, x: float, y: float, v: float, theta: float,
                 acceleration: float, yaw_rate: float,
                 lane_center: float) -> SensorBundle:
    """The :class:`SensorBundle` of one tick from its noise
    (:func:`draw_noise`'s ``seen`` and ``z``, aligned with
    ``visible``): each term is its true value plus ``0.0 + sigma *
    z``."""
    camera: list[Detection] = []
    radar: list[Detection] = []
    cam_noise = cfg.camera_position_noise
    rad_noise = cfg.radar_position_noise
    k = 0
    for (ox, oy, ov, _, sees_rad), sees_cam in zip(visible, seen):
        if sees_cam:
            camera.append(Detection(x=ox + (0.0 + cam_noise * z[k]),
                                    y=oy + (0.0 + cam_noise * z[k + 1]),
                                    v=ov, sensor="camera"))
            k += 2
        if sees_rad:
            radar.append(Detection(
                x=ox + (0.0 + rad_noise * z[k]),
                y=oy + (0.0 + rad_noise * z[k + 1]),
                v=ov + (0.0 + cfg.radar_speed_noise * z[k + 2]),
                sensor="radar"))
            k += 3
    return SensorBundle(
        time=time,
        camera=camera,
        radar=radar,
        gps=GpsFix(x=x + (0.0 + cfg.gps_noise * z[k]),
                   y=y + (0.0 + cfg.gps_noise * z[k + 1])),
        imu=ImuSample(v=max(0.0, v + (0.0 + cfg.imu_speed_noise * z[k + 2])),
                      a=acceleration,
                      yaw_rate=yaw_rate + (0.0 + cfg.imu_yaw_noise
                                           * z[k + 3]),
                      heading=theta),
        lane_offset=y - lane_center + (0.0 + cfg.lane_offset_noise
                                       * z[k + 4]),
        lane_heading=theta + (0.0 + cfg.lane_heading_noise * z[k + 5]),
    )
