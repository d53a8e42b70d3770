"""Typed messages exchanged between ADS modules.

These are the paper's instrumented interfaces: sensor inputs ``I_t``,
inertial measurements ``M_t``, the ML-module state ``S_t`` (world model
``W_t``), raw actuation ``U_A,t`` from the planner, and the smoothed
actuation ``A_t`` from the PID controller.  Fault injection targets the
fields of these messages (Fig. 10 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.fastmath import clip_scalar


@dataclass
class Detection:
    """One perceived object, in ego-relative road coordinates."""

    x: float                 # longitudinal position (m, world frame)
    y: float                 # lateral position (m, world frame)
    v: float = 0.0           # longitudinal speed estimate (m/s)
    sensor: str = "camera"


@dataclass
class GpsFix:
    """Satellite position fix for the ego vehicle."""

    x: float
    y: float


@dataclass
class ImuSample:
    """Inertial measurement of the ego vehicle (paper's ``M_t``)."""

    v: float                 # speed (m/s)
    a: float = 0.0           # longitudinal acceleration (m/s^2)
    yaw_rate: float = 0.0    # rad/s
    heading: float = 0.0     # rad


@dataclass
class SensorBundle:
    """Everything the sensing layer hands to perception (``I_t`` + ``M_t``)."""

    time: float
    camera: list[Detection] = field(default_factory=list)
    radar: list[Detection] = field(default_factory=list)
    gps: GpsFix = field(default_factory=lambda: GpsFix(0.0, 0.0))
    imu: ImuSample = field(default_factory=lambda: ImuSample(0.0))
    lane_offset: float = 0.0      # camera lane sensing: offset from center
    lane_heading: float = 0.0     # relative heading to lane direction


@dataclass
class TrackedObject:
    """A Kalman-tracked object in the world model ``W_t``."""

    track_id: int
    x: float
    y: float
    vx: float
    vy: float
    age: int = 0
    misses: int = 0

    @property
    def speed(self) -> float:
        """Longitudinal speed (highway convention: motion along x)."""
        return self.vx


@dataclass
class EgoEstimate:
    """Localization output: fused ego pose and speed."""

    x: float
    y: float
    v: float
    theta: float


#: Half-width (m) of the travel corridor the planner's lead pick scans.
LEAD_CORRIDOR = 1.9


@dataclass
class WorldModel:
    """The ML-module state ``S_t``: ego estimate + tracked objects + lane."""

    time: float
    ego: EgoEstimate
    tracks: list[TrackedObject] = field(default_factory=list)
    lane_offset: float = 0.0
    lane_heading: float = 0.0
    # Memoized lead selection per corridor width: the planner and the
    # fault-variable setters each re-derive the lead every planning
    # tick.  Any mutation that can change the selection (track x, ego x)
    # must call invalidate_lead_cache().
    _lead_cache: dict = field(default_factory=dict, init=False,
                              repr=False, compare=False)

    def lead_track(self, corridor_half_width: float = LEAD_CORRIDOR
                   ) -> TrackedObject | None:
        """Nearest tracked object ahead within the travel corridor."""
        try:
            return self._lead_cache[corridor_half_width]
        except KeyError:
            pass
        lead = None
        for track in self.tracks:
            if track.x <= self.ego.x:
                continue
            if abs(track.y - self.ego.y) > corridor_half_width:
                continue
            if lead is None or track.x < lead.x:
                lead = track
        self._lead_cache[corridor_half_width] = lead
        return lead

    def invalidate_lead_cache(self) -> None:
        """Drop memoized leads after a selection-relevant mutation."""
        self._lead_cache.clear()


@dataclass
class PlannerOutput:
    """Raw actuation ``U_A,t`` plus the planner's internal targets."""

    target_speed: float      # v_p: planned speed (m/s)
    throttle: float          # u_zeta in [0, 1]
    brake: float             # u_b in [0, 1]
    steering: float          # u_phi (rad)
    gap: float               # planner's believed bumper gap to lead (m)
    closing_speed: float     # ego speed minus lead speed (m/s)


@dataclass
class ActuationCommand:
    """Smoothed actuation ``A_t`` sent to the vehicle."""

    throttle: float
    brake: float
    steering: float

    def clipped(self) -> "ActuationCommand":
        """Physical range enforcement."""
        return ActuationCommand(clip_scalar(self.throttle, 0.0, 1.0),
                                clip_scalar(self.brake, 0.0, 1.0),
                                clip_scalar(self.steering, -0.55, 0.55))
