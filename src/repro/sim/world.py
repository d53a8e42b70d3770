"""The simulated world: road, ego vehicle, scripted traffic, and stepping."""

from __future__ import annotations

from dataclasses import dataclass, field

from .collision import (Obstacle, box_collides, lateral_clearance,
                        lateral_clearance_directional, lateral_safe_distance,
                        longitudinal_safe_distance, nearest_lead)
from .kinematics import VehicleState
from .npc import NPCSnapshot, NPCVehicle
from .road import Road
from .vehicle import Vehicle, VehicleParameters


@dataclass(frozen=True)
class WorldSnapshot:
    """Picklable capture of everything a :class:`World` mutates while
    stepping: the clock, the ego kinematic state, and each NPC's script
    progress.  Static structure (road geometry, vehicle parameters, the
    NPC roster) is not captured — ``restore`` targets a world freshly
    built by the same scenario."""

    time: float
    ego: VehicleState
    npcs: tuple[NPCSnapshot, ...] = ()


@dataclass
class World:
    """Everything outside the ADS: geometry, bodies, ground truth."""

    road: Road
    ego: Vehicle
    npcs: list[NPCVehicle] = field(default_factory=list)
    time: float = 0.0
    _obstacle_cache: list[Obstacle] | None = field(
        default=None, repr=False, compare=False)

    @classmethod
    def on_highway(cls, ego_speed: float = 30.0, ego_lane: int = 1,
                   road: Road | None = None,
                   params: VehicleParameters | None = None) -> "World":
        """A fresh world with the ego centered in ``ego_lane``."""
        road = road or Road()
        state = VehicleState(x=0.0, y=road.lane_center(ego_lane),
                             v=ego_speed, theta=0.0, phi=0.0)
        ego = Vehicle(state=state, params=params or VehicleParameters())
        return cls(road=road, ego=ego)

    def add_npc(self, npc: NPCVehicle) -> None:
        """Register a scripted target vehicle."""
        self.npcs.append(npc)
        self._obstacle_cache = None

    def obstacles(self) -> list[Obstacle]:
        """Ground-truth snapshot of every non-ego body.

        Built once per tick and cached: the safety signals
        (``longitudinal_d_safe``, ``lateral_d_safe``,
        ``lateral_clearance``, ``in_collision``) all query it within the
        same tick.  Obstacles are frozen, so sharing the list is safe;
        anything that moves an NPC (``step``, ``restore``, ``add_npc``,
        or a batch engine scattering state back) invalidates it.
        """
        if self._obstacle_cache is None:
            self._obstacle_cache = [npc.as_obstacle() for npc in self.npcs]
        return self._obstacle_cache

    def invalidate_obstacles(self) -> None:
        """Drop the cached obstacle snapshot (NPC state changed)."""
        self._obstacle_cache = None

    def step(self, throttle: float, brake: float, steering: float,
             dt: float) -> None:
        """Advance the whole world ``dt`` seconds.

        The ego integrates the given actuation; NPCs advance their
        scripts from the current scenario clock.
        """
        for npc in self.npcs:
            npc.step(self.time, dt)
        self.ego.apply_actuation(throttle, brake, steering, dt)
        self.time += dt
        self._obstacle_cache = None

    # -- checkpoint support ---------------------------------------------------

    def snapshot(self) -> WorldSnapshot:
        """Capture clock, ego state, and NPC script progress."""
        return WorldSnapshot(
            time=self.time, ego=self.ego.state,
            npcs=tuple(npc.snapshot() for npc in self.npcs))

    def restore(self, snapshot: WorldSnapshot) -> None:
        """Rewind to a snapshot taken from an identically-built world."""
        if len(snapshot.npcs) != len(self.npcs):
            raise ValueError(
                f"snapshot has {len(snapshot.npcs)} NPCs, world has "
                f"{len(self.npcs)}; restore needs the same scenario build")
        self.time = snapshot.time
        self.ego.state = snapshot.ego
        for npc, npc_snapshot in zip(self.npcs, snapshot.npcs):
            npc.restore(npc_snapshot)
        self._obstacle_cache = None

    # -- ground-truth safety signals ----------------------------------------

    def longitudinal_d_safe(self) -> float:
        """Bumper gap to the nearest body ahead in the ego corridor."""
        state = self.ego.state
        return longitudinal_safe_distance(
            state.x, state.y, self.ego.params.length, self.ego.params.width,
            self.obstacles())

    def lateral_d_safe(self) -> float:
        """Clearance to flanking bodies and the ego-lane boundaries."""
        state = self.ego.state
        return lateral_safe_distance(
            state.x, state.y, self.ego.params.length, self.ego.params.width,
            self.obstacles(), self.road)

    def lateral_clearance(self) -> float:
        """Clearance to flanking bodies and the road edge."""
        state = self.ego.state
        return lateral_clearance(
            state.x, state.y, self.ego.params.length, self.ego.params.width,
            self.obstacles(), self.road)

    def lateral_clearance_toward(self, side: int) -> float:
        """Clearance toward one side (+1 = +y, -1 = -y)."""
        state = self.ego.state
        return lateral_clearance_directional(
            state.x, state.y, self.ego.params.length, self.ego.params.width,
            self.obstacles(), self.road, side)

    def lead_obstacle(self, extra_margin: float = 0.0) -> Obstacle | None:
        """Ground-truth nearest in-corridor vehicle ahead, if any."""
        state = self.ego.state
        return nearest_lead(state.x, state.y, self.ego.params.width,
                            self.obstacles(), extra_margin)

    def in_collision(self, timer=None) -> bool:
        """True when the ego body overlaps any obstacle.

        Exact: an axis-aligned bounds prescreen drops the obstacles that
        cannot touch the ego and the SAT decides the rest
        (:func:`~repro.sim.collision.box_collides`).  ``timer`` (a
        :class:`~repro.ads.profiling.StageTimer`, or None) counts the
        test in its ``collision`` row.
        """
        state = self.ego.state
        params = self.ego.params
        return box_collides(state.x, state.y, state.theta, params.length,
                            params.width, self.obstacles(), timer)

    def off_road(self) -> bool:
        """True when any part of the ego body leaves the pavement."""
        half_width = self.ego.params.width / 2.0
        return self.road.lateral_margin_on_road(
            self.ego.state.y, half_width) < 0.0
