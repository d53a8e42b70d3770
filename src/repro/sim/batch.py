"""Structure-of-arrays batch simulation: N worlds per fused numpy kernel.

:class:`BatchWorldState` holds N lanes that share one road and one ego
vehicle build — per-lane ego states as an ``(N, 5)`` float64 matrix,
per-lane NPC positions, body sizes and acceleration limits as ``(N, M)``
matrices, and per-lane NPC scripts as ``(N, M, K)`` arrays — and
advances all of them with one set of elementwise ufunc calls per tick
(:func:`~repro.sim.kinematics.batched_rk4_step` for the egos, masked
array updates for the scripts).  Lanes may come from different
scenarios: each lane's columns hold its own roster, in ``world.npcs``
order, and a lane with fewer NPCs than the widest roster of the batch
has padded columns.  Ground-truth safety signals come from the batched
variants in :mod:`repro.sim.collision`.

The contract is the repo-wide one: every lane is bit-for-bit the scalar
:class:`~repro.sim.world.World` stepped alone.  The engine achieves that
by construction —

* arithmetic mirrors the scalar operation order exactly (the kernels
  document the clamp/select mapping);
* anything that is *not* elementwise float64 arithmetic stays scalar:
  the actuation-to-controls mapping (quadratic drag uses Python ``**``)
  runs per lane through :meth:`~repro.sim.vehicle.Vehicle.controls_for`,
  and exact collision confirmation runs the scalar engine's confirm
  (:func:`~repro.sim.collision.box_collides`, the body of
  ``World.in_collision``) behind a vectorized prescreen.  Both engines
  prescreen with the same bounds
  (:func:`~repro.sim.collision.aabb_half_extents`);
* padded NPC columns are inert: their positions are NaN, which fails
  every comparison the kernels and the fused sensing make (range gates,
  corridor and flank tests, occluders, the collision prescreen), their
  speed is 0 under a zero acceleration limit, and their scripts never
  fire (speed and lane-change times of ``+inf``).  ``present`` marks
  the real columns;
* each lane keeps its scalar ``World`` object, which :meth:`scatter`
  writes the batch state back into (the driver scatters a lane when it
  retires), so a finished run reads exactly the world it would have
  stepped alone.

Lanes can join (``attach``) and retire (``deactivate``) independently;
retired lanes are cleared so the fused kernels never see stale state, a
retired lane never perturbs survivors (lanes only interact through
their own rows), and a released slot (``release``) holds no ``World``
until the next lane attaches, which may be of another scenario.  A batch
may start with empty slots and attach its lanes one at a time.  It is
as wide as the driver makes it: one slot per job, up to
:data:`repro.core.parallel.MAX_LANES`, so a dispatch within the cap
runs in one wave.  A retired slot that no pending lane refills idles
to the end of the batch, cleared, for the price of its rows in the
fused kernels.
"""

from __future__ import annotations

import numpy as np

from .collision import (SENSOR_RANGE, Obstacle, batched_collision_prescreen,
                        batched_lateral_clearance, batched_nearest_lead,
                        batched_off_road, box_collides,
                        count_collision_checks)
from .kinematics import BatchKernelWorkspace, VehicleState, batched_rk4_step
from .world import World


class BatchWorldState:
    """N worlds on one road with one ego build, advanced in lockstep.

    ``worlds`` holds one entry per slot: a lane's world, or ``None``
    for a slot that stays empty until a lane attaches.  ``references``
    are fresh builds of every scenario whose lanes may attach during
    the batch's life (default: ``worlds``): the NPC columns are as wide
    as the largest roster among them, and the script arrays as deep as
    their longest speed and lane-change scripts.  Every lane world must
    share the first build's road and ego vehicle parameters.
    """

    def __init__(self, worlds: list[World | None],
                 references: list[World] | None = None):
        builds = [world for world in worlds if world is not None]
        builds += list(references or ())
        if not worlds or not builds:
            raise ValueError("batch needs at least one lane")
        #: Each lane's scalar world; ``None`` for a released slot.
        self.worlds: list[World | None] = list(worlds)
        n = len(self.worlds)
        self.road = builds[0].road
        self.ego_params = builds[0].ego.params
        m = max(len(world.npcs) for world in builds)
        k = max((len(npc.speed_commands) for world in builds
                 for npc in world.npcs), default=0)
        depth = max((len(npc.lane_commands) for world in builds
                     for npc in world.npcs), default=0)

        self.ego = np.zeros((n, 5))
        self.time = np.zeros(n)
        self.acceleration = np.zeros(n)
        self.steering_rate = np.zeros(n)
        #: Real (not padded) NPC columns.
        self.present = np.zeros((n, m), dtype=bool)
        self.npc_x = np.full((n, m), np.nan)
        self.npc_y = np.full((n, m), np.nan)
        self.npc_v = np.zeros((n, m))
        self.npc_length = np.zeros((n, m))
        self.npc_width = np.zeros((n, m))
        self.npc_limit = np.zeros((n, m))
        self.speed_t = np.full((n, m, k), np.inf)
        self.speed_target = np.zeros((n, m, k))
        self.lane_t = np.full((n, m, depth), np.inf)
        self.lane_target_y = np.zeros((n, m, depth))
        self.lane_duration = np.ones((n, m, depth))
        self.lane_remaining = np.zeros((n, m, depth), dtype=bool)
        self.lane_start = np.full((n, m), np.nan)
        #: Per lane and NPC, the lane-change commands it attached with:
        #: what ``lane_remaining`` indexes and :meth:`scatter` rebuilds
        #: ``lane_commands`` from.
        self._lane_scripts: list[list[list] | None] = [None] * n
        self.active = np.zeros(n, dtype=bool)

        self._workspace = BatchKernelWorkspace(n)
        self._ego_out = np.empty((n, 5))
        self._mask = np.empty(n, dtype=bool)
        for lane, world in enumerate(self.worlds):
            if world is not None:
                self.attach(lane, world)

    # -- lane membership ----------------------------------------------------

    @property
    def n_lanes(self) -> int:
        return len(self.worlds)

    @property
    def n_obstacles(self) -> int:
        """NPC columns per lane (the widest roster the batch holds)."""
        return self.npc_x.shape[1]

    def attach(self, lane: int, world: World) -> None:
        """Load ``world`` into ``lane`` (its own NPCs and scripts)."""
        npcs = world.npcs
        if (len(npcs) > self.n_obstacles
                or any(len(npc.speed_commands) > self.speed_t.shape[2]
                       or len(npc.lane_commands) > self.lane_t.shape[2]
                       for npc in npcs)):
            raise ValueError("lane world has more NPCs or longer scripts "
                             "than the batch was sized for; pass its "
                             "scenario build in references")
        if world.road != self.road or world.ego.params != self.ego_params:
            raise ValueError("batches hold one road and one ego vehicle "
                             "build")
        self.worlds[lane] = world
        state = world.ego.state
        self.ego[lane] = (state.x, state.y, state.v, state.theta, state.phi)
        self.time[lane] = world.time
        self.acceleration[lane] = 0.0
        self.steering_rate[lane] = 0.0
        scripts = []
        for j, npc in enumerate(npcs):
            self.present[lane, j] = True
            self.npc_x[lane, j] = npc.x
            self.npc_y[lane, j] = npc.y
            self.npc_v[lane, j] = npc.v
            self.npc_length[lane, j] = npc.length
            self.npc_width[lane, j] = npc.width
            self.npc_limit[lane, j] = npc.acceleration_limit
            for i, command in enumerate(npc.speed_commands):
                self.speed_t[lane, j, i] = command.t
                self.speed_target[lane, j, i] = command.target
            script = list(npc.lane_commands)
            for i, command in enumerate(script):
                self.lane_t[lane, j, i] = command.t
                self.lane_target_y[lane, j, i] = command.target_y
                self.lane_duration[lane, j, i] = command.duration
                self.lane_remaining[lane, j, i] = True
            scripts.append(script)
            start = npc._lane_start_y
            self.lane_start[lane, j] = (np.nan if start is None
                                        else float(start))
        self._lane_scripts[lane] = scripts
        self.active[lane] = True

    def deactivate(self, lane: int) -> None:
        """Retire a lane: clear its rows so kernels never see residue."""
        self.active[lane] = False
        self.ego[lane, :] = 0.0
        self.time[lane] = 0.0
        self.acceleration[lane] = 0.0
        self.steering_rate[lane] = 0.0
        self.present[lane] = False
        self.npc_x[lane] = np.nan
        self.npc_y[lane] = np.nan
        self.npc_v[lane] = 0.0
        self.npc_length[lane] = 0.0
        self.npc_width[lane] = 0.0
        self.npc_limit[lane] = 0.0
        self.speed_t[lane] = np.inf
        self.speed_target[lane] = 0.0
        self.lane_t[lane] = np.inf
        self.lane_target_y[lane] = 0.0
        self.lane_duration[lane] = 1.0
        self.lane_remaining[lane] = False
        self.lane_start[lane] = np.nan
        self._lane_scripts[lane] = None

    def release(self, lane: int) -> None:
        """Retire a lane for good: :meth:`deactivate` it and let go of
        its ``World`` (scatter first if the world is read)."""
        self.deactivate(lane)
        self.worlds[lane] = None

    def apply_controls(self, rows: np.ndarray, throttle: np.ndarray,
                       brake: np.ndarray, steering: np.ndarray,
                       dt: float) -> None:
        """Map the actuation commands of lanes ``rows`` to kernel inputs.

        Mirrors ``Vehicle.controls_for`` expression for expression
        (pedal clips, quadratic drag from the *current* batch speed,
        steering-rate slew from the current batch wheel angle), so a
        fused lane's kernel inputs are bitwise the scalar path's.
        """
        params = self.ego_params
        t = np.clip(throttle, 0.0, 1.0)
        b = np.clip(brake, 0.0, 1.0)
        v = self.ego[rows, 2]
        accel = (t * params.max_acceleration
                 - b * params.max_deceleration
                 - params.drag * (v * v))
        target = np.clip(steering, -params.max_steering_angle,
                         params.max_steering_angle)
        error = target - self.ego[rows, 4]
        if dt > 0:
            rate = np.clip(error / dt, -params.max_steering_rate,
                           params.max_steering_rate)
        else:
            rate = np.zeros_like(error)
        self.acceleration[rows] = accel
        self.steering_rate[rows] = rate

    # -- stepping -----------------------------------------------------------

    def _step_npcs(self, dt: float) -> None:
        """``NPCVehicle.step`` for every (lane, NPC) cell at once."""
        time = self.time[:, None]
        v = self.npc_v
        # The last speed command due wins (scalar ``_active_speed_target``
        # scans the script in order).
        target = v.copy()
        for i in range(self.speed_t.shape[2]):
            np.copyto(target, self.speed_target[:, :, i],
                      where=time >= self.speed_t[:, :, i])
        limit = self.npc_limit * dt
        delta_v = np.clip(target - v, -limit, limit)
        # max(0.0, v + delta_v): select mirrors the scalar operand
        # order (z if z > 0.0 else 0.0).
        z = v + delta_v
        np.copyto(v, np.where(z > 0.0, z, 0.0))
        self.npc_x += v * dt

        remaining = self.lane_remaining
        if not remaining.any():
            return
        # The last remaining lane change due is the active one.
        active = np.full(v.shape, -1, dtype=np.intp)
        for i in range(remaining.shape[2]):
            active[remaining[:, :, i]
                   & (time >= self.lane_t[:, :, i])] = i
        moving = active >= 0
        if not moving.any():
            return
        y = self.npc_y
        starting = moving & np.isnan(self.lane_start)
        self.lane_start[starting] = y[starting]
        rows, cols = np.nonzero(moving)
        index = active[rows, cols]
        command_t = self.lane_t[rows, cols, index]
        progress = np.clip(
            (self.time[rows] + dt - command_t)
            / self.lane_duration[rows, cols, index], 0.0, 1.0)
        blend = 0.5 * (1.0 - np.cos(np.pi * progress))
        start = self.lane_start[rows, cols]
        y[rows, cols] = (start + (self.lane_target_y[rows, cols, index]
                                  - start) * blend)
        finished = progress >= 1.0
        if finished.any():
            rows, cols, index = rows[finished], cols[finished], \
                index[finished]
            self.lane_start[rows, cols] = np.nan
            remaining[rows, cols, index] = False

    def step(self, dt: float) -> None:
        """Advance every lane ``dt`` seconds (scripts, then egos).

        Call :meth:`apply_controls` for the live lanes first; then
        :meth:`scatter` to push the results back into the lane worlds.
        Mirrors ``World.step``: NPC scripts read the pre-step clock, the
        ego integrates the commanded controls, and the clock advances
        last.
        """
        self._step_npcs(dt)
        params = self.ego_params
        batched_rk4_step(self.ego, self.acceleration, self.steering_rate,
                         params.wheelbase, dt, out=self._ego_out,
                         workspace=self._workspace)
        self.ego, self._ego_out = self._ego_out, self.ego
        speed = self.ego[:, 2]
        mask = self._mask
        np.greater(speed, params.max_speed, out=mask)
        np.copyto(speed, params.max_speed, where=mask)
        np.clip(self.ego[:, 4], -params.max_steering_angle,
                params.max_steering_angle, out=self.ego[:, 4])
        self.time += dt

    def scatter(self, lanes=None) -> None:
        """Write batch state back into the per-lane ``World`` objects.

        ``float()`` conversions are bit-preserving; the obstacle cache
        of each touched world is invalidated.
        """
        if lanes is None:
            lanes = np.nonzero(self.active)[0]
        for lane in lanes:
            lane = int(lane)
            world = self.worlds[lane]
            world.ego.state = VehicleState(
                x=float(self.ego[lane, 0]), y=float(self.ego[lane, 1]),
                v=float(self.ego[lane, 2]), theta=float(self.ego[lane, 3]),
                phi=float(self.ego[lane, 4]))
            world.time = float(self.time[lane])
            for j, (npc, script) in enumerate(zip(
                    world.npcs, self._lane_scripts[lane])):
                npc.x = float(self.npc_x[lane, j])
                npc.y = float(self.npc_y[lane, j])
                npc.v = float(self.npc_v[lane, j])
                start = self.lane_start[lane, j]
                npc._lane_start_y = (None if np.isnan(start)
                                     else float(start))
                remaining = self.lane_remaining[lane, j]
                if len(npc.lane_commands) != int(remaining.sum()):
                    npc.lane_commands = [command for i, command
                                         in enumerate(script)
                                         if remaining[i]]
            world.invalidate_obstacles()

    # -- batched ground-truth signals ---------------------------------------

    def safety_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-lane ``(gap, lead_speed, lateral_free)`` for the safety
        potential; ``lead_speed`` is NaN where the corridor is clear (the
        scalar path's ``None``), with ``gap`` pinned at SENSOR_RANGE."""
        params = self.ego_params
        ego_x = self.ego[:, 0]
        ego_y = self.ego[:, 1]
        lead_index, has_lead = batched_nearest_lead(
            ego_x, ego_y, params.width, self.npc_x, self.npc_y,
            self.npc_width)
        n = self.n_lanes
        gap = np.full(n, SENSOR_RANGE)
        lead_speed = np.full(n, np.nan)
        if has_lead.any():
            rows = np.nonzero(has_lead)[0]
            cols = lead_index[rows]
            gap[rows] = ((self.npc_x[rows, cols] - ego_x[rows])
                         - (params.length
                            + self.npc_length[rows, cols]) / 2.0)
            lead_speed[rows] = self.npc_v[rows, cols]
        lateral_free = batched_lateral_clearance(
            ego_x, ego_y, params.length, params.width, self.npc_x,
            self.npc_y, self.npc_length, self.npc_width, self.road)
        return gap, lead_speed, lateral_free

    def collided_mask(self, timer=None) -> np.ndarray:
        """Per-lane ``World.in_collision``: vectorized prescreen, then
        the scalar confirm (:func:`~repro.sim.collision.box_collides`)
        on each candidate lane's real bodies.

        The confirm reads the batch arrays (``float()`` reads are what a
        scatter would have written), so callers that keep lanes
        array-resident — the batched ADS path — need no prior
        :meth:`scatter` and no world sync at all.  ``timer`` counts the
        live lanes' tests in its ``collision`` row.
        """
        params = self.ego_params
        ego = self.ego
        candidates = self.active & batched_collision_prescreen(
            ego[:, 0], ego[:, 1], ego[:, 3], params.length, params.width,
            self.npc_x, self.npc_y, self.npc_length, self.npc_width)
        collided = np.zeros(self.n_lanes, dtype=bool)
        for lane in np.nonzero(candidates)[0].tolist():
            obstacles = [
                Obstacle(obstacle_id=j, x=float(self.npc_x[lane, j]),
                         y=float(self.npc_y[lane, j]),
                         length=float(self.npc_length[lane, j]),
                         width=float(self.npc_width[lane, j]))
                for j in np.flatnonzero(self.present[lane]).tolist()]
            collided[lane] = box_collides(
                float(ego[lane, 0]), float(ego[lane, 1]),
                float(ego[lane, 3]), params.length, params.width,
                obstacles)
        if timer is not None:
            count_collision_checks(timer, int(self.active.sum()),
                                   int(candidates.sum()),
                                   int(collided.sum()))
        return collided

    def off_road_mask(self) -> np.ndarray:
        """Per-lane ``World.off_road``."""
        return batched_off_road(self.ego[:, 1], self.ego_params.width,
                                self.road)
