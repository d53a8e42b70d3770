"""Structure-of-arrays batch simulation: N worlds per fused numpy kernel.

:class:`BatchWorldState` holds N lanes of the *same scenario build* —
per-lane ego states as an ``(N, 5)`` float64 matrix, per-lane NPC
positions as ``(N, M)`` matrices, and vectorized NPC script state — and
advances all of them with one set of elementwise ufunc calls per tick
(:func:`~repro.sim.kinematics.batched_rk4_step` for the egos, masked
array updates for the scripts).  Ground-truth safety signals come from
the batched variants in :mod:`repro.sim.collision`.

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
* each lane keeps its scalar ``World`` object, which :meth:`scatter`
  writes the batch state back into (the driver scatters a lane when it
  retires), so a finished run reads exactly the world it would have
  stepped alone.

Lanes can join (``attach``) and retire (``deactivate``) independently;
retired lanes are zeroed so the fused kernels never see stale state, a
retired lane never perturbs survivors (lanes only interact through
their own columns), and a released slot (``release``) holds no
``World`` until the next lane attaches.  A batch is as wide as the
driver makes it (:data:`repro.core.parallel.MAX_LANES`): a retired slot
that no pending lane refills idles to the end of the batch, zeroed, for
the price of its rows in the fused kernels.
"""

from __future__ import annotations

import numpy as np

from .collision import (SENSOR_RANGE, Obstacle, batched_collision_prescreen,
                        batched_lateral_clearance, batched_nearest_lead,
                        batched_off_road, box_collides,
                        count_collision_checks)
from .kinematics import BatchKernelWorkspace, VehicleState, batched_rk4_step
from .world import World


def _match_subsequence(commands, master) -> list[bool]:
    """Remaining-mask of ``commands`` against the master script."""
    mask = [False] * len(master)
    position = 0
    for command in commands:
        index = master.index(command, position)
        mask[index] = True
        position = index + 1
    return mask


class BatchWorldState:
    """N same-scenario worlds advanced in lockstep by fused kernels.

    ``reference`` is a fresh world of the scenario build: its road,
    vehicle parameters and full NPC scripts define the batch, and every
    lane world must be a state of that build.
    """

    def __init__(self, worlds: list[World], reference: World):
        if not worlds:
            raise ValueError("batch needs at least one lane")
        #: Each lane's scalar world; ``None`` for a released slot.
        self.worlds: list[World | None] = list(worlds)
        n = len(self.worlds)
        self.road = reference.road
        self.ego_params = reference.ego.params
        npcs = reference.npcs
        m = len(npcs)
        self._npc_ids = [npc.npc_id for npc in npcs]
        self._npc_lengths = np.array([npc.length for npc in npcs])
        self._npc_widths = np.array([npc.width for npc in npcs])
        self._npc_limits = [npc.acceleration_limit for npc in npcs]
        self._speed_commands = [list(npc.speed_commands) for npc in npcs]
        self._lane_master = [list(npc.lane_commands) for npc in npcs]

        self.ego = np.zeros((n, 5))
        self.time = np.zeros(n)
        self.acceleration = np.zeros(n)
        self.steering_rate = np.zeros(n)
        self.npc_x = np.zeros((n, m))
        self.npc_y = np.zeros((n, m))
        self.npc_v = np.zeros((n, m))
        self.lane_start = np.full((n, m), np.nan)
        self.lane_remaining = [
            np.zeros((n, len(self._lane_master[j])), dtype=bool)
            for j in range(m)]
        self.active = np.zeros(n, dtype=bool)

        self._workspace = BatchKernelWorkspace(n)
        self._ego_out = np.empty((n, 5))
        self._target = np.empty(n)
        self._mask = np.empty(n, dtype=bool)
        for lane, world in enumerate(self.worlds):
            self.attach(lane, world)

    # -- lane membership ----------------------------------------------------

    @property
    def n_lanes(self) -> int:
        return len(self.worlds)

    @property
    def n_obstacles(self) -> int:
        return len(self._npc_ids)

    def attach(self, lane: int, world: World) -> None:
        """Load ``world`` (same scenario build) into ``lane``."""
        if len(world.npcs) != self.n_obstacles:
            raise ValueError(
                f"lane world has {len(world.npcs)} NPCs, batch has "
                f"{self.n_obstacles}; batches hold one scenario build")
        self.worlds[lane] = world
        state = world.ego.state
        self.ego[lane, 0] = state.x
        self.ego[lane, 1] = state.y
        self.ego[lane, 2] = state.v
        self.ego[lane, 3] = state.theta
        self.ego[lane, 4] = state.phi
        self.time[lane] = world.time
        self.acceleration[lane] = 0.0
        self.steering_rate[lane] = 0.0
        for j, npc in enumerate(world.npcs):
            if npc.npc_id != self._npc_ids[j]:
                raise ValueError("lane world NPC roster does not match "
                                 "the batch scenario build")
            self.npc_x[lane, j] = npc.x
            self.npc_y[lane, j] = npc.y
            self.npc_v[lane, j] = npc.v
            start = npc._lane_start_y
            self.lane_start[lane, j] = (np.nan if start is None
                                        else float(start))
            self.lane_remaining[j][lane, :] = _match_subsequence(
                npc.lane_commands, self._lane_master[j])
        self.active[lane] = True

    def deactivate(self, lane: int) -> None:
        """Retire a lane: zero its state so kernels never see residue."""
        self.active[lane] = False
        self.ego[lane, :] = 0.0
        self.time[lane] = 0.0
        self.acceleration[lane] = 0.0
        self.steering_rate[lane] = 0.0
        self.npc_x[lane, :] = 0.0
        self.npc_y[lane, :] = 0.0
        self.npc_v[lane, :] = 0.0
        self.lane_start[lane, :] = np.nan
        for remaining in self.lane_remaining:
            remaining[lane, :] = False

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
        time = self.time
        for j in range(self.n_obstacles):
            x = self.npc_x[:, j]
            y = self.npc_y[:, j]
            v = self.npc_v[:, j]
            target = self._target
            np.copyto(target, v)
            for command in self._speed_commands[j]:
                np.greater_equal(time, command.t, out=self._mask)
                np.copyto(target, command.target, where=self._mask)
            limit = self._npc_limits[j] * dt
            delta_v = np.clip(target - v, -limit, limit)
            # max(0.0, v + delta_v): select mirrors the scalar operand
            # order (z if z > 0.0 else 0.0).
            z = v + delta_v
            np.copyto(v, np.where(z > 0.0, z, 0.0))
            x += v * dt

            master = self._lane_master[j]
            if not master:
                continue
            remaining = self.lane_remaining[j]
            active_cmd = np.full(self.n_lanes, -1, dtype=np.intp)
            for k, command in enumerate(master):
                sel = remaining[:, k] & (time >= command.t)
                active_cmd[sel] = k
            start_col = self.lane_start[:, j]
            needs_start = (active_cmd >= 0) & np.isnan(start_col)
            start_col[needs_start] = y[needs_start]
            for k, command in enumerate(master):
                group = active_cmd == k
                if not group.any():
                    continue
                progress = np.clip(
                    (time[group] + dt - command.t) / command.duration,
                    0.0, 1.0)
                blend = 0.5 * (1.0 - np.cos(np.pi * progress))
                start = start_col[group]
                y[group] = start + (command.target_y - start) * blend
                finished = progress >= 1.0
                if finished.any():
                    rows = np.nonzero(group)[0][finished]
                    start_col[rows] = np.nan
                    remaining[rows, k] = False

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
            for j, npc in enumerate(world.npcs):
                npc.x = float(self.npc_x[lane, j])
                npc.y = float(self.npc_y[lane, j])
                npc.v = float(self.npc_v[lane, j])
                start = self.lane_start[lane, j]
                npc._lane_start_y = (None if np.isnan(start)
                                     else float(start))
                master = self._lane_master[j]
                remaining = self.lane_remaining[j][lane]
                if len(npc.lane_commands) != int(remaining.sum()):
                    npc.lane_commands = [
                        command for k, command in enumerate(master)
                        if remaining[k]]
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
            self._npc_widths)
        n = self.n_lanes
        gap = np.full(n, SENSOR_RANGE)
        lead_speed = np.full(n, np.nan)
        if has_lead.any():
            rows = np.nonzero(has_lead)[0]
            cols = lead_index[rows]
            gap[rows] = ((self.npc_x[rows, cols] - ego_x[rows])
                         - (params.length
                            + self._npc_lengths[cols]) / 2.0)
            lead_speed[rows] = self.npc_v[rows, cols]
        lateral_free = batched_lateral_clearance(
            ego_x, ego_y, params.length, params.width, self.npc_x,
            self.npc_y, self._npc_lengths, self._npc_widths, self.road)
        return gap, lead_speed, lateral_free

    def collided_mask(self, timer=None) -> np.ndarray:
        """Per-lane ``World.in_collision``: vectorized prescreen, then
        the scalar confirm (:func:`~repro.sim.collision.box_collides`)
        on each candidate lane's bodies.

        The confirm reads the batch arrays (``float()`` reads are what a
        scatter would have written), so callers that keep lanes
        array-resident — the batched ADS path — need no prior
        :meth:`scatter` and no world sync at all.  ``timer`` counts the
        live lanes' tests in its ``collision`` row.
        """
        params = self.ego_params
        ego = self.ego
        # Retired slots are zeroed (ego and NPCs collapse onto the
        # origin) and would otherwise confirm as phantom collisions
        # every remaining tick of the batch.
        candidates = self.active & batched_collision_prescreen(
            ego[:, 0], ego[:, 1], ego[:, 3], params.length, params.width,
            self.npc_x, self.npc_y, self._npc_lengths, self._npc_widths)
        collided = np.zeros(self.n_lanes, dtype=bool)
        for lane in np.nonzero(candidates)[0].tolist():
            obstacles = [
                Obstacle(obstacle_id=j, x=float(self.npc_x[lane, j]),
                         y=float(self.npc_y[lane, j]),
                         length=float(self._npc_lengths[j]),
                         width=float(self._npc_widths[j]))
                for j in range(self.n_obstacles)]
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
