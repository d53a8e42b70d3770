"""Batched ADS pipeline: N same-scenario lanes per fused kernel tick.

:class:`BatchADSState` is the ADS-side twin of
:class:`~repro.sim.batch.BatchWorldState`: it advances every *fused*
lane of a batch through the full sense → perceive → track → localize →
plan → actuate cycle with one set of numpy kernel calls per tick, while
the scalar :class:`~repro.ads.runtime.ADSPipeline` stays the bit-for-bit
oracle.  The split of labor per stage:

* **Vectorized across lanes** — sensing geometry (range gates and the
  occlusion shadow test), the IDM planner, the PID/slew controller, the
  final command clip, and the actuation-to-controls mapping.
* **Per lane, reusing the lane's own scalar objects** — RNG draws and
  message construction (each lane owns an independent ``Generator``;
  the lane runs the scalar engine's own packed-draw helper,
  :func:`~repro.ads.sensors.noisy_bundle`), camera/radar fusion (the
  lane's ``Perception``), and the world model: the ragged per-object
  Kalman tracker (the lane's ``MultiObjectTracker``) and the ego EKF
  (the lane's ``EgoLocalizer``), both straight-line float kernels that
  beat component arrays at the lane counts a batch fuses.

Equivalence holds by construction: the vectorized stages evaluate the
*same* kernel expressions the scalar modules call with floats, both
engines draw sensor noise through the same packed helper (its numpy
bit-identities — ``standard_normal(k)`` equals ``k`` sequential draws,
``normal(0, s)`` equals ``0.0 + s * standard_normal()`` — are pinned by
``tests/test_sensor_equivalence.py``), and fault injection flows
through the *real* registry setters on real payload objects for the
sensing/perception/world-model stages — only the planner/actuation
stages, whose payloads live in structure-of-arrays form, apply value
faults as masked column writes (their setters are plain field stores).

Lanes whose configuration or armed faults the fused path cannot
represent — interface faults on the channel bus, bus residue from a
restored snapshot, a degradation policy the planner's natural staleness
could trip, or a non-default IDM exponent — report ``False`` from
:func:`can_fuse` and *peel*: the driver runs their scalar pipeline per
lane while the rest of the batch stays fused.  Fused lanes provably
never degrade (sensing age is 0 every tick and plan age is at most
``planner_divisor - 1``, which :func:`can_fuse` requires to be within
the TTL), so the safe-stop branch needs no batched twin.
"""

from __future__ import annotations

import numpy as np

from ..sim.batch import BatchWorldState
from ..sim.collision import SENSOR_RANGE
from .channels import ChannelBus
from .control import ControllerSnapshot
from .kernels import control_step, plan_step
from .messages import (ActuationCommand, PlannerOutput, SensorBundle,
                       WorldModel)
from .profiling import STAGE_TIMER
from .runtime import (ADSConfig, ADSPipeline, PipelineSnapshot,
                      pack_payloads)
from .sensors import SensorSnapshot, noisy_bundle

#: Planner-stage fault variables as plan-array column names.
_PLAN_COLUMNS = {"planned_speed": "plan_target", "raw_throttle":
                 "plan_throttle", "raw_brake": "plan_brake",
                 "raw_steering": "plan_steering"}

#: Actuation-stage fault variables as actuation-array column names.
_ACT_COLUMNS = {"throttle": "act_throttle", "brake": "act_brake",
                "steering": "act_steering"}


def can_fuse(pipeline: ADSPipeline) -> bool:
    """True when a lane's pipeline is representable by the fused path.

    Peel conditions: armed interface faults or channel residue (delay
    queues / jitter windows restored from a snapshot), a degradation
    policy the planner's natural ``divisor - 1`` staleness could trip,
    or an IDM exponent outside the closed-form kernel's domain.
    """
    cfg = pipeline.config
    if cfg.planner.idm_exponent != 4.0:
        return False
    if (cfg.degradation.enabled
            and cfg.planner_divisor - 1 > cfg.degradation.ttl_ticks):
        return False
    bus = pipeline.bus
    if bus.faults:
        return False
    for state in bus._states.values():
        if state.queue or state.buffer:
            return False
    return True


class BatchADSState:
    """Structure-of-arrays ADS state for the fused lanes of one batch."""

    def __init__(self, batch: BatchWorldState, config: ADSConfig):
        self.batch = batch
        self.config = config
        self._dt = config.control_period
        self._planning_dt = config.planner_period
        n = batch.n_lanes
        self.active = np.zeros(n, dtype=bool)
        self.tick = np.zeros(n, dtype=np.int64)
        #: Lanes that hit their modulo planning tick this cycle (the
        #: scalar ``is_planning_tick``, used by trace recording).
        self.planned = np.zeros(n, dtype=bool)

        # Adopted per-lane scalar objects (ragged / object-shaped state).
        self.pipelines: list[ADSPipeline | None] = [None] * n
        self.rngs = [None] * n
        self.perceptions = [None] * n
        self.trackers = [None] * n
        self.localizers = [None] * n
        self.accel_last_t: list[float | None] = [None] * n
        self.accel_last_v: list[float | None] = [None] * n
        self.bundles: list[SensorBundle | None] = [None] * n
        self.detections: list[list | None] = [None] * n
        self.models: list[WorldModel | None] = [None] * n
        self.stage_faults: list[dict | None] = [None] * n
        self.faulty: set[int] = set()

        # Latched planner output (the scalar pipeline's ``_plan``).
        self.plan_valid = np.zeros(n, dtype=bool)
        self.plan_target = np.zeros(n)
        self.plan_throttle = np.zeros(n)
        self.plan_brake = np.zeros(n)
        self.plan_steering = np.zeros(n)
        self.plan_gap = np.zeros(n)
        self.plan_closing = np.zeros(n)

        # Controller memory (PID + slew limiter).
        self.pid_integral = np.zeros(n)
        self.pid_last_error = np.zeros(n)
        self.pid_has_last = np.zeros(n, dtype=bool)
        self.last_throttle = np.zeros(n)
        self.last_brake = np.zeros(n)
        self.last_steering = np.zeros(n)

        # Actuation payload (post-corruption, pre-final-clip — what the
        # scalar bus holds) and the executed command (post-clip).
        self.act_throttle = np.zeros(n)
        self.act_brake = np.zeros(n)
        self.act_steering = np.zeros(n)
        self.cmd_throttle = np.zeros(n)
        self.cmd_brake = np.zeros(n)
        self.cmd_steering = np.zeros(n)

        # Delivery origins per channel (-1 encodes the bus's ``None``).
        self.sense_origin = np.full(n, -1, dtype=np.int64)
        self.percept_origin = np.full(n, -1, dtype=np.int64)
        self.model_origin = np.full(n, -1, dtype=np.int64)
        self.plan_origin = np.full(n, -1, dtype=np.int64)
        self.act_origin = np.full(n, -1, dtype=np.int64)

    # -- lane membership ----------------------------------------------------

    def attach(self, slot: int, pipeline: ADSPipeline) -> None:
        """Adopt a fused lane's pipeline state into the batch arrays.

        The pipeline must satisfy :func:`can_fuse`.  Its RNG, perception,
        tracker and localizer objects are shared (not copied): the fused path
        advances them exactly as the scalar path would, so detaching or
        snapshotting later sees consistent state.
        """
        self.pipelines[slot] = pipeline
        self.rngs[slot] = pipeline.sensors.rng
        self.perceptions[slot] = pipeline.perception
        self.trackers[slot] = pipeline.tracker
        self.localizers[slot] = pipeline.localizer
        self.accel_last_t[slot] = pipeline.sensors._last_time
        self.accel_last_v[slot] = pipeline.sensors._last_speed
        self.tick[slot] = pipeline.tick_index

        plan = pipeline.last_plan
        if plan is None:
            self.plan_valid[slot] = False
        else:
            self.plan_valid[slot] = True
            self.plan_target[slot] = plan.target_speed
            self.plan_throttle[slot] = plan.throttle
            self.plan_brake[slot] = plan.brake
            self.plan_steering[slot] = plan.steering
            self.plan_gap[slot] = plan.gap
            self.plan_closing[slot] = plan.closing_speed
        self.models[slot] = pipeline.last_model

        controller = pipeline.controller
        pid = controller._speed_pid
        self.pid_integral[slot] = pid._integral
        self.pid_has_last[slot] = pid._last_error is not None
        self.pid_last_error[slot] = (0.0 if pid._last_error is None
                                     else pid._last_error)
        last = controller._last
        self.last_throttle[slot] = last.throttle
        self.last_brake[slot] = last.brake
        self.last_steering[slot] = last.steering
        command = pipeline.last_command
        self.cmd_throttle[slot] = command.throttle
        self.cmd_brake[slot] = command.brake
        self.cmd_steering[slot] = command.steering

        states = pipeline.bus._states
        self.bundles[slot] = states["sensing"].payload
        self.detections[slot] = states["perception"].payload
        act = states["actuation"].payload
        if act is not None:
            self.act_throttle[slot] = act.throttle
            self.act_brake[slot] = act.brake
            self.act_steering[slot] = act.steering
        for name, column in (("sensing", self.sense_origin),
                             ("perception", self.percept_origin),
                             ("world_model", self.model_origin),
                             ("planning", self.plan_origin),
                             ("actuation", self.act_origin)):
            origin = states[name].origin
            column[slot] = -1 if origin is None else origin

        stages: dict[str, list] = {}
        for fault in pipeline.faults:
            stages.setdefault(fault.variable.stage, []).append(fault)
        self.stage_faults[slot] = stages
        if stages:
            self.faulty.add(slot)
        else:
            self.faulty.discard(slot)
        self.active[slot] = True

    def deactivate(self, slot: int) -> None:
        """Release a fused lane (syncs the shared scalar objects)."""
        pipeline = self.pipelines[slot]
        if pipeline is not None:
            pipeline.tick_index = int(self.tick[slot])
            pipeline.sensors._last_time = self.accel_last_t[slot]
            pipeline.sensors._last_speed = self.accel_last_v[slot]
        self.active[slot] = False
        self.pipelines[slot] = None
        self.rngs[slot] = None
        self.perceptions[slot] = None
        self.trackers[slot] = None
        self.localizers[slot] = None
        self.bundles[slot] = None
        self.detections[slot] = None
        self.models[slot] = None
        self.stage_faults[slot] = None
        self.faulty.discard(slot)
        self.plan_valid[slot] = False

    # -- fault application ---------------------------------------------------

    def _apply_object_faults(self, slot: int, stage: str,
                             payload: object) -> None:
        """Run the real registry setters of ``stage`` against a real
        payload object, in armed order (scalar ``_corrupt``)."""
        tick = int(self.tick[slot])
        for fault in self.stage_faults[slot].get(stage, ()):
            if fault.active(tick):
                if fault.variable.setter(payload, fault.value):
                    fault.landed = True

    def _apply_column_faults(self, slot: int, stage: str,
                             columns: dict) -> None:
        """Apply a planner/actuation-stage fault as a column write (the
        scalar setters are plain field stores, so landing is certain)."""
        tick = int(self.tick[slot])
        for fault in self.stage_faults[slot].get(stage, ()):
            if fault.active(tick):
                getattr(self, columns[fault.variable.name])[slot] = \
                    fault.value
                fault.landed = True

    # -- the fused tick ------------------------------------------------------

    def tick_all(self) -> None:
        """One control cycle for every fused lane, ending with the
        executed commands mapped into the batch's kernel controls."""
        self.planned[:] = False
        rows = np.nonzero(self.active)[0]
        if rows.size == 0:
            return
        timer = STAGE_TIMER if STAGE_TIMER.enabled else None
        ticks = self.tick[rows]
        started = timer.start() if timer else 0
        self._sense(rows)
        if timer:
            timer.stop("sensing", started, rows.size)
        self.planned[rows] = ticks % self.config.planner_divisor == 0
        planning = self.planned[rows] | ~self.plan_valid[rows]
        if planning.any():
            self._plan_stage(rows[planning], timer)
        started = timer.start() if timer else 0
        self._actuate(rows)
        if timer:
            timer.stop("actuation", started, rows.size)
        self.tick[rows] += 1
        self.batch.apply_controls(rows, self.cmd_throttle[rows],
                                  self.cmd_brake[rows],
                                  self.cmd_steering[rows], self._dt)

    def _sense(self, rows: np.ndarray) -> None:
        """Batched sensor measurement: vectorized geometry, per-lane
        packed RNG draws, real ``SensorBundle`` payloads."""
        cfg = self.config.sensors
        batch = self.batch
        road = batch.road
        wheelbase = batch.ego_params.wheelbase
        ego = batch.ego[rows]
        ego_v = ego[:, 2]
        npc_x = batch.npc_x[rows]
        npc_y = batch.npc_y[rows]
        m = npc_x.shape[1]

        if m:
            ahead = npc_x - ego[:, 0][:, None]
            cam = (0.0 < ahead) & (ahead <= cfg.camera_range)
            rad = (0.0 < ahead) & (ahead <= cfg.radar_range)
            # Occlusion shadow: obstacle j is hidden when any other
            # obstacle sits strictly between ego+1 and j, laterally
            # within the half-width (scalar ``_occluded``).
            occluded = np.zeros_like(cam)
            ego_near = ego[:, 0][:, None] + 1.0
            for j2 in range(m):
                x2 = npc_x[:, j2][:, None]
                y2 = npc_y[:, j2][:, None]
                blocker = ((ego_near < x2) & (x2 < npc_x)
                           & (np.abs(y2 - npc_y)
                              < cfg.occlusion_half_width))
                blocker[:, j2] = False
                occluded |= blocker
            skip = (ahead > 0.0) & occluded
            visible_cam = (cam & ~skip).tolist()
            visible_rad = (rad & ~skip).tolist()
            npc_x_list = npc_x.tolist()
            npc_y_list = npc_y.tolist()
            npc_v_list = batch.npc_v[rows].tolist()
        yaw_rates = ego_v * np.tan(ego[:, 4]) / wheelbase

        ego_list = ego.tolist()
        yaw_list = yaw_rates.tolist()
        times = batch.time[rows].tolist()
        for i, slot in enumerate(rows.tolist()):
            visible = ()
            if m:
                lane_cam = visible_cam[i]
                lane_rad = visible_rad[i]
                lane_x = npc_x_list[i]
                lane_y = npc_y_list[i]
                lane_v = npc_v_list[i]
                visible = [(lane_x[j], lane_y[j], lane_v[j], lane_cam[j],
                            lane_rad[j])
                           for j in range(m) if lane_cam[j] or lane_rad[j]]

            time = times[i]
            x, ego_y, speed, theta = ego_list[i][:4]
            last_time = self.accel_last_t[slot]
            if last_time is None or time <= last_time:
                acceleration = 0.0
            else:
                acceleration = ((speed - self.accel_last_v[slot])
                                / (time - last_time))
            self.accel_last_t[slot] = time
            self.accel_last_v[slot] = speed

            lane_center = road.lane_center(road.lane_of(ego_y))
            bundle = noisy_bundle(self.rngs[slot], cfg, time, visible, x,
                                  ego_y, speed, theta, acceleration,
                                  yaw_list[i], lane_center)
            if slot in self.faulty:
                self._apply_object_faults(slot, "sensing", bundle)
            self.bundles[slot] = bundle
        self.sense_origin[rows] = self.tick[rows]

    def _plan_stage(self, rows: np.ndarray,
                    timer: "StageTimer | None" = None) -> None:
        """Perception, tracking, localization, world model, planning for
        the lanes re-planning this tick."""
        config = self.config
        planning_dt = self._planning_dt
        slots = rows.tolist()
        k = len(slots)

        # Per-lane camera/radar fusion on the adopted scalar objects.
        started = timer.start() if timer else 0
        for slot in slots:
            bundle = self.bundles[slot]
            detections = self.perceptions[slot].process(bundle)
            if slot in self.faulty:
                self._apply_object_faults(slot, "perception", detections)
            self.detections[slot] = detections
        self.percept_origin[rows] = self.tick[rows]
        if timer:
            timer.stop("perception", started, k)

        # World-model stage: per-lane tracking and localization on the
        # adopted filters, then real model payloads and world-model
        # fault setters (the scalar tick's world_model bracket).
        started = timer.start() if timer else 0
        has_lead = np.zeros(k, dtype=bool)
        px = np.empty(k)
        pv = np.empty(k)
        lx = np.empty(k)
        lv = np.empty(k)
        lane_offsets = np.empty(k)
        lane_headings = np.empty(k)
        for i, slot in enumerate(slots):
            bundle = self.bundles[slot]
            imu = bundle.imu
            tracks = self.trackers[slot].update(self.detections[slot],
                                                planning_dt)
            ego = self.localizers[slot].update(bundle.gps, imu,
                                               imu.yaw_rate, planning_dt)
            model = WorldModel(time=bundle.time, ego=ego, tracks=tracks,
                               lane_offset=bundle.lane_offset,
                               lane_heading=bundle.lane_heading)
            if slot in self.faulty:
                self._apply_object_faults(slot, "world_model", model)
            self.models[slot] = model
            lead = model.lead_track()
            px[i] = model.ego.x
            pv[i] = model.ego.v
            if lead is None:
                lx[i] = model.ego.x
                lv[i] = 0.0
            else:
                has_lead[i] = True
                lx[i] = lead.x
                lv[i] = lead.vx
            lane_offsets[i] = model.lane_offset
            lane_headings[i] = model.lane_heading
        self.model_origin[rows] = self.tick[rows]
        if timer:
            timer.stop("world_model", started, k)
            timer.count("world_model", "tracks", sum(
                self.trackers[slot].track_count for slot in slots))
            timer.count("world_model", "detections", sum(
                len(self.detections[slot]) for slot in slots))

        started = timer.start() if timer else 0
        target, throttle, brake, steering, gap, closing = plan_step(
            px, pv, lx, lv, has_lead, lane_offsets, lane_headings,
            SENSOR_RANGE, config.planner, np.where, np.clip)
        self.plan_target[rows] = target
        self.plan_throttle[rows] = throttle
        self.plan_brake[rows] = brake
        self.plan_steering[rows] = steering
        self.plan_gap[rows] = gap
        self.plan_closing[rows] = closing
        self.plan_valid[rows] = True
        for slot in slots:
            if slot in self.faulty:
                self._apply_column_faults(slot, "planning", _PLAN_COLUMNS)
        self.plan_origin[rows] = self.tick[rows]
        if timer:
            timer.stop("planning", started, k)

    def _actuate(self, rows: np.ndarray) -> None:
        """Controller + actuation faults + physical clip for all fused
        lanes (runs every tick; fused lanes never degrade)."""
        cfg = self.config.controller
        measured = np.empty(rows.size)
        for i, slot in enumerate(rows.tolist()):
            measured[i] = self.bundles[slot].imu.v
        if cfg.enabled:
            throttle, brake, steering, integral, error = control_step(
                self.plan_target[rows], self.plan_throttle[rows],
                self.plan_brake[rows], self.plan_steering[rows],
                measured, self._dt, self.pid_integral[rows],
                self.pid_last_error[rows], self.pid_has_last[rows],
                self.last_throttle[rows], self.last_brake[rows],
                self.last_steering[rows], cfg, np.where, np.clip)
            self.pid_integral[rows] = integral
            self.pid_last_error[rows] = error
            self.pid_has_last[rows] = True
        else:
            throttle = np.clip(self.plan_throttle[rows], 0.0, 1.0)
            brake = np.clip(self.plan_brake[rows], 0.0, 1.0)
            steering = np.clip(self.plan_steering[rows], -0.55, 0.55)
        self.last_throttle[rows] = throttle
        self.last_brake[rows] = brake
        self.last_steering[rows] = steering
        self.act_throttle[rows] = throttle
        self.act_brake[rows] = brake
        self.act_steering[rows] = steering
        for slot in rows.tolist():
            if slot in self.faulty:
                self._apply_column_faults(slot, "actuation", _ACT_COLUMNS)
        self.act_origin[rows] = self.tick[rows]
        self.cmd_throttle[rows] = np.clip(self.act_throttle[rows], 0.0, 1.0)
        self.cmd_brake[rows] = np.clip(self.act_brake[rows], 0.0, 1.0)
        self.cmd_steering[rows] = np.clip(self.act_steering[rows],
                                          -0.55, 0.55)

    # -- checkpoint support --------------------------------------------------

    def snapshot_lane(self, slot: int) -> PipelineSnapshot:
        """Materialize a fused lane's state as the scalar pipeline
        snapshot it would have produced (field-for-field values)."""
        pipeline = self.pipelines[slot]
        plan = None
        if self.plan_valid[slot]:
            plan = PlannerOutput(
                target_speed=float(self.plan_target[slot]),
                throttle=float(self.plan_throttle[slot]),
                brake=float(self.plan_brake[slot]),
                steering=float(self.plan_steering[slot]),
                gap=float(self.plan_gap[slot]),
                closing_speed=float(self.plan_closing[slot]))
        act = None
        if self.act_origin[slot] >= 0:
            act = ActuationCommand(float(self.act_throttle[slot]),
                                   float(self.act_brake[slot]),
                                   float(self.act_steering[slot]))
        bus = ChannelBus()
        for name, payload, origin in (
                ("sensing", self.bundles[slot], self.sense_origin[slot]),
                ("perception", self.detections[slot],
                 self.percept_origin[slot]),
                ("world_model", self.models[slot],
                 self.model_origin[slot]),
                ("planning", plan, self.plan_origin[slot]),
                ("actuation", act, self.act_origin[slot])):
            state = bus._states[name]
            state.payload = payload
            state.origin = None if origin < 0 else int(origin)
        channel_faults, channels = bus.snapshot()
        return PipelineSnapshot(
            tick_index=int(self.tick[slot]),
            sensors=SensorSnapshot(
                rng_state=self.rngs[slot].bit_generator.state,
                last_speed=self.accel_last_v[slot],
                last_time=self.accel_last_t[slot]),
            tracker=self.trackers[slot].snapshot(),
            localizer=self.localizers[slot].snapshot(),
            controller=ControllerSnapshot(
                integral=float(self.pid_integral[slot]),
                last_error=(float(self.pid_last_error[slot])
                            if self.pid_has_last[slot] else None),
                last_command=(float(self.last_throttle[slot]),
                              float(self.last_brake[slot]),
                              float(self.last_steering[slot]))),
            command=(float(self.cmd_throttle[slot]),
                     float(self.cmd_brake[slot]),
                     float(self.cmd_steering[slot])),
            faults=tuple((f.variable.name, f.value, f.start_tick,
                          f.duration_ticks, f.landed)
                         for f in pipeline.faults),
            channel_faults=channel_faults,
            payloads=pack_payloads(plan, self.models[slot], channels),
            degraded_ticks=pipeline._degraded_ticks)
