"""Batched ADS pipeline: N lanes per fused kernel tick.

:class:`BatchADSState` is the ADS-side twin of
:class:`~repro.sim.batch.BatchWorldState`: it advances every *fused*
lane of a batch through the full sense → perceive → track → localize →
plan → actuate cycle with one set of numpy kernel calls per tick, while
the scalar :class:`~repro.ads.runtime.ADSPipeline` stays the bit-for-bit
oracle.  The lanes of a batch may come from different scenarios; they
share only the ADS configuration, the road and the ego vehicle build.
The split of labor per stage:

* **Vectorized across lanes** — sensing geometry (range gates and the
  occlusion shadow test, over each lane's NPC columns; a padded column
  of a lane with a smaller roster has NaN positions, so it fails every
  range gate and never occludes), the IDM planner, the PID/slew
  controller, the final command clip, and the actuation-to-controls
  mapping.
* **Per lane, reusing the lane's own scalar objects** — RNG draws and
  message construction (each lane owns an independent ``Generator``;
  the lane runs the scalar engine's own merged-draw helper,
  :func:`~repro.ads.sensors.noisy_bundle`), camera/radar fusion (the
  lane's ``Perception``), and the world model: the ragged per-object
  Kalman tracker (the lane's ``MultiObjectTracker``) and the ego EKF
  (the lane's ``EgoLocalizer``), both straight-line float kernels.
  This per-lane residue is what a fused tick still pays per lane;
  everything vectorized is paid once per fused tick, so a batch runs
  as wide as the driver allows (:data:`repro.core.parallel.MAX_LANES`)
  and a retired slot that nothing refills costs only its idle rows.

Equivalence holds by construction: the vectorized stages evaluate the
*same* kernel expressions the scalar modules call with floats, both
engines draw sensor noise through the same helper, which merges each
run of normals between two camera-dropout ``random()`` calls into one
``standard_normal(k)`` (its numpy bit-identities — ``standard_normal(k)``
equals ``k`` sequential draws, ``normal(0, s)`` equals ``0.0 + s *
standard_normal()`` — are pinned by
``tests/test_sensor_equivalence.py``), and fault injection flows
through the *real* registry setters on real payload objects for the
sensing/perception/world-model stages — only the planner/actuation
stages, whose payloads live in structure-of-arrays form, apply value
faults as masked column writes (their setters are plain field stores).
As in the scalar tick, quiet lanes skip the fault hooks: each lane's
fault windows are bounded in arrays, and only lanes inside their
bounds on a tick call the hooks, whose per-fault ``active`` checks
decide what lands.

The engine is chosen per job before a lane is built: the driver fuses
only jobs that satisfy :func:`can_fuse` (value faults, the closed-form
IDM exponent, and a degradation TTL the planner's natural staleness
cannot trip) and runs every other job on the scalar pipeline.  Fused
lanes provably never degrade (sensing age is 0 every tick and plan age
is at most ``planner_divisor - 1``, which :func:`can_fuse` requires to
be within the TTL), so the safe-stop branch needs no batched twin.
"""

from __future__ import annotations

import numpy as np

from ..sim.batch import BatchWorldState
from ..sim.collision import SENSOR_RANGE
from .kernels import control_step, plan_step
from .messages import SensorBundle, WorldModel
from .profiling import STAGE_TIMER
from .runtime import ADSConfig, ADSPipeline
from .sensors import noisy_bundle

#: Planner-stage fault variables as plan-array column names.
_PLAN_COLUMNS = {"planned_speed": "plan_target", "raw_throttle":
                 "plan_throttle", "raw_brake": "plan_brake",
                 "raw_steering": "plan_steering"}

#: Actuation-stage fault variables as command-array column names (the
#: faults land before the final clip, as on the scalar bus).
_ACT_COLUMNS = {"throttle": "cmd_throttle", "brake": "cmd_brake",
                "steering": "cmd_steering"}


def can_fuse(config: ADSConfig, faults) -> bool:
    """True when a job with ``faults`` under ``config`` can run fused.

    Every fault must be a value fault (interface faults act on the
    channel bus, which the fused path does not model), the IDM exponent
    must be the closed-form kernel's, and a degradation policy must not
    be trippable by the planner's natural ``divisor - 1`` staleness.
    """
    if config.planner.idm_exponent != 4.0:
        return False
    if (config.degradation.enabled
            and config.planner_divisor - 1 > config.degradation.ttl_ticks):
        return False
    return all(fault.kind == "value" for fault in faults)


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

        # Adopted per-lane scalar objects (ragged / object-shaped state).
        self.rngs = [None] * n
        self.perceptions = [None] * n
        self.trackers = [None] * n
        self.localizers = [None] * n
        self.accel_last_t: list[float | None] = [None] * n
        self.accel_last_v: list[float | None] = [None] * n
        self.bundles: list[SensorBundle | None] = [None] * n
        self.detections: list[list | None] = [None] * n
        self.stage_faults: list[dict | None] = [None] * n
        # Each lane's fault windows, bounded: the first armed tick and
        # one past the last (both 0 for a fault-free lane).  Only lanes
        # inside their bounds call the fault hooks on a tick
        # (``_hot``, the fused twin of the scalar ``_hooks_live``).
        self.fault_from = np.zeros(n, dtype=np.int64)
        self.fault_until = np.zeros(n, dtype=np.int64)
        self._hot: set[int] = set()

        # Latched planner output (the scalar pipeline's ``_plan``).
        self.plan_valid = np.zeros(n, dtype=bool)
        self.plan_target = np.zeros(n)
        self.plan_throttle = np.zeros(n)
        self.plan_brake = np.zeros(n)
        self.plan_steering = np.zeros(n)

        # Controller memory (PID + slew limiter).
        self.pid_integral = np.zeros(n)
        self.pid_last_error = np.zeros(n)
        self.pid_has_last = np.zeros(n, dtype=bool)
        self.last_throttle = np.zeros(n)
        self.last_brake = np.zeros(n)
        self.last_steering = np.zeros(n)

        # The executed command: the actuation payload (corrupted in
        # place, as on the scalar bus), then clipped.
        self.cmd_throttle = np.zeros(n)
        self.cmd_brake = np.zeros(n)
        self.cmd_steering = np.zeros(n)

    # -- lane membership ----------------------------------------------------

    def attach(self, slot: int, pipeline: ADSPipeline) -> None:
        """Adopt a fused lane's pipeline state into the batch arrays.

        Its RNG, perception, tracker and localizer objects are shared
        (not copied): the fused path advances them exactly as the scalar
        path would.  Raises ``ValueError`` for a pipeline the fused path
        cannot represent: one failing :func:`can_fuse`, or one whose
        channel bus holds interface faults or residue (delay queues,
        jitter windows).
        """
        bus = pipeline.bus
        if (not can_fuse(pipeline.config, ()) or bus.faults
                or any(state.queue or state.buffer
                       for state in bus._states.values())):
            raise ValueError("pipeline cannot run fused: interface "
                             "faults, channel residue, a trippable "
                             "degradation TTL or a non-default IDM "
                             "exponent")
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

        stages: dict[str, list] = {}
        for fault in pipeline.faults:
            stages.setdefault(fault.variable.stage, []).append(fault)
        self.stage_faults[slot] = stages
        faults = pipeline.faults
        self.fault_from[slot] = min((fault.start_tick for fault in faults),
                                    default=0)
        self.fault_until[slot] = max(
            (fault.start_tick + fault.duration_ticks for fault in faults),
            default=0)
        self.active[slot] = True

    def deactivate(self, slot: int) -> None:
        """Release a fused lane."""
        self.active[slot] = False
        self.rngs[slot] = None
        self.perceptions[slot] = None
        self.trackers[slot] = None
        self.localizers[slot] = None
        self.bundles[slot] = None
        self.detections[slot] = None
        self.stage_faults[slot] = None
        self.fault_from[slot] = self.fault_until[slot] = 0
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
        rows = np.nonzero(self.active)[0]
        if rows.size == 0:
            return
        timer = STAGE_TIMER if STAGE_TIMER.enabled else None
        ticks = self.tick[rows]
        hot = ((ticks >= self.fault_from[rows])
               & (ticks < self.fault_until[rows]))
        self._hot = set(rows[hot].tolist()) if hot.any() else set()
        started = timer.start() if timer else 0
        self._sense(rows)
        if timer:
            timer.stop("sensing", started, rows.size)
            timer.count("engine", "fused_ticks", 1)
            timer.count("engine", "lane_ticks", rows.size)
            timer.count("engine", "slot_ticks", self.batch.n_lanes)
        planning = ((ticks % self.config.planner_divisor == 0)
                    | ~self.plan_valid[rows])
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
        hot = self._hot
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
            # Real columns lead, in ``world.npcs`` order; padded ones
            # pass no range gate, so they never reach ``visible``.
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
            if slot in hot:
                self._apply_object_faults(slot, "sensing", bundle)
            self.bundles[slot] = bundle

    def _plan_stage(self, rows: np.ndarray,
                    timer: "StageTimer | None" = None) -> None:
        """Perception, tracking, localization, world model, planning for
        the lanes re-planning this tick."""
        config = self.config
        planning_dt = self._planning_dt
        hot = self._hot
        slots = rows.tolist()
        k = len(slots)

        # Per-lane camera/radar fusion on the adopted scalar objects.
        started = timer.start() if timer else 0
        for slot in slots:
            bundle = self.bundles[slot]
            detections = self.perceptions[slot].process(bundle)
            if slot in hot:
                self._apply_object_faults(slot, "perception", detections)
            self.detections[slot] = detections
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
            if slot in hot:
                self._apply_object_faults(slot, "world_model", model)
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
        if timer:
            timer.stop("world_model", started, k)
            timer.count("world_model", "tracks", sum(
                self.trackers[slot].track_count for slot in slots))
            timer.count("world_model", "detections", sum(
                len(self.detections[slot]) for slot in slots))

        started = timer.start() if timer else 0
        target, throttle, brake, steering, _, _ = plan_step(
            px, pv, lx, lv, has_lead, lane_offsets, lane_headings,
            SENSOR_RANGE, config.planner, np.where, np.clip)
        self.plan_target[rows] = target
        self.plan_throttle[rows] = throttle
        self.plan_brake[rows] = brake
        self.plan_steering[rows] = steering
        self.plan_valid[rows] = True
        for slot in hot.intersection(slots):
            self._apply_column_faults(slot, "planning", _PLAN_COLUMNS)
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
        self.cmd_throttle[rows] = throttle
        self.cmd_brake[rows] = brake
        self.cmd_steering[rows] = steering
        for slot in self._hot:
            self._apply_column_faults(slot, "actuation", _ACT_COLUMNS)
        self.cmd_throttle[rows] = np.clip(self.cmd_throttle[rows], 0.0, 1.0)
        self.cmd_brake[rows] = np.clip(self.cmd_brake[rows], 0.0, 1.0)
        self.cmd_steering[rows] = np.clip(self.cmd_steering[rows],
                                          -0.55, 0.55)
