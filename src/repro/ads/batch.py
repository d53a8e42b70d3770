"""Batched ADS pipeline: N lanes per fused kernel tick.

:class:`BatchADSState` is the ADS-side twin of
:class:`~repro.sim.batch.BatchWorldState`: it advances every *fused*
lane of a batch through the full sense → perceive → track → localize →
plan → actuate cycle with one set of numpy kernel calls per tick, while
the scalar :class:`~repro.ads.runtime.ADSPipeline` stays the bit-for-bit
oracle.  The lanes of a batch may come from different scenarios; they
share only the ADS configuration, the road and the ego vehicle build.
The split of labor per stage:

* **Vectorized across lanes** — sensing (range gates and the
  occlusion shadow test over each lane's NPC columns; a padded column
  of a lane with a smaller roster has NaN positions, so it fails every
  range gate and never occludes; then every noise term and every
  camera and radar detection as one expression per field over the
  lanes' draws), camera/radar fusion (every in-lane distance from one
  ``np.hypot`` call and the greedy match as one masked ``argmin`` per
  camera column), the world model's filter arithmetic, the IDM
  planner, the PID/slew controller, the final command clip, and the
  actuation-to-controls mapping.  Sensing and perception are columnar:
  each lane's sensed GPS, IMU and lane fields are a column of
  ``sensed``, and its detections are rows of per-tick grids over the
  NPC columns.  The world model is columnar too: the ego EKF's belief
  is 4 mean and 16 covariance columns per slot (plus a first-fix
  mask), and every lane's object tracks form one flat track table
  (slot, id, age, misses, mean, covariance; grouped by slot, each
  lane's rows in its tracker's list order).  One planning tick
  predicts every EKF and every track once, takes every association
  distance from one ``np.hypot`` call, and corrects every EKF with a
  fix and every matched track in one measurement update.
* **Per lane, as short loops over floats** — the RNG draws (each lane
  owns an independent ``Generator`` and draws through the scalar
  engine's own helper, :func:`~repro.ads.sensors.draw_noise`, into one
  flat stream the columns are read from) and the world model's
  bookkeeping: the greedy association (tracks by age, descending and
  stable, each taking the nearest unmatched detection strictly inside
  the gate), births, drops past ``max_misses``, ``confirm_age`` and the
  lead pick, step for step in
  :class:`~repro.ads.tracking.MultiObjectTracker`'s order.  A lane
  builds a message only on a tick with a fault of its stage active: a
  perception fault gets the lane's real detection list for the fault
  setters, a world-model fault a real
  :class:`~repro.ads.messages.WorldModel`, and the lane's columns are
  read back from those objects; every other lane feeds the next stage
  straight from the columns (the ``engine`` row's ``bundles_built``
  counts the messages built).
  This per-lane residue is what a fused tick still pays per lane;
  everything vectorized is paid once per fused tick, so a batch runs
  as wide as the driver allows (one slot per job, up to
  :data:`repro.core.parallel.MAX_LANES`, the width past which a
  measured sweep stops gaining per job), a dispatch within that cap
  runs in one wave, and a retired slot that nothing refills costs
  only its idle rows.

Equivalence holds by construction: the vectorized stages evaluate the
*same* kernel expressions the scalar modules call with floats (the
scalar sensor suite, perception, tracker and localizer are the oracles
the columns are checked against), both
engines draw sensor noise through the same helper, which merges each
run of normals between two camera-dropout ``random()`` calls into one
``standard_normal(k)`` (its numpy bit-identities — ``standard_normal(k)``
equals ``k`` sequential draws, ``normal(0, s)`` equals ``0.0 + s *
standard_normal()`` — are pinned by
``tests/test_sensor_equivalence.py``), and fault injection flows
through the *real* registry setters on real payload objects for the
perception and world-model stages, whose setters depend on the payload
(the nearest detection, the lead track) — the sensing, planner and
actuation stages, whose payloads live in structure-of-arrays form,
apply value faults as column writes (their setters are plain field
stores).
As in the scalar tick, quiet lanes skip the fault hooks: each lane's
fault windows are bounded in arrays, and only lanes inside their
bounds on a tick call the hooks, whose per-fault ``active`` checks
decide what lands.

The engine is chosen per configuration before a lane is built: the
driver fuses a dispatch's jobs when the ADS configuration satisfies
:func:`can_fuse` (the closed-form IDM exponent, and a degradation TTL
the planner's natural staleness cannot trip) and runs them all on the
scalar pipeline otherwise.  The channel bus has no batched twin, so an
interface-fault job fuses late: it runs the scalar pipeline through its
fault windows up to its hand-off tick, the first planner tick at or
after the last window's end, where every channel is passed through
fresh, and joins the batch there (:func:`repro.core.simulate
._prepare_lane`); :meth:`BatchADSState.attach` refuses a pipeline with
an interface fault still active or pending.  Fused lanes provably never
degrade (from the hand-off on, sensing age is 0 every tick and plan age
is at most ``planner_divisor - 1``, which :func:`can_fuse` requires to
be within the TTL), so the safe-stop branch needs no batched twin; a
lane that degraded in its scalar segment keeps that flag.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

from ..sim.batch import BatchWorldState
from ..sim.collision import SENSOR_RANGE
from .kernels import (clamp_speed, control_step, ekf_predict, kf_predict4,
                      kf_update4, plan_step)
from .localization import FIRST_FIX_COV
from .messages import (LEAD_CORRIDOR, Detection, EgoEstimate,
                       TrackedObject, WorldModel)
from .perception import PerceptionConfig
from .profiling import STAGE_TIMER
from .runtime import ADSConfig, ADSPipeline
from .sensors import draw_noise
from .tracking import NEW_TRACK_COV

#: Sensing-stage fault variables as rows of ``BatchADSState.sensed``.
_SENSED_ROWS = {"gps_x": 0, "gps_y": 1, "imu_speed": 2,
                "sensed_lane_offset": 5}

#: Planner-stage fault variables as plan-array column names.
_PLAN_COLUMNS = {"planned_speed": "plan_target", "raw_throttle":
                 "plan_throttle", "raw_brake": "plan_brake",
                 "raw_steering": "plan_steering"}

#: Actuation-stage fault variables as command-array column names (the
#: faults land before the final clip, as on the scalar bus).
_ACT_COLUMNS = {"throttle": "cmd_throttle", "brake": "cmd_brake",
                "steering": "cmd_steering"}


def can_fuse(config: ADSConfig) -> bool:
    """True when jobs under ``config`` can run fused, whatever their
    faults: the IDM exponent must be the closed-form kernel's, and a
    degradation policy must not be trippable by the planner's natural
    ``divisor - 1`` staleness.
    """
    if config.planner.idm_exponent != 4.0:
        return False
    return not (config.degradation.enabled
                and config.planner_divisor - 1 > config.degradation.ttl_ticks)


def fuse_detections(camera: tuple, radar: tuple,
                    config: PerceptionConfig) -> tuple:
    """:meth:`Perception.process` for ``k`` lanes at once.

    ``camera`` and ``radar`` are ``(on, x, y, v)`` grids of shape
    ``(k, C)`` and ``(k, R)``: lane ``i``'s camera (radar) detections
    are its entries with ``on`` set, in column order.  Every in-lane
    (camera, radar) distance comes from one ``np.hypot`` call.  The
    greedy match keeps the scalar order: cameras in order, each taking
    the nearest unused radar strictly inside the gate, the first radar
    winning a tie (``argmin``'s first minimum).

    Returns ``(x, y, v, valid, fused)``: ``(k, C + R)`` grids whose
    ``valid`` entries, in column order, are lane ``i``'s fused list
    (every camera, blended with its radar when ``fused`` marks it
    matched, then the unmatched radars).
    """
    cam_on, cx, cy, cv = camera
    rad_on, rx, ry, rv = radar
    gate = config.association_gate
    used = np.zeros_like(rad_on)
    fused = np.zeros_like(cam_on)
    fx, fy, fv = cx, cy, cv
    if rad_on.shape[1]:
        distance = np.hypot(cx[:, :, None] - rx[:, None, :],
                            cy[:, :, None] - ry[:, None, :])
        distance[~(cam_on[:, :, None] & rad_on[:, None, :]
                   & (distance < gate))] = np.inf
        lanes = np.arange(cam_on.shape[0])
        match = np.zeros(cam_on.shape, dtype=np.int64)
        for a in range(cam_on.shape[1]):
            row = np.where(used, np.inf, distance[:, a])
            best = row.argmin(axis=1)
            hit = row[lanes, best] < gate
            match[hit, a] = best[hit]
            fused[hit, a] = True
            used[lanes[hit], best[hit]] = True
        w = config.camera_weight
        fx = np.where(fused, w * cx + (1 - w)
                      * np.take_along_axis(rx, match, axis=1), cx)
        fy = np.where(fused, w * cy + (1 - w)
                      * np.take_along_axis(ry, match, axis=1), cy)
        fv = np.where(fused, np.take_along_axis(rv, match, axis=1), cv)
    return (np.concatenate((fx, rx), axis=1),
            np.concatenate((fy, ry), axis=1),
            np.concatenate((fv, rv), axis=1),
            np.concatenate((cam_on, rad_on & ~used), axis=1), fused)


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

        # Sensing.  Each lane's adopted noise stream, and what the lane
        # sensed this tick, one row per field: GPS x, GPS y, IMU speed,
        # IMU heading, IMU yaw rate, lane offset and lane heading (all
        # seven on a planning tick, only the IMU speed otherwise).  The
        # scalar bundle's IMU acceleration has no column: nothing
        # downstream of sensing reads it.
        self.rngs = [None] * n
        self.sensed = np.zeros((7, n))
        self.stage_faults: list[dict | None] = [None] * n
        # Each lane's fault windows, bounded: the first armed tick and
        # one past the last (both 0 for a fault-free lane).  Only lanes
        # inside their bounds call the fault hooks on a tick
        # (``_hot``, the fused twin of the scalar ``_hooks_live``).
        self.fault_from = np.zeros(n, dtype=np.int64)
        self.fault_until = np.zeros(n, dtype=np.int64)
        self._hot: set[int] = set()

        # World model.  The ego EKF, one column per slot: the mean
        # (4, n), the row-major covariance (16, n), and whether the lane
        # has had its first fix.
        self.ego_mean = np.zeros((4, n))
        self.ego_cov = np.zeros((16, n))
        self.ego_fixed = np.zeros(n, dtype=bool)
        # The object tracks of every lane as one table, a row per live
        # track: grouped by slot in ascending order, each lane's rows in
        # its tracker's list order.  Plus each lane's next track id.
        self.track_slot = np.zeros(0, dtype=np.int64)
        self.track_id = np.zeros(0, dtype=np.int64)
        self.track_age = np.zeros(0, dtype=np.int64)
        self.track_misses = np.zeros(0, dtype=np.int64)
        self.track_mean = np.zeros((4, 0))
        self.track_cov = np.zeros((16, 0))
        self.next_track_id = [1] * n

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

        # Where a sensing, planner or actuation value fault lands: the
        # slot-indexed column of each variable of the stage.
        self._landing = {
            "sensing": {name: self.sensed[row]
                        for name, row in _SENSED_ROWS.items()},
            "planning": {name: getattr(self, column)
                         for name, column in _PLAN_COLUMNS.items()},
            "actuation": {name: getattr(self, column)
                          for name, column in _ACT_COLUMNS.items()}}

    # -- lane membership ----------------------------------------------------

    def attach(self, slot: int, pipeline: ADSPipeline) -> None:
        """Adopt a fused lane's pipeline state into the batch arrays.

        Its RNG is shared (not copied): the fused path advances it
        exactly as the scalar path would.  Its tracker and localizer
        seed the columns.  Raises ``ValueError`` for a pipeline the
        fused path cannot represent: one failing :func:`can_fuse`, or
        one with an interface fault active or pending at its tick.  An
        expired fault's delay-queue or jitter-window residue is
        accepted: the driver attaches such a pipeline on a planner tick
        (:func:`repro.core.simulate._hand_off_tick`), whose fresh
        hand-offs clear it unread.
        """
        tick = pipeline.tick_index
        if not can_fuse(pipeline.config) or any(
                fault.start_tick + fault.duration_ticks > tick
                for fault in pipeline.bus.faults):
            raise ValueError("pipeline cannot run fused: an interface "
                             "fault active or pending, a trippable "
                             "degradation TTL or a non-default IDM "
                             "exponent")
        self.rngs[slot] = pipeline.sensors.rng
        self.tick[slot] = tick

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

        belief = pipeline.localizer.snapshot()
        self.ego_fixed[slot] = belief.mean is not None
        if belief.mean is not None:
            self.ego_mean[:, slot] = belief.mean
            self.ego_cov[:, slot] = belief.covariance
        tracker = pipeline.tracker.snapshot()
        self.next_track_id[slot] = tracker.next_id
        if tracker.tracks:
            ids, means, covs, ages, misses = zip(*tracker.tracks)
            self._edit_tracks(slice(None), (
                np.full(len(ids), slot), ids, ages, misses,
                np.array(means).T, np.array(covs).T))

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
        self.ego_fixed[slot] = False
        self._edit_tracks(self.track_slot != slot)
        self.stage_faults[slot] = None
        self.fault_from[slot] = self.fault_until[slot] = 0
        self.plan_valid[slot] = False

    def _edit_tracks(self, keep, added: tuple | None = None) -> None:
        """Keep the track rows ``keep`` selects and append ``added``
        (``(slot, id, age, misses, mean, cov)`` columns, the last two as
        ``(4, b)``/``(16, b)`` blocks, in slot order), regrouped by
        slot: each lane keeps its list order, added rows last, as the
        scalar tracker appends them."""
        columns = [column[..., keep] for column in (
            self.track_slot, self.track_id, self.track_age,
            self.track_misses, self.track_mean, self.track_cov)]
        if added is not None:
            columns = [np.concatenate((column, np.asarray(extra,
                                                          column.dtype)),
                                      axis=-1)
                       for column, extra in zip(columns, added)]
            slots = columns[0].tolist()
            # Python's sort is stable.
            order = sorted(range(len(slots)), key=slots.__getitem__)
            columns = [column[..., order] for column in columns]
        (self.track_slot, self.track_id, self.track_age, self.track_misses,
         self.track_mean, self.track_cov) = columns

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
        """Apply a sensing/planner/actuation-stage fault as a write into
        its variable's column (``columns`` maps each variable to one;
        the scalar setters are plain field stores, so landing is
        certain)."""
        tick = int(self.tick[slot])
        for fault in self.stage_faults[slot].get(stage, ()):
            if fault.active(tick):
                columns[fault.variable.name][slot] = fault.value
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
        planning = ((ticks % self.config.planner_divisor == 0)
                    | ~self.plan_valid[rows])
        started = timer.start() if timer else 0
        detections = self._sense(rows, planning)
        if timer:
            timer.stop("sensing", started, rows.size)
            timer.count("engine", "fused_ticks", 1)
            timer.count("engine", "lane_ticks", rows.size)
            timer.count("engine", "slot_ticks", self.batch.n_lanes)
        if detections is not None:
            self._plan_stage(rows[planning], detections, timer)
        started = timer.start() if timer else 0
        self._actuate(rows)
        if timer:
            timer.stop("actuation", started, rows.size)
        self.tick[rows] += 1
        self.batch.apply_controls(rows, self.cmd_throttle[rows],
                                  self.cmd_brake[rows],
                                  self.cmd_steering[rows], self._dt)

    def _hot_in(self, stage: str, slots) -> list[int]:
        """The lanes of ``slots`` with a fault of ``stage`` active this
        tick: the lanes whose ``stage`` payload is built as a real
        message for the fault setters."""
        return [slot for slot in self._hot.intersection(slots)
                if any(fault.active(int(self.tick[slot]))
                       for fault in self.stage_faults[slot].get(stage, ()))]

    def _sense(self, rows: np.ndarray,
               planning: np.ndarray) -> tuple | None:
        """Batched sensor measurement into the ``sensed`` columns.

        The geometry (range gates and the occlusion shadow test) is
        vectorized; each lane then draws its noise through the scalar
        engine's :func:`draw_noise`, and the draws of every lane form
        one flat stream.  Every lane gets its IMU speed; the lanes
        re-planning (``planning``) also get the other six fields and
        their camera and radar detections, as ``(on, x, y, v)`` grids
        over the NPC columns, which this returns (``None`` when no lane
        plans).  A lane with a sensing fault active then gets it as a
        write into its ``sensed`` column.
        """
        cfg = self.config.sensors
        batch = self.batch
        ego = batch.ego[rows]
        x, y, v, theta, phi = ego.T
        npc_x = batch.npc_x[rows]
        npc_y = batch.npc_y[rows]
        k, m = npc_x.shape

        cam = rad = np.zeros((k, m), dtype=bool)
        if m:
            ahead = npc_x - x[:, None]
            # Occlusion shadow: obstacle j is hidden when any other
            # obstacle sits strictly between ego+1 and j, laterally
            # within the half-width (scalar ``_occluded``).  Padded
            # columns have NaN positions: they pass no range gate and
            # never occlude.
            occluded = np.zeros((k, m), dtype=bool)
            ego_near = x[:, None] + 1.0
            for j2 in range(m):
                x2 = npc_x[:, j2][:, None]
                y2 = npc_y[:, j2][:, None]
                blocker = ((ego_near < x2) & (x2 < npc_x)
                           & (np.abs(y2 - npc_y)
                              < cfg.occlusion_half_width))
                blocker[:, j2] = False
                occluded |= blocker
            clear = (0.0 < ahead) & ~occluded
            cam = clear & (ahead <= cfg.camera_range)
            rad = clear & (ahead <= cfg.radar_range)
        # Per lane, a (camera, radar) flag pair per NPC column.
        flags = np.stack((cam, rad), axis=-1).tolist()

        # The draws, lane by lane, into one flat stream: lane i's
        # normals end at ends[i], its last six being the ego terms.
        slots = rows.tolist()
        rngs = self.rngs
        dropout = cfg.camera_dropout
        camera_seen = []
        stream: list[float] = []
        ends = []
        for slot, lane_flags in zip(slots, flags):
            seen, z = draw_noise(rngs[slot], dropout, lane_flags)
            camera_seen.append(seen)
            stream += z
            ends.append(len(stream))
        z = np.array(stream)
        ends = np.array(ends)
        ego_z = z[ends - 6 + np.arange(6)[:, None]]

        sensed = self.sensed
        speed = v + (0.0 + cfg.imu_speed_noise * ego_z[2])
        sensed[2, rows] = np.where(speed > 0.0, speed, 0.0)
        detections = None
        if planning.any():
            road = batch.road
            p = planning
            py = y[p]
            ptheta = theta[p]
            yaw_rate = v[p] * np.tan(phi[p]) / batch.ego_params.wheelbase
            sensed[:, rows[p]] = (
                x[p] + (0.0 + cfg.gps_noise * ego_z[0, p]),
                py + (0.0 + cfg.gps_noise * ego_z[1, p]),
                sensed[2, rows[p]], ptheta,
                yaw_rate + (0.0 + cfg.imu_yaw_noise * ego_z[3, p]),
                py - road.lane_centers(py)
                + (0.0 + cfg.lane_offset_noise * ego_z[4, p]),
                ptheta + (0.0 + cfg.lane_heading_noise * ego_z[5, p]))
            # Each planning lane's detections at their stream offsets:
            # per NPC column, 2 camera normals if seen, then 3 radar.
            cam_on = np.array(camera_seen, dtype=bool).reshape(k, m)[p]
            rad_on = rad[p]
            owed = 2 * cam_on + 3 * rad_on
            first = ((ends[p] - 6 - owed.sum(axis=1))[:, None]
                     + owed.cumsum(axis=1) - owed)
            after = first + 2 * cam_on
            ox, oy, ov = npc_x[p], npc_y[p], batch.npc_v[rows[p]]
            cam_noise = cfg.camera_position_noise
            rad_noise = cfg.radar_position_noise
            detections = (
                (cam_on, ox + (0.0 + cam_noise * z[first]),
                 oy + (0.0 + cam_noise * z[first + 1]), ov),
                (rad_on, ox + (0.0 + rad_noise * z[after]),
                 oy + (0.0 + rad_noise * z[after + 1]),
                 ov + (0.0 + cfg.radar_speed_noise * z[after + 2])))

        for slot in self._hot:
            self._apply_column_faults(slot, "sensing",
                                      self._landing["sensing"])
        return detections

    def _plan_stage(self, rows: np.ndarray, detections: tuple,
                    timer: "StageTimer | None" = None) -> None:
        """Perception, tracking, localization, world model, planning for
        the lanes re-planning this tick, whose camera and radar grids
        :meth:`_sense` returned."""
        config = self.config
        slots = rows.tolist()
        k = len(slots)

        started = timer.start() if timer else 0
        det, counts = self._perceive(rows, detections)
        if timer:
            timer.stop("perception", started, k)

        # World-model stage (the scalar tick's world_model bracket).
        started = timer.start() if timer else 0
        live, inputs = self._world_model(rows, det, counts)
        if timer:
            timer.stop("world_model", started, k)
            timer.count("world_model", "tracks", live)
            timer.count("world_model", "detections", det.shape[1])

        started = timer.start() if timer else 0
        target, throttle, brake, steering, _, _ = plan_step(
            *(np.array(column) for column in inputs), SENSOR_RANGE,
            config.planner, np.where, np.clip)
        self.plan_target[rows] = target
        self.plan_throttle[rows] = throttle
        self.plan_brake[rows] = brake
        self.plan_steering[rows] = steering
        self.plan_valid[rows] = True
        for slot in self._hot.intersection(slots):
            self._apply_column_faults(slot, "planning",
                                      self._landing["planning"])
        if timer:
            timer.stop("planning", started, k)

    def _perceive(self, rows: np.ndarray, detections: tuple) -> tuple:
        """Camera/radar fusion of the lanes ``rows`` (their
        ``detections`` grids, :func:`fuse_detections`): the fused
        detections as ``(3, d)``
        columns (x, y, v), lane by lane, and each lane's count.  A lane
        with a perception fault active builds its real detection list
        for the fault setters, and its columns are read back."""
        x, y, v, valid, fused = fuse_detections(*detections,
                                                self.config.perception)
        det = np.array((x[valid], y[valid], v[valid]))
        counts = valid.sum(axis=1).tolist()
        slots = rows.tolist()
        n_cameras = fused.shape[1]
        for slot in self._hot_in("perception", slots):
            i = slots.index(slot)
            start = sum(counts[:i])
            fused_list = [
                Detection(*det[:, start + t].tolist(),
                          sensor=("radar" if c >= n_cameras else
                                  "fused" if fused[i, c] else "camera"))
                for t, c in enumerate(np.flatnonzero(valid[i]).tolist())]
            STAGE_TIMER.count("engine", "bundles_built", 1)
            self._apply_object_faults(slot, "perception", fused_list)
            det[:, start:start + counts[i]] = np.array(
                [(d.x, d.y, d.v) for d in fused_list],
                dtype=float).reshape(-1, 3).T
        return det, counts

    def _world_model(self, rows: np.ndarray, det: np.ndarray,
                     counts: list) -> tuple[int, tuple]:
        """:meth:`EgoLocalizer.update` and :meth:`MultiObjectTracker.update`
        for the lanes ``rows``, over the world-model columns, then each
        lane's lead.  The inputs are the ``sensed`` columns and the
        perceived detections ``det`` (``(3, d)`` columns, lane by lane,
        ``counts[i]`` of them for row ``i``).

        Both filters predict in place, the tracks are associated lane by
        lane, and one measurement update corrects every EKF with a fix
        and every matched track together.  Lanes with a world-model fault
        active get a real :class:`WorldModel` for the fault setters; the
        rest read the columns directly.  Returns the live tracks of these
        lanes and the planner's inputs, ``(ego x, ego v, lead x, lead
        vx, has lead, lane offset, lane heading)``, one list each,
        aligned with ``rows``.
        """
        slots = rows.tolist()
        # What the filters read (GPS x/y, IMU speed, heading, yaw rate),
        # after any sensing fault.
        sensed = self.sensed[:5, rows]
        ego = self._predict_ego(rows, sensed)
        tracks = self._predict_and_associate(rows, det, counts)
        self._correct(ego, det, tracks)
        live, lanes, reported = self._turn_over_tracks(rows, det, counts,
                                                       tracks)
        if self.config.localizer.enabled:
            ego_x, ego_y, ego_v, ego_theta = self.ego_mean[:, rows].tolist()
        else:   # ablation mode: the raw sensors are the estimate
            ego_x, ego_y, ego_v, ego_theta = sensed[:4].tolist()

        # ``WorldModel.lead_track`` over each lane's reported tracks, in
        # list order (lanes[t] is reported track t's lane).
        ids, xs, ys, vxs, vys, ages, misses = reported
        lead: dict[int, int] = {}
        for t, i in enumerate(lanes):
            x = xs[t]
            if x <= ego_x[i] or abs(ys[t] - ego_y[i]) > LEAD_CORRIDOR:
                continue
            best = lead.get(i)
            if best is None or x < xs[best]:
                lead[i] = t
        px = ego_x
        pv = ego_v
        lx = list(ego_x)
        lv = [0.0] * len(slots)
        has_lead = [False] * len(slots)
        for i, t in lead.items():
            has_lead[i] = True
            lx[i] = xs[t]
            lv[i] = vxs[t]
        offsets, headings = self.sensed[5:, rows].tolist()

        for slot in self._hot_in("world_model", slots):
            i = slots.index(slot)
            model = WorldModel(
                time=float(self.batch.time[slot]),
                ego=EgoEstimate(x=ego_x[i], y=ego_y[i], v=ego_v[i],
                                theta=ego_theta[i]),
                tracks=[TrackedObject(track_id=ids[t], x=xs[t], y=ys[t],
                                      vx=vxs[t], vy=vys[t], age=ages[t],
                                      misses=misses[t])
                        for t in range(bisect_left(lanes, i),
                                       bisect_right(lanes, i))],
                lane_offset=offsets[i], lane_heading=headings[i])
            STAGE_TIMER.count("engine", "bundles_built", 1)
            self._apply_object_faults(slot, "world_model", model)
            best = model.lead_track()
            px[i] = lx[i] = model.ego.x
            pv[i] = model.ego.v
            has_lead[i] = best is not None
            if best is None:
                lv[i] = 0.0
            else:
                lx[i] = best.x
                lv[i] = best.vx
            offsets[i] = model.lane_offset
            headings[i] = model.lane_heading
        return live, (px, pv, lx, lv, has_lead, offsets, headings)

    def _predict_ego(self, rows: np.ndarray, sensed: np.ndarray) -> tuple:
        """The EKF predict of every lane in ``rows`` with a fix, in
        place, and the first fix of the others.  ``sensed`` holds the
        lanes' GPS x/y, IMU speed, heading and yaw rate.  Returns the
        pending correction: the predicted slots and their GPS+IMU
        measurement (none in ablation mode)."""
        cfg = self.config.localizer
        if not cfg.enabled:
            return rows[:0], sensed[:3, :0]
        fixed = self.ego_fixed[rows]
        cols = rows[fixed]
        (self.ego_mean[:, cols],
         self.ego_cov[:, cols]) = ekf_predict(
            self.ego_mean[:, cols], self.ego_cov[:, cols], sensed[4, fixed],
            self._planning_dt, cfg.position_process_noise,
            cfg.speed_process_noise, cfg.heading_process_noise)
        if cols.size < rows.size:
            first = ~fixed
            fresh = rows[first]
            self.ego_mean[:, fresh] = sensed[:4, first]
            self.ego_cov[:, fresh] = np.array(FIRST_FIX_COV)[:, None]
            self.ego_fixed[fresh] = True
        return cols, sensed[:3, fixed]

    def _predict_and_associate(self, rows: np.ndarray, det: np.ndarray,
                               counts: list) -> tuple | None:
        """The track predict of the lanes ``rows``, in place, and the
        greedy association of their tracks with the detections ``det``
        (``(3, d)`` columns, ``counts[i]`` of them for row ``i``).

        Returns ``(sel, matched, matched_det)``: the table rows of these
        lanes' tracks, the ``sel`` positions that matched and the
        detection each matched (``None`` in ablation mode, where raw
        detections are the tracks).
        """
        cfg = self.config.tracker
        if not cfg.enabled:
            return None
        sel = self._table_rows(rows)
        mean, cov = kf_predict4(self.track_mean[:, sel],
                                self.track_cov[:, sel], self._planning_dt,
                                cfg.process_noise)
        self.track_mean[:, sel] = mean
        self.track_cov[:, sel] = cov

        # Every (track, detection) pair within a lane, track-major, and
        # all their distances from one np.hypot call.  Lane i's tracks
        # are sel positions from track_start[i], its detections start at
        # det_start[i] and its pairs at pair_start[i].
        per_lane = np.bincount(self.track_slot[sel],
                               minlength=self.batch.n_lanes)[rows]
        tracks = per_lane.tolist()
        lane_pairs = [a * b for a, b in zip(tracks, counts)]
        track_start = [0, *accumulate(tracks)]
        det_start = [0, *accumulate(counts)]
        pair_start = [0, *accumulate(lane_pairs)]
        lane = np.repeat(np.arange(rows.size), per_lane)
        dets = np.array(counts)[lane]
        first_pair = (np.array(pair_start[:-1])[lane]
                      + (np.arange(sel.size)
                         - np.array(track_start[:-1])[lane]) * dets)
        pair_track = np.repeat(np.arange(sel.size), dets)
        pair_det = np.arange(pair_start[-1]) + np.repeat(
            np.array(det_start[:-1])[lane] - first_pair, dets)
        distances = np.hypot(det[0][pair_det] - mean[0][pair_track],
                             det[1][pair_det] - mean[1][pair_track]).tolist()

        # Greedy nearest-neighbour association in every lane holding
        # tracks and detections: the oldest track first (stable among
        # equal ages) takes the nearest unmatched detection strictly
        # inside the gate.
        ages = self.track_age[sel].tolist()
        gate = cfg.association_gate
        matched, matched_det = [], []
        for i, n_pairs in enumerate(lane_pairs):
            if n_pairs == 1:    # one track, one detection
                if distances[pair_start[i]] < gate:
                    matched.append(track_start[i])
                    matched_det.append(det_start[i])
                continue
            if not n_pairs:
                continue
            track0 = track_start[i]
            det0 = det_start[i]
            n_dets = counts[i]
            order = range(track0, track_start[i + 1])
            if n_pairs > n_dets:
                order = sorted(order, key=lambda j: -ages[j])
            unmatched = list(range(det0, det0 + n_dets))
            for j in order:
                best, best_distance = None, gate
                base = pair_start[i] + (j - track0) * n_dets - det0
                for index in unmatched:
                    distance = distances[base + index]
                    if distance < best_distance:
                        best, best_distance = index, distance
                if best is not None:
                    unmatched.remove(best)
                    matched.append(j)
                    matched_det.append(best)
        return sel, matched, matched_det

    def _correct(self, ego: tuple, det: np.ndarray,
                 tracks: tuple | None) -> None:
        """One :func:`kf_update4` over the pending EKF correction
        (GPS + IMU speed, then :func:`clamp_speed`) and the matched
        tracks (their detections ``det``), each column with its own
        noises: :func:`ekf_correct` and the track update, fused."""
        ego_cols, ego_z = ego
        loc = self.config.localizer
        trk = self.config.tracker
        if tracks is None:
            track_cols = ego_cols[:0]
            track_z = ego_z[:, :0]
        else:
            sel, matched, matched_det = tracks
            track_cols = sel[matched]
            track_z = det[:, matched_det]
        m = ego_cols.size
        size = m + track_cols.size
        if not size:
            return
        mean, cov = kf_update4(
            np.concatenate((self.ego_mean[:, ego_cols],
                            self.track_mean[:, track_cols]), axis=1),
            np.concatenate((self.ego_cov[:, ego_cols],
                            self.track_cov[:, track_cols]), axis=1),
            *np.concatenate((ego_z, track_z), axis=1),
            np.where(np.arange(size) < m, loc.gps_noise,
                     trk.measurement_noise),
            np.where(np.arange(size) < m, loc.imu_speed_noise,
                     trk.speed_measurement_noise))
        mean = np.array(mean)
        cov = np.array(cov)
        mean[2, :m] = clamp_speed(mean[2, :m], np.where)
        self.ego_mean[:, ego_cols] = mean[:, :m]
        self.ego_cov[:, ego_cols] = cov[:, :m]
        self.track_mean[:, track_cols] = mean[:, m:]
        self.track_cov[:, track_cols] = cov[:, m:]

    def _turn_over_tracks(self, rows: np.ndarray, det: np.ndarray,
                          counts: list, tracks: tuple | None) -> tuple:
        """The track bookkeeping of the lanes ``rows`` after the
        correction: ages and misses, births (each lane's unmatched
        detections, in order), and the drop of tracks missed more than
        ``max_misses`` times.

        Returns ``(live, lanes, reported)``: the live tracks of these
        lanes, and of the tracks they report (confirmed ones, lane by
        lane in list order) each one's lane position in ``rows`` and
        their ``(id, x, y, vx, vy, age, misses)`` as lists of Python
        numbers, the fields of the scalar tracker's ``TrackedObject``s.
        """
        cfg = self.config.tracker
        if tracks is None:
            # Ablation mode: raw detections are the tracks.
            size = det.shape[1]
            return (self._table_rows(rows).size,
                    [i for i, count in enumerate(counts)
                     for _ in range(count)],
                    ([j + 1 for count in counts for j in range(count)],
                     *det.tolist(), [0.0] * size, [cfg.confirm_age] * size,
                     [0] * size))
        sel, matched, matched_det = tracks
        self.track_misses[sel] += 1
        self.track_misses[sel[matched]] = 0
        self.track_age[sel] += 1
        free = np.ones(det.shape[1], dtype=bool)
        free[matched_det] = False
        born = np.flatnonzero(free)
        drop = sel[self.track_misses[sel] > cfg.max_misses]
        if born.size or drop.size:
            added = None
            if born.size:
                born_slot = np.repeat(rows, counts)[born]
                ids = []
                for slot in born_slot.tolist():
                    ids.append(self.next_track_id[slot])
                    self.next_track_id[slot] += 1
                if cfg.max_misses >= 0:     # else they drop at once
                    size = born.size
                    x, y, v = det[:, born]
                    added = (born_slot, ids, np.ones(size), np.zeros(size),
                             (x, y, v, np.zeros(size)),
                             np.repeat(np.array(NEW_TRACK_COV)[:, None],
                                       size, axis=1))
            keep = np.ones(self.track_slot.size, dtype=bool)
            keep[drop] = False
            self._edit_tracks(keep, added)
            sel = self._table_rows(rows)
        reported = sel[self.track_age[sel] >= cfg.confirm_age]
        position = np.zeros(self.batch.n_lanes, dtype=np.int64)
        position[rows] = np.arange(rows.size)
        x, y, vx, vy = self.track_mean[:, reported].tolist()
        return (sel.size, position[self.track_slot[reported]].tolist(),
                (self.track_id[reported].tolist(), x, y, vx, vy,
                 self.track_age[reported].tolist(),
                 self.track_misses[reported].tolist()))

    def _table_rows(self, rows: np.ndarray) -> np.ndarray:
        """The track-table rows of the lanes ``rows``, in table order."""
        wanted = np.zeros(self.batch.n_lanes, dtype=bool)
        wanted[rows] = True
        return np.flatnonzero(wanted[self.track_slot])

    def _actuate(self, rows: np.ndarray) -> None:
        """Controller + actuation faults + physical clip for all fused
        lanes (runs every tick; fused lanes never degrade)."""
        cfg = self.config.controller
        measured = self.sensed[2, rows]
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
            self._apply_column_faults(slot, "actuation",
                                      self._landing["actuation"])
        self.cmd_throttle[rows] = np.clip(self.cmd_throttle[rows], 0.0, 1.0)
        self.cmd_brake[rows] = np.clip(self.cmd_brake[rows], 0.0, 1.0)
        self.cmd_steering[rows] = np.clip(self.cmd_steering[rows],
                                          -0.55, 0.55)
