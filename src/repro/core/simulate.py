"""Closed-loop execution: world + ADS + optional faults + safety monitor.

This is the experiment engine shared by golden-trace collection, random
and exhaustive campaigns, and the validation step of Bayesian FI.  Two
entry points share one tick loop:

* :func:`run_scenario` — cold start from tick 0 (golden runs, and the
  full-replay reference oracle for injection experiments).  It can
  capture :class:`~repro.core.checkpoint.Checkpoint` snapshots at
  requested ticks as it goes.
* :func:`run_scenario_from_checkpoint` — restore a golden checkpoint,
  arm the fault, and simulate only the fault window plus the post-fault
  horizon.  Because the fault-free prefix is bit-identical to the golden
  run, the resumed suffix reproduces full replay exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..ads.batch import BatchADSState
from ..ads.messages import ActuationCommand
from ..ads.profiling import STAGE_TIMER
from ..ads.runtime import ADSConfig, ADSPipeline
from ..sim.batch import BatchWorldState
from ..sim.collision import SENSOR_RANGE
from ..sim.scenario import Scenario
from ..sim.trace import Trace
from ..sim.world import World
from .checkpoint import Checkpoint
from .results import Hazard
from .safety import SafetyConfig, bulk_safety_potential, world_safety_inputs
# The per-tick evaluators stay bound here: perfbench/tracer.py wraps
# them as the ``core.safety`` layer of its trace.
from .safety import safety_potential, world_safety_potential  # noqa: F401

#: Signals recorded at every planner tick of a run.  The Bayesian network
#: trains on the belief/actuation subset; the ``gt_*`` and ``lat_free*``
#: columns are the sensor-level ground truth the safety model consumes
#: (the paper: "d_safe is computed directly from the sensors").
TRACE_COLUMNS = ("time", "tick", "x", "v", "gap", "closing", "lat",
                 "lat_free", "lat_free_up", "lat_free_down", "gt_gap",
                 "gt_lead_v", "throttle", "brake", "steering", "delta_long",
                 "delta_lat")

#: Sentinel for ``gt_lead_v`` when the corridor ahead is clear.
NO_LEAD = -1.0


@dataclass(frozen=True)
class FaultSpec:
    """A scheduled corruption of one ADS variable or message channel.

    ``kind`` is ``"value"`` for the classic in-place payload corruption
    (``variable`` names a registry entry, ``value`` the corrupted
    reading).  Interface faults set ``kind`` to one of
    ``repro.ads.channels.INTERFACE_KINDS`` and ``channel`` to a stage
    boundary; ``variable`` then carries the synthetic ``"kind@channel"``
    label and ``value`` the integer fault parameter (queue depth /
    reorder window).  The extra fields default away so existing
    value-fault streams, caches, and journals are untouched.
    """

    variable: str
    value: float
    start_tick: int
    duration_ticks: int = 2
    kind: str = "value"
    channel: str | None = None


@dataclass
class RunResult:
    """Everything observed during one closed-loop run."""

    scenario: str
    seed: int
    trace: Trace
    hazard: Hazard
    collided: bool
    went_off_road: bool
    min_delta_long: float
    min_delta_lat: float
    pre_delta_long: float      # delta at first fault tick (golden: at start)
    pre_delta_lat: float
    landed: bool               # any armed fault touched a payload
    degraded: bool = False     # safe-stop fallback engaged at least once
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0
    faults: list[FaultSpec] = field(default_factory=list)
    #: Snapshots captured during the run (``checkpoint_ticks`` requests),
    #: keyed by tick.  ``None`` when capture was not requested.
    checkpoints: dict[int, Checkpoint] | None = None
    #: The tick a cut run stopped at (``end_tick`` reached before the
    #: scenario's end, so ticks from here on were never simulated), or
    #: ``None`` for a complete run.  A cut run's trace rows, eligible
    #: ticks and snapshots are the complete run's prefix; its outcome
    #: fields (minimum deltas, hazard) cover the prefix only.
    cut_tick: int | None = None

    @property
    def trace_name(self) -> str:
        """The run's file-set name in a :class:`~repro.sim.TraceStore`.

        A cut run spools apart from its scenario's complete run, so
        neither ever overwrites the other's files.
        """
        if self.cut_tick is None:
            return self.scenario
        return f"{self.scenario}.cut{self.cut_tick}"


def _arm_faults(pipeline: ADSPipeline, faults: list[FaultSpec]) -> None:
    """Arm value faults on the variable registry and interface faults on
    the channel bus (shared by cold-start and checkpoint-resumed runs)."""
    for fault in faults:
        kind = getattr(fault, "kind", "value")
        if kind == "value":
            pipeline.arm_fault(fault.variable, fault.value,
                               fault.start_tick, fault.duration_ticks)
        else:
            pipeline.arm_channel_fault(kind, fault.channel,
                                       fault.start_tick,
                                       fault.duration_ticks,
                                       param=int(fault.value))


def _fault_schedule(faults: list[FaultSpec],
                    horizon_after_fault: float | None,
                    dt: float) -> tuple[int, int | None]:
    """(monitor_from, stop_after) for a fault list (shared by both paths)."""
    monitor_from = min((f.start_tick for f in faults), default=0)
    stop_after: int | None = None
    if faults and horizon_after_fault is not None:
        last_end = max(f.start_tick + f.duration_ticks for f in faults)
        stop_after = last_end + int(round(horizon_after_fault / dt))
    return monitor_from, stop_after


class _SafetyMonitor:
    """The deferred safety monitor of one run.

    The potential never feeds back into control, so the tick loop only
    records each monitored tick's cheap inputs (:meth:`sample`) and the
    physical outcomes; :meth:`finish` evaluates every potential in one
    :func:`~repro.core.safety.bulk_safety_potential` call after the
    loop, folds the pre-fault and minimum deltas in tick order, fills
    the delta columns of the held trace rows, and classifies the hazard.
    Both engines use it: :func:`_simulate` and the batched
    :class:`_BatchLane`.
    """

    __slots__ = ("monitor_from", "ticks", "inputs", "rows", "collided",
                 "went_off_road")

    def __init__(self, monitor_from: int):
        self.monitor_from = monitor_from
        self.ticks: list[int] = []
        self.inputs: list[tuple] = []
        #: (sample index, trace row) pairs awaiting their deltas.
        self.rows: list[tuple[int, dict]] = []
        self.collided = False
        self.went_off_road = False

    def sample(self, tick: int, inputs: tuple) -> None:
        """Hold one tick's ``(v, theta, phi, gap, lead_speed,
        lateral_free)`` for :meth:`finish`."""
        self.ticks.append(tick)
        self.inputs.append(inputs)

    def hold_row(self, row: dict) -> None:
        """Hold the trace row of the tick sampled last; :meth:`finish`
        adds its ``delta_long``/``delta_lat`` and records it."""
        self.rows.append((len(self.inputs) - 1, row))

    def finish(self, config: SafetyConfig, trace: Trace) -> dict:
        """Evaluate and fold every sampled potential, and record the
        held trace rows in ``trace``.  Returns the hazard, outcome, and
        delta fields of :class:`RunResult`."""
        timed = STAGE_TIMER.enabled
        if timed:
            started = STAGE_TIMER.start()
        longitudinal, lateral = bulk_safety_potential(self.inputs, config)
        min_delta_long = min_delta_lat = float("inf")
        pre_delta_long = pre_delta_lat = float("inf")
        monitor_from = self.monitor_from
        for tick, delta_long, delta_lat in zip(self.ticks, longitudinal,
                                               lateral):
            if tick < monitor_from:
                continue     # sampled for the trace recorder only
            if tick == monitor_from:
                pre_delta_long, pre_delta_lat = delta_long, delta_lat
            min_delta_long = min(min_delta_long, delta_long)
            min_delta_lat = min(min_delta_lat, delta_lat)
        for index, row in self.rows:
            row["delta_long"] = longitudinal[index]
            row["delta_lat"] = lateral[index]
            trace.record(row)
        if timed:
            STAGE_TIMER.stop("safety", started, len(self.inputs))
        if self.collided:
            hazard = Hazard.COLLISION
        elif self.went_off_road:
            hazard = Hazard.OFF_ROAD
        elif min_delta_long <= 0.0:
            # The longitudinal potential is the robust counterfactual
            # criterion (collision is inevitable if the lead brakes).
            # The lateral potential is recorded but not a hazard class by
            # itself: it inherits steering jitter through the
            # frozen-steering assumption, so lateral hazards are judged
            # by the physical outcomes above (off-road, collision).
            hazard = Hazard.SAFETY_VIOLATION
        else:
            hazard = Hazard.NONE
        return {"hazard": hazard, "collided": self.collided,
                "went_off_road": self.went_off_road,
                "min_delta_long": min_delta_long,
                "min_delta_lat": min_delta_lat,
                "pre_delta_long": pre_delta_long,
                "pre_delta_lat": pre_delta_lat}


def _simulate(scenario: Scenario, world: World, pipeline: ADSPipeline,
              seed: int, faults: list[FaultSpec],
              safety_config: SafetyConfig, n_ticks: int, start_tick: int,
              monitor_from: int, stop_after: int | None, record_trace: bool,
              checkpoint_ticks=None, end_tick: int | None = None
              ) -> RunResult:
    """The tick loop shared by cold-start and checkpoint-resumed runs.

    ``start_tick`` is 0 for a cold start, or the checkpoint's tick for a
    resumed run (state must already be restored by the caller).  Safety
    is monitored from ``monitor_from`` onward; the ground-truth potential
    is skipped entirely on earlier ticks unless the trace recorder needs
    it, which is what makes the fault-free prefix cheap.  The potentials
    themselves are evaluated after the loop (:class:`_SafetyMonitor`),
    inside the run's wall clock.  An ``end_tick`` below ``n_ticks``
    stops the loop there; a run that gets that far is marked cut.
    """
    trace = Trace()
    monitor = _SafetyMonitor(monitor_from)
    capture = set(checkpoint_ticks or ())
    checkpoints: dict[int, Checkpoint] | None = (
        {} if checkpoint_ticks is not None else None)
    wall_start = time.perf_counter()
    stop = n_ticks if end_tick is None else min(n_ticks, end_tick)
    cut_tick = None

    for tick in range(start_tick, stop):
        if tick in capture:
            checkpoints[tick] = Checkpoint(
                scenario=scenario.name, seed=seed, tick=tick,
                world=world.snapshot(), pipeline=pipeline.snapshot())
            STAGE_TIMER.count("checkpoint", "snapshots", 1)
        is_planning_tick = pipeline.is_planning_tick
        command = pipeline.tick(world)
        world.step(command.throttle, command.brake, command.steering,
                   pipeline.config.control_period)

        # The potential is consumed from the first fault tick onward
        # (plus the trace recorder on planning ticks); before that the
        # run is provably fault-free, so the RK4 stop integration and
        # clearance scans are skipped.
        recording = record_trace and is_planning_tick
        if tick >= monitor_from or recording:
            monitor.sample(tick, world_safety_inputs(world))
        if tick >= monitor_from:
            if world.in_collision(
                    STAGE_TIMER if STAGE_TIMER.enabled else None):
                monitor.collided = True
            if world.off_road():
                monitor.went_off_road = True

        if recording:
            plan = pipeline.last_plan
            model = pipeline.last_model
            gap = plan.gap if plan is not None else SENSOR_RANGE
            closing = plan.closing_speed if plan is not None else 0.0
            lat = model.lane_offset if model is not None else 0.0
            monitor.hold_row(_trace_row(world, tick, command, gap, closing,
                                        lat))
        if monitor.collided:
            break
        if stop_after is not None and tick >= stop_after:
            break
    else:
        if stop < n_ticks:
            cut_tick = stop

    outcome = monitor.finish(safety_config, trace)
    wall_seconds = time.perf_counter() - wall_start
    return RunResult(
        scenario=scenario.name, seed=seed, trace=trace, **outcome,
        landed=pipeline.fault_landed,
        degraded=pipeline.degraded_ticks > 0,
        sim_seconds=world.time, wall_seconds=wall_seconds, faults=faults,
        checkpoints=checkpoints, cut_tick=cut_tick)


def run_scenario(scenario: Scenario, ads_config: ADSConfig | None = None,
                 seed: int = 0, faults: list[FaultSpec] | None = None,
                 safety_config: SafetyConfig | None = None,
                 duration: float | None = None,
                 horizon_after_fault: float | None = 8.0,
                 record_trace: bool = True,
                 checkpoint_ticks=None,
                 end_tick: int | None = None) -> RunResult:
    """Run one scenario under ADS control, with optional fault injection.

    Safety is monitored from the first fault tick onward (or the whole
    run when fault-free).  The run ends early at a collision, at
    ``horizon_after_fault`` seconds past the last fault window, or at the
    scenario duration.  ``checkpoint_ticks`` requests state snapshots at
    those ticks (taken just before the tick executes), returned on
    ``RunResult.checkpoints``.  ``end_tick`` simulates only ticks before
    it; the tick loop is causal, so everything the run records is the
    full run's prefix, and a run that reaches ``end_tick`` before the
    scenario's end carries it as ``RunResult.cut_tick``.
    """
    ads_config = ads_config or ADSConfig()
    safety_config = safety_config or SafetyConfig()
    faults = list(faults or [])
    world = scenario.make_world()
    pipeline = ADSPipeline(ads_config, seed=seed)
    _arm_faults(pipeline, faults)

    dt = ads_config.control_period
    total_seconds = duration if duration is not None else scenario.duration
    n_ticks = int(round(total_seconds / dt))
    monitor_from, stop_after = _fault_schedule(faults, horizon_after_fault,
                                               dt)
    return _simulate(scenario, world, pipeline, seed, faults, safety_config,
                     n_ticks, 0, monitor_from, stop_after, record_trace,
                     checkpoint_ticks, end_tick)


def _fork(scenario: Scenario, checkpoint: Checkpoint,
          faults: list[FaultSpec],
          ads_config: ADSConfig) -> tuple[World, ADSPipeline]:
    """A fresh world and pipeline restored to ``checkpoint`` with
    ``faults`` armed: the fork both engines run a resumed experiment
    from."""
    if not faults:
        raise ValueError("checkpoint resume needs at least one fault; "
                         "use run_scenario for fault-free runs")
    if checkpoint.scenario != scenario.name:
        raise ValueError(f"checkpoint is for {checkpoint.scenario!r}, "
                         f"not {scenario.name!r}")
    earliest = min(f.start_tick for f in faults)
    if earliest < checkpoint.tick:
        raise ValueError(
            f"fault at tick {earliest} precedes checkpoint tick "
            f"{checkpoint.tick}; resume cannot rewind")
    world = scenario.make_world()
    pipeline = ADSPipeline(ads_config, seed=checkpoint.seed)
    world.restore(checkpoint.world)
    pipeline.restore(checkpoint.pipeline)
    _arm_faults(pipeline, faults)
    STAGE_TIMER.count("checkpoint", "restores", 1)
    STAGE_TIMER.count("checkpoint", "gap_ticks", earliest - checkpoint.tick)
    return world, pipeline


def run_scenario_from_checkpoint(
        scenario: Scenario, checkpoint: Checkpoint,
        ads_config: ADSConfig | None = None,
        faults: list[FaultSpec] | None = None,
        safety_config: SafetyConfig | None = None,
        duration: float | None = None,
        horizon_after_fault: float | None = 8.0,
        record_trace: bool = False) -> RunResult:
    """Fork an injection run from its golden prefix.

    Restores the checkpointed world + ADS state, arms the faults, and
    simulates only from ``checkpoint.tick`` to the end of the post-fault
    horizon.  Every fault must start at or after the checkpoint tick —
    earlier ticks are already history in the restored state.  The
    returned :class:`RunResult` is field-for-field identical to
    :func:`run_scenario` with the same faults (wall clock aside).
    """
    faults = list(faults or [])
    ads_config = ads_config or ADSConfig()
    safety_config = safety_config or SafetyConfig()
    world, pipeline = _fork(scenario, checkpoint, faults, ads_config)

    dt = ads_config.control_period
    total_seconds = duration if duration is not None else scenario.duration
    n_ticks = int(round(total_seconds / dt))
    monitor_from, stop_after = _fault_schedule(faults, horizon_after_fault,
                                               dt)
    return _simulate(scenario, world, pipeline, checkpoint.seed, faults,
                     safety_config, n_ticks, checkpoint.tick, monitor_from,
                     stop_after, record_trace)


class _BatchLane:
    """Book-keeping for one experiment occupying one batch lane."""

    def __init__(self, index: int, world: World, pipeline: ADSPipeline,
                 seed: int, faults: list[FaultSpec], tick: int, n_ticks: int,
                 monitor_from: int, stop_after: int | None):
        self.index = index
        self.world = world
        self.pipeline = pipeline
        self.seed = seed
        self.faults = faults
        self.tick = tick
        self.n_ticks = n_ticks
        self.monitor_from = monitor_from
        self.stop_after = stop_after
        self.monitor = _SafetyMonitor(monitor_from)
        #: Wall clock charged to this lane: its preparation, its share
        #: of every fused tick it is live in, and its monitor fold.
        self.wall_seconds = 0.0

    def result(self, scenario_name: str,
               safety_config: SafetyConfig) -> RunResult:
        fold_start = time.perf_counter()
        trace = Trace()
        outcome = self.monitor.finish(safety_config, trace)
        self.wall_seconds += time.perf_counter() - fold_start
        return RunResult(
            scenario=scenario_name, seed=self.seed, trace=trace,
            **outcome, landed=self.pipeline.fault_landed,
            degraded=self.pipeline.degraded_ticks > 0,
            sim_seconds=self.world.time, wall_seconds=self.wall_seconds,
            faults=self.faults, checkpoints=None)


def _prepare_lane(scenario: Scenario, index: int, faults: list[FaultSpec],
                  checkpoint: Checkpoint | None, ads_config: ADSConfig,
                  seed: int,
                  horizon_after_fault: float | None) -> _BatchLane:
    """Build one lane exactly the way the scalar entry points do."""
    faults = list(faults)
    if checkpoint is not None:
        world, pipeline = _fork(scenario, checkpoint, faults, ads_config)
        lane_seed = checkpoint.seed
        start_tick = checkpoint.tick
    else:
        world = scenario.make_world()
        pipeline = ADSPipeline(ads_config, seed=seed)
        _arm_faults(pipeline, faults)
        lane_seed = seed
        start_tick = 0
    dt = ads_config.control_period
    n_ticks = int(round(scenario.duration / dt))
    monitor_from, stop_after = _fault_schedule(faults, horizon_after_fault,
                                               dt)
    return _BatchLane(index, world, pipeline, lane_seed, faults, start_tick,
                      n_ticks, monitor_from, stop_after)


def run_experiments_batched(scenario: Scenario, fault_lists,
                            ads_config: ADSConfig | None = None,
                            safety_config: SafetyConfig | None = None,
                            seed: int = 0, checkpoints=None,
                            horizon_after_fault: float | None = 8.0,
                            batch_size: int = 8) -> list[RunResult]:
    """Run K fault experiments of one scenario over a lane batch.

    The vectorized sibling of K calls to :func:`run_scenario` /
    :func:`run_scenario_from_checkpoint` with ``record_trace=False``:
    up to ``batch_size`` experiments occupy lanes of one
    :class:`BatchWorldState` and one :class:`BatchADSState`, so
    physics, ground-truth safety signals and the ADS advance in fused
    numpy kernels.  Lanes retire as their runs end (collision,
    post-fault horizon, or scenario end) and pending experiments take
    their place.  Results are bit-for-bit the scalar results, in
    submission order (wall clock aside).

    Every experiment must be fusable
    (:func:`repro.ads.batch.can_fuse`); attaching one that is not
    raises ``ValueError``.  The campaign driver sends only fusable jobs
    here and runs the rest on the scalar path.

    Lanes share every fused tick, so each result's ``wall_seconds`` is
    its own preparation and monitor fold plus, per tick it was live in,
    the tick's elapsed time divided by the live lanes: the results'
    clocks sum to at most the call's elapsed time.

    ``fault_lists`` is one fault list per experiment; ``checkpoints``
    optionally aligns a golden :class:`Checkpoint` (or ``None``) with
    each, forking that lane from the prefix instead of replaying it.
    Checkpoint capture is not supported here — golden collection stays
    on the scalar path.
    """
    ads_config = ads_config or ADSConfig()
    safety_config = safety_config or SafetyConfig()
    fault_lists = [list(faults) for faults in fault_lists]
    if checkpoints is None:
        checkpoints = [None] * len(fault_lists)
    if len(checkpoints) != len(fault_lists):
        raise ValueError("checkpoints must align with fault_lists")
    if not fault_lists:
        return []

    results: list[RunResult | None] = [None] * len(fault_lists)
    pending = list(range(len(fault_lists)))
    dt = ads_config.control_period
    n_lanes = max(1, min(int(batch_size), len(fault_lists)))

    def next_lane() -> _BatchLane | None:
        """Prepare the next pending experiment, finalizing any run whose
        window is already over (zero loop iterations in the scalar path
        — same early-exit RunResult)."""
        while pending:
            index = pending.pop(0)
            prepare_start = time.perf_counter()
            lane = _prepare_lane(scenario, index, fault_lists[index],
                                 checkpoints[index], ads_config, seed,
                                 horizon_after_fault)
            lane.wall_seconds = time.perf_counter() - prepare_start
            if lane.tick < lane.n_ticks:
                return lane
            results[index] = lane.result(scenario.name, safety_config)
        return None

    slots: list[_BatchLane | None] = []
    for _ in range(n_lanes):
        slots.append(next_lane())
    live = [lane for lane in slots if lane is not None]
    if not live:
        return results
    batch = BatchWorldState([lane.world for lane in live],
                            reference=scenario.make_world())
    # Re-map: slot s of the batch holds slots[s]; trailing empty slots
    # (fewer experiments than lanes) start deactivated.
    slots = live
    for extra in range(len(slots), batch.n_lanes):
        batch.deactivate(extra)
    ads = BatchADSState(batch, ads_config)
    for slot, lane in enumerate(slots):
        ads.attach(slot, lane.pipeline)

    while any(lane is not None for lane in slots):
        tick_start = time.perf_counter()
        live = [lane for lane in slots if lane is not None]
        retiring = []
        # 1. One fused ADS tick, which also maps the executed commands
        #    to kernel control inputs, then one fused physics step.
        #    Lanes stay array-resident; a lane's world is scattered when
        #    it retires.
        ads.tick_all()
        batch.step(dt)
        # 2. Batched ground-truth signals.
        gap, lead_speed, lateral_free = batch.safety_inputs()
        collided = batch.collided_mask(
            STAGE_TIMER if STAGE_TIMER.enabled else None)
        off_road = batch.off_road_mask()
        # 3. Per-lane monitoring; retirement follows once the tick's
        #    cost is shared out.
        for slot, lane in enumerate(slots):
            if lane is None:
                continue
            tick = lane.tick
            monitor = lane.monitor
            if tick >= lane.monitor_from:
                speed = float(lead_speed[slot])
                monitor.sample(tick, (
                    float(batch.ego[slot, 2]), float(batch.ego[slot, 3]),
                    float(batch.ego[slot, 4]), float(gap[slot]),
                    None if math.isnan(speed) else speed,
                    float(lateral_free[slot])))
                if collided[slot]:
                    monitor.collided = True
                if off_road[slot]:
                    monitor.went_off_road = True
            lane.tick = tick + 1
            if (monitor.collided
                    or (lane.stop_after is not None
                        and tick >= lane.stop_after)
                    or lane.tick >= lane.n_ticks):
                retiring.append(slot)
        share = (time.perf_counter() - tick_start) / len(live)
        for lane in live:
            lane.wall_seconds += share
        # 4. Retire finished lanes; pending experiments take their slots.
        for slot in retiring:
            lane = slots[slot]
            batch.scatter([slot])
            ads.deactivate(slot)
            results[lane.index] = lane.result(scenario.name, safety_config)
            slots[slot] = next_lane()
            if slots[slot] is None:
                batch.deactivate(slot)
            else:
                fresh = slots[slot]
                batch.attach(slot, fresh.world)
                ads.attach(slot, fresh.pipeline)
    return results


def _trace_row(world: World, tick: int, command: ActuationCommand,
               gap: float, closing: float, lat: float) -> dict:
    """One trace row of a recorded tick.  The belief-side columns
    (``gap``/``closing``/``lat``/``command``) come from the caller,
    which reads them from the pipeline; the delta columns are added by
    :meth:`_SafetyMonitor.finish`."""
    # A 1 m corridor margin captures impending entrants (a body
    # mid-cut-in), which a tracker with lateral velocity would already
    # treat as lead.
    lead = world.lead_obstacle(extra_margin=1.0)
    if lead is None:
        gt_gap, gt_lead_v = SENSOR_RANGE, NO_LEAD
    else:
        gt_gap = ((lead.x - world.ego.state.x)
                  - (world.ego.params.length + lead.length) / 2.0)
        gt_lead_v = lead.v
    return {
        "time": world.time,
        "tick": float(tick),
        "x": world.ego.state.x,
        "v": world.ego.state.v,
        "gap": gap,
        "closing": closing,
        "lat": lat,
        "lat_free": world.lateral_clearance(),
        "lat_free_up": world.lateral_clearance_toward(+1),
        "lat_free_down": world.lateral_clearance_toward(-1),
        "gt_gap": gt_gap,
        "gt_lead_v": gt_lead_v,
        "throttle": command.throttle,
        "brake": command.brake,
        "steering": command.steering,
    }
