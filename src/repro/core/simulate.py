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

import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

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


def _potentials(samples, config: SafetyConfig
                ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.core.safety.bulk_safety_potential` of held
    samples, charged to the ``safety`` row of the stage table."""
    if not STAGE_TIMER.enabled:
        return bulk_safety_potential(samples, config)
    started = STAGE_TIMER.start()
    potentials = bulk_safety_potential(samples, config)
    STAGE_TIMER.stop("safety", started, len(samples))
    return potentials


def _outcome(longitudinal: list[float], lateral: list[float], pre: bool,
             collided: bool, went_off_road: bool) -> dict:
    """The hazard, outcome and delta fields of :class:`RunResult`.

    ``longitudinal`` and ``lateral`` are the run's monitored potentials
    in tick order; ``pre`` says whether the first of them is the first
    fault tick's, the pre-fault delta.  Both engines fold through here.
    """
    inf = float("inf")
    # min((inf, *values)) is the running fold m = min(m, v) from inf,
    # NaNs and all.
    min_delta_long = min((inf, *longitudinal))
    min_delta_lat = min((inf, *lateral))
    if pre and longitudinal:
        pre_delta_long, pre_delta_lat = longitudinal[0], lateral[0]
    else:
        pre_delta_long = pre_delta_lat = inf
    if collided:
        hazard = Hazard.COLLISION
    elif went_off_road:
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
    return {"hazard": hazard, "collided": collided,
            "went_off_road": went_off_road,
            "min_delta_long": min_delta_long,
            "min_delta_lat": min_delta_lat,
            "pre_delta_long": pre_delta_long,
            "pre_delta_lat": pre_delta_lat}


class _SafetyMonitor:
    """The deferred safety monitor of one scalar run.

    The potential never feeds back into control, so the tick loop only
    records each monitored tick's cheap inputs (:meth:`sample`) and the
    physical outcomes; :meth:`finish` evaluates every potential in one
    :func:`~repro.core.safety.bulk_safety_potential` call after the
    loop, folds the pre-fault and minimum deltas in tick order, fills
    the delta columns of the held trace rows, and classifies the hazard.
    The fused engine holds its samples in columns instead
    (:class:`_SafetyColumns`) and folds through the same
    :func:`_outcome`.
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

    def first_monitored(self) -> int:
        """The index of the first sample at or past ``monitor_from``.
        Ticks sampled before it (for the trace recorder only) are a
        prefix: the tick loop samples in tick order."""
        return bisect_left(self.ticks, self.monitor_from)

    def finish(self, config: SafetyConfig, trace: Trace) -> dict:
        """Evaluate and fold every sampled potential, and record the
        held trace rows in ``trace``.  Returns the hazard, outcome, and
        delta fields of :class:`RunResult`."""
        longitudinal, lateral = (
            column.tolist() for column in _potentials(self.inputs, config))
        first = self.first_monitored()
        pre = (first < len(self.ticks)
               and self.ticks[first] == self.monitor_from)
        for index, row in self.rows:
            row["delta_long"] = longitudinal[index]
            row["delta_lat"] = lateral[index]
            trace.record(row)
        return _outcome(longitudinal[first:], lateral[first:], pre,
                        self.collided, self.went_off_road)


def _simulate(scenario: Scenario, world: World, pipeline: ADSPipeline,
              seed: int, faults: list[FaultSpec],
              safety_config: SafetyConfig, n_ticks: int, start_tick: int,
              monitor_from: int, stop_after: int | None, record_trace: bool,
              checkpoint_ticks=None, end_tick: int | None = None,
              hand_off: bool = False) -> RunResult | _SafetyMonitor:
    """The tick loop shared by cold-start and checkpoint-resumed runs,
    and by the scalar segment of a late-fusing lane.

    ``start_tick`` is 0 for a cold start, or the checkpoint's tick for a
    resumed run (state must already be restored by the caller).  Safety
    is monitored from ``monitor_from`` onward; the ground-truth potential
    is skipped entirely on earlier ticks unless the trace recorder needs
    it, which is what makes the fault-free prefix cheap.  The potentials
    themselves are evaluated after the loop (:class:`_SafetyMonitor`),
    inside the run's wall clock.  An ``end_tick`` below ``n_ticks``
    stops the loop there; a run that gets that far is marked cut, or,
    with ``hand_off``, returns its unfolded :class:`_SafetyMonitor`
    instead of a result: the run goes on in a fused batch from
    ``end_tick`` (:func:`_prepare_lane`).
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
            if hand_off:
                return monitor
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


class _SafetyColumns:
    """The safety samples of a fused batch, in columns.

    Each fused tick appends one ``(n_lanes, 6)`` block of ``(v, theta,
    phi, gap, lead_speed, lateral_free)``, built from arrays the tick
    already has; retired slots write rows nobody reads.  A lane keeps
    only the absolute index of its first monitored block: its samples
    are its slot's rows from there to the latest block, read once when
    it retires (:meth:`samples`).  Blocks are stored in chunks of
    :attr:`CHUNK`; a chunk is dropped as soon as no live lane needs any
    of its blocks (:meth:`keep_from`), so storage never holds more than
    the live lanes' samples plus one chunk.
    """

    #: Blocks per chunk.
    CHUNK = 32

    __slots__ = ("_n_lanes", "_chunks", "_spare", "_base", "_count")

    def __init__(self, n_lanes: int):
        self._n_lanes = n_lanes
        self._chunks: list[np.ndarray] = []
        self._spare: np.ndarray | None = None   # a dropped chunk, reused
        self._base = 0       # absolute index of the first held block
        self._count = 0      # blocks held

    @property
    def next_block(self) -> int:
        """The absolute index the next appended block gets."""
        return self._base + self._count

    def append(self, ego: np.ndarray, gap: np.ndarray,
               lead_speed: np.ndarray, lateral_free: np.ndarray) -> int:
        """Append one fused tick's block; returns its absolute index."""
        row = self._count % self.CHUNK
        if row == 0:
            chunk, self._spare = self._spare, None
            if chunk is None:
                chunk = np.empty((self.CHUNK, self._n_lanes, 6))
            self._chunks.append(chunk)
        block = self._chunks[-1][row]
        block[:, :3] = ego[:, 2:5]
        block[:, 3] = gap
        block[:, 4] = lead_speed
        block[:, 5] = lateral_free
        self._count += 1
        return self._base + self._count - 1

    def keep_from(self, block: int) -> None:
        """Drop the chunks wholly before ``block``: no live lane needs
        them any more."""
        dropped = min((block - self._base) // self.CHUNK,
                      len(self._chunks))
        if dropped > 0:
            self._spare = self._chunks[dropped - 1]
            del self._chunks[:dropped]
            self._base += dropped * self.CHUNK
            self._count -= dropped * self.CHUNK

    def rows(self, slot: int, first: int) -> list[np.ndarray]:
        """``slot``'s samples from block ``first`` to the latest, as
        views of the held chunks in block order: ``(k, 6)`` rows of
        :func:`~repro.core.safety.bulk_safety_potential` inputs (a NaN
        lead speed is a clear corridor)."""
        size = self.CHUNK
        start = first - self._base
        stop = self._count
        return [self._chunks[index][max(start - index * size, 0):
                                    min(stop - index * size, size), slot]
                for index in range(start // size, (stop - 1) // size + 1)]


class _BatchLane:
    """One experiment of a fused batch: what its result needs beyond
    the batch arrays.

    While the lane is live, its tick, outcome flags and monitoring
    state live in the batch's per-slot arrays, its safety samples in
    the batch's :class:`_SafetyColumns`, and its ADS state in the
    :class:`BatchADSState` that adopted its pipeline
    (:meth:`drop_pipeline`).  When it retires the driver copies back
    its slot's flags, its first monitored block and that block's tick;
    :func:`_fold_lanes` folds its samples with those of every lane
    retiring on the same tick, and :meth:`result` builds its result and
    drops the world and the block reference.  A lane that joins after a
    scalar segment (:func:`_prepare_lane`) brings that segment's
    monitored samples, its first monitored tick and its off-road flag,
    and its fold takes them first.
    """

    __slots__ = ("index", "scenario", "world", "pipeline", "armed",
                 "degraded", "bus_landed", "seed", "faults", "tick",
                 "n_ticks", "monitor_from", "stop_after", "samples",
                 "first_block", "first_tick", "collided", "went_off_road",
                 "wall_seconds")

    def __init__(self, index: int, scenario: str, world: World,
                 pipeline: ADSPipeline, seed: int, faults: list[FaultSpec],
                 tick: int, n_ticks: int, monitor_from: int,
                 stop_after: int | None,
                 segment: _SafetyMonitor | None = None):
        self.index = index
        self.scenario = scenario
        self.world = world
        self.pipeline: ADSPipeline | None = pipeline
        self.armed: list | None = None
        self.degraded = False
        self.bus_landed = False
        self.seed = seed
        self.faults = faults
        self.tick = tick
        self.n_ticks = n_ticks
        self.monitor_from = monitor_from
        self.stop_after = stop_after
        #: The scalar segment's monitored samples, in tick order.
        self.samples: list = []
        #: The absolute block of the first fused monitored tick
        #: (``None`` until the lane is monitored fused), and the lane's
        #: first monitored tick, scalar or fused.
        self.first_block: int | None = None
        self.first_tick: int | None = None
        self.collided = False
        self.went_off_road = False
        if segment is not None:
            first = segment.first_monitored()
            self.samples = segment.inputs[first:]
            if self.samples:
                self.first_tick = segment.ticks[first]
            self.went_off_road = segment.went_off_road
        #: Wall clock charged to this lane: its preparation and its
        #: share of every fused tick it is live in (:meth:`result` adds
        #: its share of its group's monitor fold).
        self.wall_seconds = 0.0

    def drop_pipeline(self) -> None:
        """Keep only what the result reads of the pipeline: its armed
        value faults, whose ``landed`` flags the fused hooks set,
        whether its bus landed an interface fault and whether it had
        degraded (both settled by then: the batch adopts a pipeline
        only once its interface faults are over, and a fused lane never
        degrades).  The rest of it is either adopted by the batch or
        never read again."""
        self.armed = self.pipeline.faults
        self.bus_landed = self.pipeline.bus.landed
        self.degraded = self.pipeline.degraded_ticks > 0
        self.pipeline = None

    def result(self, outcome: dict, fold_seconds: float) -> RunResult:
        """The lane's :class:`RunResult` from its folded ``outcome``
        (:func:`_fold_lanes`), charged ``fold_seconds`` more; the lane
        lets go of its world and samples.  Call :meth:`drop_pipeline`
        first."""
        result = RunResult(
            scenario=self.scenario, seed=self.seed, trace=Trace(),
            **outcome, landed=(self.bus_landed
                               or any(fault.landed for fault in self.armed)),
            degraded=self.degraded, sim_seconds=self.world.time,
            wall_seconds=self.wall_seconds + fold_seconds,
            faults=self.faults, checkpoints=None)
        self.world = self.armed = self.samples = self.first_block = None
        return result


#: Most samples one :func:`_fold_lanes` potential call evaluates: a
#: group with more folds in runs of whole lanes up to this size, so the
#: fold's transient arrays stay small however many lanes retire.
_FOLD_ROWS = 1024


def _fold_lanes(lanes: list[_BatchLane], slots: list[int],
                columns: _SafetyColumns | None,
                safety_config: SafetyConfig) -> list[RunResult]:
    """The results of lanes retiring together from ``slots``.

    The lanes' samples (each lane's scalar segment first, then its fused
    rows, read straight from ``columns``) go through columnar
    :func:`~repro.core.safety.bulk_safety_potential` calls of whole
    lanes, up to :data:`_FOLD_ROWS` samples each, and every lane folds
    its own slice through :func:`_outcome`.  The fold's elapsed time is
    split evenly across the lanes, so their clocks still sum to at most
    the batch call's elapsed time.
    """
    fold_start = time.perf_counter()
    outcomes = []
    parts: list[np.ndarray] = []
    bounds = [0]
    run: list[_BatchLane] = []

    def fold() -> None:
        longitudinal, lateral = _potentials(
            np.concatenate(parts) if parts else np.empty((0, 6)),
            safety_config)
        for lane, start, stop in zip(run, bounds, bounds[1:]):
            outcomes.append(_outcome(
                longitudinal[start:stop].tolist(),
                lateral[start:stop].tolist(),
                lane.first_tick == lane.monitor_from, lane.collided,
                lane.went_off_road))
        parts.clear()
        del bounds[1:], run[:]

    for lane, slot in zip(lanes, slots):
        count = len(lane.samples)
        if count:
            parts.append(np.array(lane.samples, dtype=float))
        if lane.first_block is not None:
            parts.extend(columns.rows(slot, lane.first_block))
            count += columns.next_block - lane.first_block
        run.append(lane)
        bounds.append(bounds[-1] + count)
        if bounds[-1] >= _FOLD_ROWS:
            fold()
    if run:
        fold()
    share = (time.perf_counter() - fold_start) / len(lanes)
    return [lane.result(outcome, share)
            for lane, outcome in zip(lanes, outcomes)]


def _hand_off_tick(pipeline: ADSPipeline) -> int:
    """The first planner tick at or after the end of the pipeline's last
    interface-fault window (0 without one).

    From there the channel bus is an exact no-op: that tick passes
    every channel through fresh (clearing any delay queue or jitter
    window an expired fault left), so no channel is staler than the
    planner's natural ``divisor - 1`` ticks again, and the run can go
    on fused.
    """
    end = max((fault.start_tick + fault.duration_ticks
               for fault in pipeline.bus.faults), default=0)
    divisor = pipeline.config.planner_divisor
    return -(-end // divisor) * divisor


def _prepare_lane(scenario: Scenario, index: int, faults: list[FaultSpec],
                  checkpoint: Checkpoint | None, ads_config: ADSConfig,
                  seed: int, horizon_after_fault: float | None,
                  safety_config: SafetyConfig) -> _BatchLane | RunResult:
    """Build one lane exactly the way the scalar entry points do.

    A lane with interface faults first runs the scalar tick loop
    (:func:`_simulate`) from its start to its hand-off tick
    (:func:`_hand_off_tick`), and joins the batch there with that
    segment's samples.  A run that ends inside the segment (collision,
    post-fault horizon or scenario end) returns its scalar
    :class:`RunResult` instead.
    """
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
    segment = None
    hand_off = _hand_off_tick(pipeline)
    if hand_off > start_tick:
        segment = _simulate(scenario, world, pipeline, lane_seed, faults,
                            safety_config, n_ticks, start_tick,
                            monitor_from, stop_after, False,
                            end_tick=hand_off, hand_off=True)
        if isinstance(segment, RunResult):
            return segment
        STAGE_TIMER.count("engine", "handoffs", 1)
        STAGE_TIMER.count("engine", "handoff_ticks", hand_off - start_tick)
        start_tick = hand_off
    return _BatchLane(index, scenario.name, world, pipeline, lane_seed,
                      faults, start_tick, n_ticks, monitor_from, stop_after,
                      segment)


def run_experiments_batched(scenarios, fault_lists,
                            ads_config: ADSConfig | None = None,
                            safety_config: SafetyConfig | None = None,
                            seed: int = 0, checkpoints=None,
                            horizon_after_fault: float | None = 8.0,
                            batch_size: int | None = None
                            ) -> list[RunResult]:
    """Run K fault experiments, one scenario each, over lane batches.

    The vectorized sibling of K calls to :func:`run_scenario` /
    :func:`run_scenario_from_checkpoint` with ``record_trace=False``:
    ``scenarios`` aligns one :class:`Scenario` with each fault list, and
    the experiments of any scenarios that share a road and an ego
    vehicle build (every library scenario does) run as one batch.  Up
    to ``batch_size`` of them (default
    :data:`repro.core.parallel.MAX_LANES`, the driver's width) occupy
    lanes of one :class:`BatchWorldState` and one
    :class:`BatchADSState`, so physics, ground-truth safety signals and
    the ADS advance in fused numpy kernels.  Lanes retire as their runs
    end (collision, post-fault horizon, or scenario end) and pending
    experiments take their place, whatever their scenario.  Results
    are bit-for-bit the scalar results, in submission order (wall clock
    aside).

    Monitoring is columnar: each fused tick appends one block of every
    slot's safety inputs (:class:`_SafetyColumns`), and collision,
    off-road and retirement are array masks, so a tick does no
    per-lane Python work here.  The lanes that retire on one tick fold
    together, in columns (:func:`_fold_lanes`).  A lane attaches as
    soon as it is prepared and lets go of its pipeline once the batch
    adopts it, and of its samples and world once its result is built,
    so a live lane costs little memory and a wide batch little more
    than a narrow one.

    The ADS configuration must be fusable
    (:func:`repro.ads.batch.can_fuse`); the campaign driver runs every
    job of a configuration it refuses on the scalar path.  A job with
    interface faults fuses late: its lane runs the scalar tick loop
    through its fault windows up to its hand-off tick, then joins the
    batch (:func:`_prepare_lane`).

    Lanes share every fused tick and every retirement fold, so each
    result's ``wall_seconds`` is its own preparation, plus its group's
    fold time divided by the group's lanes, plus, per tick it was live
    in, the tick's elapsed time divided by the live lanes: the results'
    clocks sum to at most the call's elapsed time.

    ``fault_lists`` is one fault list per experiment; ``checkpoints``
    optionally aligns a golden :class:`Checkpoint` (or ``None``) with
    each, forking that lane from the prefix instead of replaying it.
    The list is consumed: each entry is set to ``None`` as its lane
    forks, so the batch holds a checkpoint only until the last lane
    that needs it has forked (pass a copy to keep the list).
    Checkpoint capture is not supported here — golden collection stays
    on the scalar path.
    """
    if batch_size is None:
        from .parallel import MAX_LANES as batch_size
    ads_config = ads_config or ADSConfig()
    safety_config = safety_config or SafetyConfig()
    scenarios = list(scenarios)
    fault_lists = [list(faults) for faults in fault_lists]
    if len(scenarios) != len(fault_lists):
        raise ValueError("scenarios must align with fault_lists")
    if checkpoints is None:
        checkpoints = [None] * len(fault_lists)
    if len(checkpoints) != len(fault_lists):
        raise ValueError("checkpoints must align with fault_lists")

    # One fresh build per scenario name: its road and ego vehicle group
    # the experiments into batches, and it sizes its batch's NPC
    # columns and script arrays.
    references: dict[str, World] = {}
    groups: dict[tuple, list[int]] = {}
    for index, scenario in enumerate(scenarios):
        world = references.get(scenario.name)
        if world is None:
            world = references[scenario.name] = scenario.make_world()
        groups.setdefault((world.road, world.ego.params), []).append(index)

    results: list[RunResult | None] = [None] * len(fault_lists)
    for indices in groups.values():
        names = dict.fromkeys(scenarios[i].name for i in indices)
        _run_batch([(i, scenarios[i], fault_lists[i]) for i in indices],
                   checkpoints, [references[name] for name in names],
                   results, ads_config, safety_config, seed,
                   horizon_after_fault, int(batch_size))
    return results


def _run_batch(jobs: list, checkpoints: list, references: list[World],
               results: list, ads_config: ADSConfig,
               safety_config: SafetyConfig, seed: int,
               horizon_after_fault: float | None, batch_size: int) -> None:
    """Run ``jobs`` (``(index, scenario, faults)``) as one batch of up
    to ``batch_size`` live lanes, storing each result at its index;
    ``checkpoints[index]`` is the job's fork, cleared as the lane is
    prepared, and ``references`` holds one fresh build per scenario.
    Each lane attaches as soon as it is prepared, so at most one
    prepared lane at a time holds a whole pipeline."""
    pending = iter(jobs)
    dt = ads_config.control_period

    def next_lane() -> _BatchLane | None:
        """Prepare the next pending experiment, finalizing any run that
        ended in its scalar segment or whose window is already over
        (zero loop iterations in the scalar path — same early-exit
        RunResult)."""
        for index, scenario, faults in pending:
            prepare_start = time.perf_counter()
            checkpoint, checkpoints[index] = checkpoints[index], None
            lane = _prepare_lane(scenario, index, faults, checkpoint,
                                 ads_config, seed, horizon_after_fault,
                                 safety_config)
            del checkpoint
            if isinstance(lane, RunResult):
                results[index] = lane
                continue
            lane.wall_seconds = time.perf_counter() - prepare_start
            if lane.tick < lane.n_ticks:
                return lane
            lane.drop_pipeline()
            (results[index],) = _fold_lanes([lane], [-1], None,
                                            safety_config)
        return None

    first = next_lane()
    if first is None:
        return
    n = max(1, min(batch_size, len(jobs)))
    batch = BatchWorldState([None] * n, references=references)
    ads = BatchADSState(batch, ads_config)
    columns = _SafetyColumns(n)
    STAGE_TIMER.count("engine", "fused_batches", 1)
    STAGE_TIMER.count("engine", "batch_scenarios", len(references))

    # Per-slot lane state.  A lane is monitored from the first tick at
    # or past its first fault tick, and retires after a monitored
    # collision or its last tick (the post-fault horizon's end or the
    # scenario's last tick, whichever comes first).
    slots: list[_BatchLane | None] = [None] * n
    active = batch.active
    tick = np.zeros(n, dtype=np.int64)
    monitor_from = np.zeros(n, dtype=np.int64)
    last_tick = np.zeros(n, dtype=np.int64)
    first_block = np.full(n, -1, dtype=np.int64)
    first_tick = np.zeros(n, dtype=np.int64)
    collided_any = np.zeros(n, dtype=bool)
    off_road_any = np.zeros(n, dtype=bool)
    wall = np.zeros(n)

    def place(slot: int, lane: _BatchLane) -> None:
        batch.attach(slot, lane.world)
        ads.attach(slot, lane.pipeline)
        lane.drop_pipeline()
        slots[slot] = lane
        tick[slot] = lane.tick
        monitor_from[slot] = lane.monitor_from
        last_tick[slot] = (lane.n_ticks - 1 if lane.stop_after is None
                           else min(lane.stop_after, lane.n_ticks - 1))
        first_block[slot] = -1
        collided_any[slot] = lane.collided
        off_road_any[slot] = lane.went_off_road
        wall[slot] = 0.0

    place(0, first)
    for slot in range(1, n):
        lane = next_lane()
        if lane is None:
            break
        place(slot, lane)

    timer = STAGE_TIMER if STAGE_TIMER.enabled else None
    while active.any():
        tick_start = time.perf_counter()
        # 1. One fused ADS tick, which also maps the executed commands
        #    to kernel control inputs, then one fused physics step.
        #    Lanes stay array-resident; a lane's world is scattered when
        #    it retires.
        ads.tick_all()
        batch.step(dt)
        # 2. Batched ground-truth signals, appended as one block.
        gap, lead_speed, lateral_free = batch.safety_inputs()
        collided = batch.collided_mask(timer)
        off_road = batch.off_road_mask()
        block = columns.append(batch.ego, gap, lead_speed, lateral_free)
        # 3. Monitoring and retirement as masks over the slots.
        monitored = active & (tick >= monitor_from)
        starting = monitored & (first_block < 0)
        first_block[starting] = block
        first_tick[starting] = tick[starting]
        collided_any |= collided & monitored
        off_road_any |= off_road & monitored
        retiring = np.flatnonzero(active & (collided_any
                                            | (tick >= last_tick)))
        tick += active
        wall += active * ((time.perf_counter() - tick_start)
                          / np.count_nonzero(active))
        if not retiring.size:
            continue
        # 4. Retire finished lanes, fold them together, and let pending
        #    experiments take their slots.
        retired = retiring.tolist()
        batch.scatter(retired)
        lanes = []
        for slot in retired:
            lane = slots[slot]
            ads.deactivate(slot)
            batch.release(slot)
            if first_block[slot] >= 0:
                lane.first_block = int(first_block[slot])
                if lane.first_tick is None:     # no scalar segment sample
                    lane.first_tick = int(first_tick[slot])
            lane.collided = bool(collided_any[slot])
            lane.went_off_road = bool(off_road_any[slot])
            lane.wall_seconds += float(wall[slot])
            lanes.append(lane)
        for lane, result in zip(lanes, _fold_lanes(lanes, retired, columns,
                                                   safety_config)):
            results[lane.index] = result
        for slot in retired:
            slots[slot] = None
            fresh = next_lane()
            if fresh is not None:
                place(slot, fresh)
        needed = first_block[active & (first_block >= 0)]
        columns.keep_from(int(needed.min()) if needed.size
                          else columns.next_block)


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
