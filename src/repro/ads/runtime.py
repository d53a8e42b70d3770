"""The ADS runtime: rate-scheduled module pipeline with injection hooks.

One :meth:`ADSPipeline.tick` is a control-rate cycle (default 20 Hz).
Perception, tracking, and planning run every ``planner_divisor`` ticks
(default 2, i.e. 10 Hz), matching the paper's layered refresh rates; the
PID controller and vehicle actuation run every tick.  The frequent
recomputation is the first of the paper's three masking mechanisms.

Faults are armed on the pipeline as :class:`ArmedFault` records.  After a
stage computes its payload and before the payload is handed downstream,
every active fault targeting that stage corrupts the payload in place —
precisely "modifying the software state of the ADS" as DriveFI does.

Most ticks lie outside every fault window (all of a golden run's, and
all but a few of an experiment's).  ``tick`` checks that once: on such a
*quiet* tick the per-stage hooks — the bus's hang check, value
corruption and faulty delivery — would all be no-ops, so each stage
skips them and hands its payload to
:meth:`~repro.ads.channels.ChannelBus.pass_through`, the fault-free
branch of ``deliver``.  Stage timers and the degradation check run on
every tick alike.

Interface faults ride the :class:`~repro.ads.channels.ChannelBus` sitting
at each stage boundary: payloads are *delivered* through the bus, which
can drop, freeze, delay, or reorder them, or hang the producing module
outright.  When graceful degradation is enabled (the default) the
pipeline watches the bus's per-channel staleness and swaps the normal
controller for a safe-stop command once a critical input exceeds its
TTL — recorded so campaigns can tell masked-by-degradation from a real
safety violation.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace

import numpy as np

from ..sim.world import World
from .channels import ChannelBus, ChannelFault, DegradationConfig
from .control import (ControllerConfig, ControllerSnapshot,
                      VehicleController, safe_stop_command)
from .localization import EgoLocalizer, LocalizerConfig, LocalizerSnapshot
from .messages import ActuationCommand, PlannerOutput, WorldModel
from .perception import Perception, PerceptionConfig
from .planning import Planner, PlannerConfig
from .profiling import STAGE_TIMER
from .sensors import SensorSnapshot, SensorSuite, SensorSuiteConfig
from .tracking import MultiObjectTracker, TrackerConfig, TrackerSnapshot
from .variables import InjectableVariable, variable_by_name


@dataclass(frozen=True)
class ADSConfig:
    """Top-level ADS configuration (submodule configs plus scheduling)."""

    control_rate: float = 20.0      # Hz: controller + actuation
    planner_divisor: int = 2        # planning every N control ticks
    sensors: SensorSuiteConfig = field(default_factory=SensorSuiteConfig)
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    localizer: LocalizerConfig = field(default_factory=LocalizerConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    degradation: DegradationConfig = field(default_factory=DegradationConfig)

    @property
    def control_period(self) -> float:
        """Seconds per control tick."""
        return 1.0 / self.control_rate

    @property
    def planner_period(self) -> float:
        """Seconds per planning cycle."""
        return self.planner_divisor / self.control_rate

    def with_resilience(self, tracking: bool = True, smoothing: bool = True,
                        planner_divisor: int | None = None) -> "ADSConfig":
        """Ablation helper: switch masking mechanisms on/off."""
        return replace(
            self,
            tracker=replace(self.tracker, enabled=tracking),
            controller=replace(self.controller, enabled=smoothing),
            planner_divisor=(self.planner_divisor if planner_divisor is None
                             else planner_divisor))


@dataclass
class ArmedFault:
    """A scheduled transient corruption of one injectable variable."""

    variable: InjectableVariable
    value: float
    start_tick: int
    duration_ticks: int = 2     # one planner period at the default rates
    landed: bool = False        # set once the corruption touched a payload

    def active(self, tick: int) -> bool:
        """True while the fault window covers ``tick``."""
        return self.start_tick <= tick < self.start_tick + self.duration_ticks


@dataclass(frozen=True)
class PipelineSnapshot:
    """Picklable capture of every mutable cell in the ADS stack.

    Faults are stored by variable *name* (the registry objects carry
    setter functions, which pickle by module reference but are cheaper
    and safer to re-resolve on restore).  Fault setters corrupt payloads
    in place, so the latched plan and world model and the bus's held
    payloads are copied, as one pickle (:func:`pack_payloads`): the bus
    usually holds the very plan and model the pipeline latched, and a
    shared-memo pickle stores them once.  As ``bytes`` they also keep a
    snapshot's pickle byte-stable across save/load round trips.
    """

    tick_index: int
    sensors: SensorSnapshot
    tracker: TrackerSnapshot
    localizer: LocalizerSnapshot
    controller: ControllerSnapshot
    command: tuple[float, float, float]
    faults: tuple[tuple[str, float, int, int, bool], ...]
    channel_faults: tuple
    #: ``pickle`` of ``(plan, model, bus channels)``.
    payloads: bytes
    degraded_ticks: int


def pack_payloads(plan: PlannerOutput | None, model: WorldModel | None,
                  channels: tuple) -> bytes:
    """The :attr:`PipelineSnapshot.payloads` blob: one pickle, so a
    payload shared by the pipeline and its bus is copied once."""
    return pickle.dumps((plan, model, channels),
                        protocol=pickle.HIGHEST_PROTOCOL)


class ADSPipeline:
    """The complete software stack of the ego vehicle."""

    def __init__(self, config: ADSConfig | None = None, seed: int = 0):
        self.config = config or ADSConfig()
        self._rng = np.random.default_rng(seed)
        self.sensors = SensorSuite(self.config.sensors, self._rng)
        self.perception = Perception(self.config.perception)
        self.tracker = MultiObjectTracker(self.config.tracker)
        self.localizer = EgoLocalizer(self.config.localizer)
        self.planner = Planner(self.config.planner)
        self.controller = VehicleController(self.config.controller)
        self.tick_index = 0
        self.faults: list[ArmedFault] = []
        self.bus = ChannelBus()
        self._degraded_ticks = 0
        self._plan: PlannerOutput | None = None
        self._model: WorldModel | None = None
        self._command = ActuationCommand(0.0, 0.0, 0.0)

    # -- fault management ----------------------------------------------------

    def arm_fault(self, variable_name: str, value: float, start_tick: int,
                  duration_ticks: int = 2) -> ArmedFault:
        """Schedule a transient corruption; returns the armed record."""
        fault = ArmedFault(variable=variable_by_name(variable_name),
                           value=float(value), start_tick=int(start_tick),
                           duration_ticks=int(duration_ticks))
        self.faults.append(fault)
        return fault

    def arm_channel_fault(self, kind: str, channel: str, start_tick: int,
                          duration_ticks: int = 2,
                          param: int = 0) -> ChannelFault:
        """Schedule an interface fault on one message channel."""
        return self.bus.arm(kind, channel, start_tick,
                            duration_ticks=duration_ticks, param=param)

    @property
    def fault_landed(self) -> bool:
        """True once any armed fault (value or interface) took effect."""
        return any(f.landed for f in self.faults) or self.bus.landed

    @property
    def degraded_ticks(self) -> int:
        """Ticks the safe-stop fallback was in command."""
        return self._degraded_ticks

    def _hooks_live(self, tick: int) -> bool:
        """Whether any armed value or interface fault is active at
        ``tick``.  When none is, every stage hook (hang check, value
        corruption, faulty delivery) is a no-op, and the tick hands its
        payloads straight to :meth:`ChannelBus.pass_through`."""
        for fault in self.faults:
            if fault.active(tick):
                return True
        for fault in self.bus.faults:
            if fault.active(tick):
                return True
        return False

    def _corrupt(self, stage: str, payload: object) -> None:
        for fault in self.faults:
            if fault.variable.stage == stage and fault.active(
                    self.tick_index):
                if fault.variable.setter(payload, fault.value):
                    fault.landed = True

    def _deliver(self, stage: str, payload, tick: int):
        """A stage's hand-off on a tick with live hooks: the active value
        faults corrupt ``payload``, then the bus delivers it."""
        self._corrupt(stage, payload)
        return self.bus.deliver(stage, payload, tick)

    # -- checkpoint support ---------------------------------------------------

    def snapshot(self) -> PipelineSnapshot:
        """Capture the full stack state as a picklable snapshot."""
        channel_faults, channels = self.bus.snapshot()
        return PipelineSnapshot(
            tick_index=self.tick_index,
            sensors=self.sensors.snapshot(),
            tracker=self.tracker.snapshot(),
            localizer=self.localizer.snapshot(),
            controller=self.controller.snapshot(),
            command=(self._command.throttle, self._command.brake,
                     self._command.steering),
            faults=tuple((f.variable.name, f.value, f.start_tick,
                          f.duration_ticks, f.landed) for f in self.faults),
            channel_faults=channel_faults,
            payloads=pack_payloads(self._plan, self._model, channels),
            degraded_ticks=self._degraded_ticks)

    def restore(self, snapshot: PipelineSnapshot) -> None:
        """Rewind the stack to a snapshot taken from an identically
        configured pipeline.  The perception and planning stages are
        stateless; their ``restore`` is called anyway so a future
        stateful implementation cannot be silently skipped."""
        self.tick_index = snapshot.tick_index
        self.sensors.restore(snapshot.sensors)
        self.perception.restore(None)
        self.tracker.restore(snapshot.tracker)
        self.localizer.restore(snapshot.localizer)
        self.planner.restore(None)
        self.controller.restore(snapshot.controller)
        self._plan, self._model, channels = pickle.loads(snapshot.payloads)
        self._command = ActuationCommand(*snapshot.command)
        self.faults = []
        for name, value, start_tick, duration_ticks, landed in \
                snapshot.faults:
            fault = self.arm_fault(name, value, start_tick, duration_ticks)
            fault.landed = landed
        self.bus = ChannelBus()
        self.bus.restore(snapshot.channel_faults, channels)
        self._degraded_ticks = snapshot.degraded_ticks

    # -- execution ------------------------------------------------------------

    @property
    def is_planning_tick(self) -> bool:
        """True when the upcoming tick recomputes perception + planning."""
        return self.tick_index % self.config.planner_divisor == 0

    def tick(self, world: World) -> ActuationCommand:
        """One control cycle: sense, (re)plan, smooth, return ``A_t``.

        The caller owns stepping the world with the returned command.
        """
        dt = self.config.control_period
        tick = self.tick_index
        bus = self.bus
        timer = STAGE_TIMER if STAGE_TIMER.enabled else None
        hooks = self._hooks_live(tick)

        if hooks and bus.hung("sensing", tick):
            bundle = bus.held("sensing")
        else:
            started = timer.start() if timer else 0
            bundle = self.sensors.measure(world)
            bundle = (self._deliver("sensing", bundle, tick) if hooks
                      else bus.pass_through("sensing", bundle, tick))
            if timer:
                timer.stop("sensing", started)

        if self.is_planning_tick or self._plan is None:
            if hooks and bus.hung("perception", tick):
                detections = bus.held("perception")
            else:
                started = timer.start() if timer else 0
                detections = self.perception.process(bundle)
                detections = (
                    self._deliver("perception", detections, tick) if hooks
                    else bus.pass_through("perception", detections, tick))
                if timer:
                    timer.stop("perception", started)

            planning_dt = self.config.planner_period
            if hooks and bus.hung("world_model", tick):
                model = bus.held("world_model")
            else:
                started = timer.start() if timer else 0
                tracks = self.tracker.update(detections, planning_dt)
                ego = self.localizer.update(bundle.gps, bundle.imu,
                                            bundle.imu.yaw_rate, planning_dt)
                model = WorldModel(time=bundle.time, ego=ego, tracks=tracks,
                                   lane_offset=bundle.lane_offset,
                                   lane_heading=bundle.lane_heading)
                model = (self._deliver("world_model", model, tick) if hooks
                         else bus.pass_through("world_model", model, tick))
                if timer:
                    timer.stop("world_model", started)
                    timer.count("world_model", "tracks",
                                self.tracker.track_count)
                    timer.count("world_model", "detections",
                                len(detections))
            self._model = model

            if hooks and bus.hung("planning", tick):
                plan = bus.held("planning")
            else:
                started = timer.start() if timer else 0
                plan = self.planner.plan(model, planning_dt)
                plan = (self._deliver("planning", plan, tick) if hooks
                        else bus.pass_through("planning", plan, tick))
                if timer:
                    timer.stop("planning", started)
            self._plan = plan

        degradation = self.config.degradation
        degraded = False
        if degradation.enabled:
            for channel in degradation.critical_channels:
                if bus.age(channel, tick) > degradation.ttl_ticks:
                    degraded = True
                    break

        if hooks and bus.hung("actuation", tick):
            command = bus.held("actuation")
        else:
            started = timer.start() if timer else 0
            if degraded:
                command = safe_stop_command(self._command,
                                            degradation.brake_level)
                self._degraded_ticks += 1
            else:
                command = self.controller.actuate(self._plan, bundle.imu.v,
                                                  dt)
            command = (self._deliver("actuation", command, tick) if hooks
                       else bus.pass_through("actuation", command, tick))
            if timer:
                timer.stop("actuation", started)
        command = command.clipped()
        self._command = command
        self.tick_index += 1
        return command

    @property
    def last_plan(self) -> PlannerOutput | None:
        """Most recent planner output (``U_A,t``)."""
        return self._plan

    @property
    def last_model(self) -> WorldModel | None:
        """Most recent world model (``S_t``)."""
        return self._model

    @property
    def last_command(self) -> ActuationCommand:
        """Most recent actuation command (``A_t``)."""
        return self._command
