"""Typed-channel fault bus and graceful-degradation policy.

The ADS pipeline moves data between modules over five typed message
boundaries — the same stage names as :mod:`repro.ads.variables`:
``sensing -> perception -> world_model -> planning -> actuation``.
Value-corruption faults mutate a field *inside* a message; the
interface fault family modeled here attacks the boundary itself, the
failure mode AVFI and the CARLA experience report found dominates real
AV incidents: messages that are dropped, frozen, delayed, reordered,
or never produced because the module hung.

:class:`ChannelBus` sits at each boundary.  Every delivery records the
payload and its *origin tick*, so staleness is simply ``tick -
origin`` — which makes the planner's divided update rate (a plan is
naturally one or more ticks old between planning ticks) fall out with
no special casing.  The five fault kinds:

``drop``
    The fresh message is lost for the fault window; the consumer sees
    the last-good payload and its age grows.
``freeze``
    The producer's output is stuck replaying the last-good value.  In
    this lockstep single-queue architecture ``drop`` and ``freeze``
    are delivery-equivalent (both hold last-good); they are kept as
    distinct kinds because they map to distinct real-world causes and
    downstream triage wants the taxonomy.
``delay``
    Deliveries shift through a bounded FIFO of depth ``param`` — the
    consumer sees the payload from ``param`` ticks ago once the queue
    warms up, and snaps back to fresh data when the window closes.
``jitter``
    Seeded reordering: the delivered payload is drawn from a window of
    the ``param`` most recent messages by a stateless integer hash of
    ``(channel, start_tick, tick, param)`` — deterministic, and
    restore-safe because there is no RNG state to snapshot.
``hang``
    The producing module skips its update entirely (its internal state
    freezes) and the consumer reads the bus-held last-good payload.
    ``hung()`` reports ``False`` until something has been delivered,
    so the first tick always produces.

All bookkeeping on the fault-free path is reference assignment and
integer compares — no payload copies, no float arithmetic — so a bus
with no armed faults is an exact no-op on the simulation trace.

:class:`DegradationConfig` is the system-under-test half: when a
*critical* channel's age exceeds ``ttl_ticks`` the pipeline abandons
the normal controller and emits a safe-stop command (zero throttle,
configured brake, steering held).  Experiments record whether the
fallback engaged so campaigns can separate *masked-by-degradation*
outcomes from genuine safety violations.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Typed message boundaries, in pipeline order (mirrors
#: ``repro.ads.variables.STAGES``).
CHANNELS = ("sensing", "perception", "world_model", "planning", "actuation")

#: The interface fault family.
INTERFACE_KINDS = ("drop", "freeze", "delay", "jitter", "hang")

#: Default fault parameter per kind: queue depth for ``delay``,
#: reorder window for ``jitter``, unused otherwise.
DEFAULT_INTERFACE_PARAMS = {
    "drop": 0, "freeze": 0, "delay": 2, "jitter": 2, "hang": 0,
}

#: Channels whose staleness forces the safe-stop fallback: the
#: controller consumes the sensor bundle every tick and the plan every
#: tick, so either going stale starves actuation of real data.
CRITICAL_CHANNELS = ("sensing", "planning")


@dataclass(frozen=True)
class DegradationConfig:
    """Graceful-degradation policy for stale critical inputs.

    ``ttl_ticks`` is the staleness budget: strictly older than this
    and the safe-stop fallback engages.  The default of 4 comfortably
    clears the planner's natural age (``planner_divisor - 1`` ticks)
    while catching any held-for-a-window interface fault.
    """

    enabled: bool = True
    ttl_ticks: int = 4
    brake_level: float = 0.8
    critical_channels: tuple = CRITICAL_CHANNELS


@dataclass
class ChannelFault:
    """An armed interface fault on one channel (mutable: ``landed``)."""

    kind: str
    channel: str
    start_tick: int
    duration_ticks: int = 2
    param: int = 0
    landed: bool = False

    def active(self, tick: int) -> bool:
        return self.start_tick <= tick < self.start_tick + self.duration_ticks


def _mix(a: int, b: int, c: int, d: int) -> int:
    """Stateless 32-bit avalanche mix — the jitter fault's seeded,
    snapshot-free source of per-tick reorder choices."""
    x = (a * 0x9E3779B1 ^ b * 0x85EBCA77 ^ c * 0xC2B2AE3D
         ^ d * 0x27D4EB2F) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x7FEB352D) & 0xFFFFFFFF
    x ^= x >> 15
    x = (x * 0x846CA68B) & 0xFFFFFFFF
    x ^= x >> 16
    return x


class _ChannelState:
    """Per-channel delivery bookkeeping."""

    __slots__ = ("payload", "origin", "queue", "buffer")

    def __init__(self):
        self.payload = None       # last delivered payload
        self.origin = None        # tick that payload was produced
        self.queue = []           # delay FIFO of (payload, origin)
        self.buffer = []          # jitter window of (payload, origin)


class ChannelBus:
    """Deterministic interface-fault delivery at the stage boundaries."""

    def __init__(self):
        self.faults: list[ChannelFault] = []
        self._states = {name: _ChannelState() for name in CHANNELS}

    # -- arming --------------------------------------------------------------

    def arm(self, kind: str, channel: str, start_tick: int,
            duration_ticks: int = 2, param: int = 0) -> ChannelFault:
        if kind not in INTERFACE_KINDS:
            raise KeyError(f"unknown interface fault kind {kind!r}; "
                           f"expected one of {list(INTERFACE_KINDS)}")
        if channel not in CHANNELS:
            raise KeyError(f"unknown channel {channel!r}; "
                           f"expected one of {list(CHANNELS)}")
        fault = ChannelFault(kind=kind, channel=channel,
                             start_tick=int(start_tick),
                             duration_ticks=int(duration_ticks),
                             param=int(param))
        self.faults.append(fault)
        return fault

    def _active(self, channel: str, tick: int) -> ChannelFault | None:
        for fault in self.faults:
            if fault.channel == channel and fault.active(tick):
                return fault
        return None

    # -- delivery ------------------------------------------------------------

    def hung(self, channel: str, tick: int) -> bool:
        """True when an active ``hang`` should skip the producer.

        Never hangs before the first successful delivery: the consumer
        must have *something*, so the first tick always produces.
        """
        fault = self._active(channel, tick)
        if fault is None or fault.kind != "hang":
            return False
        if self._states[channel].payload is None:
            return False
        fault.landed = True
        return True

    def held(self, channel: str):
        """The last-good payload a hung module's consumer reads."""
        return self._states[channel].payload

    def pass_through(self, channel: str, payload, tick: int):
        """The fault-free hand-off: ``payload`` becomes the channel's
        last-good message, produced at ``tick``, and is returned as is.

        :meth:`deliver` takes this branch whenever no fault is active on
        the channel; the pipeline calls it directly on ticks outside
        every fault window.
        """
        state = self._states[channel]
        state.payload = payload
        state.origin = tick
        if state.queue:
            state.queue.clear()
        if state.buffer:
            state.buffer.clear()
        return payload

    def deliver(self, channel: str, payload, tick: int):
        """Route one message through the boundary; returns what the
        consumer sees and records staleness."""
        fault = self._active(channel, tick)
        if fault is None or fault.kind == "hang":
            # Fault-free (or hang, which never reaches deliver for an
            # active window).
            return self.pass_through(channel, payload, tick)
        state = self._states[channel]
        if fault.kind in ("drop", "freeze"):
            if state.payload is None:
                state.payload = payload
                state.origin = tick
                return payload
            fault.landed = True
            return state.payload
        if fault.kind == "delay":
            depth = max(1, fault.param)
            state.queue.append((payload, tick))
            if len(state.queue) > depth:
                delivered, origin = state.queue.pop(0)
            elif state.payload is not None:
                delivered, origin = state.payload, state.origin
            else:
                delivered, origin = state.queue[0]
            if origin != tick:
                fault.landed = True
            state.payload = delivered
            state.origin = origin
            return delivered
        # jitter
        window = max(2, fault.param)
        state.buffer.append((payload, tick))
        if len(state.buffer) > window:
            state.buffer.pop(0)
        index = _mix(CHANNELS.index(channel), fault.start_tick,
                     tick, fault.param) % len(state.buffer)
        delivered, origin = state.buffer[index]
        if origin != tick:
            fault.landed = True
        state.payload = delivered
        state.origin = origin
        return delivered

    # -- staleness -----------------------------------------------------------

    def age(self, channel: str, tick: int) -> int:
        """Ticks since the payload the consumer currently sees was
        produced (0 before anything has been delivered)."""
        origin = self._states[channel].origin
        if origin is None:
            return 0
        return max(0, tick - origin)

    @property
    def landed(self) -> bool:
        return any(fault.landed for fault in self.faults)

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self) -> tuple[tuple, tuple]:
        """(faults, channels) state for checkpoint ladders.

        ``channels`` holds the live payloads (held payloads, delay
        queues, jitter windows): :meth:`repro.ads.runtime.ADSPipeline
        .snapshot` pickles them with its own, and that pickle is the
        copy.
        """
        faults = tuple((f.kind, f.channel, f.param, f.start_tick,
                        f.duration_ticks, f.landed) for f in self.faults)
        channels = tuple(
            (name, state.payload, state.origin,
             tuple(state.queue), tuple(state.buffer))
            for name, state in self._states.items())
        return faults, channels

    def restore(self, faults: tuple, channels: tuple) -> None:
        """Rebuild from :meth:`snapshot` output (``channels`` already
        unpickled, so its payloads are private to this bus)."""
        self.faults = [
            ChannelFault(kind=kind, channel=channel, start_tick=start,
                         duration_ticks=duration, param=param, landed=landed)
            for kind, channel, param, start, duration, landed in faults]
        self._states = {name: _ChannelState() for name in CHANNELS}
        for name, payload, origin, queue, buffer in channels:
            state = self._states[name]
            state.payload = payload
            state.origin = origin
            state.queue = list(queue)
            state.buffer = list(buffer)
