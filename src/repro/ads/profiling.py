"""Per-stage wall-clock counters for the ADS control cycle and the
safety monitor.

One process-global :class:`StageTimer` accumulates monotonic
nanoseconds and per-lane call counts for the five pipeline stages, in
both execution engines: the scalar :class:`~repro.ads.runtime.ADSPipeline`
brackets each stage of its tick, and the batched
:class:`~repro.ads.batch.BatchADSState` brackets each fused stage kernel
(charging the elapsed window once and the call count per lane, so
``calls`` stays comparable across engines: one count is one lane-stage
execution).  Beside the stages it times the deferred safety monitor
(``safety``: one call per tick whose potential was evaluated) and
counts named events per layer, such as the stop table's hits, misses
and bulk batches.

The timer is explicitly enabled (``--profile-stages`` /
``CampaignConfig.profile_stages``); disabled — the default — the hot
paths pay one attribute check per stage boundary and nothing else.
Being process-global, the counters cover work executed in the calling
process: serial campaigns are captured exactly, while pool/pipeline
workers accumulate into their own (uncollected) timers — profile with
``workers=1`` to attribute everything.
"""

from __future__ import annotations

import time

#: Stage keys in control-cycle order (:data:`repro.ads.channels.CHANNELS`).
STAGES = ("sensing", "perception", "world_model", "planning", "actuation")
#: Every timed layer: the stages, then the safety monitor.
LAYERS = STAGES + ("safety",)


class StageTimer:
    """Accumulates wall nanoseconds, lane-call counts and named event
    counts per layer."""

    __slots__ = ("enabled", "nanos", "calls", "events")

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        """Zero every counter (does not change ``enabled``)."""
        self.nanos = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.events = {layer: {} for layer in LAYERS}

    @staticmethod
    def start() -> int:
        """Monotonic reference for a matching :meth:`stop`."""
        return time.perf_counter_ns()

    def stop(self, stage: str, started: int, lanes: int = 1) -> None:
        """Charge the window since ``started`` (``lanes`` executions)."""
        self.nanos[stage] += time.perf_counter_ns() - started
        self.calls[stage] += lanes

    def count(self, layer: str, event: str, n: int) -> None:
        """Add ``n`` to the ``event`` counter of ``layer``."""
        events = self.events[layer]
        events[event] = events.get(event, 0) + n

    def report(self) -> dict:
        """``{layer: {"seconds": ..., "calls": ..., **events}}`` for
        visited layers, in :data:`LAYERS` order."""
        return {layer: {"seconds": self.nanos[layer] / 1e9,
                        "calls": self.calls[layer], **self.events[layer]}
                for layer in LAYERS
                if self.calls[layer] or self.events[layer]}


#: The process-global timer both execution engines report into.
STAGE_TIMER = StageTimer()
