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
counts named events per layer: the stop and excursion tables' hits,
misses and bulk batches, the excursion keys whose rollout ran to its
``max_time`` cap (``excursion_capped``), and the world model's
``tracks`` (live tracks after each tracker update, summed) and
``detections`` (detections folded in).
The ``collision`` row has no timer, only counts from both engines'
collision tests: ``checks`` (per-lane tests),
``prescreen_passes`` (tests whose bounds prescreen let them reach the
SAT) and ``collisions`` (confirmed overlaps).  The untimed
``checkpoint`` row counts ``snapshots``, ``restores`` (forks, both
engines), ``gap_ticks`` forks replayed before their fault,
``demanded_ticks`` the driver asked ladders to hold, the
``replay_ticks`` fault-free prefix runs simulated to capture ladders
outside the golden runs, and the ``spill_bytes`` it spooled.  The
untimed ``engine`` row counts the validation jobs each engine ran
(``fused_jobs``, ``scalar_jobs``), the lanes that joined a fused batch
after a scalar segment through their interface-fault windows
(``handoffs``) and the scalar ticks those segments ran
(``handoff_ticks``), the ``fused_ticks`` and, per fused
tick, the live lanes (``lane_ticks``) against the batch's slots
(``slot_ticks``), and the messages its lanes built
(``bundles_built``: a detection list or world model, built only by a
lane with a perception or world-model fault active on the tick).  A fused
tick's vectorized work is paid once however many lanes it carries, so
its cost follows ``fused_ticks`` and the
lanes per tick (``lane_ticks`` over ``fused_ticks``); lane occupancy
(``lane_ticks`` over ``slot_ticks``) does not drive it.  A batch leaves
a retired slot idle when no pending job is left to refill it; a
dispatch of more jobs than :data:`repro.core.parallel.MAX_LANES`
refills retired slots, so its lanes run in waves and its fused ticks
add up across them.
The untimed ``golden`` row counts golden ``runs``, the ``ticks`` they
simulated, and the ``cut_ticks`` a run stopped at its last forkable
tick left unsimulated.

The timer is explicitly enabled (``--profile-stages`` /
``CampaignConfig.profile_stages``); disabled — the default — the hot
paths pay one attribute check per stage boundary and nothing else.
Being process-global, the counters cover work executed in one process:
each pool worker ships its counts for a job back with the job's result
(:meth:`StageTimer.counts`), and the driver adds them to its own timer
(:meth:`StageTimer.absorb`), so pooled campaigns are attributed like
serial ones.
"""

from __future__ import annotations

import time

#: Stage keys in control-cycle order (:data:`repro.ads.channels.CHANNELS`).
STAGES = ("sensing", "perception", "world_model", "planning", "actuation")
#: Every reported layer: the stages, the safety monitor, then the
#: collision, checkpoint, engine and golden counts.
LAYERS = STAGES + ("safety", "collision", "checkpoint", "engine",
                   "golden")


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
        """Add ``n`` to the ``event`` counter of ``layer`` (a no-op
        while disabled)."""
        if not self.enabled:
            return
        events = self.events[layer]
        events[event] = events.get(event, 0) + n

    def counts(self) -> tuple:
        """Every counter, as a picklable ``(nanos, calls, events)``."""
        return self.nanos, self.calls, self.events

    def absorb(self, counts: tuple) -> None:
        """Add another timer's :meth:`counts` to this one's."""
        nanos, calls, events = counts
        for layer in LAYERS:
            self.nanos[layer] += nanos[layer]
            self.calls[layer] += calls[layer]
            mine = self.events[layer]
            for event, n in events[layer].items():
                mine[event] = mine.get(event, 0) + n

    def report(self) -> dict:
        """``{layer: {"seconds": ..., "calls": ..., **events}}`` for
        visited layers, in :data:`LAYERS` order."""
        return {layer: {"seconds": self.nanos[layer] / 1e9,
                        "calls": self.calls[layer], **self.events[layer]}
                for layer in LAYERS
                if self.calls[layer] or self.events[layer]}


#: The process-global timer both execution engines report into.
STAGE_TIMER = StageTimer()
