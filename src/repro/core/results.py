"""Experiment records, record sinks, and campaign summaries.

:class:`CampaignSummary` aggregates *incrementally*: every statistic it
exposes (totals, hazard breakdowns, per-variable tables, hazardous
scenes) is maintained by :meth:`CampaignSummary.add` as records arrive,
so streamed out-of-core campaigns can drop each record after feeding it
in and still report the same numbers as an in-memory run.  By default
records are also retained on ``.records`` for compatibility with
persistence and the analysis helpers; ``keep_records=False`` bounds the
summary's memory at O(variables + hazardous scenes) regardless of
campaign size.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass


class Hazard(enum.Enum):
    """How a fault-injection experiment ended, worst first."""

    COLLISION = "collision"
    OFF_ROAD = "off_road"
    SAFETY_VIOLATION = "safety_violation"   # delta <= 0 at some instant
    NONE = "none"


_SEVERITY = {Hazard.COLLISION: 3, Hazard.OFF_ROAD: 2,
             Hazard.SAFETY_VIOLATION: 1, Hazard.NONE: 0}


def worst_hazard(hazards: list[Hazard]) -> Hazard:
    """The most severe hazard in a list (NONE for an empty list)."""
    if not hazards:
        return Hazard.NONE
    return max(hazards, key=lambda h: _SEVERITY[h])


@dataclass(frozen=True)
class ExperimentRecord:
    """One fault-injection experiment, fully reproducible from its fields."""

    scenario: str
    injection_tick: int
    variable: str
    value: float
    duration_ticks: int
    seed: int
    hazard: Hazard
    landed: bool                 # did the corruption touch a payload?
    pre_delta_long: float        # ground-truth delta at injection time
    pre_delta_lat: float
    min_delta_long: float        # worst delta in the post-injection window
    min_delta_lat: float
    sim_seconds: float           # simulated time covered
    wall_seconds: float          # host time spent
    #: Quarantine diagnosis when the experiment could not be executed
    #: ("ErrorClass: detail"); ``None`` for every real outcome.  A
    #: failure record keeps its full fault identity — scenario, tick,
    #: variable, value, duration, seed — so the experiment is exactly
    #: re-runnable, while the outcome fields above are zeroed.
    error: str | None = None
    #: Executions attempted before quarantine (1 on success — retries
    #: that eventually succeed report like first-try successes, keeping
    #: streams bit-for-bit comparable across supervision settings).
    attempts: int = 1
    #: Fault family: ``"value"`` for payload corruptions, or an
    #: interface fault kind (drop/freeze/delay/jitter/hang).  Serialized
    #: only when not ``"value"`` so legacy streams stay byte-identical.
    kind: str = "value"
    #: Target channel of an interface fault; ``None`` for value faults.
    channel: str | None = None
    #: True when the graceful-degradation safe stop engaged during the
    #: run.  ``degraded and not hazardous`` is a *masked* outcome: the
    #: fault landed but degradation contained it.
    degraded: bool = False

    @property
    def failed(self) -> bool:
        """True when the experiment was quarantined, not executed."""
        return self.error is not None

    @property
    def hazardous(self) -> bool:
        """True for any safety hazard."""
        return self.hazard is not Hazard.NONE

    @property
    def masked_by_degradation(self) -> bool:
        """Safe stop engaged and no hazard manifested."""
        return self.degraded and self.hazard is Hazard.NONE

    @property
    def pre_injection_safe(self) -> bool:
        """True when the scene was safe before the fault (F_crit premise)."""
        return self.pre_delta_long > 0.0 and self.pre_delta_lat > 0.0


class ListSink:
    """The default record sink: an in-memory list.

    Any object with an ``add(record)`` method is a valid sink;
    :class:`repro.core.persistence.JsonlRecordSink` streams to disk
    instead for out-of-core campaigns.
    """

    def __init__(self):
        self.records: list[ExperimentRecord] = []

    def add(self, record: ExperimentRecord) -> None:
        self.records.append(record)


class CampaignSummary:
    """Aggregate statistics of a stream (or list) of experiment records.

    Statistics are maintained incrementally by :meth:`add`; constructing
    with ``records=[...]`` simply feeds them through.  With
    ``keep_records=False`` the records themselves are not retained —
    the memory bound streamed campaigns rely on — and ``.records`` stays
    empty while every aggregate still reflects the full stream.
    """

    def __init__(self, records: list[ExperimentRecord] | None = None,
                 keep_records: bool = True):
        self.keep_records = keep_records
        self.records: list[ExperimentRecord] = []
        self._total = 0
        self._hazards = 0
        self._landed = 0
        self._failures = 0
        self._degraded = 0
        self._masked = 0
        self._wall_seconds = 0.0
        self._hazard_counts: Counter = Counter()
        self._hazards_by_variable: Counter = Counter()
        self._experiments_by_variable: Counter = Counter()
        self._hazardous_scenes: set[tuple[str, int]] = set()
        #: Out-of-band annotations (e.g. the ``stage_timings`` block
        #: written when profiling is on).  Not part of the scientific
        #: aggregates: :meth:`same_aggregates` ignores it.
        self.extra_info: dict = {}
        for record in records or []:
            self.add(record)

    def add(self, record: ExperimentRecord) -> None:
        """Fold one record into every aggregate (and retain it if kept).

        Failure records (quarantined jobs) are counted apart from
        executed experiments: they contribute to ``failures`` only,
        never to totals, hazard rates, or per-variable tables — a
        campaign that suffered infrastructure faults reports the same
        science as one that did not, plus a failure count.
        """
        if record.failed:
            self._failures += 1
            if self.keep_records:
                self.records.append(record)
            return
        self._total += 1
        self._wall_seconds += record.wall_seconds
        self._experiments_by_variable[record.variable] += 1
        self._hazard_counts[record.hazard.value] += 1
        if record.landed:
            self._landed += 1
        if record.degraded:
            self._degraded += 1
            if not record.hazardous:
                self._masked += 1
        if record.hazardous:
            self._hazards += 1
            self._hazards_by_variable[record.variable] += 1
            self._hazardous_scenes.add((record.scenario,
                                        record.injection_tick))
        if self.keep_records:
            self.records.append(record)

    def __repr__(self) -> str:
        failed = f", failures={self._failures}" if self._failures else ""
        return (f"CampaignSummary(total={self._total}, "
                f"hazards={self._hazards}{failed}, "
                f"keep_records={self.keep_records})")

    @property
    def failures(self) -> int:
        """Experiments quarantined by supervision instead of executed."""
        return self._failures

    @property
    def total(self) -> int:
        """Number of experiments."""
        return self._total

    @property
    def hazards(self) -> int:
        """Experiments ending in any hazard."""
        return self._hazards

    @property
    def hazard_rate(self) -> float:
        """Fraction of experiments ending in a hazard."""
        return self._hazards / self._total if self._total else 0.0

    @property
    def landed(self) -> int:
        """Experiments whose corruption touched a payload."""
        return self._landed

    @property
    def degraded(self) -> int:
        """Experiments where the safe-stop fallback engaged."""
        return self._degraded

    @property
    def masked(self) -> int:
        """Degraded experiments that ended with no hazard — faults the
        graceful-degradation mode contained."""
        return self._masked

    @property
    def wall_seconds(self) -> float:
        """Total host time across experiments."""
        return self._wall_seconds

    def hazard_breakdown(self) -> dict[str, int]:
        """Counts per hazard class."""
        return dict(self._hazard_counts)

    def hazards_by_variable(self) -> dict[str, int]:
        """Hazard counts grouped by injected variable (for E3)."""
        return dict(self._hazards_by_variable)

    def experiments_by_variable(self) -> dict[str, int]:
        """Experiment counts grouped by injected variable."""
        return dict(self._experiments_by_variable)

    def hazardous_scenes(self) -> set[tuple[str, int]]:
        """Distinct (scenario, tick) scenes where hazards manifested."""
        return set(self._hazardous_scenes)

    @classmethod
    def merge(cls, summaries: "list[CampaignSummary]") -> "CampaignSummary":
        """Fold several summaries into one, aggregate by aggregate.

        The cross-host counterpart of :meth:`add`: each shard of a
        sharded campaign aggregates its own record stream, and merging
        the shard summaries reproduces the unsharded campaign's summary
        (every statistic is a sum, count, or set union, so the fold is
        exact).  Records are retained only when every input retained
        them, concatenated in the given shard order.
        """
        merged = cls(keep_records=all(s.keep_records for s in summaries)
                     if summaries else True)
        for summary in summaries:
            merged._total += summary._total
            merged._hazards += summary._hazards
            merged._landed += summary._landed
            merged._failures += summary._failures
            merged._degraded += summary._degraded
            merged._masked += summary._masked
            merged._wall_seconds += summary._wall_seconds
            merged._hazard_counts.update(summary._hazard_counts)
            merged._hazards_by_variable.update(summary._hazards_by_variable)
            merged._experiments_by_variable.update(
                summary._experiments_by_variable)
            merged._hazardous_scenes |= summary._hazardous_scenes
            timings = summary.extra_info.get("stage_timings")
            if timings:
                target = merged.extra_info.setdefault("stage_timings", {})
                for layer, cell in timings.items():
                    bucket = target.setdefault(layer, {})
                    for name, value in cell.items():
                        bucket[name] = bucket.get(name, 0) + value
            if merged.keep_records:
                merged.records.extend(summary.records)
        return merged

    def same_aggregates(self, other: "CampaignSummary") -> bool:
        """True when every aggregate statistic matches ``other``.

        The equivalence streamed campaigns are held to: a summary that
        dropped its records must still agree with the in-memory one on
        everything it reports.
        """
        return (self.total == other.total
                and self.hazards == other.hazards
                and self.landed == other.landed
                and self.failures == other.failures
                and self.degraded == other.degraded
                and self.masked == other.masked
                and self.hazard_breakdown() == other.hazard_breakdown()
                and self.hazards_by_variable()
                == other.hazards_by_variable()
                and self.experiments_by_variable()
                == other.experiments_by_variable()
                and self.hazardous_scenes() == other.hazardous_scenes())
