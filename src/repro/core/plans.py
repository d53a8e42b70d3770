"""Campaign plans: one object per campaign style, one interface.

A plan is what :class:`~repro.core.pipeline.CampaignPipeline` drives.
Every style — random, exhaustive, architectural and Bayesian campaigns,
golden-only collection and explicit job lists — answers the same four
hooks, so the driver never asks which kind of job source it has:

* ``demand()`` — the jobs known before any golden run, drawn on
  schedule-derived ticks, or ``None``.  The driver derives each owned
  scenario's ladder ticks and golden end tick from it.  Bayesian
  mining names its jobs only after the golden runs, so its golden runs
  capture nothing: when a scenario's candidates are dispatched, one
  fault-free prefix replay snapshots just the ticks they fork from.
  Golden-only collection has no jobs; its golden runs capture every
  eligible tick (``schedule_ladder``), the ladder
  :meth:`Campaign.golden_runs` hands back.
* ``on_golden(scenario, run)`` — called as each golden run lands.
  Returns the entries to dispatch at once (an uncapped exhaustive grid
  streams scenario by scenario), and folds the run into training in
  campaign scenario order.
* ``jobs_ready()`` — called once every golden run is in; returns the
  remaining entries in job order.  A Bayesian plan mines here, and
  without a ``top_k`` cut dispatches each scenario's candidates the
  moment that scenario is mined.
* ``finish(summary)`` — the style's result.

An *entry* is ``(identity, (scenario name, fault))``, its identity
unique within a round, so an entry dispatched early is not dispatched
again.  The job order is the ``on_golden`` entries in owned-scenario
order, then the ``jobs_ready`` entries; the driver validates the owned
scenarios' entries and emits their records in that order.

``style`` names the record streams and the lease board.
``golden_scope`` is ``"owned"`` when a shard needs only its own
scenarios' golden runs and ``"all"`` when the plan reads every trace
(Bayesian training).  ``work_key`` digests the parameters that shape
the job set; with the config fingerprint it names the resume journal
and the lease board, so two differently parameterized campaigns sharing
a ``cache_dir`` never cross-talk.  An empty key opens neither.

A plan's state lasts one driver round (:meth:`Plan.start`), because
lease mode runs several rounds on one plan.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..arch.injector import Outcome
from .bayesian_fi import (MINED_VARIABLES, BayesianFaultInjector,
                          CandidateFault, MiningReport, check_counts)
from .fault_models import (ArchitecturalFaultModel, minmax_fault_grid,
                           random_fault)
from .interface_faults import (interface_fault, interface_fault_grid,
                               random_interface_fault,
                               validate_interface_channel,
                               validate_interface_kind)
from .parallel import ExperimentJob
from .results import CampaignSummary
from .simulate import FaultSpec

if TYPE_CHECKING:
    from ..sim.scenario import Scenario
    from .campaign import Campaign
    from .pipeline import CampaignPipeline
    from .simulate import RunResult

#: ``ticks_of(scenario name, stride=1)``: a scenario's eligible ticks.
TickSource = Callable[..., "list[int]"]


def work_key(*params) -> str:
    """Digest identifying one campaign invocation's work.

    Keys the journal (and lease board) directory so two different
    campaigns sharing a ``cache_dir`` never read each other's progress.
    Precision is an efficiency concern only: the journal itself matches
    entries by full experiment identity, and the deterministic
    simulator means identical identities always carry identical
    outcomes.
    """
    return hashlib.sha256(repr(params).encode("utf-8")).hexdigest()[:12]


@dataclass
class Plan:
    """The golden-only plan, and the base of every other plan.

    Collects the golden runs of ``golden_scope`` and the owned
    scenarios' checkpoint ladders, and validates nothing.
    """

    style = "golden"
    golden_scope = "all"
    work_key = ""
    #: Whether a golden run of a plan without ``demand()`` captures
    #: every eligible tick (plans with a demand capture just theirs).
    schedule_ladder = True

    campaign: "Campaign"

    def start(self, driver: "CampaignPipeline") -> None:
        """Begin one driver round, dropping the previous round's state."""
        self.driver = driver
        self._golden_ticks: dict[str, list[int]] = {}
        self._schedule: dict[str, list[int]] = {}

    def demand(self) -> list[ExperimentJob] | None:
        return None

    def on_golden(self, scenario: "Scenario", run: "RunResult") -> list:
        return []

    def jobs_ready(self) -> list:
        return []

    def finish(self, summary: CampaignSummary):
        return summary

    @property
    def golden(self) -> "dict[str, RunResult]":
        """The round's golden runs so far, warm-started ones included."""
        return self.driver.golden

    # -- tick sources ----------------------------------------------------------

    def schedule_ticks(self, name: str, stride: int = 1) -> list[int]:
        """A scenario's schedule-derived eligible ticks (no golden run)."""
        ticks = self._schedule.get(name)
        if ticks is None:
            ticks = self.campaign.schedule_injection_ticks(
                self.campaign._by_name[name])
            self._schedule[name] = ticks
        return ticks[::stride] if stride != 1 else ticks

    def ticks(self, name: str, stride: int = 1) -> list[int]:
        """Eligible ticks of a scenario, golden-derived when available.

        Scenarios whose golden run this round holds use the trace's
        ticks.  Foreign scenarios (sharded job generation only) use the
        schedule-derived list; for every collected scenario under
        sharding the two are asserted equal, so the shard union provably
        matches the unsharded draw.
        """
        ticks = self._golden_ticks.get(name)
        if ticks is None:
            run = self.golden.get(name)
            if run is None:
                return self.schedule_ticks(name, stride)
            campaign = self.campaign
            scenario = campaign._by_name[name]
            ticks = campaign.eligible_ticks_from_trace(run,
                                                       scenario.duration)
            if self.driver.sharded and \
                    ticks != self.schedule_ticks(name):
                raise RuntimeError(
                    f"golden run of {name!r} ended early: its trace "
                    f"ticks differ from the schedule, so shards cannot "
                    f"reproduce the global fault draw; run this "
                    f"campaign unsharded")
            self._golden_ticks[name] = ticks
        return ticks[::stride] if stride != 1 else ticks


class DrawnPlan(Plan):
    """A plan whose jobs are a draw over tick lists, known up front.

    :meth:`draw` runs twice per round: on schedule ticks before any
    golden run (the demand that sizes ladders and golden runs), and on
    golden ticks once every golden run is in (the jobs).  A golden run
    that ended early thus changes the real draw, whose jobs then fork
    from the nearest earlier snapshot or cold-start, bit-identically.
    Seeded draws interleave scenarios, so job generation (not
    validation) waits for every tick list.
    """

    golden_scope = "owned"

    def draw(self, ticks_of: TickSource) -> list[ExperimentJob]:
        raise NotImplementedError

    def demand(self) -> list[ExperimentJob]:
        return self.draw(self.schedule_ticks)

    def jobs_ready(self) -> list:
        return list(enumerate(self.draw(self.ticks)))

    def _required(self, ticks_of: TickSource, name: str) -> list[int]:
        ticks = ticks_of(name)
        if not ticks:
            raise self.campaign._no_ticks_error(name)
        return ticks


@dataclass
class JobsPlan(DrawnPlan):
    """An explicit ``(scenario name, fault)`` job list
    (:meth:`Campaign.run_jobs`), keyed by the list itself."""

    style = "jobs"

    jobs: list[ExperimentJob]

    def __post_init__(self):
        self.jobs = list(self.jobs)
        self.work_key = work_key(*(
            (name, fault.variable, fault.value, fault.start_tick,
             fault.duration_ticks, fault.kind, fault.channel)
            for name, fault in self.jobs))

    def draw(self, ticks_of: TickSource) -> list[ExperimentJob]:
        return self.jobs


@dataclass
class RandomPlan(DrawnPlan):
    """Fault model (b), uniformly random: the paper's baseline."""

    style = "random"

    n_experiments: int
    seed: int | None = None
    interface_share: float = 0.0
    interface_kinds: tuple | None = None
    interface_channels: tuple | None = None

    def __post_init__(self):
        for kind in self.interface_kinds or ():
            validate_interface_kind(kind)
        for channel in self.interface_channels or ():
            validate_interface_channel(channel)
        key_params = ["random", self.n_experiments, self.seed]
        if self.interface_share > 0.0:
            # Conditional so the journal/lease directories of existing
            # interface-free campaigns keep their names.
            key_params += [self.interface_share,
                           tuple(self.interface_kinds or ()),
                           tuple(self.interface_channels or ())]
        self.work_key = work_key(*key_params)

    def draw(self, ticks_of: TickSource) -> list[ExperimentJob]:
        """The seeded random draw, parametrized over the tick source.

        The draw sequence (scenario choice, value, tick index) is
        identical for any source that returns the same lists, which is
        how a shard reproduces the global draw from schedule-derived
        ticks without simulating foreign golden runs.  The
        interface-fault coin flip is guarded so a zero share adds no
        draw — the historical stream is untouched.
        """
        campaign = self.campaign
        rng = np.random.default_rng(campaign.config.seed
                                    if self.seed is None else self.seed)
        names = [s.name for s in campaign.scenarios]
        duration = campaign.config.fault_duration_ticks
        jobs: list[ExperimentJob] = []
        for _ in range(self.n_experiments):
            name = names[int(rng.integers(len(names)))]
            if self.interface_share > 0.0 and float(rng.random()) \
                    < self.interface_share:
                fault = random_interface_fault(
                    rng, self._required(ticks_of, name),
                    kinds=self.interface_kinds,
                    channels=self.interface_channels,
                    duration_ticks=duration)
            else:
                fault = random_fault(rng, self._required(ticks_of, name),
                                     duration_ticks=duration)
            jobs.append((name, fault))
        return jobs


@dataclass
class ExhaustivePlan(DrawnPlan):
    """Fault model (b) on the min/max grid (strided subsample).

    Without a cap the plan is truly per scenario: a scenario's grid
    depends only on its own golden ticks, so validation of an early
    scenario overlaps golden collection of a late one.  A global
    ``max_experiments`` cap consumes budget in scenario order, so job
    generation then waits for every tick list.
    """

    style = "exhaustive"

    tick_stride: int = 10
    variable_names: list[str] | None = None
    max_experiments: int | None = None
    interface_grid: bool = False

    def __post_init__(self):
        check_counts(max_experiments=self.max_experiments,
                     tick_stride=self.tick_stride)
        names = self.variable_names
        key_params = ["exhaustive", self.tick_stride,
                      tuple(names) if names else None, self.max_experiments]
        if self.interface_grid:
            key_params.append("interface-grid")
        self.work_key = work_key(*key_params)

    def grid(self, ticks: list[int]) -> list[FaultSpec]:
        """One scenario's grid: value faults, then interface faults."""
        duration = self.campaign.config.fault_duration_ticks
        grid = minmax_fault_grid(ticks, self.variable_names,
                                 duration_ticks=duration)
        if self.interface_grid:
            grid.extend(interface_fault_grid(ticks,
                                             duration_ticks=duration))
        return grid

    def draw(self, ticks_of: TickSource) -> list[ExperimentJob]:
        jobs: list[ExperimentJob] = []
        for scenario in self.campaign.scenarios:
            ticks = ticks_of(scenario.name, self.tick_stride)
            jobs.extend((scenario.name, fault) for fault in self.grid(ticks))
            if self.max_experiments is not None \
                    and len(jobs) >= self.max_experiments:
                return jobs[:self.max_experiments]
        return jobs

    def on_golden(self, scenario: "Scenario", run: "RunResult") -> list:
        if self.max_experiments is not None:
            return []
        name = scenario.name
        grid = self.grid(self.ticks(name, self.tick_stride))
        return [((name, j), (name, fault)) for j, fault in enumerate(grid)]

    def jobs_ready(self) -> list:
        return [] if self.max_experiments is None else super().jobs_ready()


@dataclass
class ArchitecturalPlan(DrawnPlan):
    """Fault model (a): register flips propagated into the stack.

    Only landed (SDC) flips become jobs; :attr:`outcome_counts` counts
    every architectural outcome of the draw.  The draw sequence is
    global, so a shard reproduces the global counts.
    """

    style = "architectural"

    n_experiments: int
    model: ArchitecturalFaultModel | None = None
    seed: int | None = None
    interface_hangs: bool = False

    def __post_init__(self):
        self.outcome_counts: dict[str, int] = {}
        key_params = ["architectural", self.n_experiments, self.seed,
                      self.model is None]
        if self.interface_hangs:
            key_params.append("interface-hangs")
        self.work_key = work_key(*key_params)

    def draw(self, ticks_of: TickSource) -> list[ExperimentJob]:
        """The seeded architectural draw, parametrized over tick source."""
        campaign = self.campaign
        rng = np.random.default_rng(campaign.config.seed
                                    if self.seed is None else self.seed)
        model = self.model or ArchitecturalFaultModel()
        counts = {outcome.value: 0 for outcome in Outcome}
        names = [s.name for s in campaign.scenarios]
        jobs: list[ExperimentJob] = []
        for _ in range(self.n_experiments):
            name = names[int(rng.integers(len(names)))]
            arch = model.sample(
                rng, self._required(ticks_of, name),
                duration_ticks=campaign.config.fault_duration_ticks,
                interface_hangs=self.interface_hangs)
            counts[arch.outcome.value] += 1
            if arch.fault is not None:
                jobs.append((name, arch.fault))
        self.outcome_counts = counts
        return jobs

    def finish(self, summary: CampaignSummary
               ) -> tuple[CampaignSummary, dict[str, int]]:
        return summary, self.outcome_counts


@dataclass
class BayesianPlan(Plan):
    """Fault model (c): train the 3-TBN, mine ``F_crit``, validate it.

    Without a ``given_injector`` the model is fitted through streamed
    sufficient statistics, one golden trace at a time in campaign
    scenario order (:meth:`on_golden`), so training overlaps golden
    collection.  :meth:`jobs_ready` finishes the fit, then takes the
    candidate cache or mines scenario by scenario.  The fitted
    :attr:`injector`, :attr:`candidates`, :attr:`mining` report and
    :attr:`train_seconds` make up the :class:`BayesianCampaignResult`.
    """

    style = "bayesian"
    schedule_ladder = False

    #: A caller-fitted model; ``None`` fits one from the golden runs.
    given_injector: BayesianFaultInjector | None = None
    variables: tuple[str, ...] = MINED_VARIABLES
    threshold: float = 0.0
    top_k: int | None = None
    interface_probe: tuple[str, ...] = ()

    def __post_init__(self):
        check_counts(top_k=self.top_k)
        for kind in self.interface_probe:
            validate_interface_kind(kind)
        fitting = self.given_injector is None
        # The literal True stands where the retired miner selector was,
        # so journal and lease directories keep their names.
        key_params = ["bayesian", tuple(self.variables),
                      float(self.threshold), self.top_k, True, fitting]
        if self.interface_probe:
            key_params.append(tuple(self.interface_probe))
        self.work_key = work_key(*key_params)

    def start(self, driver: "CampaignPipeline") -> None:
        super().start(driver)
        self.injector = self.given_injector
        self.trainer = None
        if self.injector is None:
            self.trainer = BayesianFaultInjector.streaming_trainer(
                safety_config=self.campaign.config.safety)
        self.train_seconds = 0.0
        self.candidates: list[CandidateFault] = []
        self.mining = MiningReport()
        self._folded = 0

    def on_golden(self, scenario: "Scenario", run: "RunResult") -> list:
        """Fold the completed prefix of golden runs into the trainer.

        Folds advance in campaign scenario order, consuming the longest
        completed prefix: training happens while later goldens still
        simulate, yet the accumulation order (and so the fitted model)
        is fixed by the scenario list.  One ``train`` progress event per
        folded trace.
        """
        scenarios = self.campaign.scenarios
        while self.trainer is not None and self._folded < len(scenarios):
            folded = scenarios[self._folded]
            folded_run = self.golden.get(folded.name)
            if folded_run is None:
                break
            start = time.perf_counter()
            self.trainer.add_run(folded_run)
            self.train_seconds += time.perf_counter() - start
            self._folded += 1
            self.driver.progress("train", folded.name, self._folded,
                                 len(scenarios))
        return []

    def jobs_ready(self) -> list:
        """Finish training, then take the candidate cache or mine.

        Mining runs per scenario.  Stable-sorting the scenario-ordered
        concatenation by ``predicted_minimum`` reproduces the
        whole-population miner's order, and ``top_k`` truncates that
        global ranking.  Without the cut, a mined scenario's value jobs
        dispatch at once, so mining of scenario B overlaps validation
        of scenario A.
        """
        start = time.perf_counter()
        if self.trainer is not None:
            self.injector = self.trainer.finish()
        self.train_seconds += time.perf_counter() - start
        path = self._cache_path()
        cached = None
        if path is not None and path.exists():
            from .persistence import try_load_candidates
            cached = try_load_candidates(path)   # unreadable -> re-mine
        if cached is not None:
            self.candidates = cached
            self.mining = self._cached_mining_report()
            return self._expand([(("cache", i), candidate)
                                 for i, candidate in enumerate(cached)])
        campaign = self.campaign
        scenarios = campaign.scenarios
        entries = []
        for done, scenario in enumerate(scenarios, start=1):
            start = time.perf_counter()
            scenes = campaign._scenario_scene_rows(
                scenario, self.golden[scenario.name])
            mined, n_scored, n_scenes = self.injector.\
                mine_scenario_candidates(scenes, variables=self.variables,
                                         threshold=self.threshold)
            self.mining.n_scenes += n_scenes
            self.mining.n_scored += n_scored
            self.mining.wall_seconds += time.perf_counter() - start
            self.driver.progress("mined", scenario.name, done,
                                 len(scenarios))
            mined = [((scenario.name, j), candidate)
                     for j, candidate in enumerate(mined)]
            if self.top_k is None:
                self.driver.dispatch([(identity, self._job(candidate))
                                      for identity, candidate in mined])
            entries.extend(mined)
        entries.sort(key=lambda entry: entry[1].predicted_minimum)
        if self.top_k is not None:
            entries = entries[:self.top_k]
        self.candidates = [candidate for _, candidate in entries]
        self.mining.n_critical = len(self.candidates)
        if path is not None:
            from .persistence import save_candidates
            path.parent.mkdir(parents=True, exist_ok=True)
            save_candidates(self.candidates, path)
        return self._expand(entries)

    def finish(self, summary: CampaignSummary) -> "BayesianCampaignResult":
        return BayesianCampaignResult(
            injector=self.injector, candidates=self.candidates,
            mining=self.mining, summary=summary,
            train_seconds=self.train_seconds)

    def _job(self, candidate: CandidateFault) -> ExperimentJob:
        duration = self.campaign.config.fault_duration_ticks
        return (candidate.scenario,
                candidate.to_fault_spec(duration_ticks=duration))

    def probe_jobs(self, candidate: CandidateFault) -> list[ExperimentJob]:
        """A candidate's interface-fault companions, in probe order.

        Each probe kind hits the channel of the module that publishes
        the candidate's variable, at the candidate's injection tick,
        with the kind's default parameter.
        """
        if not self.interface_probe:
            return []
        from ..ads.variables import variable_by_name
        channel = variable_by_name(candidate.variable).stage
        duration = self.campaign.config.fault_duration_ticks
        return [(candidate.scenario,
                 interface_fault(kind, channel,
                                 int(candidate.injection_tick),
                                 duration_ticks=duration))
                for kind in self.interface_probe]

    def _expand(self, entries: list) -> list:
        """``(identity, candidate)`` -> ``(identity, job)`` entries, each
        candidate's probe jobs after its value job.

        The value job keeps the candidate's identity (an early dispatch
        already used it, so it is not dispatched again); probes get
        derived identities and are dispatched with the rest.
        """
        expanded = []
        for identity, candidate in entries:
            expanded.append((identity, self._job(candidate)))
            for k, probe in enumerate(self.probe_jobs(candidate)):
                expanded.append((identity + ("probe", k), probe))
        return expanded

    def _cache_path(self) -> Path | None:
        """Cache file for mined candidates under these mining parameters
        (``None`` without a ``cache_dir`` or with a caller's injector,
        which invalidates the key)."""
        campaign = self.campaign
        if self.given_injector is not None or campaign.cache_dir is None:
            return None
        key = hashlib.sha256(repr(
            (tuple(self.variables), float(self.threshold), self.top_k)
        ).encode("utf-8")).hexdigest()[:12]
        return (campaign.cache_dir
                / f"candidates-{campaign._fingerprint()}-{key}.json")

    def _cached_mining_report(self) -> MiningReport:
        """Cost accounting a fresh mining pass over these scenes would
        report: every safe scene is scored once per corruption value of
        every variable.  Only ``wall_seconds`` stays 0 — the honest cost
        of a candidate-cache hit.
        """
        from ..ads.variables import variable_by_name
        n_scenes = safe = 0
        for scene in self.campaign.scene_rows():   # streamed: count only
            n_scenes += 1
            safe += scene.observed_safe
        per_scene = sum(len(variable_by_name(v).corruption_values())
                        for v in self.variables)
        return MiningReport(n_scenes=n_scenes, n_scored=safe * per_scene,
                            n_critical=len(self.candidates))


@dataclass
class BayesianCampaignResult:
    """Everything produced by one Bayesian FI campaign."""

    injector: BayesianFaultInjector
    candidates: list[CandidateFault]
    mining: MiningReport
    summary: CampaignSummary
    train_seconds: float

    @property
    def precision(self) -> float:
        """Fraction of mined faults that manifested as real hazards.

        The paper's analogue: 460 of 561 mined faults (82%) manifested.
        Reads the incremental aggregates, so it is also correct for
        streamed campaigns whose summaries retain no records.
        """
        return self.summary.hazard_rate

    @property
    def total_wall_seconds(self) -> float:
        """Train + mine + validate cost (the paper's "< 4 hours" side)."""
        return (self.train_seconds + self.mining.wall_seconds
                + self.summary.wall_seconds)
