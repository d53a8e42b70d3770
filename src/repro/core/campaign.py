"""Campaign orchestration: random, exhaustive, architectural, Bayesian.

A *scene* is a (scenario, planner tick) pair drawn from the golden runs.
All four campaign styles inject into the same scene population with the
same transient-fault duration, so their hazard yields are comparable —
that comparison *is* the paper's headline result.  Each style is a
plan in :mod:`repro.core.plans`; a campaign method runs one.
"""

from __future__ import annotations

import functools
import hashlib
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from ..ads.profiling import STAGE_TIMER
from ..ads.runtime import ADSConfig
from ..sim.scenario import Scenario, default_scenarios
from ..sim.trace import TraceStore
from .bayesian_fi import (MINED_VARIABLES, BayesianFaultInjector, SceneRow,
                          scene_rows_from_trace)
from .checkpoint import CheckpointStore
from .fault_models import DEFAULT_VARIABLES, ArchitecturalFaultModel
from .parallel import ExperimentJob, execute_experiment
from .plans import (ArchitecturalPlan, BayesianCampaignResult,
                    BayesianPlan, ExhaustivePlan, JobsPlan, Plan,
                    RandomPlan)
from .resilience import CampaignJournal, ResilienceConfig
from .results import CampaignSummary, ExperimentRecord
from .safety import SafetyConfig
from .simulate import FaultSpec, RunResult, run_scenario


@dataclass(frozen=True)
class CampaignConfig:
    """Shared experiment parameters."""

    ads: ADSConfig = field(default_factory=ADSConfig)
    safety: SafetyConfig = field(default_factory=SafetyConfig)
    #: Corrupted outputs persist for two planner frames by default: the
    #: downstream consumer latches the last value it read, so a corrupted
    #: output written at frame k is still consumed during frame k+1.
    fault_duration_ticks: int = 4
    horizon_after_fault: float = 8.0       # s of post-fault monitoring
    injection_window_start: float = 2.0    # s: skip the startup transient
    #: Seconds kept free at the scenario's end, so every experiment keeps
    #: its post-fault horizon.  It also bounds golden runs of campaigns
    #: whose jobs are known before them (random, exhaustive,
    #: architectural, ``run_jobs``): those stop at the last tick a job
    #: can fork from, which is the window's end unless a job lies past it.
    injection_window_margin: float = 9.0
    seed: int = 0
    #: Cross-host sharding: this process owns every scenario whose index
    #: satisfies ``index % shard_count == shard_index``.  The default
    #: (0 of 1) is an unsharded campaign.  See :mod:`repro.core.pipeline`
    #: for the exact partition semantics per campaign style.
    shard_index: int = 0
    shard_count: int = 1
    #: Supervision, durable resume, and lease knobs
    #: (:class:`repro.core.resilience.ResilienceConfig`).  Deliberately
    #: outside the cache fingerprint: how a campaign survives
    #: infrastructure faults does not change what it computes.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Collect per-stage wall-clock counters around the five ADS stages
    #: and the deferred safety monitor (:data:`repro.ads.profiling.LAYERS`,
    #: with the stop table's hits, misses and bulk batches on the
    #: ``safety`` row), surfaced as the ``stage_timings`` block of the
    #: summary's ``extra_info``.
    #: Observability only — outside the cache fingerprint; pool workers
    #: ship their counts back with each job (see
    #: :mod:`repro.ads.profiling`).
    profile_stages: bool = False

    def __post_init__(self):
        if self.shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, "
                             f"got {self.shard_count}")
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"shard_index must be in [0, {self.shard_count}), "
                f"got {self.shard_index}")


class Campaign:
    """Runs fault-injection campaigns over a scenario set.

    ``cache_dir`` enables incremental campaigns: golden traces, mined
    candidates, *and checkpoint ladders* are persisted there, keyed by a
    fingerprint of the configuration and scenario set, and re-used on
    the next run instead of being recomputed.  Every campaign style
    takes ``workers=`` (sharding both golden collection and validation)
    and ``record_sink=`` (streaming records out-of-core instead of
    accumulating them in memory).

    ``cache_dir`` also decides where golden traces live.  With one,
    every completed golden trace is spooled to memory-mappable columnar
    files under it (:meth:`golden_trace_store`) and the campaign holds
    read-only :class:`repro.sim.StoredTrace` handles — peak resident
    trace memory is O(largest single trace) rather than O(total
    traces), with every downstream number bit-for-bit unchanged.
    Without one, golden traces stay in-RAM :class:`repro.sim.Trace`
    objects, the reference representation.
    """

    def __init__(self, scenarios: list[Scenario] | None = None,
                 config: CampaignConfig | None = None,
                 cache_dir: str | Path | None = None):
        self.scenarios = scenarios or default_scenarios()
        self.config = config or CampaignConfig()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.checkpoints = CheckpointStore()
        self._by_name = {s.name: s for s in self.scenarios}
        self._golden: dict[str, RunResult] | None = None
        #: Shard-local golden subset memo (pipeline runs on a sharded
        #: campaign collect only owned scenarios, so ``_golden`` — the
        #: full set — stays unset).
        self._golden_shard: dict[str, RunResult] | None = None
        self._ticks: dict[tuple[str, float, int], list[int]] = {}
        self._ladder_tmp = None
        #: The completion journal of the most recent campaign run (the
        #: resume tests assert zero re-execution through its counters).
        self._last_journal: CampaignJournal | None = None

    # -- golden runs -----------------------------------------------------------

    def golden_runs(self, workers: int | None = None) -> dict[str, RunResult]:
        """Fault-free reference runs (cached, warm-started from disk).

        When the campaign simulates them itself it runs a golden-only
        plan on the streaming driver, which also captures the checkpoint
        ladders validation resumes from; ``workers`` shards the
        collection over the process pool, scenario-for-scenario
        identical to the serial loop.  The ladders of the scenarios this
        shard owns are then reloaded from the spool into
        :attr:`checkpoints`.  Traces loaded from ``cache_dir`` skip
        simulation entirely; their checkpoints are then warm-started
        from the persisted store (or rebuilt lazily) per scenario the
        first time jobs need them.

        Always complete runs of every scenario: a run an earlier
        campaign cut at its last forkable tick (``RunResult.cut_tick``)
        is simulated again in full, and so is each scenario a job-known
        campaign skipped because it had no job there.
        """
        if self._golden is None:
            self._golden = self._load_golden_cache()
        fresh = self._golden is None
        if fresh or len(self._golden) < len(self.scenarios) or any(
                run.cut_tick is not None for run in self._golden.values()):
            self._run_pipeline(Plan(self), workers)
            if fresh:   # completing cut or skipped runs leaves ladders be
                self._ensure_checkpoints(
                    s.name for s in self.owned_scenarios())
        return self._golden

    def golden_trace_store(self) -> TraceStore | None:
        """The golden-trace spool: ``cache_dir/traces-<fingerprint>``.

        ``None`` without a ``cache_dir`` (traces stay in RAM).  Warm
        starts re-map the same files; the fingerprint key means a
        config or scenario change can never re-attach stale spool
        files, and concurrent shards may share the directory — writes
        are atomic and content-identical per scenario.
        """
        if self.cache_dir is None:
            return None
        return TraceStore(self.cache_dir / f"traces-{self._fingerprint()}")

    # -- sharding --------------------------------------------------------------

    def owns_scenario(self, index: int) -> bool:
        """Does this shard own the scenario at ``index`` in the set?"""
        return index % self.config.shard_count == self.config.shard_index

    def owned_scenarios(self) -> list[Scenario]:
        """The deterministic scenario partition of this shard.

        Scenario ``i`` belongs to shard ``i % shard_count`` — a
        round-robin split every shard can compute locally, so no
        coordination is needed across hosts.  Unsharded campaigns own
        everything.
        """
        return [s for i, s in enumerate(self.scenarios)
                if self.owns_scenario(i)]

    # -- checkpoint ladders ----------------------------------------------------

    def schedule_injection_ticks(self, scenario: Scenario) -> list[int]:
        """Eligible injection ticks derived from the *schedule*.

        Planner ticks inside the injection window, computed without the
        golden trace: a golden run that completes (no collision) records
        exactly these ticks, which is what lets a shard reproduce the
        global seeded fault draw without simulating foreign scenarios'
        golden runs.  A sharded plan asserts the equality for every
        scenario its shard does simulate (:meth:`repro.core.plans.Plan
        .ticks`).
        """
        dt = self.config.ads.control_period
        divisor = self.config.ads.planner_divisor
        n_ticks = int(round(scenario.duration / dt))
        return [t for t in range(0, n_ticks, divisor)
                if self._in_window(t, scenario.duration)]

    def _ensure_checkpoints(self, scenario_names, demand=None) -> None:
        """Give each scenario a checkpoint ladder in the store.

        A ladder already in memory is kept; otherwise one in the
        driver's spool (:meth:`_ladder_spool_dir`) is loaded, per
        scenario: a ladder an earlier run on this campaign spilled or,
        with ``cache_dir``, one a previous process persisted (the spool
        *is* the checkpoint cache then).  A scenario with neither
        re-simulates one fault-free prefix run that snapshots every
        eligible injection tick, and spills the ladder.  A prefix run
        stops after its last capture tick.

        ``demand`` (scenario name -> ticks its jobs fork from) names the
        ticks instead: a missing ladder captures just those, and a held
        ladder lacking some of them is recaptured in one prefix run as
        the union of its ticks and the demand.  Capture ticks derive
        from the schedule or the demand, not the golden trace, so this
        does not force ``golden_runs()``: a single ``run_fault`` costs
        at most one prefix run.  The ticks prefix runs simulate count
        as the ``checkpoint`` row's ``replay_ticks``.
        """
        store = self.checkpoints
        spool = self._ladder_spool_dir()
        for name in sorted(set(scenario_names)):
            if not store.has_scenario(name):
                store.load_scenario(spool, name)
            held = store.ticks(name)
            if demand is None:
                if held:
                    continue
                capture = self.schedule_injection_ticks(self._by_name[name])
            else:
                wanted = set(demand[name])
                if wanted.issubset(held):
                    continue
                capture = sorted(wanted.union(held))
            run = run_scenario(
                self._by_name[name], ads_config=self.config.ads,
                seed=self.config.seed, safety_config=self.config.safety,
                record_trace=False, checkpoint_ticks=capture,
                end_tick=max(capture, default=-1) + 1)
            STAGE_TIMER.count("checkpoint", "replay_ticks", round(
                run.sim_seconds / self.config.ads.control_period))
            if run.checkpoints:
                store.add_all(run.checkpoints)
                store.save_scenario(spool, name)

    # -- incremental-campaign cache --------------------------------------------

    @staticmethod
    def _scenario_key(scenario: Scenario) -> tuple:
        """Cache identity of one scenario: name, duration, and build.

        Library builders are ``functools.partial`` bindings of
        module-level functions, so the parametrization (ego speed, gaps,
        script timings) lives in the bound arguments and the behaviour
        in the function's code object; both are digested.  Closure
        builders (caller-supplied) digest their cells instead.  A bound
        value whose ``repr`` is not deterministic across processes
        (e.g. it embeds an object address) makes the fingerprint never
        match — a cache miss, the safe failure direction.
        """
        build = scenario.build
        if isinstance(build, functools.partial):
            bound = build.args + tuple(sorted(build.keywords.items()))
            return (scenario.name, scenario.duration,
                    Campaign._code_digest(getattr(build.func, "__code__",
                                                  None)),
                    tuple(repr(value) for value in bound))
        cells = getattr(build, "__closure__", None) or ()
        return (scenario.name, scenario.duration,
                Campaign._code_digest(getattr(build, "__code__", None)),
                tuple(repr(cell.cell_contents) for cell in cells))

    @staticmethod
    def _code_digest(code) -> str:
        """Digest of a builder's behaviour: bytecode *and* constants.

        Literals edited inside a build function land in ``co_consts``
        (not ``co_code``), so both must rotate the fingerprint or a
        warm-started campaign would reuse golden traces from the old
        scenario definition.
        """
        if code is None:
            return ""
        payload = code.co_code + repr(code.co_consts).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:12]

    def _fingerprint(self) -> str:
        from .persistence import config_fingerprint
        return config_fingerprint(
            self.config.ads, self.config.safety, self.config.seed,
            (self._scenario_key(s) for s in self.scenarios))

    def _shard_suffix(self) -> str:
        """Cache-name qualifier isolating one shard's artifacts."""
        if self.config.shard_count <= 1:
            return ""
        return (f"-shard{self.config.shard_index}"
                f"of{self.config.shard_count}")

    def _golden_cache_path(self, sharded: bool = False) -> Path | None:
        """Golden-trace cache file (``sharded`` = this shard's subset only).

        The full-set file is shared by unsharded campaigns and by plans
        that collect every golden run (Bayesian training) — its writers
        produce identical content (gzip with a pinned mtime) and write
        atomically, so concurrent shards are safe.  The sharded variant
        holds just the owned scenarios, keyed per shard so the subsets
        never collide.
        """
        if self.cache_dir is None:
            return None
        suffix = self._shard_suffix() if sharded else ""
        return (self.cache_dir
                / f"golden-{self._fingerprint()}{suffix}.json.gz")

    def _checkpoint_cache_dir(self) -> Path | None:
        """Directory of the persisted checkpoint store (None = no cache).

        Keyed by the campaign fingerprint, so a config change rotates
        the directory the same way it rotates the golden cache.  Which
        ticks a ladder holds is not part of the key: a campaign whose
        jobs fork elsewhere recaptures the union in place
        (:meth:`_ensure_checkpoints`).  Sharded campaigns get a
        shard-qualified directory: each shard persists only the ladders
        it validates with, and no two shard processes write one index.
        """
        if self.cache_dir is None:
            return None
        return (self.cache_dir / f"checkpoints-{self._fingerprint()}"
                                 f"{self._shard_suffix()}")

    def _ladder_spool_dir(self) -> Path:
        """Disk spool the pipeline driver spills checkpoint ladders to.

        The checkpoint cache directory when the campaign has one (spool
        and cache are then the same files — spilling *is* persisting),
        else a campaign-lifetime temporary directory, so repeated
        pipeline runs on one campaign object reload spilled ladders
        instead of re-simulating them.
        """
        cache = self._checkpoint_cache_dir()
        if cache is not None:
            return cache
        if self._ladder_tmp is None:
            self._ladder_tmp = tempfile.TemporaryDirectory(
                prefix="repro-ladders-")
        return Path(self._ladder_tmp.name)

    # -- resilience: journal and work keys -------------------------------------

    def _open_journal(self, work_key: str) -> CampaignJournal | None:
        """The completion journal of this invocation, started (or None).

        Journaling needs a ``cache_dir`` (the durable location shared
        with every other incremental artifact) and is on by default;
        lease mode replaces it with atomic per-scenario publication.
        """
        res = self.config.resilience
        if self.cache_dir is None or not res.journal or res.lease_mode:
            return None
        directory = (self.cache_dir
                     / f"journal-{self._fingerprint()}-{work_key}"
                       f"{self._shard_suffix()}")
        journal = CampaignJournal(
            directory, campaign_key=f"{self._fingerprint()}:{work_key}")
        journal.start(resume=res.resume)
        self._last_journal = journal
        return journal

    def _lease_board_dir(self, work_key: str) -> Path:
        assert self.cache_dir is not None
        return (self.cache_dir
                / f"leases-{self._fingerprint()}-{work_key}")

    def _load_golden_cache(self) -> dict[str, RunResult] | None:
        return self._load_golden_cache_for(
            [s.name for s in self.scenarios])

    def _load_golden_cache_for(self, names: list[str],
                               sharded: bool = False,
                               partial: bool = False
                               ) -> dict[str, RunResult] | None:
        """Warm-start ``names`` from the (full-set or sharded) cache.

        The one cache-read protocol of every golden warm start: read
        the file (any unreadable, stale or inline-column payload is a
        miss the caller re-simulates and rewrites) and require every
        requested scenario.  All-or-nothing, unless ``partial``: then
        it returns the requested runs the file holds (a job-known
        campaign writes only the scenarios it had jobs in).
        """
        path = self._golden_cache_path(sharded=sharded)
        if path is None:
            return None
        from .persistence import load_golden_traces
        runs = load_golden_traces(path, self._fingerprint(),
                                  self.golden_trace_store())
        if runs is None:
            return None
        if partial:
            names = [name for name in names if name in runs]
        elif any(name not in runs for name in names):
            return None
        return {name: runs[name] for name in names}

    def _save_golden_cache(self) -> None:
        # Reached only when the cache missed (or was corrupt/stale), so
        # writing unconditionally also self-heals a bad file.
        path = self._golden_cache_path()
        if path is None:
            return
        from .persistence import save_golden_traces
        path.parent.mkdir(parents=True, exist_ok=True)
        save_golden_traces(self._golden, path, self._fingerprint(),
                           self.golden_trace_store())

    def scene_rows(self) -> "Iterator[SceneRow]":
        """Scene population for mining: all golden planner instants.

        A lazy stream, one golden trace at a time: the miners consume
        rows as they are generated, so the population is never resident
        as a list — peak scene memory is one row plus the miner's
        columnar batch.  Wrap in ``list`` to hold a population.
        """
        for name, run in self.golden_runs().items():
            yield from self._scenario_scene_rows(self._by_name[name], run)

    def _scenario_scene_rows(self, scenario: Scenario,
                             run: RunResult) -> "Iterator[SceneRow]":
        """One scenario's mining scenes: its golden planner instants.

        The per-scenario unit the streaming pipeline mines with — a
        generator, so no per-scenario row list exists; chaining the
        streams over scenarios in campaign order is exactly
        :meth:`scene_rows`.
        """
        for row in scene_rows_from_trace(scenario.name, run.trace):
            if self._in_window(row.injection_tick, scenario.duration):
                yield row

    def eligible_ticks_from_trace(self, run: RunResult,
                                  duration: float) -> list[int]:
        """Window-filtered planner ticks a golden run actually reached."""
        ticks = [int(t) for t in run.trace.column("tick")]
        return [t for t in ticks if self._in_window(t, duration)]

    def injection_ticks(self, scenario: Scenario,
                        stride: int = 1) -> list[int]:
        """Planner-tick indices eligible for injection in a scenario.

        Cached per (scenario, stride): random and architectural draws
        consult this list once per experiment, and the golden trace it
        derives from never changes within a campaign.
        """
        key = (scenario.name, scenario.duration, stride)
        cached = self._ticks.get(key)
        if cached is None:
            golden = self.golden_runs()[scenario.name]
            eligible = self.eligible_ticks_from_trace(golden,
                                                      scenario.duration)
            cached = eligible[::stride]
            self._ticks[key] = cached
        return cached

    def _in_window(self, tick: int, duration: float) -> bool:
        """Is ``tick`` inside the injection window of a scenario?

        The window starts after the startup transient and ends
        ``injection_window_margin`` seconds before the scenario ends, so
        every experiment keeps its full post-fault monitoring horizon.
        """
        dt = self.config.ads.control_period
        start = self.config.injection_window_start / dt
        end = (duration - self.config.injection_window_margin) / dt
        return start <= tick <= end

    # -- single experiment -------------------------------------------------------

    def run_fault(self, scenario_name: str,
                  fault: FaultSpec) -> ExperimentRecord:
        """Execute one injection experiment and record the outcome."""
        self._ensure_checkpoints([scenario_name])
        return execute_experiment(
            self._by_name[scenario_name], self.config, fault,
            self.checkpoints.nearest(scenario_name, fault.start_tick))

    def run_jobs(self, jobs: list[ExperimentJob],
                 workers: int | None = None,
                 record_sink=None) -> CampaignSummary:
        """Validate an explicit ``(scenario name, fault)`` job list.

        Runs on the streaming driver like every campaign style: golden
        runs (and checkpoint ladders) of the owned scenarios are
        collected or warm-started first, then the jobs execute grouped
        by scenario over ``workers`` processes.  Records reach the
        summary and ``record_sink`` in job order; the completion journal
        under ``cache_dir`` is keyed by the job list itself.
        """
        return self._run_pipeline(JobsPlan(self, jobs), workers,
                                  record_sink)

    # -- campaigns -----------------------------------------------------------------

    def _run_pipeline(self, plan, workers=None, record_sink=None,
                      on_progress=None):
        """Run one plan on the streaming driver; the plan's result."""
        from .pipeline import CampaignPipeline
        return CampaignPipeline(self, workers=workers,
                                record_sink=record_sink,
                                on_progress=on_progress).run(plan)

    def random_campaign(self, n_experiments: int,
                        seed: int | None = None,
                        workers: int | None = None,
                        record_sink=None,
                        interface_share: float = 0.0,
                        interface_kinds: tuple | None = None,
                        interface_channels: tuple | None = None,
                        on_progress=None) -> CampaignSummary:
        """Fault model (b), uniformly random (the paper's baseline).

        The fault draws are independent of the experiment outcomes, so
        they are all made up front (in the exact order of the serial
        loop, keeping seeded campaigns reproducible) and the resulting
        jobs fanned over ``workers`` processes.  ``record_sink``
        streams records out as they complete instead of retaining them
        in the summary.

        ``interface_share`` mixes interface faults into the draw: each
        experiment becomes an interface fault (uniform over
        ``interface_kinds`` x ``interface_channels``, defaults = all)
        with that probability.  At the default 0.0 no extra random
        draws are made, so existing seeded campaigns reproduce their
        historical fault sequences bit-for-bit.
        """
        plan = RandomPlan(self, n_experiments, seed, interface_share,
                          interface_kinds, interface_channels)
        return self._run_pipeline(plan, workers, record_sink, on_progress)

    def _no_ticks_error(self, scenario_name: str) -> ValueError:
        config = self.config
        return ValueError(
            f"scenario {scenario_name!r} has no eligible injection "
            f"ticks: its duration leaves no planner tick between the "
            f"{config.injection_window_start} s startup transient and "
            f"the {config.injection_window_margin} s end margin")

    def exhaustive_campaign(self, tick_stride: int = 10,
                            variable_names: list[str] | None = None,
                            max_experiments: int | None = None,
                            workers: int | None = None,
                            record_sink=None,
                            interface_grid: bool = False,
                            on_progress=None) -> CampaignSummary:
        """Fault model (b) on the min/max grid (strided subsample).

        ``interface_grid`` appends the interface-fault grid (every kind
        x channel x strided tick, default parameters) to each
        scenario's value grid, so one sweep covers both fault families.
        """
        plan = ExhaustivePlan(self, tick_stride, variable_names,
                              max_experiments, interface_grid)
        return self._run_pipeline(plan, workers, record_sink, on_progress)

    def grid_size(self, variable_names: list[str] | None = None,
                  tick_stride: int = 1) -> int:
        """Total experiments in the full fault-model-(b) grid."""
        names = list(variable_names or DEFAULT_VARIABLES)
        total = 0
        for scenario in self.scenarios:
            total += len(self.injection_ticks(scenario, stride=tick_stride))
        return total * len(names) * 2

    def architectural_campaign(self, n_experiments: int,
                               model: ArchitecturalFaultModel | None = None,
                               seed: int | None = None,
                               workers: int | None = None,
                               record_sink=None,
                               interface_hangs: bool = False,
                               on_progress=None
                               ) -> tuple[CampaignSummary, dict[str, int]]:
        """Fault model (a): register flips propagated into the stack.

        Returns the summary of *landed* (SDC) experiments plus the raw
        architectural outcome counts (masked flips and detectable
        crashes/hangs never reach the vehicle, as in the paper).  A
        sharded campaign reproduces the *global* outcome counts on every
        shard (the draw sequence is global); only the driven experiments
        are partitioned.

        ``interface_hangs`` drives HANG outcomes into the simulator as
        interface ``hang`` faults on the stuck kernel's channel instead
        of counting them as detectable-and-recoverable only.
        """
        plan = ArchitecturalPlan(self, n_experiments, model, seed,
                                 interface_hangs)
        return self._run_pipeline(plan, workers, record_sink, on_progress)

    def bayesian_campaign(self, injector: BayesianFaultInjector | None = None,
                          variables: tuple[str, ...] = MINED_VARIABLES,
                          threshold: float = 0.0,
                          top_k: int | None = None,
                          workers: int | None = None,
                          record_sink=None,
                          interface_probe: tuple[str, ...] = (),
                          on_progress=None
                          ) -> "BayesianCampaignResult":
        """Fault model (c): mine ``F_crit``, then validate in the simulator.

        Mined faults have a *predicted* non-positive potential
        (``threshold`` relaxes that); validation separates real hazards
        from borderline predictions, which is why the paper's precision
        is 82% rather than 100%.  Mining uses the batched affine
        engine; golden collection and validation fan over ``workers``
        processes, and ``record_sink`` streams validation records out as
        they complete.  With a ``cache_dir``, mined candidates are
        warm-started from disk when the same mining parameters were run
        before (only when no explicit ``injector`` is passed — a
        caller-supplied model invalidates the cache key).

        Without an ``injector`` the 3-TBN is fitted through
        sufficient-statistics accumulators, folding each golden trace
        in campaign scenario order the moment it is available, so
        training *overlaps* golden collection; the folds emit per-trace
        ``train`` progress events.  The streamed CPDs reproduce the
        whole-dataset fit (:meth:`BayesianFaultInjector.train`) exactly
        for tabular counts and to well under 1e-9 relative for the
        linear-Gaussian weights/variances (test-enforced).

        ``interface_probe`` names interface-fault kinds (e.g.
        ``("freeze", "delay")``); each mined candidate is then validated
        alongside companion jobs that apply those kinds on the
        candidate variable's channel at the candidate's tick — probing
        whether a *message-level* failure of the same module at the
        same moment is as hazardous as the mined value corruption.
        """
        plan = BayesianPlan(self, injector, variables, threshold, top_k,
                            interface_probe)
        return self._run_pipeline(plan, workers, record_sink, on_progress)
