"""Campaign orchestration: random, exhaustive, architectural, Bayesian.

A *scene* is a (scenario, planner tick) pair drawn from the golden runs.
All four campaign styles inject into the same scene population with the
same transient-fault duration, so their hazard yields are comparable —
that comparison *is* the paper's headline result.
"""

from __future__ import annotations

import functools
import hashlib
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..ads.profiling import STAGE_TIMER
from ..ads.runtime import ADSConfig
from ..arch.injector import Outcome
from ..sim.scenario import Scenario, default_scenarios
from .bayesian_fi import (MINED_VARIABLES, BayesianFaultInjector,
                          CandidateFault, MiningReport, SceneRow,
                          scene_rows_from_trace)
from .checkpoint import CheckpointStore
from .fault_models import (DEFAULT_VARIABLES, ArchitecturalFaultModel,
                           minmax_fault_grid, random_fault)
from .interface_faults import (interface_fault, interface_fault_grid,
                               random_interface_fault,
                               validate_interface_channel,
                               validate_interface_kind)
from .parallel import (ExperimentJob, collect_golden_runs,
                       execute_experiment, run_experiments)
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
    injection_window_margin: float = 9.0   # s kept free at scenario end
    seed: int = 0
    #: Validation forks every experiment from a golden-prefix checkpoint
    #: (False keeps full replay from tick 0 as the reference oracle).
    use_checkpoints: bool = True
    #: Capture a snapshot every Nth eligible injection tick.  Faults at
    #: uncaptured ticks resume from the nearest earlier snapshot and
    #: replay the short fault-free gap.
    checkpoint_stride: int = 1
    #: Cross-host sharding: this process owns every scenario whose index
    #: satisfies ``index % shard_count == shard_index``.  The default
    #: (0 of 1) is an unsharded campaign.  Sharded campaigns run on the
    #: pipeline driver; see :mod:`repro.core.pipeline` for the exact
    #: partition semantics per campaign style.
    shard_index: int = 0
    shard_count: int = 1
    #: Supervision, durable resume, and lease knobs
    #: (:class:`repro.core.resilience.ResilienceConfig`).  Deliberately
    #: outside the cache fingerprint: how a campaign survives
    #: infrastructure faults does not change what it computes.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Lanes per fused numpy batch during validation: values > 1 step up
    #: to that many same-scenario experiments per
    #: :func:`repro.core.simulate.run_experiments_batched` call instead
    #: of one :class:`~repro.sim.world.World` each.  0 (the default)
    #: keeps the scalar engine — the bit-for-bit reference oracle — and
    #: the batched records are test-enforced identical to it, so this
    #: too sits outside the cache fingerprint: *how* experiments are
    #: stepped does not change what they compute.
    batch_sim: int = 0
    #: Collect per-stage wall-clock counters around the five ADS stages
    #: and the deferred safety monitor (:data:`repro.ads.profiling.LAYERS`,
    #: with the stop table's hits, misses and bulk batches on the
    #: ``safety`` row), surfaced as the ``stage_timings`` block of the
    #: summary's ``extra_info``.
    #: Observability only — outside the cache fingerprint, and the
    #: counters cover calling-process work (profile with ``workers=1``
    #: to attribute everything; see :mod:`repro.ads.profiling`).
    profile_stages: bool = False

    def __post_init__(self):
        if self.shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, "
                             f"got {self.shard_count}")
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"shard_index must be in [0, {self.shard_count}), "
                f"got {self.shard_index}")
        if self.batch_sim < 0:
            raise ValueError(f"batch_sim must be >= 0, "
                             f"got {self.batch_sim}")


class Campaign:
    """Runs fault-injection campaigns over a scenario set.

    ``cache_dir`` enables incremental campaigns: golden traces, mined
    candidates, *and checkpoint ladders* are persisted there, keyed by a
    fingerprint of the configuration and scenario set, and re-used on
    the next run instead of being recomputed.  Every campaign style
    takes ``workers=`` (sharding both golden collection and validation)
    and ``record_sink=`` (streaming records out-of-core instead of
    accumulating them in memory).

    ``trace_store`` bounds golden-trace memory: ``True`` spools every
    completed golden trace to memory-mappable columnar files (under
    ``cache_dir`` when set, else a temporary directory) and the
    campaign holds read-only :class:`repro.sim.StoredTrace` handles
    instead of in-RAM traces — peak resident trace memory becomes
    O(largest single trace) rather than O(total traces), with every
    downstream number bit-for-bit unchanged.  A path spools under that
    directory instead.  ``None``/``False`` (the default) keeps the
    in-RAM :class:`repro.sim.Trace` path as the reference oracle.
    """

    def __init__(self, scenarios: list[Scenario] | None = None,
                 config: CampaignConfig | None = None,
                 cache_dir: str | Path | None = None,
                 trace_store: bool | str | Path | None = None):
        self.scenarios = scenarios or default_scenarios()
        self.config = config or CampaignConfig()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._trace_store_arg = trace_store
        self._trace_store = None
        self._trace_tmp = None
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

        When the campaign simulates them itself it also captures the
        per-scenario checkpoint ladders validation resumes from, and
        ``workers`` shards the collection over the process pool — each
        worker simulates its scenario's golden trace *and* ladder, and
        the result is scenario-for-scenario identical to the serial loop
        (``workers=None``, the oracle).  Traces loaded from
        ``cache_dir`` skip simulation entirely; their checkpoints are
        then warm-started from the persisted store (or rebuilt lazily)
        per scenario the first time jobs need them.
        """
        if self._golden is None:
            loaded = self._load_golden_cache()
            if loaded is not None:
                self._golden = loaded
            else:
                capture: dict[str, list[int] | None] = {}
                if self.config.use_checkpoints:
                    capture = {
                        s.name: self._capture_ticks(s)
                        for s in self.scenarios
                        if not self.checkpoints.has_scenario(s.name)}
                store = self.golden_trace_store()
                self._golden = collect_golden_runs(
                    self.scenarios, self.config, capture, workers=workers,
                    trace_spool=store.root if store is not None else None)
                for run in self._golden.values():
                    if run.checkpoints:
                        self.checkpoints.add_all(run.checkpoints)
                self._pin_spool(self._golden)
                self._save_golden_cache()
                self._save_checkpoint_cache()
        return self._golden

    def golden_trace_store(self):
        """The out-of-core golden-trace spool (``None`` = in-RAM oracle).

        Resolved lazily from the ``trace_store`` constructor argument:
        ``True`` keys a ``traces-<fingerprint>`` directory under
        ``cache_dir`` (persistent — warm starts re-map the same files)
        or a temporary directory without one; an explicit path keys the
        same fingerprinted directory under it.  The fingerprint key
        means a config or scenario change can never re-attach stale
        spool files, and concurrent shards may share the directory —
        writes are atomic and content-identical per scenario.
        """
        if not self._trace_store_arg:
            return None
        if self._trace_store is None:
            from ..sim.trace import TraceStore
            arg = self._trace_store_arg
            if arg is True:
                if self.cache_dir is not None:
                    root = self.cache_dir / f"traces-{self._fingerprint()}"
                else:
                    self._trace_tmp = tempfile.TemporaryDirectory(
                        prefix="repro-traces-")
                    root = Path(self._trace_tmp.name)
            else:
                root = Path(arg) / f"traces-{self._fingerprint()}"
            self._trace_store = TraceStore(root,
                                           keepalive=self._trace_tmp)
        return self._trace_store

    def _pin_spool(self, runs: dict[str, RunResult]) -> None:
        """Pin the temporary spool to handles that may outlive us.

        Worker-spooled handles come back from the pool without a
        keepalive (they pickle as bare paths), so golden results a
        caller retains after dropping the campaign would otherwise
        lose their files when the spool tempdir finalizes.
        """
        if self._trace_tmp is None:
            return
        from ..sim.trace import StoredTrace
        for run in runs.values():
            if isinstance(run.trace, StoredTrace):
                run.trace._keepalive = self._trace_tmp

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

    def _require_unsharded(self, style: str) -> None:
        if self.config.shard_count > 1:
            raise ValueError(
                f"sharded campaigns run on the pipeline driver; call "
                f"{style} with pipeline=True (or shard_count=1)")

    # -- checkpoint ladders ----------------------------------------------------

    def schedule_injection_ticks(self, scenario: Scenario) -> list[int]:
        """Eligible injection ticks derived from the *schedule*.

        Planner ticks inside the injection window, computed without the
        golden trace: a golden run that completes (no collision) records
        exactly these ticks, which is what lets a shard reproduce the
        global seeded fault draw without simulating foreign scenarios'
        golden runs.  The pipeline driver asserts the equality for every
        scenario a shard does simulate.
        """
        dt = self.config.ads.control_period
        divisor = self.config.ads.planner_divisor
        n_ticks = int(round(scenario.duration / dt))
        return [t for t in range(0, n_ticks, divisor)
                if self._in_window(t, scenario.duration)]

    def _capture_ticks(self, scenario: Scenario) -> list[int]:
        """Planner ticks to snapshot: the eligible injection ticks, strided.

        Derived from the schedule (not the golden trace, which may not
        exist yet): a tick the run never reaches is simply not captured.
        """
        eligible = self.schedule_injection_ticks(scenario)
        return eligible[::max(1, self.config.checkpoint_stride)]

    def _ensure_checkpoints(self, scenario_names, save: bool = True) -> None:
        """Fill in checkpoint ladders missing from the store.

        Needed when golden traces were warm-started from disk: ladders
        persisted under ``cache_dir`` by a previous run are loaded
        directly (per scenario — a campaign validating two scenarios
        never deserializes the rest); only scenarios absent from the
        persisted store re-simulate one fault-free prefix run.  Capture
        ticks derive from the schedule, not the golden trace, so this
        deliberately does not force ``golden_runs()`` — a single
        ``run_fault`` costs at most one prefix run, not a full golden
        sweep.
        """
        missing = [name for name in sorted(set(scenario_names))
                   if not self.checkpoints.has_scenario(name)]
        if not missing:
            return
        cache = self._checkpoint_cache_dir()
        recaptured = False
        for name in missing:
            if cache is not None \
                    and self.checkpoints.load_scenario(cache, name):
                continue
            scenario = self._by_name[name]
            run = run_scenario(
                scenario, ads_config=self.config.ads, seed=self.config.seed,
                safety_config=self.config.safety, record_trace=False,
                checkpoint_ticks=self._capture_ticks(scenario))
            if run.checkpoints:
                self.checkpoints.add_all(run.checkpoints)
                recaptured = True
        if recaptured and save:
            # The batch path persists once for the whole job set; the
            # pipeline passes save=False and persists per scenario
            # (CheckpointStore.save_scenario) to keep ensure O(1).
            self._save_checkpoint_cache()

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

        Keyed by the campaign fingerprint plus the capture stride, so a
        stride change (a different ladder) rotates the directory the
        same way any config change rotates the golden cache.  Sharded
        campaigns get a shard-qualified directory: each shard persists
        only the ladders it validates with, and no two shard processes
        write one index.
        """
        if self.cache_dir is None or not self.config.use_checkpoints:
            return None
        return (self.cache_dir / f"checkpoints-{self._fingerprint()}"
                                 f"-s{max(1, self.config.checkpoint_stride)}"
                                 f"{self._shard_suffix()}")

    def _ladder_spool_dir(self) -> Path | None:
        """Disk spool the pipeline driver spills checkpoint ladders to.

        The checkpoint cache directory when the campaign has one (spool
        and cache are then the same files — spilling *is* persisting),
        else a campaign-lifetime temporary directory, so repeated
        pipeline runs on one campaign object reload spilled ladders
        instead of re-simulating them.  ``None`` when checkpoints are
        disabled.
        """
        if not self.config.use_checkpoints:
            return None
        cache = self._checkpoint_cache_dir()
        if cache is not None:
            return cache
        if self._ladder_tmp is None:
            self._ladder_tmp = tempfile.TemporaryDirectory(
                prefix="repro-ladders-")
        return Path(self._ladder_tmp.name)

    def _save_checkpoint_cache(self) -> None:
        directory = self._checkpoint_cache_dir()
        if directory is None or not len(self.checkpoints):
            return
        self.checkpoints.save(directory)

    # -- resilience: journal and work keys -------------------------------------

    @staticmethod
    def _work_key(*params) -> str:
        """Digest identifying one campaign invocation's work.

        Keys the journal (and lease board) directory so two different
        campaigns sharing a ``cache_dir`` never read each other's
        progress.  Precision is an efficiency concern only: the journal
        itself matches entries by full experiment identity, and the
        deterministic simulator means identical identities always carry
        identical outcomes.
        """
        return hashlib.sha256(
            repr(params).encode("utf-8")).hexdigest()[:12]

    @staticmethod
    def _jobs_work_key(jobs: list[ExperimentJob]) -> str:
        """Work key of an explicit job list (the barrier driver's form)."""
        return Campaign._work_key(*(
            (name, fault.variable, fault.value, fault.start_tick,
             fault.duration_ticks, fault.kind, fault.channel)
            for name, fault in jobs))

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
            directory, campaign_key=f"{self._fingerprint()}:{work_key}",
            batch=res.journal_batch)
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
                               sharded: bool = False
                               ) -> dict[str, RunResult] | None:
        """Warm-start ``names`` from the (full-set or sharded) cache.

        The one cache-read protocol both drivers share: read
        (current format, then legacy), require every requested
        scenario, normalize traces to this campaign's trace mode, and
        rewrite/clean up when anything was migrated.  All-or-nothing,
        matching the barrier path.
        """
        path = self._golden_cache_path(sharded=sharded)
        if path is None:
            return None
        runs, migrate = self._load_golden_cache_file(path)
        if runs is None or any(name not in runs for name in names):
            return None
        runs = {name: runs[name] for name in names}
        try:
            if self._normalize_loaded_traces(runs) or migrate:
                from .persistence import save_golden_traces
                save_golden_traces(runs, path, self._fingerprint(),
                                   trace_store=self.golden_trace_store())
            if migrate:
                self._drop_legacy_cache(path)
        except OSError:
            # The rewrite/adoption is an optimization for the *next*
            # warm start; a read-only shared cache dir must not fail a
            # campaign whose data loaded completely.  (Traces that
            # could not be spooled simply stay in RAM — both
            # representations serve the same read API.)
            pass
        return runs

    @staticmethod
    def _drop_legacy_cache(path: Path) -> None:
        """Remove a migrated pre-gzip cache file (inline columns can be
        many MB; leaving it would double cache disk per fingerprint)."""
        path.with_name(path.name.removesuffix(".gz")).unlink(
            missing_ok=True)

    def _load_golden_cache_file(self, path: Path
                                ) -> tuple[dict[str, RunResult] | None,
                                           bool]:
        """Read one golden cache file, accepting the legacy name.

        Caches written before the gzip switch live at the same path
        without the ``.gz`` suffix; returns ``(runs, migrate)`` where
        ``migrate`` asks the caller to rewrite the current-format file
        (so the one-time legacy parse never repeats).
        """
        from .persistence import load_golden_traces
        store = self._cache_read_store()
        runs = load_golden_traces(path, self._fingerprint(),
                                  trace_store=store)
        if runs is not None:
            return runs, False
        legacy = path.with_name(path.name.removesuffix(".gz"))
        if legacy == path:
            return None, False
        runs = load_golden_traces(legacy, self._fingerprint(),
                                  trace_store=store)
        return runs, runs is not None

    def _cache_read_store(self):
        """The store to resolve cache trace references against.

        A campaign run *without* ``trace_store`` must still be able to
        read a cache that a store-enabled run rewrote to references —
        the spool lives at a fingerprint-derived path under
        ``cache_dir``, so it can be found without the flag.  Falling
        back to re-simulation just because the flag toggled would
        discard hours of cached golden work.
        """
        store = self.golden_trace_store()
        if store is not None or self.cache_dir is None:
            return store
        from ..sim.trace import TraceStore
        root = self.cache_dir / f"traces-{self._fingerprint()}"
        return TraceStore(root) if root.is_dir() else None

    def _normalize_loaded_traces(self, runs: dict[str, RunResult]) -> bool:
        """Align warm-started traces with this campaign's trace mode.

        With a store configured, in-RAM traces from a pre-store cache
        are adopted into the spool (one-time migration; the caller
        rewrites the cache with references so the next warm start
        re-maps files).  Without one, reference-resolved handles are
        materialized back to in-RAM :class:`Trace` so the oracle path
        keeps its representation — no rewrite, which also stops the
        cache format ping-ponging as the flag toggles.  Returns
        whether the cache should be rewritten.
        """
        from ..sim.trace import StoredTrace
        store = self.golden_trace_store()
        if store is None:
            for run in runs.values():
                if isinstance(run.trace, StoredTrace):
                    run.trace = run.trace.to_trace()
            return False
        adopted = False
        for name, run in runs.items():
            if not isinstance(run.trace, StoredTrace):
                run.trace = store.put(name, run.trace)
                adopted = True
        return adopted

    def _save_golden_cache(self) -> None:
        # Reached only when the cache missed (or was corrupt/stale), so
        # writing unconditionally also self-heals a bad file.
        path = self._golden_cache_path()
        if path is None:
            return
        from .persistence import save_golden_traces
        path.parent.mkdir(parents=True, exist_ok=True)
        save_golden_traces(self._golden, path, self._fingerprint(),
                           trace_store=self.golden_trace_store())

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
        checkpoints = None
        if self.config.use_checkpoints:
            self._ensure_checkpoints([scenario_name])
            checkpoints = self.checkpoints
        return execute_experiment(self._by_name[scenario_name],
                                  self.config, fault, checkpoints)

    def _run_jobs(self, jobs: list[ExperimentJob],
                  workers: int | None,
                  record_sink=None, on_progress=None) -> CampaignSummary:
        """Execute jobs (serially or pooled) into an incremental summary.

        Records stream back in job order as futures complete; each is
        folded into the returned :class:`CampaignSummary` and forwarded
        to ``record_sink`` (any object with ``add(record)``, e.g. a
        :class:`repro.core.persistence.JsonlRecordSink`).  With a sink
        the summary does not retain the records themselves — aggregates
        only — which is the memory bound out-of-core campaigns rely on.

        With checkpoints enabled, the store is materialized first so
        pool workers inherit it through ``fork`` (or pickle it under
        ``spawn``) and every job resumes from its scenario's golden
        prefix.
        """
        checkpoints = None
        if self.config.use_checkpoints and jobs:
            self._ensure_checkpoints(name for name, _ in jobs)
            checkpoints = self.checkpoints
        summary = CampaignSummary(keep_records=record_sink is None)
        with self._stage_profile(summary):
            return self._drain_jobs(jobs, workers, checkpoints, summary,
                                    record_sink, on_progress)

    def _drain_jobs(self, jobs, workers, checkpoints, summary,
                    record_sink, on_progress) -> CampaignSummary:
        """The execution half of :meth:`_run_jobs` (profiled caller)."""
        emitted = 0

        def emit(record: ExperimentRecord) -> None:
            nonlocal emitted
            emitted += 1
            summary.add(record)
            if record_sink is not None:
                record_sink.add(record)
            self._progress(on_progress, "validated", record.scenario,
                           emitted, len(jobs))

        journal = self._open_journal(self._jobs_work_key(jobs))
        if journal is None:
            run_experiments(self.scenarios, self.config, jobs,
                            workers=workers, checkpoints=checkpoints,
                            on_record=emit)
            return summary

        # Resume merge: slots claimed from the journal emit their
        # original records verbatim; only the remainder executes.
        # Fresh records arrive in fresh-submission order, so a single
        # cursor interleaves both sources back into the deterministic
        # job order — the merged stream is bit-for-bit the
        # uninterrupted run's.
        slots: list[ExperimentRecord | None] = []
        fresh: list[ExperimentJob] = []
        for name, fault in jobs:
            hit = journal.claim(name, fault, self.config.seed)
            slots.append(hit)
            if hit is None:
                fresh.append((name, fault))
        cursor = 0

        def release_journaled() -> None:
            nonlocal cursor
            while cursor < len(jobs) and slots[cursor] is not None:
                emit(slots[cursor])
                cursor += 1

        def consume(record: ExperimentRecord) -> None:
            nonlocal cursor
            journal.append(record)
            release_journaled()
            emit(record)
            cursor += 1
            release_journaled()

        try:
            release_journaled()
            if fresh:
                run_experiments(self.scenarios, self.config, fresh,
                                workers=workers, checkpoints=checkpoints,
                                on_record=consume)
                release_journaled()
        finally:
            journal.close()
        return summary

    # -- campaigns -----------------------------------------------------------------

    def _run_pipeline(self, plan, workers, record_sink, on_progress):
        from .pipeline import CampaignPipeline
        driver = CampaignPipeline(self, workers=workers,
                                  record_sink=record_sink,
                                  on_progress=on_progress)
        if not self.config.profile_stages:
            return driver.run(plan)
        STAGE_TIMER.reset()
        STAGE_TIMER.enabled = True
        try:
            result = driver.run(plan)
        finally:
            STAGE_TIMER.enabled = False
        report = STAGE_TIMER.report()
        if report:
            result.summary.extra_info["stage_timings"] = report
        return result

    @contextmanager
    def _stage_profile(self, summary: CampaignSummary):
        """Arm the process-global stage timer for one campaign run and
        fold the report into ``summary.extra_info['stage_timings']``.

        A no-op unless ``config.profile_stages`` is set.  The timer is
        reset on entry, so the block reports this run only, and always
        disarmed on exit (including on error)."""
        if not self.config.profile_stages:
            yield
            return
        STAGE_TIMER.reset()
        STAGE_TIMER.enabled = True
        try:
            yield
        finally:
            STAGE_TIMER.enabled = False
            report = STAGE_TIMER.report()
            if report:
                summary.extra_info["stage_timings"] = report

    @contextmanager
    def _batch_override(self, batch_sim: int | None):
        """Temporarily override ``config.batch_sim`` for one campaign.

        ``batch_sim`` sits outside the cache fingerprint (the engines
        are bit-for-bit equivalent), so swapping the config keeps every
        golden/checkpoint/candidate cache, journal, and work key valid.
        ``None`` means "use the config as-is".
        """
        if batch_sim is None or batch_sim == self.config.batch_sim:
            yield
            return
        previous = self.config
        self.config = replace(previous, batch_sim=batch_sim)
        try:
            yield
        finally:
            self.config = previous

    def random_campaign(self, n_experiments: int,
                        seed: int | None = None,
                        workers: int | None = None,
                        record_sink=None,
                        pipeline: bool = True,
                        interface_share: float = 0.0,
                        interface_kinds: tuple | None = None,
                        interface_channels: tuple | None = None,
                        batch_sim: int | None = None,
                        on_progress=None) -> CampaignSummary:
        """Fault model (b), uniformly random (the paper's baseline).

        The fault draws are independent of the experiment outcomes, so
        they are all made up front (in the exact order of the serial
        loop, keeping seeded campaigns reproducible) and the resulting
        jobs fanned over ``workers`` processes.  ``record_sink``
        streams records out as they complete instead of retaining them
        in the summary.  ``pipeline`` (the default) runs on the
        streaming per-scenario driver — record-for-record identical to
        the barrier path, which ``pipeline=False`` preserves as the
        reference oracle.

        ``interface_share`` mixes interface faults into the draw: each
        experiment becomes an interface fault (uniform over
        ``interface_kinds`` x ``interface_channels``, defaults = all)
        with that probability.  At the default 0.0 no extra random
        draws are made, so existing seeded campaigns reproduce their
        historical fault sequences bit-for-bit.

        ``batch_sim`` overrides :attr:`CampaignConfig.batch_sim` for
        this campaign: values > 1 validate through the fused batched
        engine (records bit-for-bit the scalar engine's), 0 forces the
        scalar oracle, ``None`` keeps the config's setting.
        """
        if batch_sim is not None:
            with self._batch_override(batch_sim):
                return self.random_campaign(
                    n_experiments, seed=seed, workers=workers,
                    record_sink=record_sink, pipeline=pipeline,
                    interface_share=interface_share,
                    interface_kinds=interface_kinds,
                    interface_channels=interface_channels,
                    on_progress=on_progress)
        for kind in interface_kinds or ():
            validate_interface_kind(kind)
        for channel in interface_channels or ():
            validate_interface_channel(channel)
        if pipeline:
            plan = self._random_plan(n_experiments, seed, interface_share,
                                     interface_kinds, interface_channels)
            return self._run_pipeline(plan, workers, record_sink,
                                      on_progress).summary
        self._require_unsharded("random_campaign")
        self.golden_runs(workers=workers)
        self._progress(on_progress, "golden", None, len(self.scenarios),
                       len(self.scenarios))
        jobs = self._random_jobs(n_experiments, seed,
                                 self._require_injection_ticks,
                                 interface_share, interface_kinds,
                                 interface_channels)
        return self._run_jobs(jobs, workers, record_sink, on_progress)

    def _random_jobs(self, n_experiments: int, seed: int | None,
                     ticks_of, interface_share: float = 0.0,
                     interface_kinds: tuple | None = None,
                     interface_channels: tuple | None = None
                     ) -> list[ExperimentJob]:
        """The seeded random draw, parametrized over the tick source.

        ``ticks_of(name)`` supplies each scenario's eligible ticks; the
        draw sequence itself (scenario choice, value, tick index) is
        identical for any source that returns the same lists, which is
        how a shard reproduces the global draw from schedule-derived
        ticks without simulating foreign golden runs.  The
        interface-fault coin flip is guarded so a zero share adds no
        draw — the historical stream is untouched.
        """
        rng = np.random.default_rng(self.config.seed if seed is None
                                    else seed)
        names = [s.name for s in self.scenarios]
        duration = self.config.fault_duration_ticks
        jobs: list[ExperimentJob] = []
        for _ in range(n_experiments):
            scenario_name = names[int(rng.integers(len(names)))]
            if interface_share > 0.0 and float(rng.random()) \
                    < interface_share:
                fault = random_interface_fault(
                    rng, ticks_of(scenario_name), kinds=interface_kinds,
                    channels=interface_channels, duration_ticks=duration)
            else:
                fault = random_fault(rng, ticks_of(scenario_name),
                                     duration_ticks=duration)
            jobs.append((scenario_name, fault))
        return jobs

    def _random_plan(self, n_experiments: int, seed: int | None,
                     interface_share: float = 0.0,
                     interface_kinds: tuple | None = None,
                     interface_channels: tuple | None = None):
        from .pipeline import StagePlan

        def global_jobs(ctx):
            return self._random_jobs(
                n_experiments, seed,
                lambda name: ctx.injection_ticks(name, require=True),
                interface_share, interface_kinds, interface_channels)

        key_params = ["random", n_experiments, seed]
        if interface_share > 0.0:
            # Conditional so the journal/lease directories of existing
            # interface-free campaigns keep their names.
            key_params += [interface_share,
                           tuple(interface_kinds or ()),
                           tuple(interface_channels or ())]
        return StagePlan(style="random", global_jobs=global_jobs,
                         work_key=self._work_key(*key_params))

    @staticmethod
    def _progress(on_progress, stage, scenario, done, total) -> None:
        if on_progress is not None:
            from .pipeline import PipelineProgress
            on_progress(PipelineProgress(stage=stage, scenario=scenario,
                                         done=done, total=total))

    def _require_injection_ticks(self, scenario_name: str) -> list[int]:
        """Eligible ticks of a scenario, with a clear error when empty."""
        ticks = self.injection_ticks(self._by_name[scenario_name])
        if not ticks:
            raise self._no_ticks_error(scenario_name)
        return ticks

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
                            pipeline: bool = True,
                            interface_grid: bool = False,
                            batch_sim: int | None = None,
                            on_progress=None) -> CampaignSummary:
        """Fault model (b) on the min/max grid (strided subsample).

        ``interface_grid`` appends the interface-fault grid (every kind
        x channel x strided tick, default parameters) to each
        scenario's value grid, so one sweep covers both fault families.
        ``batch_sim`` overrides :attr:`CampaignConfig.batch_sim` for
        this campaign (see :meth:`random_campaign`).
        """
        if batch_sim is not None:
            with self._batch_override(batch_sim):
                return self.exhaustive_campaign(
                    tick_stride=tick_stride,
                    variable_names=variable_names,
                    max_experiments=max_experiments, workers=workers,
                    record_sink=record_sink, pipeline=pipeline,
                    interface_grid=interface_grid,
                    on_progress=on_progress)
        if pipeline:
            plan = self._exhaustive_plan(tick_stride, variable_names,
                                         max_experiments, interface_grid)
            return self._run_pipeline(plan, workers, record_sink,
                                      on_progress).summary
        self._require_unsharded("exhaustive_campaign")
        self.golden_runs(workers=workers)
        self._progress(on_progress, "golden", None, len(self.scenarios),
                       len(self.scenarios))
        jobs: list[ExperimentJob] = []
        for scenario in self.scenarios:
            ticks = self.injection_ticks(scenario, stride=tick_stride)
            grid = self._exhaustive_grid(ticks, variable_names,
                                         interface_grid)
            jobs.extend((scenario.name, fault) for fault in grid)
            if max_experiments is not None and len(jobs) >= max_experiments:
                jobs = jobs[:max_experiments]
                break
        return self._run_jobs(jobs, workers, record_sink, on_progress)

    def _exhaustive_grid(self, ticks: list[int],
                         variable_names: list[str] | None,
                         interface_grid: bool) -> list[FaultSpec]:
        """One scenario's exhaustive grid: values, then interface faults."""
        duration = self.config.fault_duration_ticks
        grid = minmax_fault_grid(ticks, variable_names,
                                 duration_ticks=duration)
        if interface_grid:
            grid.extend(interface_fault_grid(ticks,
                                             duration_ticks=duration))
        return grid

    def _exhaustive_plan(self, tick_stride: int,
                         variable_names: list[str] | None,
                         max_experiments: int | None,
                         interface_grid: bool = False):
        from .pipeline import StagePlan
        key_params = ["exhaustive", tick_stride,
                      tuple(variable_names) if variable_names else None,
                      max_experiments]
        if interface_grid:
            key_params.append("interface-grid")
        work_key = self._work_key(*key_params)

        if max_experiments is None:
            # Truly per-scenario: a scenario's grid depends only on its
            # own golden ticks, so validation of an early scenario
            # overlaps golden collection of a late one.
            def per_scenario(ctx, scenario):
                ticks = ctx.injection_ticks(scenario.name,
                                            stride=tick_stride)
                grid = self._exhaustive_grid(ticks, variable_names,
                                             interface_grid)
                return [(scenario.name, fault) for fault in grid]

            return StagePlan(style="exhaustive",
                             per_scenario_jobs=per_scenario,
                             work_key=work_key)

        # A global experiment cap consumes budget in scenario order, so
        # job generation is a (documented) barrier on the tick lists.
        def global_jobs(ctx):
            jobs: list[ExperimentJob] = []
            for scenario in self.scenarios:
                ticks = ctx.injection_ticks(scenario.name,
                                            stride=tick_stride)
                grid = self._exhaustive_grid(ticks, variable_names,
                                             interface_grid)
                jobs.extend((scenario.name, fault) for fault in grid)
                if len(jobs) >= max_experiments:
                    jobs = jobs[:max_experiments]
                    break
            return jobs

        return StagePlan(style="exhaustive", global_jobs=global_jobs,
                         work_key=work_key)

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
                               pipeline: bool = True,
                               interface_hangs: bool = False,
                               batch_sim: int | None = None,
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
        ``batch_sim`` overrides :attr:`CampaignConfig.batch_sim` for
        this campaign (see :meth:`random_campaign`).
        """
        if batch_sim is not None:
            with self._batch_override(batch_sim):
                return self.architectural_campaign(
                    n_experiments, model=model, seed=seed,
                    workers=workers, record_sink=record_sink,
                    pipeline=pipeline, interface_hangs=interface_hangs,
                    on_progress=on_progress)
        if pipeline:
            plan = self._architectural_plan(n_experiments, model, seed,
                                            interface_hangs)
            outcome = self._run_pipeline(plan, workers, record_sink,
                                         on_progress)
            return outcome.summary, outcome.extras["outcome_counts"]
        self._require_unsharded("architectural_campaign")
        self.golden_runs(workers=workers)
        self._progress(on_progress, "golden", None, len(self.scenarios),
                       len(self.scenarios))
        jobs, outcome_counts = self._architectural_jobs(
            n_experiments, model, seed, self._require_injection_ticks,
            interface_hangs)
        summary = self._run_jobs(jobs, workers, record_sink, on_progress)
        return summary, outcome_counts

    def _architectural_jobs(self, n_experiments: int,
                            model: ArchitecturalFaultModel | None,
                            seed: int | None, ticks_of,
                            interface_hangs: bool = False
                            ) -> tuple[list[ExperimentJob], dict[str, int]]:
        """The seeded architectural draw, parametrized over tick source."""
        rng = np.random.default_rng(self.config.seed if seed is None
                                    else seed)
        model = model or ArchitecturalFaultModel()
        outcome_counts = {outcome.value: 0 for outcome in Outcome}
        names = [s.name for s in self.scenarios]
        jobs: list[ExperimentJob] = []
        for _ in range(n_experiments):
            scenario_name = names[int(rng.integers(len(names)))]
            arch = model.sample(
                rng, ticks_of(scenario_name),
                duration_ticks=self.config.fault_duration_ticks,
                interface_hangs=interface_hangs)
            outcome_counts[arch.outcome.value] += 1
            if arch.fault is not None:
                jobs.append((scenario_name, arch.fault))
        return jobs, outcome_counts

    def _architectural_plan(self, n_experiments: int,
                            model: ArchitecturalFaultModel | None,
                            seed: int | None,
                            interface_hangs: bool = False):
        from .pipeline import StagePlan

        def global_jobs(ctx):
            jobs, outcome_counts = self._architectural_jobs(
                n_experiments, model, seed,
                lambda name: ctx.injection_ticks(name, require=True),
                interface_hangs)
            ctx.extras["outcome_counts"] = outcome_counts
            return jobs

        key_params = ["architectural", n_experiments, seed, model is None]
        if interface_hangs:
            key_params.append("interface-hangs")
        return StagePlan(style="architectural", global_jobs=global_jobs,
                         work_key=self._work_key(*key_params))

    def bayesian_campaign(self, injector: BayesianFaultInjector | None = None,
                          variables: tuple[str, ...] = MINED_VARIABLES,
                          threshold: float = 0.0,
                          top_k: int | None = None,
                          use_batched: bool = True,
                          workers: int | None = None,
                          record_sink=None,
                          pipeline: bool = True,
                          streaming_training: bool = True,
                          interface_probe: tuple[str, ...] = (),
                          batch_sim: int | None = None,
                          on_progress=None
                          ) -> "BayesianCampaignResult":
        """Fault model (c): mine ``F_crit``, then validate in the simulator.

        Mined faults have a *predicted* non-positive potential
        (``threshold`` relaxes that); validation separates real hazards
        from borderline predictions, which is why the paper's precision
        is 82% rather than 100%.  Mining uses the batched affine engine
        by default (``use_batched=False`` falls back to the scalar
        reference path); golden collection and validation fan over
        ``workers`` processes, and ``record_sink`` streams validation
        records out as they complete.
        With a ``cache_dir``, mined candidates are warm-started from
        disk when the same mining parameters were run before (only when
        no explicit ``injector`` is passed — a caller-supplied model
        invalidates the cache key).

        ``streaming_training`` (the default) fits the 3-TBN through
        sufficient-statistics accumulators, folding each golden trace
        in campaign scenario order the moment it is available — on the
        pipeline driver training *overlaps* golden collection and the
        training barrier disappears; the folds emit per-trace
        ``train`` progress events.  ``streaming_training=False`` keeps
        the whole-dataset batch fit
        (:meth:`BayesianFaultInjector.train`) as the reference oracle;
        the streamed CPDs reproduce it exactly for tabular counts and
        to well under 1e-9 relative for the linear-Gaussian
        weights/variances (test-enforced).

        ``interface_probe`` names interface-fault kinds (e.g.
        ``("freeze", "delay")``); each mined candidate is then validated
        alongside companion jobs that apply those kinds on the
        candidate variable's channel at the candidate's tick — probing
        whether a *message-level* failure of the same module at the
        same moment is as hazardous as the mined value corruption.

        ``batch_sim`` overrides :attr:`CampaignConfig.batch_sim` for
        the validation stage (see :meth:`random_campaign`); mining and
        training are unaffected (they have their own batched engines).
        """
        if batch_sim is not None:
            with self._batch_override(batch_sim):
                return self.bayesian_campaign(
                    injector=injector, variables=variables,
                    threshold=threshold, top_k=top_k,
                    use_batched=use_batched, workers=workers,
                    record_sink=record_sink, pipeline=pipeline,
                    streaming_training=streaming_training,
                    interface_probe=interface_probe,
                    on_progress=on_progress)
        for kind in interface_probe:
            validate_interface_kind(kind)
        if pipeline:
            plan = self._bayesian_plan(injector, variables, threshold,
                                       top_k, use_batched,
                                       streaming_training,
                                       interface_probe)
            outcome = self._run_pipeline(plan, workers, record_sink,
                                         on_progress)
            return BayesianCampaignResult(
                injector=outcome.extras["injector"],
                candidates=outcome.extras["candidates"],
                mining=outcome.extras["mining"],
                summary=outcome.summary,
                train_seconds=outcome.extras["train_seconds"])
        self._require_unsharded("bayesian_campaign")
        train_start = time.perf_counter()
        caching = injector is None and self.cache_dir is not None
        if injector is None:
            golden = self.golden_runs(workers=workers)
            if streaming_training:
                injector = self._train_streaming(golden, on_progress)
            else:
                injector = BayesianFaultInjector.train(
                    list(golden.values()),
                    safety_config=self.config.safety)
        train_seconds = time.perf_counter() - train_start
        self._progress(on_progress, "golden", None, len(self.scenarios),
                       len(self.scenarios))
        candidates = mining = None
        cache_path = (self._candidate_cache_path(variables, threshold,
                                                 top_k) if caching else None)
        if cache_path is not None and cache_path.exists():
            from .persistence import try_load_candidates
            candidates = try_load_candidates(cache_path)
            if candidates is not None:
                mining = self._cached_mining_report(candidates, variables)
        if candidates is None:
            mine = (injector.mine_critical_faults_batched if use_batched
                    else injector.mine_critical_faults)
            candidates, mining = mine(
                self.scene_rows(), variables=variables, threshold=threshold,
                top_k=top_k)
            if cache_path is not None:
                from .persistence import save_candidates
                cache_path.parent.mkdir(parents=True, exist_ok=True)
                save_candidates(candidates, cache_path)
        self._progress(on_progress, "mined", None, len(self.scenarios),
                       len(self.scenarios))
        jobs: list[ExperimentJob] = []
        for candidate in candidates:
            jobs.append((candidate.scenario,
                         candidate.to_fault_spec(
                             duration_ticks=self.config.fault_duration_ticks)))
            jobs.extend(self._probe_jobs(candidate, interface_probe))
        summary = self._run_jobs(jobs, workers, record_sink, on_progress)
        return BayesianCampaignResult(
            injector=injector, candidates=candidates, mining=mining,
            summary=summary, train_seconds=train_seconds)

    def _probe_jobs(self, candidate: CandidateFault,
                    interface_probe: tuple[str, ...]
                    ) -> list[ExperimentJob]:
        """A candidate's interface-fault companions, in probe order.

        Each probe kind hits the channel of the module that publishes
        the candidate's variable, at the candidate's injection tick,
        with the kind's default parameter.
        """
        if not interface_probe:
            return []
        from ..ads.variables import variable_by_name
        channel = variable_by_name(candidate.variable).stage
        duration = self.config.fault_duration_ticks
        return [(candidate.scenario,
                 interface_fault(kind, channel,
                                 int(candidate.injection_tick),
                                 duration_ticks=duration))
                for kind in interface_probe]

    def _train_streaming(self, golden: dict[str, RunResult],
                         on_progress) -> BayesianFaultInjector:
        """Fold golden traces into the streaming trainer, in order.

        The barrier path's streaming fit: identical arithmetic (and
        fold order — campaign scenario order) to the pipeline driver's
        overlapped folds, so ``pipeline=True`` and ``pipeline=False``
        stay record-for-record equivalent under streaming training.
        """
        trainer = BayesianFaultInjector.streaming_trainer(
            safety_config=self.config.safety)
        for done, (name, run) in enumerate(golden.items(), start=1):
            trainer.add_run(run)
            self._progress(on_progress, "train", name, done, len(golden))
        return trainer.finish()

    def _cached_mining_report(self, candidates, variables) -> MiningReport:
        """Cost accounting a fresh mining pass over these scenes would
        report: every safe scene is scored once per corruption value of
        every variable.  Only ``wall_seconds`` stays 0 — the honest cost
        of a candidate-cache hit.
        """
        from ..ads.variables import variable_by_name
        n_scenes = safe = 0
        for scene in self.scene_rows():   # streamed: count, don't hold
            n_scenes += 1
            safe += scene.observed_safe
        per_scene = sum(len(variable_by_name(v).corruption_values())
                        for v in variables)
        return MiningReport(n_scenes=n_scenes, n_scored=safe * per_scene,
                            n_critical=len(candidates))

    def _bayesian_plan(self, injector: BayesianFaultInjector | None,
                       variables: tuple[str, ...], threshold: float,
                       top_k: int | None, use_batched: bool,
                       streaming_training: bool = True,
                       interface_probe: tuple[str, ...] = ()):
        from .pipeline import MiningPlan, StagePlan
        caching = injector is None and self.cache_dir is not None
        duration = self.config.fault_duration_ticks

        def job_of(candidate: CandidateFault) -> ExperimentJob:
            return (candidate.scenario,
                    candidate.to_fault_spec(duration_ticks=duration))

        def expand(entries):
            """``(identity, candidate)`` entries -> ``(identity, job)``
            entries, interleaving each candidate's probe jobs after its
            value job.  The value job keeps the candidate's own
            identity (eager dispatch already used it, so it dedups);
            probes get derived identities, dispatched at finalize and
            deduplicated on resume like any other entry.
            """
            expanded = []
            for identity, candidate in entries:
                expanded.append((identity, job_of(candidate)))
                for k, probe in enumerate(
                        self._probe_jobs(candidate, interface_probe)):
                    expanded.append((identity + ("probe", k), probe))
            return expanded

        fold = None
        if injector is None and streaming_training:
            def fold(ctx, scenario, run):
                """Fold one completed golden trace into the trainer.

                Called by the driver in campaign scenario order as
                goldens complete, so training overlaps the rest of
                golden collection; the accumulation order is the
                barrier path's, keeping the fit deterministic.
                """
                trainer = ctx.extras.get("trainer")
                if trainer is None:
                    trainer = BayesianFaultInjector.streaming_trainer(
                        safety_config=self.config.safety)
                    ctx.extras["trainer"] = trainer
                    ctx.extras["train_seconds"] = 0.0
                start = time.perf_counter()
                trainer.add_run(run)
                ctx.extras["train_seconds"] += (time.perf_counter()
                                                - start)

        def prepare(ctx):
            """Finish training, then try the candidate cache.

            Under streaming training the per-trace folds already
            happened as goldens completed and only the O(parameters)
            finalization runs here; the batch oracle fits the whole
            window dataset at this barrier instead.  Returns the ready
            job entries on a candidate-cache hit, else ``None`` to
            request per-scenario mining.
            """
            train_start = time.perf_counter()
            trained = injector
            if trained is None:
                trainer = ctx.extras.get("trainer")
                if trainer is not None and trainer.n_folded:
                    trained = trainer.finish()
                else:
                    trained = BayesianFaultInjector.train(
                        list(ctx.golden.values()),
                        safety_config=self.config.safety)
            ctx.extras["injector"] = trained
            ctx.extras["train_seconds"] = (
                ctx.extras.get("train_seconds", 0.0)
                + time.perf_counter() - train_start)
            if not caching:
                return None
            cache_path = self._candidate_cache_path(variables, threshold,
                                                    top_k)
            if cache_path is None or not cache_path.exists():
                return None
            from .persistence import try_load_candidates
            candidates = try_load_candidates(cache_path)
            if candidates is None:
                return None                       # unreadable -> re-mine
            ctx.extras["candidates"] = candidates
            ctx.extras["mining"] = self._cached_mining_report(candidates,
                                                              variables)
            return expand([(("cache", i), c)
                           for i, c in enumerate(candidates)])

        def mine_scenario(ctx, scenario):
            start = time.perf_counter()
            scenes = self._scenario_scene_rows(scenario,
                                               ctx.golden[scenario.name])
            mined, n_scored, n_scenes = ctx.extras["injector"].\
                mine_scenario_candidates(
                    scenes, variables=variables, threshold=threshold,
                    use_batched=use_batched)
            acc = ctx.extras.setdefault("mining_acc", MiningReport())
            acc.n_scenes += n_scenes
            acc.n_scored += n_scored
            acc.wall_seconds += time.perf_counter() - start
            return mined

        def finalize(ctx):
            """Merge per-scenario mines into the global candidate list.

            Stable-sorting the scenario-ordered concatenation by
            ``predicted_minimum`` reproduces the barrier miner's order
            (its append order is the same concatenation), and ``top_k``
            truncates the global ranking exactly as the barrier does.
            """
            entries = [((s.name, j), candidate)
                       for s in self.scenarios
                       for j, candidate in enumerate(ctx.mined[s.name])]
            entries.sort(key=lambda entry: entry[1].predicted_minimum)
            if top_k is not None:
                entries = entries[:top_k]
            candidates = [candidate for _, candidate in entries]
            ctx.extras["candidates"] = candidates
            acc = ctx.extras.setdefault("mining_acc", MiningReport())
            acc.n_critical = len(candidates)
            ctx.extras["mining"] = acc
            if caching:
                cache_path = self._candidate_cache_path(variables,
                                                        threshold, top_k)
                if cache_path is not None:
                    from .persistence import save_candidates
                    cache_path.parent.mkdir(parents=True, exist_ok=True)
                    save_candidates(candidates, cache_path)
            return expand(entries)

        # Validation of an already-mined scenario may only start before
        # the global merge when nothing global gates the job set: a
        # top_k cut keeps only the best candidates *across* scenarios.
        miner = MiningPlan(prepare=prepare, mine_scenario=mine_scenario,
                           finalize=finalize, job_of=job_of,
                           eager_dispatch=top_k is None, fold=fold)
        key_params = ["bayesian", tuple(variables), float(threshold),
                      top_k, use_batched, injector is None]
        if interface_probe:
            key_params.append(tuple(interface_probe))
        return StagePlan(style="bayesian", golden_scope="all", miner=miner,
                         work_key=self._work_key(*key_params))

    def _candidate_cache_path(self, variables, threshold,
                              top_k) -> Path | None:
        """Cache file for mined candidates under these mining parameters."""
        if self.cache_dir is None:
            return None
        key = hashlib.sha256(repr(
            (tuple(variables), float(threshold), top_k)
        ).encode("utf-8")).hexdigest()[:12]
        return (self.cache_dir
                / f"candidates-{self._fingerprint()}-{key}.json")


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
