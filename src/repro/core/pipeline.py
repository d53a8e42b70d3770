"""Streaming per-scenario campaign pipeline with cross-host sharding.

The paper's workflow is inherently per-scenario — collect a golden run,
mine its scene rows, validate the mined faults.  Run as three global
phases (all golden runs, then all mining, then all validation), one
slow scenario would stall every other scenario's downstream work, so
the campaign driver is a dataflow instead:

* :class:`CampaignPipeline` flows each scenario independently through
  golden -> checkpoint-ladder -> mining -> validation stages over a
  single shared process pool, emitting records to the sink as they
  complete.  Validation of an early scenario overlaps golden collection
  of a late one, and (for Bayesian campaigns) mining of scenario B
  overlaps validation of scenario A.
* What to run comes from a plan (:mod:`repro.core.plans`).  Every
  style answers the same hooks, and the driver dispatches whatever
  entries they return in one path, never asking which kind of job
  source a plan has.

Equivalence guarantee
---------------------
A campaign emits a record stream **bit-for-bit identical to the
reference loop** — serial :func:`~repro.core.parallel.execute_experiment`
with full replay, one job after another in the style's job order
(scenario-major grid order for exhaustive campaigns, seeded draw order
for random/architectural, sorted-candidate order for Bayesian) — order
included, wall clock aside.  Checkpoint forks and fused batches are
test-enforced bit-identical to full replay, and an ordered emitter
releases records in job order no matter when they complete.
Execution order is opportunistic; emission order is not.  The serial
driver and every pool worker validate through one routine,
:func:`_validate`, and differ only in how they pick each job's fork, so
a job that keeps raising quarantines its own slot alone either way.

Two documented barriers remain inside otherwise-streaming plans, both
inherent to the semantics: seeded random/architectural draws interleave
scenarios, so their *job generation* (not validation) waits for every
tick list; and Bayesian training fits one model over every golden
trace.  A ``top_k`` cut ranks candidates across scenarios, so dispatch
then waits for the global merge; without it validation starts the
moment a scenario is mined.

Cross-host sharding
-------------------
``CampaignConfig.shard_index/shard_count`` partitions the campaign
round-robin by scenario index; each shard is an independent process
(host) that writes its own record stream and its own golden/checkpoint
caches under ``cache_dir``, and ``repro merge`` (:func:`repro.core
.persistence.merge_record_shards`) folds the shard streams into a
summary equal to the unsharded run.  Per style:

* random / exhaustive / architectural — a shard simulates golden runs
  only for the scenarios it owns and validates only its own jobs.  The
  global seeded draw is reproduced locally from *schedule-derived* tick
  lists (:meth:`Campaign.schedule_injection_ticks`); for every scenario
  a shard does simulate, the plan asserts the golden trace reached
  exactly the scheduled ticks, so the shard union provably equals the
  unsharded job set.
* bayesian — training needs every golden trace, so each shard collects
  the full golden set and mines globally (mining is the cheap stage);
  only checkpoint ladders and validation — the expensive stage — are
  partitioned.  Architectural outcome counts are likewise global (every
  shard reproduces the same draw sequence).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..ads.batch import can_fuse
from ..ads.profiling import STAGE_TIMER
from ..sim.scenario import Scenario
from . import parallel
from .checkpoint import CheckpointStore
from .parallel import (_golden_run, _picklable, _policy, _pool_context,
                       _warn_serial_fallback, execute_experiment,
                       execute_experiment_batch)
from .resilience import (CampaignExecutionError, LeaseBoard,
                         SupervisedExecutor, failure_record,
                         run_supervised_serial)
from .results import CampaignSummary, ExperimentRecord

if TYPE_CHECKING:  # avoid a circular import with .campaign
    from .campaign import Campaign, CampaignConfig
    from .plans import Plan
    from .simulate import RunResult


@dataclass(frozen=True)
class PipelineProgress:
    """One progress event: ``stage`` is golden/train/mined/validated."""

    stage: str
    scenario: str | None
    done: int
    total: int | None


# -- worker-process side -------------------------------------------------------
#
# One pool serves golden collection and validation, so workers exist
# before any checkpoint ladder does.  Ladders reach workers through a
# spool directory (the persisted-store layout of CheckpointStore): the
# driver saves each scenario's ladder before dispatching its first
# validation chunk, and workers load lazily per scenario.  A load that
# loses a race falls back to full replay — bit-identical, just slower.

_PIPELINE_STATE: "_WorkerState | None" = None


class _WorkerState:
    def __init__(self, scenarios: list[Scenario], config: "CampaignConfig",
                 spool: str, trace_spool: str | None = None):
        self.by_name = {s.name: s for s in scenarios}
        self.config = config
        self.spool = Path(spool)
        self.trace_spool = trace_spool
        self.store = CheckpointStore()
        self.loaded: set[str] = set()

    def forks_for(self, items: list) -> list:
        """The checkpoint each ``(key, scenario name, fault)`` item
        forks from, picked from the worker's long-lived store (each
        scenario's ladder loaded from the spool once per worker)."""
        for _, name, _ in items:
            if name not in self.loaded:
                self.loaded.add(name)
                self.store.load_scenario(self.spool, name)
        return [self.store.nearest(name, fault.start_tick)
                for _, name, fault in items]


def _init_pipeline_worker(scenarios: list[Scenario],
                          config: "CampaignConfig",
                          spool: str,
                          trace_spool: str | None = None) -> None:
    global _PIPELINE_STATE
    _PIPELINE_STATE = _WorkerState(scenarios, config, spool, trace_spool)
    STAGE_TIMER.enabled = config.profile_stages


def _profiled(job: tuple[Callable, object]) -> tuple:
    """``fn(payload)`` in a pool worker, with the job's stage counts.

    Returns ``(value, counts)``: ``counts`` is this worker's
    :meth:`~repro.ads.profiling.StageTimer.counts` for the job alone
    (the timer is zeroed first, dropping whatever a fork inherited or
    a failed job left), or ``None`` when profiling is off.  The driver
    adds them to its own timer.
    """
    fn, payload = job
    if not STAGE_TIMER.enabled:
        return fn(payload), None
    STAGE_TIMER.reset()
    value = fn(payload)
    return value, STAGE_TIMER.counts()


def _pipeline_golden_job(job: tuple[str, tuple[int, ...] | None,
                                    int | None]) -> "RunResult":
    assert _PIPELINE_STATE is not None, "pipeline pool not initialized"
    name, capture, end_tick = job
    return _golden_run(_PIPELINE_STATE.by_name[name],
                       _PIPELINE_STATE.config,
                       list(capture) if capture is not None else None,
                       _PIPELINE_STATE.trace_spool, end_tick)


def _parts(items: list, size: int) -> list[list]:
    """``items`` in runs of ``size``, the last run taking the remainder.

    A group of at least ``size`` items yields runs of at least ``size``
    (a fused run refills its lanes from the remainder instead of
    leaving it a short batch); a smaller group is one run.
    """
    count = max(1, len(items) // size)
    bounds = [i * size for i in range(count)] + [len(items)]
    return [items[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _split_engines(config: "CampaignConfig", items: list
                   ) -> tuple[list, list]:
    """``(key, scenario name, fault)`` items as ``(fused, scalar)``.

    The engine is picked before any lane is built, and the same for
    every item: all of them run fused when the ADS configuration is
    fusable (:func:`~repro.ads.batch.can_fuse`) and there are at least
    :data:`~repro.core.parallel.LANES` of them, whatever their
    scenarios and fault kinds (an interface-fault job joins its batch
    late, after a scalar segment through its fault windows); otherwise
    all of them run the scalar engine.  Records are bit-for-bit the
    same either way.
    """
    if can_fuse(config.ads) and len(items) >= parallel.LANES:
        return list(items), []
    return [], list(items)


def _validation_parts(config: "CampaignConfig", items: list,
                      workers: int) -> list[tuple]:
    """A pooled dispatch's items as parts, one pool task each.

    The fused jobs go out as one wide part per worker, none below the
    lane count (a smaller part would run scalar), and the scalar jobs
    in about four chunks per worker.  Part
    boundaries don't affect record values or emission order (keys
    carry the slots); each worker re-splits its part and reaches the
    same engine choice.
    """
    fused, scalar = _split_engines(config, items)
    wide = max(parallel.LANES, len(fused) // workers)
    chunk = max(1, len(scalar) // (workers * 4))
    return [tuple(part) for part in
            ((_parts(fused, wide) if fused else [])
             + (_parts(scalar, chunk) if scalar else []))]


def _validate(by_name: dict[str, Scenario], config: "CampaignConfig",
              items: list, forks: Callable[[list], list]):
    """Validate ``(key, scenario name, fault)`` items; yields ``(key,
    record)`` pairs.  The one validation routine: the serial driver and
    every pool worker run it.

    ``forks(items)`` picks the checkpoint each item forks from.  The
    fusable items run as one batch
    (:func:`~repro.core.parallel.execute_experiment_batch`), which
    consumes its forks; if it raises, they rerun on the scalar engine
    from tick 0 (full replay, the same records) and
    ``engine.fused_fallbacks`` counts it.  Each scalar item runs under
    :func:`~repro.core.resilience.run_supervised_serial`, so a job that
    keeps raising leaves a failure record in its own slot only.
    """
    fused, scalar = _split_engines(config, items)
    picked = forks(fused + scalar)
    batch_forks, scalar_forks = picked[:len(fused)], picked[len(fused):]
    del picked                   # the batch's list holds its forks alone
    if fused:
        try:
            records = execute_experiment_batch(
                [(by_name[name], fault) for _, name, fault in fused],
                config, batch_forks)
        except Exception:
            STAGE_TIMER.count("engine", "fused_fallbacks", 1)
            scalar = scalar + fused
            scalar_forks += [None] * len(fused)
        else:
            yield from ((key, record)
                        for (key, _, _), record in zip(fused, records))
    policy = _policy(config)
    for (key, name, fault), fork in zip(scalar, scalar_forks):
        record, failure = run_supervised_serial(
            lambda: execute_experiment(by_name[name], config, fault, fork),
            policy, config.seed,
            (name, fault.start_tick, fault.variable, fault.value))
        if failure is not None:
            record = failure_record(name, fault, config, failure)
        yield key, record


def _pipeline_validate_chunk(items) -> list:
    """Validate one part of ``(key, scenario name, fault)`` items in a
    pool worker; returns ``(key, record)`` pairs."""
    assert _PIPELINE_STATE is not None, "pipeline pool not initialized"
    state = _PIPELINE_STATE
    return list(_validate(state.by_name, state.config, items,
                          state.forks_for))


# -- driver side ---------------------------------------------------------------

class _OrderedEmitter:
    """Releases records in job order, the reference loop's order.

    Execution completes in any order and some slots are only known
    late (a scenario's slot base resolves when every earlier scenario's
    job count is in; a mined candidate's slot resolves at the global
    merge), so records are staged by an opaque key until their slot is
    assigned, then drained in slot order.
    """

    def __init__(self, consume: Callable[[ExperimentRecord], None]):
        self._consume = consume
        self._slots: dict = {}
        self._staged: dict = {}
        self._ready: dict[int, ExperimentRecord] = {}
        self._next = 0
        self.total: int | None = None

    def assign(self, key, slot: int) -> None:
        self._slots[key] = slot
        if key in self._staged:
            self._ready[slot] = self._staged.pop(key)
            self._drain()

    def stage(self, key, record: ExperimentRecord) -> None:
        slot = self._slots.get(key)
        if slot is None:
            self._staged[key] = record
        else:
            self._ready[slot] = record
            self._drain()

    @property
    def complete(self) -> bool:
        return self.total is not None and self._next == self.total

    def _drain(self) -> None:
        while self._next in self._ready:
            self._consume(self._ready.pop(self._next))
            self._next += 1


class CampaignPipeline:
    """The streaming driver: one shared pool, per-scenario dataflow.

    Not reentrant — build one per :meth:`run`.  ``workers`` of ``None``,
    0, or 1 executes the same dataflow serially in-process (the
    degenerate pipeline), which is also the fallback when no process
    pool can be built (e.g. spawn-only platforms with unpicklable
    caller-supplied scenarios).
    """

    def __init__(self, campaign: "Campaign", workers: int | None = None,
                 record_sink=None, on_progress=None,
                 start_method: str | None = None):
        self.campaign = campaign
        self.config = campaign.config
        self.workers = workers
        self.record_sink = record_sink
        self.on_progress = on_progress
        self.start_method = start_method

    # -- public entry ----------------------------------------------------------

    def run(self, plan: "Plan"):
        """Drive ``plan`` to completion; returns ``plan.finish(summary)``.

        With ``config.profile_stages`` the process-global stage timer is
        reset and armed for the run, always disarmed on exit (including
        on error), and its report lands in the summary's
        ``extra_info['stage_timings']``.
        """
        profile = self.config.profile_stages
        if profile:
            STAGE_TIMER.reset()
            STAGE_TIMER.enabled = True
        try:
            if self.config.resilience.lease_mode and plan.work_key:
                summary = self._run_leased(plan)
            else:
                summary = self._run_once(plan)
        finally:
            if profile:
                STAGE_TIMER.enabled = False
        report = STAGE_TIMER.report() if profile else None
        if report:
            summary.extra_info["stage_timings"] = report
        return plan.finish(summary)

    def _run_leased(self, plan: "Plan") -> CampaignSummary:
        """Dynamic multi-host mode: claim scenarios via TTL leases.

        Every cooperating host runs the same campaign against a shared
        ``cache_dir``; a :class:`~repro.core.resilience.LeaseBoard`
        hands each host an exclusive, heartbeat-renewed claim on a
        subset of scenarios per round.  A host that dies stops renewing
        its leases, so its scenarios are re-claimed by survivors — the
        dynamic replacement for static ``shard_index`` partitioning.
        Each round publishes its per-scenario record files atomically
        (publication doubles as the done marker); the returned summary
        is folded from the full published set, so every surviving host
        reports the global aggregates and ``repro merge`` over the
        board's record files reproduces the single-host stream.
        """
        from .persistence import iter_records_jsonl
        campaign = self.campaign
        res = self.config.resilience
        if campaign.cache_dir is None:
            raise ValueError(
                "lease mode needs a cache_dir shared by the "
                "cooperating hosts")
        if self.config.shard_count > 1:
            raise ValueError(
                "lease mode replaces static sharding; run with "
                "shard_count=1")
        board = LeaseBoard(campaign._lease_board_dir(plan.work_key),
                           style=plan.style, ttl=res.lease_ttl)
        names = [s.name for s in campaign.scenarios]
        rounds = 0
        while True:
            claimable = [name for name in names if board.try_claim(name)]
            if claimable:
                owned = [campaign._by_name[name] for name in claimable]
                try:
                    self._run_once(plan, owned=owned, board=board)
                except BaseException:
                    board.release_all()
                    raise
                rounds += 1
                for name in claimable:
                    board.publish(name, self._lease_records.get(name, []))
                    board.release(name)
            elif all(board.is_done(name) for name in names):
                break
            else:
                time.sleep(res.lease_poll)
        if rounds == 0:
            # This host claimed nothing, but a plan's result (fitted
            # injector, outcome counts) derives from the golden set, not
            # from owned validation work — run an empty-owned round to
            # reproduce it.
            self._run_once(plan, owned=[], board=board)
        summary = CampaignSummary(keep_records=False)
        for path in board.record_paths(names):
            for record in iter_records_jsonl(path):
                summary.add(record)
        return summary

    def _run_once(self, plan: "Plan",
                  owned: "list[Scenario] | None" = None,
                  board: LeaseBoard | None = None) -> CampaignSummary:
        campaign = self.campaign
        self.plan = plan
        self.board = board
        self.sharded = self.config.shard_count > 1 or board is not None
        if owned is None:
            owned = campaign.owned_scenarios()
        self._owned_names = {s.name for s in owned}
        self._owned_order = [s.name for s in owned]
        if plan.golden_scope == "all":
            self._targets = list(campaign.scenarios)
        else:
            self._targets = owned
        self._targets_all = len(self._targets) == len(campaign.scenarios)
        self.golden: dict[str, RunResult] = {}
        plan.start(self)

        self._summary = CampaignSummary(
            keep_records=self.record_sink is None)
        self._emitter = _OrderedEmitter(self._consume)
        self._emitted = 0
        self._golden_done = 0
        store = campaign.golden_trace_store()
        self._trace_spool = store.root if store is not None else None
        self._checkpoints_ready: set[str] = set()
        self._dispatched_keys: set = set()
        self._lease_records: dict[str, list[ExperimentRecord]] = {}
        # per-scenario block -> slot-base bookkeeping
        self._blocks: dict[int, list] = {}
        self._next_block = 0
        self._base = 0

        self._pool = None
        self._spool = campaign._ladder_spool_dir()
        self._journal = (None if board is not None or not plan.work_key
                         else campaign._open_journal(plan.work_key))
        interrupted = False
        try:
            warm, to_simulate = self._prepare_golden()
            self._start_pool()
            if not self._targets:
                self._on_goldens_complete()
            for name in warm:                      # scenario order
                self._handle_golden(name, self.golden[name])
            for name, capture, end_tick in to_simulate:
                self._submit_golden(name, capture, end_tick)
            self._event_loop()
        except BaseException:
            # On interrupt or failure, kill workers rather than wait
            # for in-flight chunks; the journal keeps the completed
            # prefix, so --resume continues where the stream stopped.
            interrupted = True
            raise
        finally:
            if self._pool is not None:
                self._pool.shutdown(kill=interrupted)
            if self._journal is not None:
                self._journal.close()
        if not self._emitter.complete:
            raise RuntimeError(
                f"pipeline emitted {self._emitted} of "
                f"{self._emitter.total} records — driver bug")
        return self._summary

    # -- golden stage ----------------------------------------------------------

    def _prepare_golden(self):
        """Split golden targets into warm (already available) and to-run.

        Warm sources, in order: golden runs already on the campaign
        object, then the golden-trace cache under ``cache_dir`` (the
        full-set file, or this shard's subset file when the plan only
        needs owned scenarios), whose runs of the plan's whole golden
        scope are kept so that a save writes them back.  A plan
        whose jobs are known before its golden runs (its ``demand()``
        is not ``None``) reuses cut runs too; a plan that reads whole
        traces (Bayesian training, golden-only collection) treats a cut
        run as a miss and simulates that scenario again in full.

        Returns ``(warm names, [(name, capture ticks, end tick)])``.
        Job-known plans simulate no golden run for a scenario they have
        no job in (nothing reads it: their jobs, ladders and tick lists
        name only scenarios with jobs), end each fresh run at its last
        forkable tick (:meth:`_golden_end`) and capture only the ticks
        their jobs fork from; the others run to the scenario's end and
        capture the schedule ladder only if the plan keeps one
        (``Plan.schedule_ladder``).  Every other ladder is captured
        on demand at dispatch (:meth:`_ready_checkpoints`).
        """
        campaign = self.campaign
        jobs = self.plan.demand()
        demand = None if jobs is None else {}    # name -> fork ticks
        for name, fault in jobs or ():
            if name in self._owned_names:
                demand.setdefault(name, set()).add(fault.start_tick)
        scope = [s.name for s in self._targets]
        if demand is not None:
            self._targets = [s for s in self._targets if s.name in demand]
            self._owned_order = [name for name in self._owned_order
                                 if name in demand]
        names = [s.name for s in self._targets]
        golden = self.golden
        cut: set[str] = set()

        def take(runs) -> None:
            for name in names:
                run = runs.get(name)
                if name in golden or run is None:
                    continue
                if demand is not None or run.cut_tick is None:
                    golden[name] = run
                else:
                    cut.add(name)

        take(campaign._golden or {})
        take(campaign._golden_shard or {})
        self._cached = {}
        if len(golden) < len(names):
            self._cached = campaign._load_golden_cache_for(
                scope, sharded=not self._targets_all, partial=True) or {}
            take(self._cached)
        warm = [name for name in names if name in golden]
        self._fresh_golden = len(warm) < len(names)
        if not self._fresh_golden:
            return warm, []
        to_simulate = []
        for scenario in self._targets:
            name = scenario.name
            if name in golden:
                continue
            capturing = (name in self._owned_names
                         and not campaign.checkpoints.has_scenario(name))
            if demand is None:
                # Completing a cut run, or one a job-known plan skipped
                # (the only way a memo lacks a scenario), captures
                # nothing: that campaign made the ladders its jobs
                # needed, and dispatch recaptures what later jobs need.
                completing = name in cut or (
                    campaign._golden is not None
                    and name not in campaign._golden)
                capture = (campaign.schedule_injection_ticks(scenario)
                           if capturing and not completing
                           and self.plan.schedule_ladder else None)
                to_simulate.append((name, capture, None))
                continue
            ticks = sorted(demand.get(name, ()))
            if capturing:
                STAGE_TIMER.count("checkpoint", "demanded_ticks",
                                  len(ticks))
            to_simulate.append((name, ticks if capturing else None,
                                self._golden_end(scenario, ticks)))
        return warm, to_simulate

    def _golden_end(self, scenario: Scenario, ticks: list[int]
                    ) -> int | None:
        """One past the last tick a job-known golden run must reach.

        That is the later of the last schedule tick and the last tick a
        job forks from (``ticks``, sorted; a ``run_jobs`` job may lie
        past the window): every trace row, eligible tick and snapshot
        the campaign reads comes before it.  ``None`` (run to the end)
        when neither exists.
        """
        last = self.campaign.schedule_injection_ticks(scenario)[-1:] \
            + ticks[-1:]
        return max(last) + 1 if last else None

    def _submit_golden(self, name: str, capture: list[int] | None,
                       end_tick: int | None) -> None:
        if self._pool is None:
            run, failure = run_supervised_serial(
                lambda: _golden_run(self.campaign._by_name[name],
                                    self.config, capture,
                                    self._trace_spool, end_tick),
                _policy(self.config), self.config.seed, ("golden", name))
            if failure is not None:
                raise CampaignExecutionError(
                    f"golden run of scenario {name!r} failed after "
                    f"{failure.attempts} attempt(s): {failure.error}: "
                    f"{failure.message}")
            self._handle_golden(name, run)
        else:
            job = (name, tuple(capture) if capture is not None else None,
                   end_tick)
            self._pool.submit(_profiled, (_pipeline_golden_job, job),
                              tag=("golden", name))

    def _handle_golden(self, name: str, run: "RunResult") -> None:
        campaign = self.campaign
        self.golden[name] = run
        if run.checkpoints:
            store = campaign.checkpoints
            resident = store.has_scenario(name)
            store.add_all(run.checkpoints)
            # Spill the fresh ladder the moment it lands and drop it
            # (plus the RunResult's reference) from memory: driver-
            # resident ladder state stays O(one scenario) instead of
            # O(campaign).  Dispatch reloads from the spool; when
            # cache_dir is set the spool *is* the persistent checkpoint
            # cache, so this eager save also replaces a batch
            # persistence pass.  Ladders the campaign already held in
            # memory (golden_runs() or run_fault) stay resident — they
            # belong to the caller.
            store.save_scenario(self._spool, name)
            self._checkpoints_ready.add(name)
            if not resident:
                store.drop_scenario(name)
                run.checkpoints = []
        if self.board is not None:
            self.board.heartbeat()
        self._golden_done += 1
        self.progress("golden", name, self._golden_done,
                      len(self._targets))
        entries = self.plan.on_golden(campaign._by_name[name], run)
        if name in self._owned_order:
            self._add_block(name, entries)
        if self._golden_done == len(self._targets):
            self._on_goldens_complete()

    def _on_goldens_complete(self) -> None:
        """Take the plan's remaining entries, ordered after every block."""
        # Reinstate campaign scenario order (completion order is not
        # deterministic) before anything iterates the dict.
        self.golden = {s.name: self.golden[s.name] for s in self._targets}
        self._persist_golden()
        owned = [(identity, job) for identity, job in self.plan.jobs_ready()
                 if job[0] in self._owned_names]
        drawn = {job[0] for _, job in owned}
        late = [s for s in self.campaign.scenarios
                if s.name in drawn and s.name not in self.golden]
        if late:
            # A golden run that ended early changed the real draw, and
            # it now has jobs in a scenario the schedule-based demand
            # gave none.  Run those golden runs in full, then draw
            # again: this method runs once more when they are in.
            # Their ``on_golden`` entries are empty (only an uncapped
            # exhaustive grid streams any, and its demand covers every
            # scenario with ticks), so they add no block.
            self._fresh_golden = True
            late_names = {s.name for s in late}
            self._targets = [s for s in self.campaign.scenarios
                             if s.name in late_names
                             or s.name in self.golden]
            for scenario in late:
                self._submit_golden(scenario.name, None, None)
            return
        self._emitter.total = self._base + len(owned)
        for slot, (identity, _) in enumerate(owned, start=self._base):
            self._emitter.assign(identity, slot)
        self.dispatch(owned)

    def _persist_golden(self) -> None:
        campaign = self.campaign
        if self._targets_all:
            # At least as complete as any earlier memo: a run is only
            # re-simulated when the memo lacked it or held it cut.  A
            # job-known plan collects only the scenarios it has jobs
            # in, so the memo can hold fewer runs than scenarios;
            # ``golden_runs()`` completes it.
            campaign._golden = self._in_scenario_order(
                self._cached, campaign._golden or {}, self.golden)
            if self._fresh_golden:
                campaign._save_golden_cache()
            return
        campaign._golden_shard = self._in_scenario_order(
            self._cached, campaign._golden_shard or {}, self.golden)
        if not self._fresh_golden or self.board is not None:
            # Lease rounds own a different subset each time, so the
            # statically-partitioned per-shard cache file would go
            # stale; leased runs rely on the in-memory memo and the
            # full-set cache instead.
            return
        path = campaign._golden_cache_path(sharded=True)
        if path is not None:
            from .persistence import save_golden_traces
            path.parent.mkdir(parents=True, exist_ok=True)
            save_golden_traces(
                self._in_scenario_order(self._cached, self.golden), path,
                campaign._fingerprint(), campaign.golden_trace_store())

    def _in_scenario_order(self, *layers: dict) -> dict:
        """The union of run dicts, later layers winning, in campaign
        scenario order."""
        merged = {}
        for layer in layers:
            merged.update(layer)
        return {s.name: merged[s.name] for s in self.campaign.scenarios
                if s.name in merged}

    # -- job streaming ---------------------------------------------------------

    def _add_block(self, name: str, entries: list) -> None:
        """Register one owned scenario's ``on_golden`` entries; dispatch
        now, emit in order.

        Blocks occupy consecutive slot ranges in owned-scenario order,
        ahead of the ``jobs_ready`` entries.  Execution starts
        immediately; slots — and therefore emission — resolve as soon
        as every earlier block's size is known.
        """
        self._blocks[self._owned_order.index(name)] = [
            identity for identity, _ in entries]
        self.dispatch(entries)
        while self._next_block in self._blocks:
            for identity in self._blocks.pop(self._next_block):
                self._emitter.assign(identity, self._base)
                self._base += 1
            self._next_block += 1

    def dispatch(self, entries: list) -> None:
        """Execute the owned, not yet dispatched ``(identity, job)``
        entries.

        Per scenario, in order of appearance, journal hits are claimed
        and the ladder is readied; then the engines are split once over
        every remaining item, so the fusable jobs of all the scenarios
        run together (one wide batch when serial, one wide part per
        worker when pooled).
        """
        groups: dict[str, list] = {}
        for identity, (name, fault) in entries:
            if name in self._owned_names \
                    and identity not in self._dispatched_keys:
                groups.setdefault(name, []).append((identity, fault))
        items = []
        for name, group in groups.items():
            self._dispatched_keys.update(key for key, _ in group)
            fresh = self._claim_journaled(name, group)
            if fresh:
                self._ready_checkpoints(name, fresh)
                items.extend((key, name, fault) for key, fault in fresh)
        if not items:
            return
        if self._pool is None:
            self._dispatch_serial(items)
            return
        policy = _policy(self.config)
        for part in _validation_parts(self.config, items, self.workers):
            timeout = (policy.job_timeout * len(part)
                       if policy.job_timeout is not None else None)
            self._pool.submit(_profiled, (_pipeline_validate_chunk,
                                          list(part)),
                              tag=("validate", part), timeout=timeout)

    # -- validation stage ------------------------------------------------------

    def _claim_journaled(self, name: str, items: list) -> list:
        """Emit the journal's records for ``items`` (``(key, fault)``
        pairs of one scenario); returns the items still to run."""
        if self._journal is None:
            return items
        fresh = []
        for key, fault in items:
            hit = self._journal.claim(name, fault, self.config.seed)
            if hit is not None:
                self._emitter.stage(key, hit)
            else:
                fresh.append((key, fault))
        return fresh

    def _dispatch_serial(self, items: list) -> None:
        """Validate ``(key, scenario name, fault)`` items in-process,
        journaling each record as it arrives."""
        for key, record in _validate(self.campaign._by_name, self.config,
                                     items, self._fork_checkpoints):
            self._record_done(key, record)

    def _fork_checkpoints(self, items: list) -> list:
        """The checkpoint each ``(key, scenario name, fault)`` item forks
        from (``None`` where its ladder has none).

        Serial twin of the worker-side spool protocol: each scenario's
        ladder is reloaded from the spool (unless the campaign holds it
        resident), the checkpoint nearest each item's fault tick is
        kept, and the ladder is evicted again, so at most one ladder is
        resident at a time.
        """
        store = self.campaign.checkpoints
        forks = [None] * len(items)
        wanted: dict[str, list] = {}
        for index, (_, name, fault) in enumerate(items):
            wanted.setdefault(name, []).append((index, fault.start_tick))
        for name, places in wanted.items():
            loaded_here = (not store.has_scenario(name)
                           and store.load_scenario(self._spool, name))
            for index, tick in places:
                forks[index] = store.nearest(name, tick)
            if loaded_here:
                store.drop_scenario(name)
        return forks

    def _record_done(self, key, record: ExperimentRecord) -> None:
        if self._journal is not None:
            self._journal.append(record)
        self._emitter.stage(key, record)

    def _ready_checkpoints(self, name: str, items: list) -> None:
        """Make a scenario's ladder available in the spool before dispatch.

        Freshly captured ladders are spilled by :meth:`_handle_golden`;
        this covers warm-started scenarios and golden runs that
        captured nothing (a Bayesian plan's, whose jobs exist only
        after mining).  A spilled ladder holding every tick ``items``
        fork from (that the golden run reached) is used as it is;
        otherwise one prefix run that stops after the last of them
        captures them, or the union of its ticks and theirs
        (:meth:`Campaign._ensure_checkpoints`).  Persistence is per
        scenario (:meth:`CheckpointStore.save_scenario`), so a campaign
        touching k of n scenarios costs O(k) ladder writes.
        """
        if name in self._checkpoints_ready:
            return
        self._checkpoints_ready.add(name)
        run = self.golden[name]
        # A cut run stopped short of ticks a complete run goes on to
        # reach, so only its scenario's end bounds the capture.
        reached = round((self.campaign._by_name[name].duration
                         if run.cut_tick is not None else run.sim_seconds)
                        / self.config.ads.control_period)
        wanted = {fault.start_tick for _, fault in items
                  if 0 <= fault.start_tick < reached}
        STAGE_TIMER.count("checkpoint", "demanded_ticks", len(wanted))
        saved = CheckpointStore.saved_ticks(self._spool).get(name)
        if saved is not None and wanted.issubset(saved):
            return
        store = self.campaign.checkpoints
        resident = store.has_scenario(name)
        self.campaign._ensure_checkpoints([name], {name: wanted})
        if resident:
            store.save_scenario(self._spool, name)   # caller's, kept
        else:
            store.drop_scenario(name)

    # -- execution engine ------------------------------------------------------

    def _start_pool(self) -> None:
        campaign = self.campaign
        workers = self.workers
        context = _pool_context(self.start_method) \
            if workers and workers > 1 else None
        if context is None:
            return
        self._spool.mkdir(parents=True, exist_ok=True)
        initargs = (campaign.scenarios, self.config, str(self._spool),
                    str(self._trace_spool)
                    if self._trace_spool is not None else None)
        if context.get_start_method() != "fork" \
                and not _picklable(*initargs):
            _warn_serial_fallback(context.get_start_method(),
                                  scenarios=campaign.scenarios,
                                  config=self.config)
            return
        self._pool = SupervisedExecutor(workers, context,
                                        initializer=_init_pipeline_worker,
                                        initargs=initargs,
                                        policy=_policy(self.config),
                                        seed=self.config.seed)

    def _event_loop(self) -> None:
        while self._pool is not None and self._pool.outstanding:
            events = self._pool.next_events(
                max_wait=0.5 if self.board is not None else None)
            if self.board is not None:
                self.board.heartbeat()
            for tag, value, failure in events:
                if failure is None:
                    value, counts = value
                    if counts is not None:
                        STAGE_TIMER.absorb(counts)
                if tag[0] == "golden":
                    name = tag[1]
                    if failure is not None:
                        # Golden runs are the oracle every downstream
                        # stage reads; quarantining one would corrupt
                        # the campaign, so a persistent golden failure
                        # is fatal regardless of --strict.
                        raise CampaignExecutionError(
                            f"golden run of scenario {name!r} failed "
                            f"after {failure.attempts} attempt(s): "
                            f"{failure.error}: {failure.message}")
                    self._handle_golden(name, value)
                else:
                    _, part = tag
                    if failure is not None:
                        for key, name, fault in part:
                            self._record_done(
                                key, failure_record(name, fault,
                                                    self.config, failure))
                    else:
                        for key, record in value:
                            self._record_done(key, record)

    def _consume(self, record: ExperimentRecord) -> None:
        self._emitted += 1
        self._summary.add(record)
        if self.board is not None:
            self._lease_records.setdefault(record.scenario,
                                           []).append(record)
        if self.record_sink is not None:
            self.record_sink.add(record)
        self.progress("validated", record.scenario, self._emitted,
                      self._emitter.total)

    def progress(self, stage, scenario, done, total) -> None:
        if self.on_progress is not None:
            self.on_progress(PipelineProgress(stage=stage,
                                              scenario=scenario,
                                              done=done, total=total))
