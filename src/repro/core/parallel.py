"""Experiment execution primitives shared by the campaign driver.

Each experiment is an independent closed-loop simulation, so campaign
validation parallelizes embarrassingly — and so does golden-trace
collection, where each scenario's fault-free run (and its checkpoint
ladder) is independent of every other's.  The streaming driver in
:mod:`repro.core.pipeline` fans both over one supervised process pool;
this module holds what every execution path shares:

* :func:`execute_experiment` — the single source of experiment truth:
  one fault, one scalar simulation, one record, forked from the
  checkpoint its caller picked (or replayed from tick 0 without one).
  The driver's validation routine, :meth:`repro.core.campaign.Campaign
  .run_fault`, and the reference loop the equivalence tests compare
  against all call it.
* :func:`execute_experiment_batch` — its vectorized sibling for sets of
  at least :data:`LANES` jobs of any mix of scenarios and fault kinds
  under a fusable ADS configuration (:func:`repro.ads.batch.can_fuse`),
  up to :data:`MAX_LANES` of them live at once, bit-for-bit the scalar
  records; an interface-fault job runs scalar through its fault
  windows and joins the batch at its hand-off tick.  It consumes the
  list of forks it is handed.

Both are called from one place, the validation routine
:func:`repro.core.pipeline._validate`, which the serial driver and
every pool worker run alike: a job that keeps raising quarantines only
its own record, wherever it runs.  Only a worker crash or a timeout
fails a whole pool part, since neither can be traced to one job.
* :func:`_golden_run` — one scenario's fault-free trace plus the
  checkpoint ladder validation forks from.
* :func:`_pool_context`/:func:`_picklable` — the start-method choice
  and the spawn-unpicklable serial fallback.

Scenario builders are ``functools.partial`` bindings of module-level
functions, so scenarios pickle and pools work under any start method:
``fork`` is preferred (workers inherit shared state for free), with
``spawn`` as the fallback on platforms without ``fork``.  If the pool's
initializer arguments cannot be pickled under a non-fork start method
(e.g. caller-supplied closure scenarios), execution falls back to
serial in-process with a one-line ``RuntimeWarning`` naming the
unpicklable argument.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from ..ads.profiling import STAGE_TIMER
from ..sim.scenario import Scenario
from .checkpoint import Checkpoint
from .resilience import ResilienceConfig
from .results import ExperimentRecord
from .simulate import (FaultSpec, RunResult, run_experiments_batched,
                       run_scenario, run_scenario_from_checkpoint)

if TYPE_CHECKING:  # avoid a circular import with .campaign
    from .campaign import CampaignConfig

#: Job description: (scenario name, fault to inject).
ExperimentJob = tuple[str, FaultSpec]

#: The job count at which fusion starts.  Under a fusable ADS
#: configuration the driver validates the jobs of one dispatch, whatever
#: their scenarios and fault kinds, with :func:`execute_experiment_batch`
#: when there are at least ``LANES`` of them, as one wide batch; a
#: smaller dispatch runs the scalar loop.  Read through the module at
#: call time, so tests can patch it.
LANES = 16

#: Most live lanes of one fused batch; a larger job set refills retired
#: slots from its pending jobs.  The rule: the smallest width whose
#: seconds per job are within 5% of the fastest measured width's.
#: ``benchmarks/test_bench_batch_width`` sweeps it, one wave of as many
#: ``lead_vehicle_cutin`` jobs as lanes per width, and reports the width
#: the rule picks.  On a 2-vCPU Xeon VM (``BENCH_batchsim.json``, median
#: of 3 interleaved rounds) it measured 7.81, 2.98, 2.16, 1.97, 1.86 and
#: 1.91 ms per job at 16, 64, 128, 256, 512 and 1024 lanes: 256 is 6%
#: slower than 512, and 1024 no faster.  Two more sweeps there put 256
#: 6% and 10% behind the fastest width.  A fused tick's fixed cost is
#: paid once per wave, so a dispatch of up to this many jobs runs in
#: one.  Read through the module at call time.
MAX_LANES = 512


def _to_record(result: RunResult, scenario_name: str, fault: FaultSpec,
               config: "CampaignConfig") -> ExperimentRecord:
    return ExperimentRecord(
        scenario=scenario_name, injection_tick=fault.start_tick,
        variable=fault.variable, value=fault.value,
        duration_ticks=fault.duration_ticks, seed=config.seed,
        hazard=result.hazard, landed=result.landed,
        pre_delta_long=result.pre_delta_long,
        pre_delta_lat=result.pre_delta_lat,
        min_delta_long=result.min_delta_long,
        min_delta_lat=result.min_delta_lat,
        sim_seconds=result.sim_seconds,
        wall_seconds=result.wall_seconds,
        kind=fault.kind, channel=fault.channel,
        degraded=result.degraded)


def execute_experiment(scenario: Scenario, config: "CampaignConfig",
                       fault: FaultSpec,
                       checkpoint: Checkpoint | None = None
                       ) -> ExperimentRecord:
    """Run one injection experiment and record the outcome.

    The single source of truth for experiment execution: the driver's
    validation routine (serial or in a pool worker),
    :meth:`repro.core.campaign.Campaign.run_fault`, and the reference
    loop all call this, which is what makes parallel and serial
    campaigns produce identical records.

    The caller picks the fork: with a ``checkpoint`` (the golden
    snapshot nearest at or before the fault tick) the run simulates
    only the fault window plus the post-fault horizon; without one, or
    when its seed does not match, it replays from tick 0 — the
    reference oracle.
    """
    STAGE_TIMER.count("engine", "scalar_jobs", 1)
    if checkpoint is not None and checkpoint.seed == config.seed:
        result = run_scenario_from_checkpoint(
            scenario, checkpoint, ads_config=config.ads, faults=[fault],
            safety_config=config.safety,
            horizon_after_fault=config.horizon_after_fault,
            record_trace=False)
    else:
        result = run_scenario(
            scenario, ads_config=config.ads, seed=config.seed,
            faults=[fault], safety_config=config.safety,
            horizon_after_fault=config.horizon_after_fault,
            record_trace=False)
    return _to_record(result, scenario.name, fault, config)


def execute_experiment_batch(jobs: list[tuple[Scenario, FaultSpec]],
                             config: "CampaignConfig",
                             forks: list[Checkpoint | None] | None = None
                             ) -> list[ExperimentRecord]:
    """Run several experiments, one ``(scenario, fault)`` job each,
    through the batched engine.

    The vectorized sibling of ``len(jobs)`` calls to
    :func:`execute_experiment`: lanes of any scenarios share one
    :class:`~repro.sim.batch.BatchWorldState` and advance under the
    fused numpy kernels.  ``forks`` is the checkpoint each job forks
    from (``None`` for full replay), aligned with ``jobs``; the batch
    consumes it, clearing each entry as its lane forks, so a
    checkpoint is freed once its last lane has forked.  Without
    ``forks`` every lane replays from tick 0.  At most
    :data:`MAX_LANES` lanes are live; a retired lane's slot takes the
    next pending job.  The ADS configuration must be fusable
    (:func:`repro.ads.batch.can_fuse`); an interface-fault job runs the
    scalar loop up to its hand-off tick and joins the batch there.
    Records are bit-for-bit the scalar records, in ``jobs`` order (wall
    clock aside).
    """
    if forks is None:
        forks = [None] * len(jobs)
    forks[:] = [fork if fork is not None and fork.seed == config.seed
                else None for fork in forks]
    results = run_experiments_batched(
        [scenario for scenario, _ in jobs],
        [[fault] for _, fault in jobs],
        ads_config=config.ads, safety_config=config.safety,
        seed=config.seed, checkpoints=forks,
        horizon_after_fault=config.horizon_after_fault,
        batch_size=MAX_LANES)
    STAGE_TIMER.count("engine", "fused_jobs", len(jobs))
    # A fused dispatch runs no job scalar; the row keeps the key.
    STAGE_TIMER.count("engine", "scalar_jobs", 0)
    return [_to_record(result, scenario.name, fault, config)
            for result, (scenario, fault) in zip(results, jobs)]


def _golden_run(scenario: Scenario, config: "CampaignConfig",
                capture_ticks: list[int] | None,
                trace_spool: str | Path | None = None,
                end_tick: int | None = None) -> RunResult:
    """One scenario's fault-free reference run (+ checkpoint ladder).

    ``end_tick`` stops the run there (one past its last forkable tick,
    when the campaign's jobs are known in advance); the result is then
    marked cut (``RunResult.cut_tick``) unless it ended sooner.  With a
    ``trace_spool`` directory the trace is written to the
    columnar :class:`repro.sim.TraceStore` spool *worker-side* and the
    returned result carries a memory-mapped handle instead of the
    samples — what keeps the parent's golden set O(file handles) and
    makes the pool result pickle tiny.
    """
    result = run_scenario(
        scenario, ads_config=config.ads, seed=config.seed,
        safety_config=config.safety, record_trace=True,
        checkpoint_ticks=capture_ticks, end_tick=end_tick)
    dt = config.ads.control_period
    ticks = round(result.sim_seconds / dt)
    STAGE_TIMER.count("golden", "runs", 1)
    STAGE_TIMER.count("golden", "ticks", ticks)
    STAGE_TIMER.count("golden", "cut_ticks",
                      round(scenario.duration / dt) - ticks
                      if result.cut_tick is not None else 0)
    if trace_spool is not None:
        from ..sim.trace import TraceStore
        result.trace = TraceStore(trace_spool).put(result.trace_name,
                                                   result.trace)
    return result


def _pool_context(start_method: str | None = None
                  ) -> multiprocessing.context.BaseContext | None:
    """The multiprocessing context to fan out with (None -> run serial).

    ``fork`` is preferred: workers inherit scenarios and checkpoint
    stores through the copied address space, so nothing is pickled per
    worker.  Platforms without ``fork`` use ``spawn``, which requires
    every initializer argument to pickle (scenario builders are
    ``functools.partial`` bindings, so the library's scenarios do).
    """
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            return None
        return multiprocessing.get_context(start_method)
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


def _picklable(*values) -> bool:
    try:
        pickle.dumps(values)
        return True
    except Exception:
        return False


def _policy(config: "CampaignConfig") -> ResilienceConfig:
    """The campaign's supervision policy (tolerating configs without one)."""
    return getattr(config, "resilience", None) or ResilienceConfig()


def _warn_serial_fallback(method: str, **named) -> None:
    """One-line warning for the spawn-unpicklable serial fallback.

    Names the offending argument: a silent fallback reads as "the pool
    is slow today" and hides that caller-supplied closures (scenarios,
    configs) cannot cross a non-fork process boundary.
    """
    culprit = next((name for name, value in named.items()
                    if not _picklable(value)), "arguments")
    warnings.warn(
        f"campaign pool disabled: {culprit} cannot be pickled under the "
        f"{method!r} start method; falling back to serial in-process "
        f"execution (results are identical, just not parallel)",
        RuntimeWarning, stacklevel=3)
