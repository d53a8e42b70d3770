"""Campaign resilience: the fault injector tolerating faults itself.

A production fault-injection campaign is a long-running distributed
experiment, and the faults it *suffers* — a worker segfault, a hung
simulation, a preempted host, a full disk — are not the faults it
*injects*.  This module separates the two (the AVFI framing) with
three cooperating mechanisms, threaded through the streaming campaign
driver (:mod:`repro.core.pipeline`):

* :class:`SupervisedExecutor` — a process pool with per-job wall-clock
  timeouts, bounded retries under seeded exponential backoff, worker
  respawn with in-flight resubmission on a crash (SIGKILL, segfault,
  OOM-kill), and quarantine: a job that keeps failing becomes a
  structured :class:`JobFailure` occupying its deterministic slot in
  the record stream instead of killing the campaign.  Quarantine is
  per experiment when the experiment raises (the driver's one
  validation routine retries it in-process, serially or inside a pool
  worker) and per pool part on a worker crash or timeout, which no
  single experiment can be blamed for.
  ``ResilienceConfig.strict`` keeps today's fail-fast oracle.
* :class:`CampaignJournal` — an append-only completion journal of
  durably-written segments under ``cache_dir``; a campaign SIGKILLed
  mid-run and restarted with ``resume=True`` skips every journaled
  experiment and its merged stream equals the uninterrupted run.
* :class:`LeaseBoard` — TTL-heartbeat scenario claims in the shared
  ``cache_dir``: cooperating hosts grab scenarios dynamically, a
  crashed host's stale leases expire and get re-claimed, and each
  completed scenario's records are published atomically exactly once —
  the work-stealing substrate that replaces static ``--shard-index``
  partitioning as the preferred multi-host mode.

Every worker is connected to the supervisor by its own duplex pipe,
never a shared queue: a SIGKILL mid-``put`` on a shared
``multiprocessing.Queue`` can leave its feeder lock held and deadlock
the pool, while a killed pipe writer is just an EOF on the supervisor's
end.  That EOF *is* the crash detector.

The chaos suite (``tests/chaos_harness.py``) drives all of this by
injecting harness-level faults: the ``REPRO_CHAOS_KILL`` environment
variable makes workers SIGKILL themselves around job execution (read
once at worker start — the sanctioned in-worker fault port), and
:func:`repro.core.ioutil.set_write_fault_hook` fails cache and journal
writes with ``OSError``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import signal
import time
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable

from .ioutil import write_bytes_atomic

__all__ = [
    "ResilienceConfig", "JobFailure", "CampaignExecutionError",
    "SupervisedExecutor", "CampaignJournal", "LeaseBoard",
    "failure_record", "run_supervised_serial",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Supervision, resume, and multi-host knobs of one campaign.

    Part of :class:`repro.core.campaign.CampaignConfig` (and therefore
    picklable into pool workers); deliberately *not* part of the cache
    fingerprint — how a campaign survives infrastructure faults does
    not change what it computes.
    """

    #: Wall-clock seconds one experiment job may run before its worker
    #: is killed and the job retried (``None`` disables timeouts).
    #: Chunked dispatch scales the budget by the chunk length.
    job_timeout: float | None = None
    #: Total tries per job (first execution included) before the job is
    #: quarantined as a failure record.  1 disables retries.
    max_attempts: int = 3
    #: Exponential-backoff base delay between retries, seconds.  The
    #: jitter is seeded per (campaign seed, job, attempt), so reruns
    #: back off identically.
    backoff_base: float = 0.05
    #: Ceiling on one backoff delay, seconds.
    backoff_cap: float = 2.0
    #: Fail fast: the first job failure (after its retries) raises
    #: instead of quarantining — today's oracle behaviour.
    strict: bool = False
    #: Write the completion journal when the campaign has a
    #: ``cache_dir`` (each completed experiment becomes durable the
    #: moment it lands).
    journal: bool = True
    #: Resume from an existing journal instead of starting it fresh.
    resume: bool = False
    #: Dynamic multi-host mode: claim scenarios through lease files in
    #: the shared ``cache_dir`` instead of a static shard partition.
    lease_mode: bool = False
    #: Seconds a lease stays valid without a heartbeat; a crashed
    #: host's scenarios become re-claimable after this long.
    lease_ttl: float = 30.0
    #: Seconds between idle polls while waiting for other hosts.
    lease_poll: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be positive, got {self.job_timeout}")


@dataclass(frozen=True)
class JobFailure:
    """Why a quarantined job failed: error class, detail, and attempts."""

    error: str            # exception class, "WorkerCrash", or "Timeout"
    message: str
    attempts: int


class CampaignExecutionError(RuntimeError):
    """A job failed in strict mode (or a stage that cannot quarantine)."""


def failure_record(scenario_name: str, fault, config,
                   failure: JobFailure):
    """The structured record a quarantined job leaves in the stream.

    Occupies the job's deterministic slot (scenario, tick, variable,
    value, duration, seed all preserved — the experiment stays fully
    re-runnable) with the outcome fields zeroed and the failure
    diagnosis in ``error``/``attempts``.  :class:`~repro.core.results
    .CampaignSummary` counts these separately from hazards.
    """
    from .results import ExperimentRecord, Hazard
    return ExperimentRecord(
        scenario=scenario_name, injection_tick=fault.start_tick,
        variable=fault.variable, value=fault.value,
        duration_ticks=fault.duration_ticks, seed=config.seed,
        hazard=Hazard.NONE, landed=False,
        pre_delta_long=0.0, pre_delta_lat=0.0,
        min_delta_long=0.0, min_delta_lat=0.0,
        sim_seconds=0.0, wall_seconds=0.0,
        error=f"{failure.error}: {failure.message}"
              if failure.message else failure.error,
        attempts=failure.attempts,
        kind=getattr(fault, "kind", "value"),
        channel=getattr(fault, "channel", None))


def _backoff_delay(policy: ResilienceConfig, seed: int, key,
                   attempt: int) -> float:
    """Seeded exponential backoff: deterministic per (seed, job, try)."""
    if policy.backoff_base <= 0:
        return 0.0
    token = hashlib.sha256(
        repr((seed, key, attempt)).encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(token[:8], "big"))
    delay = policy.backoff_base * (2.0 ** (attempt - 1))
    return min(policy.backoff_cap, delay) * (0.5 + rng.random())


def run_supervised_serial(execute: Callable[[], Any], policy,
                          seed: int, key) -> tuple[Any, JobFailure | None]:
    """The in-process counterpart of supervised pool execution.

    The driver's validation routine runs every scalar experiment under
    it, serially and inside each pool worker alike, so a job that keeps
    raising quarantines only its own record and ``workers=None`` and
    ``workers=4`` stay record-for-record equivalent even when a job
    fails deterministically (timeouts excepted — a hang cannot be
    interrupted in-process; the pool times out a whole part).  In
    strict mode the original exception propagates unchanged — the
    fail-fast oracle.
    """
    policy = policy or ResilienceConfig()
    attempt = 0
    while True:
        attempt += 1
        try:
            return execute(), None
        except KeyboardInterrupt:
            raise
        except Exception as err:
            if policy.strict:
                raise
            if attempt >= policy.max_attempts:
                return None, JobFailure(error=type(err).__name__,
                                        message=str(err),
                                        attempts=attempt)
            time.sleep(_backoff_delay(policy, seed, key, attempt))


# -- chaos hook (worker side) --------------------------------------------------

#: Environment variable the chaos suite sets to make pool workers
#: SIGKILL themselves around job execution: ``"<probability>:<seed>"``.
#: Read once per worker start; each (re)spawned worker draws a fresh
#: seeded sequence, so a retried job is not doomed to die again.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL"


class _ChaosKiller:
    """Seeded self-SIGKILL around job execution (test-only, env-armed)."""

    def __init__(self, probability: float, seed: int):
        self.probability = probability
        self._rng = random.Random((seed, os.getpid()).__hash__())

    @classmethod
    def from_env(cls) -> "_ChaosKiller | None":
        spec = os.environ.get(CHAOS_KILL_ENV)
        if not spec:
            return None
        try:
            prob_text, _, seed_text = spec.partition(":")
            probability = float(prob_text)
            seed = int(seed_text) if seed_text else 0
        except ValueError:
            return None
        if probability <= 0:
            return None
        return cls(probability, seed)

    def maybe_kill(self) -> None:
        if self._rng.random() < self.probability:
            os.kill(os.getpid(), signal.SIGKILL)


# -- worker process ------------------------------------------------------------

def _supervised_worker_main(conn, initializer, initargs) -> None:
    """Entry point of one supervised worker process.

    Speaks a tiny framed protocol on its private duplex pipe:
    ``("task", task_id, fn, payload)`` in, ``("ok", task_id, result)``
    or ``("err", task_id, error_class, message)`` out, ``("stop",)``
    to exit.  Every failure mode the supervisor cares about — SIGKILL,
    segfault, an unpicklable result — degrades to an EOF or a broken
    send, which the supervisor treats as a crash of the in-flight job.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # ^C belongs to the
    chaos = _ChaosKiller.from_env()                # supervisor
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException as err:                   # init is all-or-nothing
        try:
            conn.send(("init_err", type(err).__name__, str(err)))
        except (OSError, ValueError):
            pass
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return                                  # supervisor went away
        if message[0] == "stop":
            return
        _, task_id, fn, payload = message
        if chaos is not None:
            chaos.maybe_kill()                      # die before the work
        try:
            outcome = ("ok", task_id, fn(payload))
        except Exception as err:
            outcome = ("err", task_id, type(err).__name__, str(err))
        if chaos is not None:
            chaos.maybe_kill()                      # die with the result
        try:                                        # computed but unsent
            conn.send(outcome)
        except (OSError, ValueError):
            return


class _Worker:
    """One supervised process plus the supervisor's end of its pipe."""

    def __init__(self, context, initializer, initargs):
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_supervised_worker_main,
            args=(child_conn, initializer, initargs), daemon=True)
        self.process.start()
        child_conn.close()   # our copy only; worker death must EOF us
        self.task: "_SupervisedTask | None" = None

    def kill(self) -> None:
        try:
            if self.process.is_alive():
                os.kill(self.process.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass
        self.process.join(timeout=5.0)
        self.conn.close()

    def stop(self) -> None:
        """Polite shutdown of an idle worker (kill if it won't listen)."""
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()


@dataclass
class _SupervisedTask:
    """Supervisor-side state of one submitted job."""

    task_id: int
    fn: Callable
    payload: Any
    tag: Any
    timeout: float | None
    attempts: int = 0
    deadline: float | None = None
    last_error: tuple[str, str] | None = None


class SupervisedExecutor:
    """A process pool that survives the faults its workers suffer.

    The process pool of the campaign driver.  Contract differences
    from ``ProcessPoolExecutor`` are exactly the resilience semantics:

    * a worker crash (SIGKILL, segfault, OOM) respawns the worker and
      resubmits its in-flight job instead of breaking the pool;
    * a job exceeding its wall-clock ``timeout`` gets its worker killed
      and is retried;
    * every failure mode — crash, timeout, raised exception — retries
      up to ``policy.max_attempts`` with seeded exponential backoff,
      then surfaces as a :class:`JobFailure` event (``policy.strict``
      raises :class:`CampaignExecutionError` at the first one).  A
      submitted job is a whole validation part; the validation routine
      inside it catches each experiment's own exception (job-level
      quarantine, :func:`run_supervised_serial`), so only a crash or a
      timeout, which cannot be traced to one experiment, fails a part;
    * results arrive as ``(tag, value, failure)`` events from
      :meth:`next_events`, in completion order — callers own ordering,
      exactly as they did with futures.

    ``fn`` and ``payload`` of every submission must pickle (they cross
    the pipe even under ``fork``); callers keep their existing
    picklability pre-checks.
    """

    def __init__(self, workers: int, context,
                 initializer: Callable | None = None,
                 initargs: tuple = (),
                 policy: ResilienceConfig | None = None,
                 seed: int = 0):
        self.policy = policy or ResilienceConfig()
        self.seed = seed
        self._context = context
        self._initializer = initializer
        self._initargs = initargs
        self._max_workers = max(1, workers)
        self._workers: list[_Worker] = []
        self._queue: deque[_SupervisedTask] = deque()
        self._delayed: list[tuple[float, int, _SupervisedTask]] = []
        self._outstanding = 0
        self._next_id = 0
        self._closed = False

    # -- submission ------------------------------------------------------------

    def submit(self, fn: Callable, payload, tag=None,
               timeout: float | None = None) -> None:
        """Queue one job; its completion arrives via :meth:`next_events`."""
        if self._closed:
            raise RuntimeError("executor is shut down")
        task = _SupervisedTask(task_id=self._next_id, fn=fn,
                               payload=payload,
                               tag=tag if tag is not None else self._next_id,
                               timeout=timeout if timeout is not None
                               else self.policy.job_timeout)
        self._next_id += 1
        self._outstanding += 1
        self._queue.append(task)

    @property
    def outstanding(self) -> int:
        """Jobs submitted but not yet surfaced as events."""
        return self._outstanding

    # -- completion ------------------------------------------------------------

    def next_events(self, max_wait: float | None = None
                    ) -> list[tuple[Any, Any, JobFailure | None]]:
        """Block until >= 1 job completes; return all completions so far.

        Each event is ``(tag, value, failure)`` with exactly one of
        ``value``/``failure`` meaningful.  ``max_wait`` bounds the wait
        (an empty list can then return — the pipeline driver uses that
        gap for lease heartbeats).  Raises if nothing is outstanding.
        """
        if not self._outstanding:
            raise RuntimeError("no outstanding jobs")
        events: list = []
        wait_until = (time.monotonic() + max_wait
                      if max_wait is not None else None)
        while not events:
            self._dispatch_ready()
            budget = self._wait_budget(wait_until)
            self._collect(events, budget)
            self._reap_timeouts(events)
            if events or self._check_expired(wait_until):
                break
        self._outstanding -= len(events)
        return events

    def drain(self):
        """Yield completion events until every submitted job surfaced."""
        while self._outstanding:
            yield from self.next_events()

    # -- shutdown --------------------------------------------------------------

    def shutdown(self, kill: bool = False) -> None:
        """Stop all workers (``kill`` skips politeness — ^C teardown)."""
        self._closed = True
        for worker in self._workers:
            if kill or worker.task is not None:
                worker.kill()
            else:
                worker.stop()
        self._workers.clear()
        self._queue.clear()
        self._delayed.clear()
        self._outstanding = 0

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(kill=exc_info[0] is not None)

    # -- internals -------------------------------------------------------------

    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            self._queue.append(heapq.heappop(self._delayed)[2])
        while self._queue:
            worker = self._idle_worker()
            if worker is None:
                return
            task = self._queue.popleft()
            task.attempts += 1
            task.deadline = (now + task.timeout
                             if task.timeout is not None else None)
            try:
                worker.conn.send(("task", task.task_id, task.fn,
                                  task.payload))
            except (OSError, ValueError):
                # The worker died between spawn and first task; retry
                # the send on a fresh worker without burning an attempt.
                task.attempts -= 1
                self._discard_worker(worker)
                self._queue.appendleft(task)
                continue
            worker.task = task

    def _idle_worker(self) -> _Worker | None:
        for worker in self._workers:
            if worker.task is None:
                return worker
        if len(self._workers) < self._max_workers:
            worker = _Worker(self._context, self._initializer,
                             self._initargs)
            self._workers.append(worker)
            return worker
        return None

    def _wait_budget(self, wait_until: float | None) -> float | None:
        """Seconds to block in ``connection.wait`` this iteration."""
        now = time.monotonic()
        marks = []
        if wait_until is not None:
            marks.append(wait_until)
        if self._delayed:
            marks.append(self._delayed[0][0])
        for worker in self._workers:
            if worker.task is not None and worker.task.deadline is not None:
                marks.append(worker.task.deadline)
        if not marks:
            return None
        return max(0.0, min(marks) - now) + 0.005

    def _collect(self, events: list, budget: float | None) -> None:
        busy = [w for w in self._workers if w.task is not None]
        if not busy:
            if budget:
                time.sleep(min(budget, 0.05))
            return
        conns = {w.conn: w for w in busy}
        try:
            ready = connection.wait(list(conns), timeout=budget)
        except OSError:
            ready = list(conns)
        for conn in ready:
            worker = conns[conn]
            try:
                message = conn.recv()
            except Exception:
                self._on_crash(worker, events)
                continue
            self._on_message(worker, message, events)

    def _on_message(self, worker: _Worker, message, events: list) -> None:
        kind = message[0]
        if kind == "init_err":
            self._discard_worker(worker)
            raise CampaignExecutionError(
                f"worker initialization failed: {message[1]}: "
                f"{message[2]}")
        task = worker.task
        worker.task = None
        if task is None or message[1] != task.task_id:
            return                             # late echo of a killed job
        if kind == "ok":
            events.append((task.tag, message[2], None))
        else:
            task.last_error = (message[2], message[3])
            self._retry_or_quarantine(task, events)

    def _on_crash(self, worker: _Worker, events: list) -> None:
        task = worker.task
        worker.task = None
        self._discard_worker(worker)
        if task is not None:
            task.last_error = ("WorkerCrash",
                               "worker process died mid-job")
            self._retry_or_quarantine(task, events)

    def _reap_timeouts(self, events: list) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            task = worker.task
            if task is None or task.deadline is None \
                    or now < task.deadline:
                continue
            worker.task = None
            self._discard_worker(worker, kill=True)
            task.last_error = (
                "Timeout", f"exceeded {task.timeout:.3g}s wall clock")
            self._retry_or_quarantine(task, events)

    def _retry_or_quarantine(self, task: _SupervisedTask,
                             events: list) -> None:
        error, message = task.last_error
        if self.policy.strict:
            raise CampaignExecutionError(
                f"job {task.tag!r} failed ({error}: {message}) and "
                f"the campaign is strict")
        if task.attempts >= self.policy.max_attempts:
            events.append((task.tag, None,
                           JobFailure(error=error, message=message,
                                      attempts=task.attempts)))
            return
        delay = _backoff_delay(self.policy, self.seed, task.task_id,
                               task.attempts)
        heapq.heappush(self._delayed,
                       (time.monotonic() + delay, task.task_id, task))

    def _discard_worker(self, worker: _Worker, kill: bool = False) -> None:
        if kill:
            worker.kill()
        else:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.kill()
        if worker in self._workers:
            self._workers.remove(worker)

    def _check_expired(self, wait_until: float | None) -> bool:
        return (wait_until is not None
                and time.monotonic() >= wait_until)


# -- durable resume journal ----------------------------------------------------

class CampaignJournal:
    """Append-only completion journal: one campaign's durable progress.

    Layout under its directory (inside ``cache_dir``, keyed by the
    campaign fingerprint plus a per-style work key, so two campaigns
    never share a journal):

    * ``meta.json`` — the campaign key; a mismatch on load means the
      journal belongs to different work and is ignored.
    * ``seg-<n>-<pid>.jsonl`` — one completed record (plus any a
      failed earlier flush left pending), written atomically with ``fsync`` (the crash-durability
      contract resume depends on).

    Entries are keyed by *experiment identity* (scenario, tick,
    variable, value, duration, seed), not by slot: completion order is
    nondeterministic, so a crash can leave gaps anywhere in the slot
    sequence, yet every journaled experiment — gap or not — is skipped
    on resume.  Identical duplicate jobs (a seeded draw can repeat a
    fault) are handled as a multiset: each journaled copy satisfies
    one occurrence.

    A truncated or corrupt segment (torn write, bit rot, chaos
    injection) is skipped entry by entry: those experiments simply
    re-execute — the safe direction.  Failure records are *not*
    journaled: a resumed campaign retries what failed, it only skips
    what succeeded.
    """

    def __init__(self, directory: str | Path, campaign_key: str):
        self.directory = Path(directory)
        self.campaign_key = campaign_key
        self._pending: list[dict] = []
        self._segment = 0
        self._loaded: dict[tuple, deque] = {}
        #: Counters the resume tests assert on: journaled records
        #: reused vs. fresh executions appended this run.
        self.hits = 0
        self.appended = 0
        self.loaded_count = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self, resume: bool) -> None:
        """Open the journal: load entries on resume, else start fresh.

        Starting fresh removes the previous run's segments — a journal
        always describes exactly one campaign execution, so a later
        ``resume`` continues *this* run, not a stale ancestor.
        """
        if resume:
            self._load()
            return
        self._clear_segments()
        self._write_meta()

    @staticmethod
    def record_key(record) -> tuple:
        """The experiment identity a journal entry is matched by.

        ``kind``/``channel`` join the key so an interface fault and a
        value fault can never alias (the synthetic ``kind@channel``
        variable label already separates them; the explicit fields make
        the invariant independent of the labeling convention).
        """
        return (record.scenario, record.injection_tick, record.variable,
                record.value, record.duration_ticks, record.seed,
                getattr(record, "kind", "value"),
                getattr(record, "channel", None))

    @staticmethod
    def job_key(scenario_name: str, fault, seed: int) -> tuple:
        """Identity of a not-yet-run job (mirrors :meth:`record_key`)."""
        return (scenario_name, fault.start_tick, fault.variable,
                fault.value, fault.duration_ticks, seed,
                getattr(fault, "kind", "value"),
                getattr(fault, "channel", None))

    def claim(self, scenario_name: str, fault, seed: int):
        """Pop the journaled record of this job, if one survives.

        Returns the :class:`~repro.core.results.ExperimentRecord` the
        original run produced (the resume path emits it verbatim — the
        merged stream stays bit-for-bit the uninterrupted stream), or
        ``None`` when the job must execute.
        """
        bucket = self._loaded.get(
            self.job_key(scenario_name, fault, seed))
        if not bucket:
            return None
        self.hits += 1
        return bucket.popleft()

    def append(self, record) -> None:
        """Journal one completed experiment, durable on return unless
        the flush fails."""
        if record.error is not None:
            return                      # failures are retried on resume
        from .persistence import record_to_dict
        self._pending.append(record_to_dict(record))
        self.appended += 1
        self.flush()

    def flush(self) -> None:
        """Write pending entries as one atomic, fsync'd segment.

        An injected/real ``OSError`` (full disk) keeps the entries
        pending — the stream and summary already have the records, so
        the only cost of a failed flush is re-execution after a crash.
        """
        if not self._pending:
            return
        payload = "".join(json.dumps(entry, separators=(",", ":"))
                          + "\n" for entry in self._pending)
        path = (self.directory
                / f"seg-{self._segment:08d}-{os.getpid()}.jsonl")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            if not (self.directory / "meta.json").exists():
                self._write_meta()
            write_bytes_atomic(path, payload.encode("utf-8"), fsync=True)
        except OSError:
            return
        self._segment += 1
        self._pending.clear()

    def close(self) -> None:
        self.flush()

    # -- internals -------------------------------------------------------------

    def _write_meta(self) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            write_bytes_atomic(
                self.directory / "meta.json",
                json.dumps({"campaign_key": self.campaign_key}
                           ).encode("utf-8"), fsync=True)
        except OSError:
            pass

    def _clear_segments(self) -> None:
        if not self.directory.is_dir():
            return
        for path in self.directory.glob("seg-*.jsonl"):
            try:
                path.unlink()
            except OSError:
                pass

    def _load(self) -> None:
        from .persistence import record_from_dict
        meta_path = self.directory / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            meta = None
        if not isinstance(meta, dict) \
                or meta.get("campaign_key") != self.campaign_key:
            # Foreign or unreadable journal: this work never ran here.
            self._clear_segments()
            self._write_meta()
            return
        segments = sorted(self.directory.glob("seg-*.jsonl"))
        for path in segments:
            try:
                lines = path.read_bytes().decode("utf-8",
                                                 errors="replace")
            except OSError:
                continue
            for line in lines.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = record_from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError):
                    continue            # torn/corrupt entry: re-execute
                self._loaded.setdefault(self.record_key(record),
                                        deque()).append(record)
                self.loaded_count += 1
        self._segment = len(segments)


# -- lease-based scenario claims -----------------------------------------------

def _scenario_digest(name: str) -> str:
    return hashlib.sha256(name.encode("utf-8")).hexdigest()[:16]


class LeaseBoard:
    """Dynamic scenario claims for cooperating hosts in one ``cache_dir``.

    Three file families under the board directory, all named by a
    digest of the scenario:

    * ``lease-<digest>.json`` — a live claim: owner id and expiry.
      Claimed atomically (``O_CREAT|O_EXCL``); refreshed by the
      owner's heartbeats; *stolen* once expired (unlink + re-create —
      the one benign race: two stealers may both run the scenario, and
      publication makes that harmless).
    * ``records-<digest>.jsonl`` — the scenario's completed records,
      published in one atomic rename.  Existence *is* the done marker,
      so a host killed between finishing a scenario and publishing it
      simply leaves the scenario claimable — re-run, never lost, never
      double-counted (the last atomic publish wins with identical
      experiment identities).
    * the records of every scenario merge into the single-host summary
      with ``repro merge '<board>/records-*.jsonl'``.
    """

    def __init__(self, directory: str | Path, style: str,
                 owner: str | None = None, ttl: float = 30.0):
        self.directory = Path(directory)
        self.style = style
        self.ttl = ttl
        self.owner = owner or f"{os.uname().nodename}-{os.getpid()}-" \
                              f"{random.getrandbits(32):08x}"
        self.directory.mkdir(parents=True, exist_ok=True)
        self._held: set[str] = set()
        self._last_heartbeat = 0.0

    # -- claims ----------------------------------------------------------------

    def _lease_path(self, name: str) -> Path:
        return self.directory / f"lease-{_scenario_digest(name)}.json"

    def _records_path(self, name: str) -> Path:
        return self.directory / f"records-{_scenario_digest(name)}.jsonl"

    def is_done(self, name: str) -> bool:
        return self._records_path(name).exists()

    def try_claim(self, name: str) -> bool:
        """Claim one scenario: atomic create, or steal an expired lease."""
        if self.is_done(name):
            return False
        path = self._lease_path(name)
        if self._create_lease(path, name):
            return True
        entry = self._read_lease(path)
        if entry is None:
            # Torn or vanished lease file: treat as stale.
            path.unlink(missing_ok=True)
            return self._create_lease(path, name)
        if entry.get("owner") == self.owner:
            self._held.add(name)
            return True
        if float(entry.get("expires", 0.0)) > time.time():
            return False
        path.unlink(missing_ok=True)    # expired: steal
        return self._create_lease(path, name)

    def _create_lease(self, path: Path, name: str) -> bool:
        payload = json.dumps({
            "scenario": name, "owner": self.owner,
            "expires": time.time() + self.ttl}).encode("utf-8")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        self._held.add(name)
        return True

    @staticmethod
    def _read_lease(path: Path) -> dict | None:
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return entry if isinstance(entry, dict) else None

    def heartbeat(self, min_interval: float | None = None) -> None:
        """Refresh the expiry of every held lease (rate-limited).

        Called opportunistically from the driver's event loop; the
        default rate limit (a third of the TTL) keeps the cost at a
        few tiny writes per TTL regardless of event frequency.

        A shared-filesystem flake (``OSError`` on the atomic refresh
        write) must not kill the owning worker: the failure degrades
        to a :class:`RuntimeWarning` and the beat timer is left
        un-armed, so the very next :meth:`heartbeat` call retries the
        failed refresh immediately instead of waiting out the rate
        limit while the lease drifts toward expiry.
        """
        now = time.time()
        interval = (self.ttl / 3.0 if min_interval is None
                    else min_interval)
        if now - self._last_heartbeat < interval:
            return
        failures: list[tuple[str, OSError]] = []
        for name in self._held:
            try:
                write_bytes_atomic(
                    self._lease_path(name),
                    json.dumps({"scenario": name, "owner": self.owner,
                                "expires": now + self.ttl}
                               ).encode("utf-8"))
            except OSError as error:
                failures.append((name, error))
        if failures:
            name, error = failures[0]
            warnings.warn(
                f"lease heartbeat failed for {len(failures)} held "
                f"scenario(s) (e.g. {name!r}: {error}); leases expire "
                f"in <= {self.ttl:.0f}s unless the next beat succeeds",
                RuntimeWarning, stacklevel=2)
            return          # timer stays un-armed: next call retries
        self._last_heartbeat = now

    def release(self, name: str) -> None:
        self._held.discard(name)
        entry = self._read_lease(self._lease_path(name))
        if entry is not None and entry.get("owner") == self.owner:
            self._lease_path(name).unlink(missing_ok=True)

    def release_all(self) -> None:
        for name in list(self._held):
            self.release(name)

    # -- publication -----------------------------------------------------------

    def publish(self, name: str, records) -> None:
        """Atomically publish one finished scenario's records (= done).

        The stream format matches :class:`~repro.core.persistence
        .JsonlRecordSink` (style-tagged JSONL), so the per-scenario
        files merge with ``repro merge`` like any shard streams.
        """
        from .persistence import record_to_dict
        lines = [json.dumps({"_meta": {"style": self.style,
                                       "scenario": name}},
                            separators=(",", ":"))]
        lines.extend(json.dumps(record_to_dict(record),
                                separators=(",", ":"))
                     for record in records)
        write_bytes_atomic(self._records_path(name),
                           ("\n".join(lines) + "\n").encode("utf-8"),
                           fsync=True)

    def published_names(self, names) -> list[str]:
        """The subset of ``names`` whose records are already published."""
        return [name for name in names if self.is_done(name)]

    def record_paths(self, names) -> list[Path]:
        """Published per-scenario stream paths, in campaign order."""
        return [self._records_path(name) for name in names
                if self.is_done(name)]
