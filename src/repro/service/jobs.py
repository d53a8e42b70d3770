"""Durable job lifecycle for the campaign service.

Jobs move through a small state machine::

    submitted -> queued -> running -> completed
                    ^         |   \\-> failed | cancelled
                    |         v
                    +---- draining      (graceful drain / requeue)

Every transition is persisted through :class:`JobJournal` — an
append-only sequence of single-event files written with the same
atomic, fsync'd pattern as the campaign completion journal
(:mod:`repro.core.ioutil`) — so a SIGKILL'd server replays the journal
on restart and recovers every job's state exactly.  Jobs that were
``running`` (or mid-``draining``) when the server died come back as
``queued`` with ``resume=True``: the campaign itself then resumes
through the completion journal with zero re-executed experiments.

Submissions are idempotency-keyed: the key (caller-provided, or the
canonical spec digest) maps to the existing job, so resubmitting a spec
returns that job instead of duplicating work — across restarts too,
because the mapping is journal-derived.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.ioutil import write_bytes_atomic
from ..core.bayesian_fi import check_counts

STYLES = ("random", "exhaustive", "arch", "bayesian")

#: Lifecycle states.
SUBMITTED = "submitted"
QUEUED = "queued"
RUNNING = "running"
DRAINING = "draining"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})
ACTIVE_STATES = frozenset({SUBMITTED, QUEUED, RUNNING, DRAINING})

#: Legal transitions; recovery additionally maps running/draining back
#: to queued (the crashed-server path).
_TRANSITIONS = {
    SUBMITTED: {QUEUED, CANCELLED},
    # queued -> queued: a failed launch attempt (spawn error) re-queues
    # the job while journaling the consumed attempt.
    QUEUED: {QUEUED, RUNNING, CANCELLED, FAILED},
    RUNNING: {DRAINING, COMPLETED, FAILED, CANCELLED, QUEUED},
    DRAINING: {QUEUED, COMPLETED, FAILED, CANCELLED},
    COMPLETED: set(),
    FAILED: set(),
    CANCELLED: set(),
}


class SpecError(ValueError):
    """A submission payload the service refuses (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """A declarative campaign submission.

    ``scenarios`` is either ``None`` (the default scenario library) or
    a list of ``{"name": ..., "duration": ...}`` entries resolved by
    the runner against the named scenario builders (``duration``
    optional).  ``params`` carries the style's keyword arguments
    (``n``, ``seed``, ``top_k``, ``tick_stride``, ...).
    """

    style: str
    params: dict = field(default_factory=dict)
    scenarios: tuple | None = None
    workers: int | None = None
    lease: bool = False
    tenant: str = "default"

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise SpecError("spec must be a JSON object")
        style = payload.get("style")
        if style not in STYLES:
            raise SpecError(f"spec.style must be one of {list(STYLES)}, "
                            f"got {style!r}")
        params = payload.get("params")
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise SpecError("spec.params must be an object")
        cls._validate_interface_params(params)
        params = cls._integral_counts(params)
        try:    # the plans' own check, on the counts given
            check_counts(**{name: params[name] for name in
                            ("top_k", "max_experiments", "tick_stride")
                            if params.get(name) is not None})
        except ValueError as error:
            raise SpecError(f"spec.params.{error}") from None
        scenarios = payload.get("scenarios")
        if scenarios is not None:
            if not isinstance(scenarios, list) or not scenarios:
                raise SpecError("spec.scenarios must be a non-empty list")
            entries = []
            for entry in scenarios:
                if not isinstance(entry, dict) or "name" not in entry:
                    raise SpecError("each scenario needs a 'name'")
                entries.append((str(entry["name"]),
                                None if entry.get("duration") is None
                                else float(entry["duration"])))
            scenarios = tuple(entries)
        workers = payload.get("workers")
        if workers is not None:
            workers = int(workers)
        tenant = str(payload.get("tenant") or "default")
        return cls(style=style, params=dict(params), scenarios=scenarios,
                   workers=workers, lease=bool(payload.get("lease", False)),
                   tenant=tenant)

    @staticmethod
    def _integral_counts(params: dict) -> dict:
        """``params`` with its counts as ints, or a :class:`SpecError`.

        ``top_k`` and ``max_experiments`` may be ``None`` (no cap); a
        given count must be an integer, and an integral float (JSON
        ``5.0``) becomes one.  A string, a bool or a fraction would
        otherwise pass submission and fail the job mid-run.
        """
        params = dict(params)
        for name in ("top_k", "max_experiments", "tick_stride"):
            if name not in params:
                continue
            value = params[name]
            if value is None and name != "tick_stride":
                continue
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(f"spec.params.{name} must be an integer, "
                                f"got {params[name]!r}")
            params[name] = value
        return params

    @staticmethod
    def _validate_interface_params(params: dict) -> None:
        """Refuse unknown interface-fault kinds/channels at submission.

        A bad entry would otherwise be accepted, queued, and only blow
        up mid-campaign inside the runner; a clean 400 naming the
        offending field is the contract instead.
        """
        from ..ads.channels import CHANNELS, INTERFACE_KINDS
        for field_name, valid in (("interface_kinds", INTERFACE_KINDS),
                                  ("interface_probe", INTERFACE_KINDS),
                                  ("interface_channels", CHANNELS)):
            values = params.get(field_name)
            if values is None:
                continue
            if isinstance(values, str) or not isinstance(values,
                                                         (list, tuple)):
                raise SpecError(f"spec.params.{field_name} must be a "
                                f"list, got {values!r}")
            for value in values:
                if value not in valid:
                    raise SpecError(
                        f"spec.params.{field_name} has unknown entry "
                        f"{value!r}; expected one of {list(valid)}")

    def to_dict(self) -> dict:
        return {
            "style": self.style,
            "params": dict(self.params),
            "scenarios": None if self.scenarios is None else [
                {"name": name, "duration": duration}
                for name, duration in self.scenarios],
            "workers": self.workers,
            "lease": self.lease,
            "tenant": self.tenant,
        }

    def digest(self) -> str:
        """Canonical content hash — the default idempotency key."""
        import hashlib
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class Job:
    """One submission's durable state (plus runtime-only fields)."""

    id: str
    spec: JobSpec
    idempotency_key: str
    state: str = SUBMITTED
    attempts: int = 0
    resume: bool = False
    error: str | None = None
    summary: dict | None = None
    pid: int | None = None
    created: float = 0.0
    updated: float = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "tenant": self.spec.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "resume": self.resume,
            "error": self.error,
            "summary": self.summary,
            "pid": self.pid,
            "created": self.created,
            "updated": self.updated,
            "spec": self.spec.to_dict(),
        }


class JobJournal:
    """Append-only event journal: one atomic fsync'd file per event.

    The same durability pattern as the campaign completion journal —
    each event is written whole to a uniquely named temp file, fsync'd,
    and renamed into place, so a torn write never corrupts an earlier
    event.  Replay reads the events in sequence order and skips
    anything unparseable (that event's transition is simply lost, and
    recovery re-derives a safe state from the last good one).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        for path in self.directory.glob("evt-*.json"):
            try:
                self._seq = max(self._seq, int(path.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue

    def append(self, event: dict) -> None:
        self._seq += 1
        event = dict(event, seq=self._seq, ts=time.time())
        path = self.directory / f"evt-{self._seq:08d}.json"
        payload = json.dumps(event, separators=(",", ":")).encode("utf-8")
        write_bytes_atomic(path, payload, fsync=True)

    def replay(self) -> list[dict]:
        events = []
        for path in sorted(self.directory.glob("evt-*.json")):
            try:
                event = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue                     # torn/corrupt: skip entry
            if isinstance(event, dict):
                events.append(event)
        events.sort(key=lambda e: e.get("seq", 0))
        return events


class JobStore:
    """The in-memory job table, journal-backed.

    All mutations flow through :meth:`submit` / :meth:`transition`,
    which journal before the table reflects the change is *complete* —
    on crash the journal is therefore never behind what callers saw
    acknowledged.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.journal = JobJournal(self.root / "journal")
        self.jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._counter = 0

    # -- paths ---------------------------------------------------------------

    def job_dir(self, job: Job) -> Path:
        return self.jobs_dir / job.id

    def spec_path(self, job: Job) -> Path:
        return self.job_dir(job) / "spec.json"

    def record_path(self, job: Job) -> Path:
        return self.job_dir(job) / "records.jsonl"

    # -- submissions ---------------------------------------------------------

    def get_by_key(self, key: str) -> Job | None:
        """The job already holding this idempotency key, if any."""
        job_id = self._by_key.get(key)
        return None if job_id is None else self.jobs[job_id]

    def submit(self, spec: JobSpec,
               idempotency_key: str | None = None) -> tuple[Job, bool]:
        """Create (or return) the job for a spec; ``(job, created)``.

        Resubmission under an existing idempotency key — explicit, or
        the spec's canonical digest — returns the existing job in
        whatever state it is in: the campaign executes exactly once.
        """
        key = idempotency_key or spec.digest()
        existing = self._by_key.get(key)
        if existing is not None:
            return self.jobs[existing], False
        self._counter += 1
        job = Job(id=f"job-{self._counter:06d}", spec=spec,
                  idempotency_key=key, state=SUBMITTED,
                  created=time.time(), updated=time.time())
        self.jobs[job.id] = job
        self._by_key[key] = job.id
        self.journal.append({"type": "submitted", "job": job.id,
                             "key": key, "spec": spec.to_dict()})
        return job, True

    def transition(self, job: Job, state: str, *, error: str | None = None,
                   summary: dict | None = None, pid: int | None = None,
                   resume: bool | None = None,
                   attempts: int | None = None) -> None:
        if state not in _TRANSITIONS:
            raise ValueError(f"unknown job state {state!r}")
        if state not in _TRANSITIONS[job.state]:
            raise ValueError(
                f"illegal transition {job.state} -> {state} for {job.id}")
        job.state = state
        job.updated = time.time()
        if error is not None:
            job.error = error
        if summary is not None:
            job.summary = summary
        if pid is not None:
            job.pid = pid
        if resume is not None:
            job.resume = resume
        if attempts is not None:
            job.attempts = attempts
        event = {"type": "state", "job": job.id, "state": state,
                 "attempts": job.attempts, "resume": job.resume}
        if error is not None:
            event["error"] = error
        if summary is not None:
            event["summary"] = summary
        if pid is not None:
            event["pid"] = pid
        self.journal.append(event)

    # -- recovery ------------------------------------------------------------

    def recover(self) -> list[Job]:
        """Rebuild the table from the journal; returns every job the
        caller must put back on the scheduler queues.

        Jobs the dead server left ``running`` (or mid-``draining``)
        come back ``queued`` with ``resume=True`` — and the requeue is
        itself journaled, so a crash *during* recovery converges to the
        same state.  Jobs whose last journaled state already *is*
        ``queued`` — normal queued submissions, and every job a
        graceful drain settled as ``queued`` + ``resume=True`` — are
        returned too (no new journal event needed): leaving them out
        would strand them "queued" forever, never scheduled.
        """
        for event in self.journal.replay():
            kind = event.get("type")
            if kind == "submitted":
                try:
                    spec = JobSpec.from_dict(event["spec"])
                except (SpecError, KeyError):
                    continue                  # unreadable: drop the job
                job = Job(id=event["job"], spec=spec,
                          idempotency_key=event.get("key", spec.digest()),
                          state=SUBMITTED,
                          created=event.get("ts", 0.0),
                          updated=event.get("ts", 0.0))
                self.jobs[job.id] = job
                self._by_key[job.idempotency_key] = job.id
                try:
                    self._counter = max(self._counter,
                                        int(job.id.split("-")[1]))
                except (IndexError, ValueError):
                    pass
            elif kind == "state":
                job = self.jobs.get(event.get("job"))
                if job is None:
                    continue
                job.state = event.get("state", job.state)
                job.attempts = event.get("attempts", job.attempts)
                job.resume = event.get("resume", job.resume)
                job.error = event.get("error", job.error)
                job.summary = event.get("summary", job.summary)
                job.pid = event.get("pid", job.pid)
                job.updated = event.get("ts", job.updated)
        requeued = []
        for job in self.jobs.values():
            if job.state in (RUNNING, DRAINING):
                self.transition(job, QUEUED, resume=True)
                requeued.append(job)
            elif job.state == SUBMITTED:
                self.transition(job, QUEUED)
                requeued.append(job)
            elif job.state == QUEUED:
                requeued.append(job)
        return requeued
