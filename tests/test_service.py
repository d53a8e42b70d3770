"""Unit tests for the campaign service: durable jobs, queues,
admission control, watchdog, and the HTTP surface.

Campaign-executing paths run through :class:`ServiceThread` (the
in-process harness) with ``max_running=0`` wherever a job should stay
pinned in the queue — the full execute/kill/resume paths live in
``tests/test_chaos_equivalence.py::TestServiceChaos``.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from chaos_harness import failing_writes
from repro.service import (CampaignService, ServiceClient, ServiceConfig,
                           ServiceThread, TenantQueues, Watchdog)
from repro.service.client import ServiceError
from repro.service.jobs import (CANCELLED, COMPLETED, DRAINING, FAILED,
                                QUEUED, RUNNING, JobJournal, JobSpec,
                                JobStore, SpecError)
from repro.service.queue import AdmissionControl


def spec_dict(n=3, tenant="default", **extra):
    return {"style": "random", "params": {"n": n, "seed": 1},
            "tenant": tenant, **extra}


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = JobSpec.from_dict(
            {"style": "bayesian", "params": {"top_k": 5},
             "scenarios": [{"name": "highway_cruise", "duration": 20.0}],
             "workers": 2, "lease": True, "tenant": "team-a"})
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_digest_is_canonical(self):
        a = JobSpec.from_dict({"style": "random", "params": {"n": 5}})
        b = JobSpec.from_dict({"params": {"n": 5}, "style": "random"})
        c = JobSpec.from_dict({"style": "random", "params": {"n": 6}})
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {"style": "unknown"},
        {"style": "random", "params": []},
        {"style": "random", "scenarios": []},
        {"style": "random", "scenarios": [{"duration": 5.0}]},
        {"style": "bayesian", "params": {"top_k": -1}},
        {"style": "exhaustive", "params": {"max_experiments": -1}},
        {"style": "exhaustive", "params": {"tick_stride": 0}},
        {"style": "exhaustive", "params": {"tick_stride": -25}},
    ])
    def test_rejects_malformed_payloads(self, payload):
        with pytest.raises(SpecError):
            JobSpec.from_dict(payload)

    @pytest.mark.parametrize("field,value", [
        ("top_k", "5"), ("top_k", True), ("top_k", 2.5), ("top_k", [5]),
        ("max_experiments", "40"), ("max_experiments", False),
        ("max_experiments", 0.5), ("tick_stride", "10"),
        ("tick_stride", True), ("tick_stride", 12.5),
        ("tick_stride", None),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(SpecError,
                           match=rf"spec\.params\.{field} must be an integer"):
            JobSpec.from_dict({"style": "exhaustive",
                               "params": {field: value}})

    @pytest.mark.parametrize("field", ["top_k", "max_experiments",
                                       "tick_stride"])
    def test_integral_float_counts_become_ints(self, field):
        spec = JobSpec.from_dict({"style": "exhaustive",
                                  "params": {field: 5.0}})
        assert spec.params[field] == 5
        assert type(spec.params[field]) is int

    def test_uncapped_counts_stay_none(self):
        spec = JobSpec.from_dict({"style": "bayesian",
                                  "params": {"top_k": None}})
        assert spec.params == {"top_k": None}

    @pytest.mark.parametrize("field,value", [
        ("interface_kinds", ["freeze", "explode"]),
        ("interface_probe", ["teleport"]),
        ("interface_channels", ["planning", "warp_drive"]),
    ])
    def test_unknown_interface_entry_names_offending_field(self, field,
                                                           value):
        with pytest.raises(SpecError, match=rf"spec\.params\.{field}"):
            JobSpec.from_dict(spec_dict(**{"params": {"n": 3, field: value}}))

    def test_interface_params_must_be_lists(self):
        with pytest.raises(SpecError, match=r"spec\.params\.interface_kinds"):
            JobSpec.from_dict(
                spec_dict(**{"params": {"n": 3, "interface_kinds": "freeze"}}))


class TestJobJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.append({"type": "submitted", "job": "job-1"})
        journal.append({"type": "state", "job": "job-1", "state": QUEUED})
        events = JobJournal(tmp_path / "j").replay()
        assert [e["type"] for e in events] == ["submitted", "state"]
        assert [e["seq"] for e in events] == [1, 2]

    def test_corrupt_event_is_skipped_not_fatal(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.append({"type": "submitted", "job": "job-1"})
        journal.append({"type": "state", "job": "job-1", "state": QUEUED})
        (tmp_path / "j" / "evt-00000002.json").write_bytes(b"\x00torn{")
        events = JobJournal(tmp_path / "j").replay()
        assert [e["type"] for e in events] == ["submitted"]

    def test_sequence_continues_after_reopen(self, tmp_path):
        JobJournal(tmp_path / "j").append({"type": "submitted"})
        reopened = JobJournal(tmp_path / "j")
        reopened.append({"type": "state"})
        names = sorted(p.name for p in (tmp_path / "j").glob("evt-*"))
        assert names == ["evt-00000001.json", "evt-00000002.json"]


class TestJobStore:
    def test_submit_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path)
        spec = JobSpec.from_dict(spec_dict())
        job, created = store.submit(spec)
        again, created_again = store.submit(spec)
        assert created and not created_again
        assert again is job

    def test_explicit_key_beats_digest(self, tmp_path):
        store = JobStore(tmp_path)
        a, _ = store.submit(JobSpec.from_dict(spec_dict(n=1)), "same-key")
        b, created = store.submit(JobSpec.from_dict(spec_dict(n=2)),
                                  "same-key")
        assert b is a and not created

    def test_illegal_transition_raises(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(JobSpec.from_dict(spec_dict()))
        with pytest.raises(ValueError, match="illegal transition"):
            store.transition(job, COMPLETED)     # submitted -> completed

    def test_recovery_requeues_running_jobs_as_resumable(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(JobSpec.from_dict(spec_dict()))
        store.transition(job, QUEUED)
        store.transition(job, RUNNING, pid=12345, attempts=1)
        # ... server dies here (nothing else is written) ...
        recovered = JobStore(tmp_path)
        requeued = recovered.recover()
        assert [j.id for j in requeued] == [job.id]
        back = recovered.jobs[job.id]
        assert back.state == QUEUED
        assert back.resume is True
        assert back.attempts == 1
        assert back.pid == 12345             # for the orphan-runner kill

    def test_recovery_preserves_terminal_states_and_idempotency(
            self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(JobSpec.from_dict(spec_dict()), "the-key")
        store.transition(job, QUEUED)
        store.transition(job, RUNNING, attempts=1)
        store.transition(job, COMPLETED, summary={"total": 3})
        recovered = JobStore(tmp_path)
        assert recovered.recover() == []
        back = recovered.get_by_key("the-key")
        assert back is not None
        assert back.state == COMPLETED
        assert back.summary == {"total": 3}
        # New submissions continue the id sequence, never reuse it.
        fresh, _ = recovered.submit(JobSpec.from_dict(spec_dict(n=9)))
        assert fresh.id != back.id

    def test_recovery_converges_after_crash_during_recovery(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(JobSpec.from_dict(spec_dict()))
        store.transition(job, QUEUED)
        store.transition(job, RUNNING, attempts=1)
        JobStore(tmp_path).recover()     # writes the requeue, "crashes"
        second = JobStore(tmp_path)
        second.recover()
        assert second.jobs[job.id].state == QUEUED
        assert second.jobs[job.id].resume is True

    def test_recovery_returns_already_queued_jobs(self, tmp_path):
        """Jobs whose last journaled state already is ``queued`` —
        normal queued submissions, and jobs a graceful drain settled
        as queued+resume — must come back from recover() so the server
        pushes them onto the scheduler queues (regression: they used
        to be stranded 'queued' forever after a restart)."""
        store = JobStore(tmp_path)
        waiting, _ = store.submit(JobSpec.from_dict(spec_dict(n=1)))
        store.transition(waiting, QUEUED)
        drained, _ = store.submit(JobSpec.from_dict(spec_dict(n=2)))
        store.transition(drained, QUEUED)
        store.transition(drained, RUNNING, attempts=1)
        store.transition(drained, DRAINING)
        store.transition(drained, QUEUED, resume=True)  # graceful drain
        recovered = JobStore(tmp_path)
        requeued = recovered.recover()
        assert sorted(j.id for j in requeued) == \
            sorted([waiting.id, drained.id])
        assert recovered.jobs[waiting.id].state == QUEUED
        assert recovered.jobs[drained.id].resume is True

    def test_draining_jobs_recover_as_resumable(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(JobSpec.from_dict(spec_dict()))
        store.transition(job, QUEUED)
        store.transition(job, RUNNING, attempts=1)
        store.transition(job, DRAINING)
        recovered = JobStore(tmp_path)
        recovered.recover()
        assert recovered.jobs[job.id].state == QUEUED
        assert recovered.jobs[job.id].resume is True

    def test_journal_write_fault_surfaces_not_corrupts(self, tmp_path):
        """ENOSPC while journaling a submission is a loud error; the
        events already on disk replay untouched."""
        store = JobStore(tmp_path)
        store.submit(JobSpec.from_dict(spec_dict(n=1)))
        with failing_writes("evt-"):
            with pytest.raises(OSError):
                store.submit(JobSpec.from_dict(spec_dict(n=2)))
        recovered = JobStore(tmp_path)
        recovered.recover()
        assert len(recovered.jobs) == 1


class TestTenantQueues:
    def test_fifo_within_tenant(self):
        queues = TenantQueues()
        for i in range(3):
            queues.push("a", f"job-{i}")
        assert [queues.pop() for _ in range(3)] == \
            ["job-0", "job-1", "job-2"]
        assert queues.pop() is None

    def test_round_robin_across_tenants(self):
        queues = TenantQueues()
        queues.push("a", "a1")
        queues.push("a", "a2")
        queues.push("b", "b1")
        queues.push("c", "c1")
        order = [queues.pop() for _ in range(4)]
        # One job per tenant per cycle: tenant a cannot starve b and c.
        assert order.index("b1") < order.index("a2")
        assert order.index("c1") < order.index("a2")
        assert sorted(order) == ["a1", "a2", "b1", "c1"]

    def test_remove_and_depth(self):
        queues = TenantQueues()
        queues.push("a", "a1")
        queues.push("b", "b1")
        assert queues.depth() == 2
        assert queues.remove("a", "a1") is True
        assert queues.remove("a", "a1") is False
        assert queues.depth("a") == 0
        assert queues.depth() == 1


class TestAdmissionControl:
    def test_queue_depth_cap(self, tmp_path):
        control = AdmissionControl(tmp_path, max_queue_depth=2,
                                   max_tenant_depth=2,
                                   min_disk_free_bytes=0)
        queues = TenantQueues()
        assert control.admit(queues, "a").accepted
        queues.push("a", "a1")
        queues.push("b", "b1")
        decision = control.admit(queues, "c")
        assert not decision.accepted
        assert "queue full" in decision.reason
        assert decision.retry_after > 0

    def test_tenant_cap_spares_other_tenants(self, tmp_path):
        control = AdmissionControl(tmp_path, max_queue_depth=100,
                                   max_tenant_depth=1,
                                   min_disk_free_bytes=0)
        queues = TenantQueues()
        queues.push("a", "a1")
        assert not control.admit(queues, "a").accepted
        assert control.admit(queues, "b").accepted

    def test_disk_headroom_floor_degrades(self, tmp_path):
        starved = AdmissionControl(tmp_path,
                                   min_disk_free_bytes=1 << 62)
        assert starved.degraded()
        decision = starved.admit(TenantQueues(), "a")
        assert not decision.accepted
        assert "degraded" in decision.reason


class TestWatchdog:
    def test_stall_detection_and_forget(self):
        watchdog = Watchdog(stall_timeout=0.05)
        watchdog.beat("job-1")
        watchdog.beat("job-2")
        assert watchdog.stalled() == []
        time.sleep(0.08)
        assert sorted(watchdog.stalled()) == ["job-1", "job-2"]
        watchdog.beat("job-1")
        watchdog.forget("job-2")
        assert watchdog.stalled() == []


class TestEventLog:
    def test_cap_drops_oldest_and_keeps_absolute_cursors(self):
        from repro.service.server import _EventLog
        log = _EventLog(cap=4)
        for i in range(10):
            log.append({"i": i})
        assert log.base == 6 and log.end == 10
        assert [e["i"] for e in log.since(0)] == [6, 7, 8, 9]
        assert [e["i"] for e in log.since(8)] == [8, 9]
        assert log.since(10) == []


@pytest.mark.skipif(not os.path.exists("/proc/self/cmdline"),
                    reason="orphan matching reads /proc")
class TestOrphanRunnerKill:
    def test_only_this_jobs_runner_is_killed(self, tmp_path):
        """A recycled pid — even one running *some* runner, but for a
        different job/spec — must be spared; only a process whose argv
        carries this job's spec path is SIGKILLed."""
        service = CampaignService(
            ServiceConfig(cache_dir=tmp_path / "cache"))
        job, _ = service.store.submit(JobSpec.from_dict(spec_dict()))
        sleeper = [sys.executable, "-c", "import time; time.sleep(60)",
                   "repro.service.runner"]
        impostor = subprocess.Popen(sleeper + ["/elsewhere/spec.json"])
        genuine = subprocess.Popen(
            sleeper + [str(service.store.spec_path(job))])
        try:
            job.pid = impostor.pid
            service._kill_orphan_runner(job)
            time.sleep(0.2)
            assert impostor.poll() is None    # wrong spec path: spared
            job.pid = genuine.pid
            service._kill_orphan_runner(job)
            genuine.wait(timeout=10)
            assert genuine.returncode == -signal.SIGKILL
        finally:
            for proc in (impostor, genuine):
                with contextlib.suppress(ProcessLookupError):
                    proc.kill()
                proc.wait(timeout=10)


@pytest.fixture
def idle_service(tmp_path):
    """A live service whose scheduler never launches (max_running=0):
    jobs stay queued, making queue/admission behaviour observable."""
    config = ServiceConfig(cache_dir=tmp_path / "cache", max_running=0,
                           max_queue_depth=3, max_tenant_depth=2)
    with ServiceThread(config) as thread:
        yield ServiceClient(port=thread.port), thread


class TestServiceHTTP:
    def test_probes(self, idle_service):
        client, _ = idle_service
        assert client.healthz() == {"status": "ok"}
        assert client.readyz() == {"status": "ready"}

    def test_submit_and_get(self, idle_service):
        client, _ = idle_service
        job = client.submit(spec_dict())
        assert job["state"] == "queued"
        assert client.job(job["id"])["id"] == job["id"]
        assert [j["id"] for j in client.jobs()] == [job["id"]]

    def test_unknown_job_is_404(self, idle_service):
        client, _ = idle_service
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_malformed_spec_is_400(self, idle_service):
        client, _ = idle_service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"style": "nope"})
        assert excinfo.value.status == 400

    def test_unknown_interface_kind_is_400_naming_field(self, idle_service):
        client, _ = idle_service
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_dict(
                **{"params": {"n": 3, "interface_kinds": ["freeze",
                                                          "explode"]}}))
        assert excinfo.value.status == 400
        assert "spec.params.interface_kinds" in str(excinfo.value)
        assert "explode" in str(excinfo.value)

    def test_unknown_interface_channel_is_400_naming_field(
            self, idle_service):
        client, _ = idle_service
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_dict(
                **{"params": {"n": 3,
                              "interface_channels": ["warp_drive"]}}))
        assert excinfo.value.status == 400
        assert "spec.params.interface_channels" in str(excinfo.value)

    def test_string_top_k_is_400_naming_field(self, idle_service):
        client, _ = idle_service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"style": "bayesian", "params": {"top_k": "5"}})
        assert excinfo.value.status == 400
        assert "spec.params.top_k" in str(excinfo.value)

    def test_idempotency_key_header(self, idle_service):
        client, _ = idle_service
        a = client.submit(spec_dict(n=1), idempotency_key="key-1")
        b = client.submit(spec_dict(n=1), idempotency_key="key-1")
        assert b["id"] == a["id"]
        assert len(client.jobs()) == 1

    def test_idempotency_key_conflict_is_409(self, idle_service):
        """Reusing a key with a *different* spec must not silently
        discard the new spec — it is a loud conflict."""
        client, _ = idle_service
        a = client.submit(spec_dict(n=1), idempotency_key="key-1")
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_dict(n=2), idempotency_key="key-1")
        assert excinfo.value.status == 409
        assert a["id"] in excinfo.value.payload["error"]
        assert len(client.jobs()) == 1

    def test_queue_backpressure_is_429_with_retry_after(self,
                                                        idle_service):
        client, _ = idle_service
        for i in range(2):
            client.submit(spec_dict(n=i + 10, tenant=f"t{i}"))
        # Global cap is 3; tenant cap is 2 — tenant t0 trips its cap.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_dict(n=50, tenant="t0"))
            client.submit(spec_dict(n=51, tenant="t0"))
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None

    def test_cancel_queued_job(self, idle_service):
        client, _ = idle_service
        job = client.submit(spec_dict())
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        assert client.stats()["queued"] == 0

    def test_stats_shape(self, idle_service):
        client, _ = idle_service
        stats = client.stats()
        assert stats["accepting"] is True
        assert stats["running"] == []
        assert stats["degraded"] is False
        assert stats["disk_free"] > 0

    def test_degraded_mode_rejects_but_stays_healthy(self, tmp_path):
        config = ServiceConfig(cache_dir=tmp_path / "cache",
                               max_running=0,
                               min_disk_free_bytes=1 << 62)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.port)
            assert client.healthz() == {"status": "ok"}
            with pytest.raises(ServiceError) as ready:
                client.readyz()
            assert ready.value.status == 503
            assert ready.value.payload["status"] == "degraded"
            with pytest.raises(ServiceError) as submit:
                client.submit(spec_dict())
            assert submit.value.status == 429
            assert "degraded" in submit.value.payload["error"]

    def test_drain_rejects_new_work_and_journals_queue(self, tmp_path):
        config = ServiceConfig(cache_dir=tmp_path / "cache",
                               max_running=0)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.port)
            job = client.submit(spec_dict())
            thread.drain()
        # The drained server is gone; its durable state must bring the
        # queued job back on the next start — recover() has to *return*
        # it, or the next scheduler never hears about it.
        store = JobStore(tmp_path / "cache" / "service")
        requeued = store.recover()
        assert [j.id for j in requeued] == [job["id"]]
        assert store.jobs[job["id"]].state == QUEUED

    def test_drained_job_completes_after_restart(self, tmp_path):
        """End-to-end drain → restart: the job a drain left queued must
        actually launch and finish on the next server, not just be
        recovered as 'queued'."""
        cache = tmp_path / "cache"
        spec = {"style": "random", "params": {"n": 2, "seed": 1},
                "scenarios": [{"name": "highway_cruise",
                               "duration": 14.0}]}
        with ServiceThread(ServiceConfig(cache_dir=cache,
                                         max_running=0)) as thread:
            job = ServiceClient(port=thread.port).submit(spec)
            assert job["state"] == "queued"
            thread.drain()
        with ServiceThread(ServiceConfig(cache_dir=cache)) as thread:
            final = ServiceClient(port=thread.port).wait(job["id"],
                                                         timeout=240)
            assert final["state"] == "completed"
            assert final["summary"]["total"] == 2

    def test_restarted_service_remembers_idempotency_keys(self, tmp_path):
        cache = tmp_path / "cache"
        config = ServiceConfig(cache_dir=cache, max_running=0)
        with ServiceThread(config) as thread:
            first = ServiceClient(port=thread.port).submit(
                spec_dict(), idempotency_key="sticky")
        with ServiceThread(config) as thread:
            again = ServiceClient(port=thread.port).submit(
                spec_dict(), idempotency_key="sticky")
            assert again["id"] == first["id"]
            assert len(ServiceClient(port=thread.port).jobs()) == 1

    def test_finished_job_event_logs_expire(self, tmp_path):
        """Event histories are bounded in an always-on process: once
        enough newer jobs finish, the oldest finished job's log is
        dropped — its stream ends cleanly instead of replaying."""
        config = ServiceConfig(cache_dir=tmp_path / "cache",
                               max_running=0, max_queue_depth=64,
                               max_tenant_depth=64,
                               max_finished_event_logs=2)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.port)
            ids = []
            for i in range(4):
                job = client.submit(spec_dict(n=100 + i))
                client.cancel(job["id"])
                ids.append(job["id"])
            assert thread.service is not None
            assert len(thread.service._events) <= 2
            assert list(client.events(ids[0])) == []
            states = [e["state"] for e in client.events(ids[-1])
                      if e["type"] == "state"]
            assert states == ["queued", "cancelled"]

    def test_events_endpoint_replays_state_history(self, idle_service):
        client, _ = idle_service
        job = client.submit(spec_dict())
        client.cancel(job["id"])
        events = list(client.events(job["id"]))
        states = [e["state"] for e in events if e["type"] == "state"]
        assert states == ["queued", "cancelled"]

    def test_records_of_unfinished_job_is_404(self, idle_service):
        client, _ = idle_service
        job = client.submit(spec_dict())
        with pytest.raises(ServiceError) as excinfo:
            client.records(job["id"])
        assert excinfo.value.status == 404


class TestServiceExecution:
    """One real (tiny) campaign through the in-process service."""

    def test_job_executes_and_reports_summary(self, tmp_path):
        config = ServiceConfig(cache_dir=tmp_path / "cache")
        spec = {"style": "random", "params": {"n": 2, "seed": 1},
                "scenarios": [{"name": "highway_cruise",
                               "duration": 14.0}]}
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.port)
            job = client.submit(spec)
            final = client.wait(job["id"], timeout=240)
            assert final["state"] == "completed"
            assert final["summary"]["total"] == 2
            assert final["summary"]["journal"]["appended"] == 2
            raw = client.records(job["id"])
            lines = [json.loads(line)
                     for line in raw.decode().strip().splitlines()]
            assert len(lines) == 3           # _meta header + 2 records
            assert lines[0]["_meta"]["style"] == "random"
            events = list(client.events(job["id"]))
            stages = {e["stage"] for e in events
                      if e["type"] == "progress"}
            assert "validated" in stages

    def test_spawn_failure_fails_job_not_scheduler(self, tmp_path):
        """An OSError from create_subprocess_exec consumes launch
        attempts and fails the job — and the scheduler survives it to
        run the next job end-to-end."""
        import asyncio
        real = asyncio.create_subprocess_exec

        async def refuse(*args, **kwargs):
            raise OSError("chaos: exec refused")

        config = ServiceConfig(cache_dir=tmp_path / "cache",
                               max_attempts=2)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.port)
            asyncio.create_subprocess_exec = refuse
            try:
                job = client.submit(spec_dict())
                final = client.wait(job["id"], timeout=60)
            finally:
                asyncio.create_subprocess_exec = real
            assert final["state"] == "failed"
            assert "spawn" in final["error"]
            assert final["attempts"] == 2     # both tries consumed
            ok = client.submit(
                {"style": "random", "params": {"n": 1, "seed": 1},
                 "scenarios": [{"name": "highway_cruise",
                                "duration": 14.0}]})
            assert client.wait(ok["id"], timeout=240)["state"] == \
                "completed"

    def test_cancel_during_launch_kills_runner_not_scheduler(
            self, tmp_path):
        """A cancel racing create_subprocess_exec used to blow up the
        scheduler task with an illegal queued→running transition (and
        leave the fresh runner unsupervised); now the runner is killed
        and scheduling continues."""
        import asyncio
        real = asyncio.create_subprocess_exec
        entered = threading.Event()
        release = threading.Event()

        async def slow_spawn(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                while not release.is_set():
                    await asyncio.sleep(0.01)
            return await real(*args, **kwargs)

        config = ServiceConfig(cache_dir=tmp_path / "cache")
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.port)
            asyncio.create_subprocess_exec = slow_spawn
            try:
                job = client.submit(spec_dict())
                assert entered.wait(timeout=10)
                cancelled = client.cancel(job["id"])  # lands mid-spawn
                assert cancelled["state"] == "cancelled"
                release.set()
            finally:
                asyncio.create_subprocess_exec = real
            ok = client.submit(
                {"style": "random", "params": {"n": 1, "seed": 1},
                 "scenarios": [{"name": "highway_cruise",
                                "duration": 14.0}]})
            assert client.wait(ok["id"], timeout=240)["state"] == \
                "completed"
            assert client.job(job["id"])["state"] == "cancelled"

    def test_stalled_runner_is_killed_and_failed(self, tmp_path):
        """A runner that wedges (no events, no exit) trips the
        watchdog; with retries exhausted the job fails with a clear
        error."""
        import os
        from repro.service.runner import (ALIVE_INTERVAL_ENV,
                                          STALL_AFTER_ENV)
        os.environ[STALL_AFTER_ENV] = "0"
        os.environ[ALIVE_INTERVAL_ENV] = "0.05"
        try:
            config = ServiceConfig(cache_dir=tmp_path / "cache",
                                   stall_timeout=1.0, max_attempts=1)
            spec = {"style": "random", "params": {"n": 2, "seed": 1},
                    "scenarios": [{"name": "highway_cruise",
                                   "duration": 14.0}]}
            with ServiceThread(config) as thread:
                client = ServiceClient(port=thread.port)
                job = client.submit(spec)
                final = client.wait(job["id"], timeout=120)
                assert final["state"] == "failed"
                assert "died" in final["error"]
        finally:
            os.environ.pop(STALL_AFTER_ENV, None)
            os.environ.pop(ALIVE_INTERVAL_ENV, None)
