"""Unit coverage of the resilience layer (PR 6).

:mod:`repro.core.resilience` is tested end-to-end by the chaos suite
(``tests/test_chaos_equivalence.py``); this module pins the component
contracts each driver builds on — supervision policy validation, seeded
backoff, serial retry/quarantine, the supervised pool's failure modes,
failure-record persistence, the completion journal, and lease claims —
so a regression points at the broken part, not at a diverged campaign.
"""

import multiprocessing
import os
import signal
import time
from dataclasses import asdict, replace

import pytest
from reference import random_jobs, reference_records, strip_wall

from repro.core import (Campaign, CampaignConfig, CampaignSummary,
                        FaultSpec, Hazard, ResilienceConfig)
from repro.core.checkpoint import CheckpointStore
from repro.core.persistence import (JsonlRecordSink, iter_records_jsonl,
                                    merge_record_shards, record_from_dict,
                                    record_to_dict)
from repro.core.pipeline import CampaignPipeline
from repro.core.plans import RandomPlan
from repro.core.resilience import (CampaignExecutionError, CampaignJournal,
                                   JobFailure, LeaseBoard,
                                   SupervisedExecutor, _backoff_delay,
                                   failure_record, run_supervised_serial)
from repro.core.results import ExperimentRecord
from repro.sim import Scenario, highway_cruise, lead_vehicle_cutin

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def small_scenarios():
    return [replace(highway_cruise(), duration=16.0),
            replace(lead_vehicle_cutin(), duration=14.0)]


def ok_record(scenario="s", tick=10, variable="brake", value=0.0,
              **overrides):
    fields = dict(
        scenario=scenario, injection_tick=tick, variable=variable,
        value=value, duration_ticks=4, seed=0, hazard=Hazard.NONE,
        landed=True, pre_delta_long=4.0, pre_delta_lat=1.5,
        min_delta_long=2.0, min_delta_lat=0.75, sim_seconds=10.0,
        wall_seconds=0.25)
    fields.update(overrides)
    return ExperimentRecord(**fields)


# -- policy + backoff ----------------------------------------------------------

class TestResilienceConfig:
    def test_defaults_are_forgiving_not_strict(self):
        policy = ResilienceConfig()
        assert policy.max_attempts == 3
        assert policy.job_timeout is None
        assert not policy.strict
        assert policy.journal and not policy.resume
        assert not policy.lease_mode

    def test_rejects_nonpositive_attempts(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ResilienceConfig(max_attempts=0)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="job_timeout"):
            ResilienceConfig(job_timeout=0.0)


class TestBackoff:
    def test_deterministic_per_seed_job_attempt(self):
        policy = ResilienceConfig()
        first = _backoff_delay(policy, 7, ("s", 10), 1)
        assert first == _backoff_delay(policy, 7, ("s", 10), 1)
        assert first != _backoff_delay(policy, 7, ("s", 10), 2)
        assert first != _backoff_delay(policy, 8, ("s", 10), 1)

    def test_bounded_by_cap_with_jitter(self):
        policy = ResilienceConfig(backoff_base=0.1, backoff_cap=0.5)
        for attempt in range(1, 12):
            delay = _backoff_delay(policy, 0, "job", attempt)
            assert 0.0 <= delay <= 0.5 * 1.5

    def test_zero_base_disables_backoff(self):
        policy = ResilienceConfig(backoff_base=0.0)
        assert _backoff_delay(policy, 0, "job", 3) == 0.0


# -- serial supervision --------------------------------------------------------

class TestSerialSupervision:
    fast = ResilienceConfig(max_attempts=3, backoff_base=0.001)

    def test_success_passes_through(self):
        value, failure = run_supervised_serial(
            lambda: 42, self.fast, seed=0, key="k")
        assert (value, failure) == (42, None)

    def test_flaky_job_retries_to_success(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return "done"

        value, failure = run_supervised_serial(flaky, self.fast, 0, "k")
        assert value == "done" and failure is None
        assert attempts["n"] == 3

    def test_persistent_failure_quarantines_with_attempts(self):
        def broken():
            raise ValueError("sim exploded")

        value, failure = run_supervised_serial(broken, self.fast, 0, "k")
        assert value is None
        assert failure == JobFailure(error="ValueError",
                                     message="sim exploded", attempts=3)

    def test_strict_reraises_the_original_exception(self):
        policy = ResilienceConfig(strict=True)

        def broken():
            raise ValueError("sim exploded")

        with pytest.raises(ValueError, match="sim exploded"):
            run_supervised_serial(broken, policy, 0, "k")

    def test_keyboard_interrupt_is_never_retried(self):
        calls = {"n": 0}

        def interrupted():
            calls["n"] += 1
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_supervised_serial(interrupted, self.fast, 0, "k")
        assert calls["n"] == 1


# -- failure records + persistence (S5) ---------------------------------------

class TestFailureRecords:
    fault = FaultSpec("brake", 0.0, 40, 4)
    failure = JobFailure(error="Timeout", message="exceeded 2s wall clock",
                         attempts=3)

    def test_failure_record_occupies_the_job_slot(self):
        record = failure_record("highway_cruise", self.fault,
                                CampaignConfig(seed=9), self.failure)
        assert record.failed
        assert (record.scenario, record.injection_tick, record.variable,
                record.value, record.duration_ticks, record.seed) == \
            ("highway_cruise", 40, "brake", 0.0, 4, 9)
        assert record.error == "Timeout: exceeded 2s wall clock"
        assert record.attempts == 3
        assert record.hazard is Hazard.NONE and not record.landed
        assert record.sim_seconds == 0.0

    def test_success_records_are_not_failed(self):
        assert not ok_record().failed
        assert ok_record().error is None and ok_record().attempts == 1

    def test_success_serialization_has_no_failure_keys(self):
        # Byte-compatibility with pre-resilience streams: a healthy
        # record's dict form is unchanged.
        row = record_to_dict(ok_record())
        assert "error" not in row and "attempts" not in row

    def test_failure_round_trips_through_dict(self):
        record = failure_record("s", self.fault, CampaignConfig(),
                                self.failure)
        row = record_to_dict(record)
        assert row["error"] == "Timeout: exceeded 2s wall clock"
        assert row["attempts"] == 3
        assert record_from_dict(row) == record

    def test_failures_flow_through_jsonl_sink_and_merge(self, tmp_path):
        records = [ok_record(tick=10),
                   failure_record("s", self.fault, CampaignConfig(),
                                  self.failure),
                   ok_record(tick=80)]
        path = tmp_path / "stream.jsonl"
        with JsonlRecordSink(path, style="random") as sink:
            for record in records:
                sink.add(record)
        assert list(iter_records_jsonl(path)) == records
        merged = merge_record_shards([path], keep_records=True)
        assert merged.total == 2
        assert merged.failures == 1
        assert merged.records == records

    def test_summary_counts_failures_apart_from_science(self):
        failed = failure_record("s", self.fault, CampaignConfig(),
                                self.failure)
        healthy = CampaignSummary([ok_record(tick=10), ok_record(tick=20)])
        disturbed = CampaignSummary([ok_record(tick=10),
                                     ok_record(tick=20), failed])
        assert disturbed.total == 2 and disturbed.failures == 1
        assert disturbed.hazards == healthy.hazards
        assert not disturbed.same_aggregates(healthy)   # failures differ
        assert "failures=1" in repr(disturbed)
        assert "failures" not in repr(healthy)
        merged = CampaignSummary.merge([disturbed, healthy])
        assert merged.total == 4 and merged.failures == 1


# -- the supervised pool -------------------------------------------------------

def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _crash(_payload):
    os.kill(os.getpid(), signal.SIGKILL)


def _crash_once(flag_path):
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return "recovered"


def _sleep_forever(_payload):
    time.sleep(60)


def _bad_init():
    raise RuntimeError("no simulator here")


@pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
class TestSupervisedExecutor:
    def pool(self, workers=2, initializer=None, **policy_kw):
        policy_kw.setdefault("backoff_base", 0.001)
        return SupervisedExecutor(
            workers, multiprocessing.get_context("fork"),
            initializer=initializer, policy=ResilienceConfig(**policy_kw),
            seed=7)

    def test_results_arrive_tagged(self):
        with self.pool() as pool:
            for n in range(5):
                pool.submit(_square, n, tag=("sq", n))
            events = sorted(pool.drain())
        assert events == [(("sq", n), n * n, None) for n in range(5)]

    def test_crashed_worker_respawns_and_job_retries(self, tmp_path):
        with self.pool() as pool:
            pool.submit(_crash_once, str(tmp_path / "flag"), tag="job")
            events = list(pool.drain())
        assert events == [("job", "recovered", None)]

    def test_repeated_crashes_quarantine_with_attempt_count(self):
        with self.pool(max_attempts=2) as pool:
            pool.submit(_crash, None, tag="doomed")
            ((tag, value, failure),) = pool.drain()
        assert (tag, value) == ("doomed", None)
        assert failure.error == "WorkerCrash"
        assert failure.attempts == 2

    def test_raised_exceptions_quarantine_with_class_name(self):
        with self.pool(max_attempts=2) as pool:
            pool.submit(_boom, 3, tag="job")
            ((_, value, failure),) = pool.drain()
        assert value is None
        assert failure.error == "ValueError"
        assert "boom 3" in failure.message
        assert failure.attempts == 2

    def test_timeout_kills_the_worker_and_reports(self):
        with self.pool(max_attempts=1) as pool:
            start = time.monotonic()
            pool.submit(_sleep_forever, None, tag="slow", timeout=0.4)
            ((_, value, failure),) = pool.drain()
            elapsed = time.monotonic() - start
        assert value is None
        assert failure.error == "Timeout"
        assert "wall clock" in failure.message
        assert elapsed < 30.0            # did not wait out the sleep

    def test_strict_raises_instead_of_quarantining(self):
        with pytest.raises(CampaignExecutionError, match="strict"):
            with self.pool(max_attempts=1, strict=True) as pool:
                pool.submit(_boom, 1, tag="job")
                list(pool.drain())

    def test_failed_initializer_surfaces_not_hangs(self):
        with pytest.raises(CampaignExecutionError,
                           match="initialization"):
            with self.pool(initializer=_bad_init) as pool:
                pool.submit(_square, 2, tag="job")
                list(pool.drain())

    def test_mixed_outcomes_preserve_every_submission(self):
        with self.pool(max_attempts=2) as pool:
            for n in range(4):
                pool.submit(_square, n, tag=("ok", n))
            pool.submit(_boom, 9, tag=("bad", 9))
            events = list(pool.drain())
        assert pool.outstanding == 0
        by_tag = {tag: (value, failure) for tag, value, failure in events}
        assert len(by_tag) == 5
        assert all(by_tag[("ok", n)] == (n * n, None) for n in range(4))
        assert by_tag[("bad", 9)][1].error == "ValueError"


# -- completion journal --------------------------------------------------------

class TestCampaignJournal:
    fault = FaultSpec("brake", 0.0, 10, 4)

    def journal(self, tmp_path, key="work", resume=False):
        journal = CampaignJournal(tmp_path / "journal", campaign_key=key)
        journal.start(resume=resume)
        return journal

    def test_append_then_claim_round_trips_verbatim(self, tmp_path):
        first = self.journal(tmp_path)
        record = ok_record(tick=10, wall_seconds=1.25)
        first.append(record)
        first.close()
        assert first.appended == 1

        resumed = self.journal(tmp_path, resume=True)
        assert resumed.loaded_count == 1
        claimed = resumed.claim("s", self.fault, seed=0)
        assert claimed == record          # wall clock included: verbatim
        assert resumed.hits == 1
        assert resumed.claim("s", self.fault, seed=0) is None

    def test_duplicate_identities_are_a_multiset(self, tmp_path):
        # A seeded draw can repeat a fault; each journaled copy
        # satisfies exactly one occurrence, in append order.
        first = self.journal(tmp_path)
        first.append(ok_record(wall_seconds=1.0))
        first.append(ok_record(wall_seconds=2.0))
        first.close()

        resumed = self.journal(tmp_path, resume=True)
        assert resumed.claim("s", self.fault, 0).wall_seconds == 1.0
        assert resumed.claim("s", self.fault, 0).wall_seconds == 2.0
        assert resumed.claim("s", self.fault, 0) is None

    def test_fresh_start_clears_previous_segments(self, tmp_path):
        first = self.journal(tmp_path)
        first.append(ok_record())
        first.close()
        fresh = self.journal(tmp_path, resume=False)
        assert not list(fresh.directory.glob("seg-*.jsonl"))
        resumed = self.journal(tmp_path, resume=True)
        assert resumed.claim("s", self.fault, 0) is None

    def test_foreign_campaign_key_is_ignored_and_replaced(self, tmp_path):
        first = self.journal(tmp_path, key="alpha")
        first.append(ok_record())
        first.close()
        other = self.journal(tmp_path, key="beta", resume=True)
        assert other.loaded_count == 0
        assert other.claim("s", self.fault, 0) is None
        assert not list(other.directory.glob("seg-*.jsonl"))

    def test_failures_are_never_journaled(self, tmp_path):
        journal = self.journal(tmp_path)
        journal.append(failure_record(
            "s", self.fault, CampaignConfig(),
            JobFailure("Timeout", "exceeded", 3)))
        journal.close()
        assert journal.appended == 0
        assert not list(journal.directory.glob("seg-*.jsonl"))

    def test_wrong_seed_is_a_different_experiment(self, tmp_path):
        first = self.journal(tmp_path)
        first.append(ok_record(seed=0))
        first.close()
        resumed = self.journal(tmp_path, resume=True)
        assert resumed.claim("s", self.fault, seed=1) is None
        assert resumed.claim("s", self.fault, seed=0) is not None


# -- lease board ---------------------------------------------------------------

class TestLeaseBoard:
    def board(self, tmp_path, owner, ttl=30.0):
        return LeaseBoard(tmp_path / "board", style="random",
                          owner=owner, ttl=ttl)

    def test_claims_are_exclusive_between_owners(self, tmp_path):
        a = self.board(tmp_path, "host-a")
        b = self.board(tmp_path, "host-b")
        assert a.try_claim("scene")
        assert not b.try_claim("scene")
        assert a.try_claim("scene")       # re-claiming own lease is fine

    def test_release_hands_the_scenario_over(self, tmp_path):
        a = self.board(tmp_path, "host-a")
        b = self.board(tmp_path, "host-b")
        assert a.try_claim("scene")
        a.release("scene")
        assert b.try_claim("scene")

    def test_expired_lease_is_stolen(self, tmp_path):
        dead = self.board(tmp_path, "host-dead", ttl=0.2)
        live = self.board(tmp_path, "host-live")
        assert dead.try_claim("scene")
        assert not live.try_claim("scene")
        time.sleep(0.3)
        assert live.try_claim("scene")    # TTL elapsed, no heartbeat

    def test_heartbeat_keeps_the_lease_alive(self, tmp_path):
        a = self.board(tmp_path, "host-a", ttl=0.6)
        b = self.board(tmp_path, "host-b")
        assert a.try_claim("scene")
        for _ in range(4):
            time.sleep(0.15)
            a.heartbeat(min_interval=0.0)
        assert not b.try_claim("scene")   # refreshed well past first TTL

    def test_heartbeat_oserror_warns_and_retries_next_beat(self, tmp_path):
        """A shared-FS flake during TTL refresh degrades to a warning.

        The owning worker must not crash, the on-disk lease must stay
        intact (it just drifts toward expiry), and — because a failed
        beat leaves the rate-limit timer un-armed — the very next
        heartbeat call must retry instead of waiting out another
        interval.
        """
        from chaos_harness import failing_writes
        a = self.board(tmp_path, "host-a", ttl=0.9)   # interval ttl/3
        assert a.try_claim("scene")
        a.heartbeat(min_interval=0.0)       # a successful beat arms it
        before = a._read_lease(a._lease_path("scene"))
        time.sleep(0.35)                    # let the interval elapse
        with failing_writes("lease-") as state:
            with pytest.warns(RuntimeWarning, match="lease heartbeat"):
                a.heartbeat()               # flake: warn, never raise
        assert state["failed"] == 1
        after = a._read_lease(a._lease_path("scene"))
        assert after == before              # refresh never landed
        # Immediately after the flake: had the failed beat armed the
        # timer, this call would be rate-limited away; instead it
        # retries and the lease refreshes.
        a.heartbeat()
        refreshed = a._read_lease(a._lease_path("scene"))
        assert refreshed["expires"] > before["expires"]

    def test_publication_is_the_done_marker(self, tmp_path):
        a = self.board(tmp_path, "host-a")
        b = self.board(tmp_path, "host-b")
        assert a.try_claim("scene")
        a.publish("scene", [ok_record(scenario="scene")])
        a.release("scene")
        assert not b.try_claim("scene")   # done, not claimable
        assert b.is_done("scene")
        (path,) = b.record_paths(["scene", "other"])
        assert list(iter_records_jsonl(path)) == \
            [ok_record(scenario="scene")]
        assert a.published_names(["scene", "other"]) == ["scene"]


# -- campaign-level integration ------------------------------------------------

class TestJournalIntegration:
    def test_resume_replays_every_journaled_record(self, tmp_path):
        first = Campaign(small_scenarios(), CampaignConfig(),
                         cache_dir=tmp_path)
        reference = first.random_campaign(8, seed=11)
        assert first._last_journal.appended == 8
        assert first._last_journal.hits == 0

        resumed = Campaign(
            small_scenarios(),
            CampaignConfig(resilience=ResilienceConfig(resume=True)),
            cache_dir=tmp_path)
        again = resumed.random_campaign(8, seed=11)
        assert resumed._last_journal.hits == 8
        assert resumed._last_journal.appended == 0
        # Pure replay: bit-for-bit including the original wall clocks.
        assert [asdict(r) for r in again.records] == \
            [asdict(r) for r in reference.records]

    def test_distinct_work_never_shares_a_journal(self, tmp_path):
        first = Campaign(small_scenarios(), CampaignConfig(),
                         cache_dir=tmp_path)
        first.random_campaign(6, seed=11)
        resumed = Campaign(
            small_scenarios(),
            CampaignConfig(resilience=ResilienceConfig(resume=True)),
            cache_dir=tmp_path)
        resumed.random_campaign(6, seed=12)   # different draw
        assert resumed._last_journal.hits == 0
        assert resumed._last_journal.appended == 6

    def test_no_journal_opt_out_writes_nothing(self, tmp_path):
        campaign = Campaign(
            small_scenarios(),
            CampaignConfig(resilience=ResilienceConfig(journal=False)),
            cache_dir=tmp_path)
        campaign.random_campaign(4, seed=2)
        assert campaign._last_journal is None
        assert not list(tmp_path.glob("journal-*"))

    def test_run_jobs_journals_identically(self, tmp_path):
        first = Campaign(small_scenarios(), CampaignConfig(),
                         cache_dir=tmp_path)
        jobs = random_jobs(first, 6, seed=11)
        reference = first.run_jobs(jobs)
        assert first._last_journal.appended == 6
        resumed = Campaign(
            small_scenarios(),
            CampaignConfig(resilience=ResilienceConfig(resume=True)),
            cache_dir=tmp_path)
        again = resumed.run_jobs(jobs)
        assert resumed._last_journal.hits == 6
        assert [asdict(r) for r in again.records] == \
            [asdict(r) for r in reference.records]


class _InterruptAfter:
    """Record sink raising KeyboardInterrupt after N validations."""

    def __init__(self, after: int):
        self.after = after
        self.seen = 0

    def add(self, record):
        self.seen += 1
        if self.seen >= self.after:
            raise KeyboardInterrupt


class TestKeyboardInterrupt:
    """S2: ^C mid-pooled-campaign leaves a consistent journal behind."""

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
    @pytest.mark.parametrize("entry", ["pipeline", "run_jobs"])
    def test_interrupt_keeps_prefix_and_resume_completes(self, tmp_path,
                                                         entry):
        oracle = Campaign(small_scenarios(), CampaignConfig())
        jobs = random_jobs(oracle, 8, seed=11)
        reference = CampaignSummary(reference_records(oracle, jobs))

        def run(campaign, **kwargs):
            if entry == "pipeline":
                return campaign.random_campaign(8, seed=11, **kwargs)
            return campaign.run_jobs(jobs, **kwargs)

        interrupted = Campaign(small_scenarios(), CampaignConfig(),
                               cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run(interrupted, workers=2, record_sink=_InterruptAfter(3))

        resumed = Campaign(
            small_scenarios(),
            CampaignConfig(resilience=ResilienceConfig(resume=True)),
            cache_dir=tmp_path)
        summary = run(resumed)
        journal = resumed._last_journal
        assert journal.hits >= 3                  # the flushed prefix
        assert journal.hits + journal.appended == 8
        assert strip_wall(summary.records) == \
            strip_wall(reference.records)


class TestSpawnFallbackWarning:
    """S3: the serial fallback names the argument that cannot pickle."""

    def closure_scenarios(self):
        from repro.sim.world import World
        return [Scenario("closure_cruise",
                         lambda: World.on_highway(ego_speed=28.0),
                         duration=14.0),
                Scenario("closure_fast",
                         lambda: World.on_highway(ego_speed=31.0),
                         duration=14.0)]

    def test_pipeline_driver_warns_naming_scenarios(self):
        campaign = Campaign(self.closure_scenarios(), CampaignConfig())
        with pytest.warns(RuntimeWarning, match="scenarios"):
            summary = CampaignPipeline(
                campaign, workers=2, start_method="spawn").run(
                RandomPlan(campaign, 4, 5))
        oracle = Campaign(self.closure_scenarios(), CampaignConfig())
        reference = reference_records(oracle, random_jobs(oracle, 4, seed=5))
        assert strip_wall(summary.records) == strip_wall(reference)


class TestLadderSpill:
    """S4: pipeline ladders live on the spool, not in driver memory."""

    def test_ladders_spill_to_checkpoint_cache(self, tmp_path):
        campaign = Campaign(small_scenarios(), CampaignConfig(),
                            cache_dir=tmp_path)
        campaign.exhaustive_campaign(tick_stride=40,
                                     variable_names=["brake"])
        # Driver-resident ladder memory is O(one scenario): after the
        # run every ladder has been evicted...
        assert campaign.checkpoints.scenarios() == []
        # ...and the spool holds all of them, reloadable.
        spool = campaign._ladder_spool_dir()
        names = {s.name for s in campaign.scenarios}
        assert CheckpointStore.saved_scenarios(spool) >= names
        store = CheckpointStore()
        for name in names:
            assert store.load_scenario(spool, name)

    def test_spill_without_cache_dir_uses_campaign_tempdir(self):
        campaign = Campaign(small_scenarios(), CampaignConfig())
        campaign.exhaustive_campaign(tick_stride=40,
                                     variable_names=["brake"])
        assert campaign.checkpoints.scenarios() == []
        spool = campaign._ladder_spool_dir()
        assert CheckpointStore.saved_scenarios(spool) >= \
            {s.name for s in campaign.scenarios}

    def test_run_fault_reuses_spilled_ladder(self, monkeypatch):
        """After a campaign without cache_dir, ``run_fault`` forks from
        the spilled ladder instead of re-simulating a golden prefix."""
        campaign = Campaign(small_scenarios(), CampaignConfig())
        campaign.exhaustive_campaign(tick_stride=40,
                                     variable_names=["brake"])
        assert campaign.checkpoints.scenarios() == []
        scenario = campaign.scenarios[0]
        fault = FaultSpec("brake", 0.0,
                          campaign.injection_ticks(scenario)[2], 4)
        reference = reference_records(campaign, [(scenario.name, fault)])

        import repro.core.campaign as campaign_module
        prefix_runs = []
        real = campaign_module.run_scenario

        def counting(*args, **kwargs):
            prefix_runs.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "run_scenario", counting)
        record = campaign.run_fault(scenario.name, fault)
        assert prefix_runs == []
        assert campaign.checkpoints.has_scenario(scenario.name)
        assert strip_wall([record]) == strip_wall(reference)


class TestSerialQuarantine:
    """A deterministically-failing job quarantines in its slot (or
    raises in strict mode) — identically in serial and pooled runs."""

    def _flaky_execute(self, monkeypatch, bad_fault):
        import repro.core.pipeline as pipeline_mod
        real = pipeline_mod.execute_experiment

        def flaky(scenario, config, fault, checkpoint=None):
            if fault == bad_fault:
                raise RuntimeError("sim exploded")
            return real(scenario, config, fault, checkpoint)

        monkeypatch.setattr(pipeline_mod, "execute_experiment", flaky)

    def test_failure_occupies_its_slot(self, monkeypatch):
        scenarios = small_scenarios()
        config = CampaignConfig(resilience=ResilienceConfig(
            max_attempts=2, backoff_base=0.001))
        campaign = Campaign(scenarios, config)
        ticks = campaign.injection_ticks(scenarios[0])
        jobs = [(scenarios[0].name, FaultSpec("brake", 0.0, ticks[1], 4)),
                (scenarios[0].name, FaultSpec("brake", 0.0, ticks[2], 4)),
                (scenarios[0].name, FaultSpec("brake", 0.0, ticks[3], 4))]
        reference = reference_records(campaign, jobs)

        self._flaky_execute(monkeypatch, jobs[1][1])
        records = campaign.run_jobs(jobs).records
        assert [r.failed for r in records] == [False, True, False]
        failed = records[1]
        assert failed.error == "RuntimeError: sim exploded"
        assert failed.attempts == 2
        assert strip_wall([records[0], records[2]]) == \
            strip_wall([reference[0], reference[2]])

    def test_pooled_failure_occupies_only_its_slot(self, monkeypatch):
        """A pool part holds several jobs; the one that keeps raising
        quarantines alone, exactly as in the serial run."""
        from repro.ads.batch import can_fuse
        from repro.ads.runtime import ADSConfig
        scenarios = small_scenarios()
        ads = ADSConfig()
        config = CampaignConfig(
            ads=replace(ads, planner=replace(ads.planner, idm_exponent=3.0)),
            resilience=ResilienceConfig(max_attempts=2, backoff_base=0.001))
        campaign = Campaign(scenarios, config)
        campaign.golden_runs()
        # The fused engine refuses a non-default IDM exponent, so every
        # job runs scalar and the pool cuts them into parts of several
        # jobs each.
        assert not can_fuse(config.ads)
        jobs = random_jobs(campaign, 40, seed=5, interface_share=1.0)
        self._flaky_execute(monkeypatch, jobs[5][1])
        serial = campaign.run_jobs(jobs).records
        pooled = campaign.run_jobs(jobs, workers=2).records
        assert [r.failed for r in serial] == \
            [fault == jobs[5][1] for _, fault in jobs]
        assert sum(r.failed for r in serial) == 1
        assert strip_wall(pooled) == strip_wall(serial)

    def test_strict_mode_raises_the_original_error(self, monkeypatch):
        scenarios = small_scenarios()
        config = CampaignConfig(resilience=ResilienceConfig(strict=True))
        campaign = Campaign(scenarios, config)
        tick = campaign.injection_ticks(scenarios[0])[1]
        fault = FaultSpec("brake", 0.0, tick, 4)
        self._flaky_execute(monkeypatch, fault)
        with pytest.raises(RuntimeError, match="sim exploded"):
            campaign.run_jobs([(scenarios[0].name, fault)])
