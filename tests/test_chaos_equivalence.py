"""Equivalence under chaos: disturbed campaigns equal the serial oracle.

The resilience contract is not "the campaign usually survives" — it is
that a campaign suffering infrastructure faults emits **the same record
stream** as an undisturbed run.  Determinism of the simulator makes
that testable: every experiment re-executed after a worker SIGKILL, a
failed journal write, or a driver kill must reproduce its record
bit-for-bit (wall-clock timing aside), so each test here drives a full
campaign style through :mod:`tests.chaos_harness` disturbances and
compares against the undisturbed serial reference.
"""

import os
import time
from dataclasses import replace

import pytest

from chaos_harness import (chaos_worker_kills, corrupt_journal,
                           failing_writes, run_driver_killed,
                           service_spec, start_service)
from reference import strip_wall
from repro.core import Campaign, CampaignConfig, ResilienceConfig
from repro.core.persistence import merge_record_shards
from repro.sim import highway_cruise, lead_vehicle_cutin, queued_traffic

STYLES = ["random", "exhaustive", "architectural", "bayesian"]


def small_scenarios():
    # Mirrors chaos_harness._DRIVER_TEMPLATE: the subprocess driver and
    # the in-test resume run must agree on cache keys.
    return [replace(highway_cruise(), duration=24.0),
            replace(lead_vehicle_cutin(), duration=16.0),
            replace(queued_traffic(), duration=18.0)]


def candidate_keys(candidates):
    return [(c.scenario, c.injection_tick, c.variable, c.value)
            for c in candidates]


def run_style(campaign: Campaign, style: str, **kwargs):
    """One scaled-down campaign of the given style; returns its summary."""
    if style == "random":
        return campaign.random_campaign(10, seed=11, **kwargs)
    if style == "exhaustive":
        return campaign.exhaustive_campaign(
            tick_stride=40, variable_names=["brake", "steering"],
            **kwargs)
    if style == "architectural":
        summary, _ = campaign.architectural_campaign(18, seed=3, **kwargs)
        return summary
    return campaign.bayesian_campaign(top_k=6, **kwargs).summary


@pytest.fixture(scope="module")
def oracle():
    """Undisturbed serial references, one per campaign style."""
    campaign = Campaign(small_scenarios(), CampaignConfig())
    campaign.golden_runs()
    return {style: run_style(campaign, style) for style in STYLES}


class TestWorkerKillEquivalence:
    """Workers SIGKILLing themselves mid-job must not change one bit."""

    @pytest.mark.parametrize("style", STYLES)
    def test_style_survives_worker_kills(self, oracle, style):
        config = CampaignConfig(
            resilience=ResilienceConfig(max_attempts=8))
        campaign = Campaign(small_scenarios(), config)
        with chaos_worker_kills(0.15, seed=STYLES.index(style)):
            disturbed = run_style(campaign, style, workers=2)
        assert strip_wall(disturbed.records) == \
            strip_wall(oracle[style].records)
        assert disturbed.same_aggregates(oracle[style])
        assert disturbed.failures == 0


class TestJournalWriteFaults:
    """A dying disk under the journal degrades durability, not results."""

    def test_failed_journal_writes_keep_stream_intact(self, tmp_path,
                                                      oracle):
        config = CampaignConfig(resilience=ResilienceConfig())
        campaign = Campaign(small_scenarios(), config,
                            cache_dir=tmp_path / "cache")
        with failing_writes("journal-") as state:
            summary = run_style(campaign, "random")
        assert state["failed"] > 0          # the fault actually fired
        assert strip_wall(summary.records) == \
            strip_wall(oracle["random"].records)
        journal_dirs = list((tmp_path / "cache").glob("journal-*"))
        assert all(not list(d.glob("seg-*.jsonl")) for d in journal_dirs)

        # Nothing became durable, so resume re-executes everything —
        # the safe direction — and still equals the oracle.
        resumed = Campaign(
            small_scenarios(),
            CampaignConfig(resilience=ResilienceConfig(resume=True)),
            cache_dir=tmp_path / "cache")
        again = run_style(resumed, "random")
        assert resumed._last_journal.hits == 0
        assert resumed._last_journal.appended == len(summary.records)
        assert strip_wall(again.records) == \
            strip_wall(oracle["random"].records)

    def test_corrupt_journal_segments_reexecute(self, tmp_path, oracle):
        cache = tmp_path / "cache"
        first = Campaign(small_scenarios(),
                         CampaignConfig(resilience=ResilienceConfig()),
                         cache_dir=cache)
        run_style(first, "random")
        journal_dir = next(cache.glob("journal-*"))
        assert corrupt_journal(journal_dir) == 2

        resumed = Campaign(
            small_scenarios(),
            CampaignConfig(resilience=ResilienceConfig(resume=True)),
            cache_dir=cache)
        summary = run_style(resumed, "random")
        journal = resumed._last_journal
        total = len(oracle["random"].records)
        assert journal.hits < total          # damaged entries re-ran
        assert journal.hits + journal.appended == total
        assert strip_wall(summary.records) == \
            strip_wall(oracle["random"].records)


class TestDriverKillResume:
    """SIGKILL the whole driver; --resume must re-execute nothing done."""

    def test_sigkill_resume_skips_journaled_experiments(self, tmp_path,
                                                        oracle):
        cache = tmp_path / "cache"
        code = run_driver_killed(
            cache, "random_campaign(10, seed=11, on_progress=kill_after)",
            kill_after=4)
        assert code == -9                   # died by its own SIGKILL

        resumed = Campaign(
            small_scenarios(),
            CampaignConfig(resilience=ResilienceConfig(resume=True)),
            cache_dir=cache)
        summary = resumed.random_campaign(10, seed=11)
        journal = resumed._last_journal
        # Zero re-execution of completed experiments: every journaled
        # record was claimed, the rest were executed exactly once.
        assert journal.hits == journal.loaded_count
        assert journal.hits >= 4
        assert journal.hits + journal.appended == 10
        # The merged stream (journal-replayed prefix + fresh suffix) is
        # bit-for-bit the uninterrupted run, original timings included
        # for the replayed records.
        assert strip_wall(summary.records) == \
            strip_wall(oracle["random"].records)


class TestServiceChaos:
    """Kill the campaign *service host*; restart must resume exactly.

    These drive a real ``repro serve`` subprocess — the same binary an
    operator runs — through the chaos suite's standard small campaign,
    using the stdlib client.
    """

    @staticmethod
    def _records_from_ndjson(raw: bytes):
        from repro.core.persistence import iter_records_jsonl
        import tempfile
        with tempfile.NamedTemporaryFile(suffix=".jsonl") as handle:
            handle.write(raw)
            handle.flush()
            return list(iter_records_jsonl(handle.name))

    def test_sigkill_server_restart_resumes_bit_identical(self, tmp_path,
                                                          oracle):
        from repro.service.client import ServiceClient
        cache = tmp_path / "cache"
        proc, port = start_service(cache)
        try:
            client = ServiceClient(port=port)
            job = client.submit(service_spec())
            # Follow the live NDJSON stream until four experiments have
            # validated, then SIGKILL the server mid-campaign.
            for event in client.events(job["id"]):
                if (event.get("type") == "progress"
                        and event.get("stage") == "validated"
                        and event["done"] >= 4):
                    break
            runner_pid = client.job(job["id"])["pid"]
        finally:
            proc.kill()
            proc.wait(timeout=30)
        # The orphaned runner notices its parent is gone (broken event
        # pipe) and exits rather than finishing unsupervised.
        deadline = time.monotonic() + 60
        while os.path.exists(f"/proc/{runner_pid}") \
                and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not os.path.exists(f"/proc/{runner_pid}")

        proc2, port2 = start_service(cache)
        try:
            client = ServiceClient(port=port2)
            recovered = client.job(job["id"])
            assert recovered["resume"] is True
            final = client.wait(job["id"], timeout=420)
            assert final["state"] == "completed"
            # Zero re-execution: the resumed attempt claimed at least
            # the four validated experiments from the journal.
            journal = final["summary"]["journal"]
            assert journal["hits"] >= 4
            assert journal["hits"] + journal["appended"] == 10
            records = self._records_from_ndjson(
                client.records(job["id"]))
        finally:
            proc2.terminate()
            proc2.wait(timeout=60)
        assert strip_wall(records) == strip_wall(oracle["random"].records)

    def test_sigterm_drain_restart_completes_bit_identical(
            self, tmp_path, oracle):
        """Graceful drain journals the interrupted job as queued +
        resume; the restarted server must actually *run* it to
        completion (regression: drained jobs were recovered 'queued'
        but never pushed back onto the scheduler queues)."""
        from repro.service.client import ServiceClient
        cache = tmp_path / "cache"
        proc, port = start_service(cache)
        try:
            client = ServiceClient(port=port)
            job = client.submit(service_spec())
            for event in client.events(job["id"]):
                if (event.get("type") == "progress"
                        and event.get("stage") == "validated"
                        and event["done"] >= 2):
                    break
            proc.terminate()              # graceful drain, not a crash
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        proc2, port2 = start_service(cache)
        try:
            client = ServiceClient(port=port2)
            assert client.job(job["id"])["resume"] is True
            final = client.wait(job["id"], timeout=420)
            assert final["state"] == "completed"
            journal = final["summary"]["journal"]
            assert journal["hits"] >= 2       # drained work not redone
            assert journal["hits"] + journal["appended"] == 10
            records = self._records_from_ndjson(
                client.records(job["id"]))
        finally:
            proc2.terminate()
            proc2.wait(timeout=60)
        assert strip_wall(records) == strip_wall(oracle["random"].records)

    def test_duplicate_idempotent_submission_executes_once(self, tmp_path,
                                                           oracle):
        from repro.service.client import ServiceClient
        cache = tmp_path / "cache"
        proc, port = start_service(cache)
        try:
            client = ServiceClient(port=port)
            first = client.submit(service_spec(),
                                  idempotency_key="chaos-dup")
            for _ in range(5):
                again = client.submit(service_spec(),
                                      idempotency_key="chaos-dup")
                assert again["id"] == first["id"]
            final = client.wait(first["id"], timeout=420)
            assert final["state"] == "completed"
            assert len(client.jobs()) == 1
            # One campaign execution: all ten experiments ran fresh,
            # none were journal replays of a duplicate run.
            assert final["summary"]["journal"] == {"hits": 0,
                                                  "appended": 10}
            records = self._records_from_ndjson(
                client.records(first["id"]))
            # Resubmitting after completion still returns the same job.
            done_again = client.submit(service_spec(),
                                       idempotency_key="chaos-dup")
            assert done_again["id"] == first["id"]
            assert done_again["state"] == "completed"
        finally:
            proc.terminate()
            proc.wait(timeout=60)
        assert strip_wall(records) == strip_wall(oracle["random"].records)


class TestLeaseEquivalence:
    """Lease-claimed multi-host campaigns equal the single-host run."""

    def lease_config(self, ttl: float = 30.0) -> CampaignConfig:
        return CampaignConfig(resilience=ResilienceConfig(
            lease_mode=True, lease_ttl=ttl, lease_poll=0.05))

    def test_single_host_lease_run_matches_oracle(self, tmp_path,
                                                  oracle):
        cache = tmp_path / "cache"
        campaign = Campaign(small_scenarios(), self.lease_config(),
                            cache_dir=cache)
        summary = campaign.random_campaign(10, seed=11)
        assert summary.same_aggregates(oracle["random"])

        board_files = sorted(cache.glob("leases-*/records-*.jsonl"))
        assert len(board_files) == len(small_scenarios())
        merged = merge_record_shards(board_files, keep_records=True)
        assert merged.same_aggregates(oracle["random"])
        assert sorted(map(repr, strip_wall(merged.records))) == \
            sorted(map(repr, strip_wall(oracle["random"].records)))

    def test_bayesian_lease_hosts_match_unleased(self, tmp_path):
        """A leased host, then a late host that claims nothing and
        reproduces the mined candidates in an empty round (mining
        again, its candidate cache deleted), both equal the unleased
        run."""
        unleased = Campaign(small_scenarios(), CampaignConfig()) \
            .bayesian_campaign(top_k=6)
        cache = tmp_path / "cache"
        for host in range(2):
            if host == 1:
                for path in cache.glob("candidates-*.json"):
                    path.unlink()
            leased = Campaign(small_scenarios(), self.lease_config(),
                              cache_dir=cache).bayesian_campaign(top_k=6)
            assert candidate_keys(leased.candidates) == \
                candidate_keys(unleased.candidates)
            assert leased.mining.n_scored == unleased.mining.n_scored
            assert leased.summary.same_aggregates(unleased.summary)

    def test_architectural_lease_hosts_match_unleased(self, tmp_path):
        """The global outcome counts survive lease rounds, including a
        late host's empty round."""
        summary, outcomes = Campaign(
            small_scenarios(), CampaignConfig()).architectural_campaign(
            60, seed=3)
        cache = tmp_path / "cache"
        for _ in range(2):
            leased, leased_outcomes = Campaign(
                small_scenarios(), self.lease_config(),
                cache_dir=cache).architectural_campaign(60, seed=3)
            assert leased_outcomes == outcomes
            assert leased.same_aggregates(summary)

    def test_lease_requires_cache_dir(self):
        campaign = Campaign(small_scenarios(), self.lease_config())
        with pytest.raises(ValueError, match="cache_dir"):
            campaign.random_campaign(4, seed=1)

    def test_second_host_finishes_after_first_is_killed(self, tmp_path,
                                                        oracle):
        cache = tmp_path / "cache"
        code = run_driver_killed(
            cache, "random_campaign(10, seed=11, on_progress=kill_after)",
            kill_after=2,
            resilience_kwargs="lease_mode=True, lease_ttl=1.5, "
                              "lease_poll=0.05")
        assert code == -9
        # Host A died holding its leases; host B waits out the TTL,
        # steals the stale claims, and completes the full scenario set.
        survivor = Campaign(small_scenarios(), self.lease_config(ttl=30.0),
                            cache_dir=cache)
        summary = survivor.random_campaign(10, seed=11)
        assert summary.same_aggregates(oracle["random"])
        board_files = sorted(cache.glob("leases-*/records-*.jsonl"))
        assert len(board_files) == len(small_scenarios())
        merged = merge_record_shards(board_files, keep_records=True)
        assert merged.same_aggregates(oracle["random"])
