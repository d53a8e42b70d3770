"""The streaming pipeline must equal the reference loop, shard by shard.

Two guarantees ride the :mod:`repro.core.pipeline` driver:

* **Pipeline equivalence** — every campaign style emits a record stream
  bit-for-bit identical to the reference loop (serial full replay of
  the style's jobs, in job order), order included, serial and pooled.
  Bayesian campaigns mine per scenario; their merged ranking must
  equal the whole-population miner's.
* **Shard equivalence** — a campaign split across shards produces
  disjoint record streams whose merge (``CampaignSummary.merge`` /
  ``persistence.merge_record_shards``) equals the unsharded run.
"""

import gzip
import hashlib
import math
from dataclasses import replace

import pytest
from reference import (architectural_jobs, candidate_jobs, exhaustive_jobs,
                       random_jobs, reference_mine, reference_records,
                       reference_scenario_candidates, strip_wall)

from repro.core import (Campaign, CampaignConfig, CampaignPipeline,
                        ExperimentRecord, FaultSpec, Hazard, ListSink)
from repro.core.persistence import (JsonlRecordSink, iter_records_jsonl,
                                    load_summary_jsonl,
                                    merge_record_shards)
from repro.core.plans import JobsPlan, Plan, RandomPlan
from repro.core.results import CampaignSummary
from repro.sim import highway_cruise, lead_vehicle_cutin, queued_traffic


def small_scenarios():
    return [replace(highway_cruise(), duration=24.0),
            replace(lead_vehicle_cutin(), duration=16.0),
            replace(queued_traffic(), duration=18.0)]


def reference_summary(campaign, jobs):
    """The reference loop's records of ``jobs``, folded into a summary."""
    return CampaignSummary(reference_records(campaign, jobs))


def reference_mining(campaign, result, top_k=None):
    """Whole-population mining with ``result``'s fitted model, plus the
    reference loop's summary of the mined candidates."""
    candidates, report = result.injector.mine_critical_faults(
        campaign.scene_rows(), top_k=top_k)
    summary = reference_summary(campaign,
                                candidate_jobs(campaign, candidates))
    return candidates, report, summary


def events_digest(events):
    """sha256 of a progress stream's ``(stage, scenario, done, total)``."""
    rows = [(e.stage, e.scenario, e.done, e.total) for e in events]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:12]


def run_golden_plan(campaign, on_progress):
    """The golden-only plan ``golden_runs()`` drives, with progress."""
    campaign._run_pipeline(Plan(campaign), on_progress=on_progress)


def run_jobs_plan(campaign, on_progress):
    """The ``run_jobs`` plan over a fixed job list, with progress."""
    names = [s.name for s in campaign.scenarios]
    jobs = [(names[1], FaultSpec("brake", 0.0, 60, 4)),
            (names[0], FaultSpec("throttle", 1.0, 90, 4)),
            (names[1], FaultSpec("steering", 0.55, 120, 4))]
    campaign._run_pipeline(JobsPlan(campaign, jobs),
                           on_progress=on_progress)


def candidate_keys(candidates):
    return [(c.scenario, c.injection_tick, c.variable, c.value)
            for c in candidates]


@pytest.fixture(scope="module")
def oracle():
    """The campaign the reference loop draws jobs from, goldens in."""
    campaign = Campaign(small_scenarios(), CampaignConfig())
    campaign.golden_runs()
    return campaign


@pytest.fixture(scope="module")
def piped():
    """A separate campaign object driven through the pipeline."""
    return Campaign(small_scenarios(), CampaignConfig())


class TestPipelineEquivalence:
    """Driver == reference loop, record for record, in order."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_random_campaign(self, oracle, piped, workers):
        reference = reference_summary(oracle,
                                      random_jobs(oracle, 8, seed=11))
        streamed = piped.random_campaign(8, seed=11, workers=workers)
        assert strip_wall(streamed.records) == strip_wall(reference.records)
        assert streamed.same_aggregates(reference)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_exhaustive_campaign_streams_per_scenario(self, oracle, piped,
                                                      workers):
        reference = reference_summary(oracle, exhaustive_jobs(
            oracle, tick_stride=40, variable_names=["brake", "steering"]))
        streamed = piped.exhaustive_campaign(
            tick_stride=40, variable_names=["brake", "steering"],
            workers=workers)
        assert strip_wall(streamed.records) == strip_wall(reference.records)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_exhaustive_campaign_with_cap(self, oracle, piped, workers):
        reference = reference_summary(oracle, exhaustive_jobs(
            oracle, tick_stride=40, variable_names=["brake"],
            max_experiments=7))
        streamed = piped.exhaustive_campaign(
            tick_stride=40, variable_names=["brake"], max_experiments=7,
            workers=workers)
        assert streamed.total == 7
        assert strip_wall(streamed.records) == strip_wall(reference.records)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_architectural_campaign(self, oracle, piped, workers):
        jobs, ref_outcomes = architectural_jobs(oracle, 25, seed=3)
        reference = reference_summary(oracle, jobs)
        streamed, outcomes = piped.architectural_campaign(
            25, seed=3, workers=workers)
        assert outcomes == ref_outcomes
        assert strip_wall(streamed.records) == strip_wall(reference.records)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_bayesian_campaign_top_k(self, oracle, piped, workers):
        streamed = piped.bayesian_campaign(top_k=6, workers=workers)
        candidates, report, summary = reference_mining(oracle, streamed,
                                                       top_k=6)
        assert candidate_keys(streamed.candidates) == \
            candidate_keys(candidates)
        for mined, ref in zip(streamed.candidates, candidates):
            # Per-scenario mining scores in smaller batches, so the
            # predictions agree to the suite's batched-vs-scalar bound.
            assert mined.predicted_delta_long == pytest.approx(
                ref.predicted_delta_long, abs=1e-9)
            assert mined.predicted_delta_lat == pytest.approx(
                ref.predicted_delta_lat, abs=1e-9)
        assert streamed.mining.n_scored == report.n_scored
        assert streamed.mining.n_scenes == report.n_scenes
        assert strip_wall(streamed.summary.records) == \
            strip_wall(summary.records)
        assert streamed.precision == summary.hazard_rate

    @pytest.mark.parametrize("workers", [None, 2])
    def test_bayesian_campaign_eager_dispatch(self, oracle, piped,
                                              workers):
        """Without top_k, validation overlaps mining — results unchanged."""
        streamed = piped.bayesian_campaign(workers=workers)
        candidates, _, summary = reference_mining(oracle, streamed)
        assert candidate_keys(streamed.candidates) == \
            candidate_keys(candidates)
        assert strip_wall(streamed.summary.records) == \
            strip_wall(summary.records)

    def test_bayesian_scalar_miner(self):
        """The scalar reference miner, run per scenario and merged the
        way the pipeline merges, ranks what the whole-population scalar
        miner ranks — and what the (batched) campaign validated."""
        scenarios = [replace(lead_vehicle_cutin(), duration=14.0),
                     replace(highway_cruise(), duration=16.0)]
        campaign = Campaign(scenarios, CampaignConfig())
        result = campaign.bayesian_campaign(top_k=3)
        injector = result.injector
        reference, _ = reference_mine(injector, campaign.scene_rows(),
                                      top_k=3)
        merged = []
        for scenario in scenarios:
            mined, _, _ = reference_scenario_candidates(
                injector, campaign._scenario_scene_rows(
                    scenario, campaign.golden_runs()[scenario.name]))
            merged.extend(mined)
        merged.sort(key=lambda candidate: candidate.predicted_minimum)
        assert candidate_keys(merged[:3]) == candidate_keys(reference)
        assert candidate_keys(result.candidates) == \
            candidate_keys(reference)

    def test_spawn_pool_matches_serial(self, oracle, piped):
        """The pipeline's no-fork path: state ships by pickle + spool."""
        reference = reference_summary(oracle,
                                      random_jobs(oracle, 6, seed=5))
        summary = CampaignPipeline(
            piped, workers=2, start_method="spawn").run(
            RandomPlan(piped, 6, 5))
        assert strip_wall(summary.records) == strip_wall(reference.records)


class TestPipelineStreaming:
    def test_sink_receives_records_in_oracle_order(self, oracle, piped):
        reference = reference_summary(oracle,
                                      random_jobs(oracle, 8, seed=11))
        sink = ListSink()
        streamed = piped.random_campaign(8, seed=11, workers=2,
                                         record_sink=sink)
        assert strip_wall(sink.records) == strip_wall(reference.records)
        assert streamed.records == []          # not retained with a sink
        assert streamed.same_aggregates(reference)

    def test_gzip_record_stream_round_trips(self, tmp_path, oracle,
                                            piped):
        reference = reference_summary(oracle,
                                      random_jobs(oracle, 6, seed=7))
        path = tmp_path / "records.jsonl.gz"
        with JsonlRecordSink(path) as sink:
            piped.random_campaign(6, seed=7, record_sink=sink)
        assert sink.count == 6
        with gzip.open(path, "rt", encoding="utf-8") as stream:
            assert len(stream.read().strip().split("\n")) == 6
        assert strip_wall(iter_records_jsonl(path)) == \
            strip_wall(reference.records)
        loaded = load_summary_jsonl(path, keep_records=False)
        assert loaded.same_aggregates(reference)

    def test_gzip_sink_buffers_instead_of_sync_flushing(self, tmp_path):
        """Per-record flushes on gzip emit one deflate block per record
        (~30x size); compressed sinks must buffer until close."""
        from repro.core.persistence import JsonlRecordSink
        record = TestSummaryMerge().records("s0", 0)[0]
        plain = JsonlRecordSink(tmp_path / "r.jsonl")
        packed = JsonlRecordSink(tmp_path / "r.jsonl.gz")
        for _ in range(2000):
            plain.add(record)
            packed.add(record)
        plain.close()
        packed.close()
        plain_size = (tmp_path / "r.jsonl").stat().st_size
        packed_size = (tmp_path / "r.jsonl.gz").stat().st_size
        assert packed_size < plain_size / 20
        assert len(list(iter_records_jsonl(tmp_path / "r.jsonl.gz"))) \
            == 2000

    @pytest.mark.parametrize("run, digest", [
        (lambda c, on: c.random_campaign(4, seed=1, on_progress=on),
         "b0e5d06b3167"),
        (lambda c, on: c.random_campaign(6, seed=2, interface_share=0.5,
                                         on_progress=on),
         "53623ce08312"),
        (lambda c, on: c.architectural_campaign(60, seed=3,
                                                on_progress=on),
         "b63bb4f5e019"),
        (lambda c, on: c.exhaustive_campaign(
            tick_stride=40, variable_names=["brake"], on_progress=on),
         "89ea1b3f7149"),
        (lambda c, on: c.exhaustive_campaign(
            tick_stride=40, variable_names=["brake"], max_experiments=5,
            on_progress=on),
         "2a3735d310f9"),
        (lambda c, on: c.bayesian_campaign(top_k=4, on_progress=on),
         "8147351702e2"),
        (lambda c, on: c.bayesian_campaign(on_progress=on),
         "49606496c358"),
        (lambda c, on: run_golden_plan(c, on), "8e54759f5fb3"),
        (lambda c, on: run_jobs_plan(c, on), "72cc173a861d"),
    ], ids=["random", "random-interface", "architectural", "exhaustive",
            "exhaustive-capped", "bayesian-top-k", "bayesian-all",
            "golden", "jobs"])
    def test_progress_events(self, run, digest):
        """Each serial plan's full ``(stage, scenario, done, total)``
        event stream, pinned.  Job-known plans report golden events
        only for the scenarios they have jobs in (architectural and
        jobs: 2 of 3, exhaustive-capped: 1)."""
        events = []
        run(Campaign(small_scenarios(), CampaignConfig()), events.append)
        assert events_digest(events) == digest

    def test_progress_events_candidate_cache_hit(self, tmp_path):
        Campaign(small_scenarios(), CampaignConfig(),
                 cache_dir=tmp_path).bayesian_campaign(top_k=4)
        events = []
        Campaign(small_scenarios(), CampaignConfig(),
                 cache_dir=tmp_path).bayesian_campaign(
            top_k=4, on_progress=events.append)
        assert not [e for e in events if e.stage == "mined"]
        assert events_digest(events) == "b2b0aae5c821"

    def test_progress_events_bayesian_mining(self, piped):
        events = []
        piped.bayesian_campaign(top_k=4, on_progress=events.append)
        mined = [e for e in events if e.stage == "mined"]
        assert [e.done for e in mined] == [1, 2, 3]
        assert {e.scenario for e in mined} == \
            {s.name for s in piped.scenarios}


def shard_config(index, count):
    return CampaignConfig(shard_index=index, shard_count=count)


class TestSharding:
    def test_shard_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(shard_count=0)
        with pytest.raises(ValueError):
            CampaignConfig(shard_index=2, shard_count=2)
        with pytest.raises(ValueError):
            CampaignConfig(shard_index=-1, shard_count=2)

    def test_owned_scenarios_partition(self):
        scenarios = small_scenarios()
        owned = [Campaign(scenarios, shard_config(i, 2)).owned_scenarios()
                 for i in range(2)]
        names = [s.name for shard in owned for s in shard]
        assert sorted(names) == sorted(s.name for s in scenarios)
        assert [s.name for s in owned[0]] == \
            [scenarios[0].name, scenarios[2].name]

    def test_schedule_ticks_match_golden_ticks(self, oracle):
        """The sharded draw's premise, asserted for every library run."""
        for scenario in oracle.scenarios:
            assert oracle.schedule_injection_ticks(scenario) == \
                oracle.injection_ticks(scenario)

    def _run_shards(self, tmp_path, count, run):
        paths = []
        for index in range(count):
            campaign = Campaign(small_scenarios(),
                                shard_config(index, count),
                                cache_dir=tmp_path / "cache")
            path = tmp_path / f"shard-{index}.jsonl.gz"
            with JsonlRecordSink(path) as sink:
                run(campaign, sink)
            paths.append(path)
        return paths

    def test_two_shard_random_merges_to_unsharded(self, tmp_path, oracle):
        reference = reference_summary(oracle,
                                      random_jobs(oracle, 10, seed=2))
        paths = self._run_shards(
            tmp_path, 2,
            lambda c, sink: c.random_campaign(10, seed=2,
                                              record_sink=sink))
        merged = merge_record_shards(paths, keep_records=True)
        assert merged.total == reference.total
        assert merged.same_aggregates(reference)
        # The shard streams partition the oracle's record multiset.
        assert sorted(map(repr, strip_wall(merged.records))) == \
            sorted(map(repr, strip_wall(reference.records)))

    def test_two_shard_exhaustive_merges_to_unsharded(self, tmp_path,
                                                      oracle):
        reference = reference_summary(oracle, exhaustive_jobs(
            oracle, tick_stride=40, variable_names=["brake"]))
        paths = self._run_shards(
            tmp_path, 2,
            lambda c, sink: c.exhaustive_campaign(
                tick_stride=40, variable_names=["brake"],
                record_sink=sink, workers=2))
        merged = merge_record_shards(paths)
        assert merged.same_aggregates(reference)

    def test_two_shard_architectural_counts_are_global(self, tmp_path,
                                                       oracle):
        jobs, ref_outcomes = architectural_jobs(oracle, 25, seed=3)
        reference = reference_summary(oracle, jobs)
        outcome_sets = []

        def run(campaign, sink):
            _, outcomes = campaign.architectural_campaign(
                25, seed=3, record_sink=sink)
            outcome_sets.append(outcomes)

        paths = self._run_shards(tmp_path, 2, run)
        assert outcome_sets == [ref_outcomes, ref_outcomes]
        merged = merge_record_shards(paths)
        assert merged.same_aggregates(reference)

    def test_two_shard_bayesian_merges_to_unsharded(self, tmp_path,
                                                    oracle):
        results = []

        def run(campaign, sink):
            results.append(campaign.bayesian_campaign(top_k=8,
                                                      record_sink=sink))

        paths = self._run_shards(tmp_path, 2, run)
        candidates, _, summary = reference_mining(oracle, results[0],
                                                  top_k=8)
        # Mining is global: every shard ranks the same candidate list.
        assert candidate_keys(results[0].candidates) == \
            candidate_keys(results[1].candidates) == \
            candidate_keys(candidates)
        merged = merge_record_shards(paths)
        assert merged.same_aggregates(summary)

    def test_shard_writes_isolated_caches(self, tmp_path, monkeypatch):
        campaign = Campaign(small_scenarios(), shard_config(1, 2),
                            cache_dir=tmp_path)
        reference = campaign.random_campaign(4, seed=0)
        shard_files = list(tmp_path.glob("golden-*shard1of2*.json.gz"))
        assert len(shard_files) == 1
        # A second shard-1 campaign warm-starts goldens and checkpoint
        # ladders from its own cache files — no re-simulation at all.
        warm = Campaign(small_scenarios(), shard_config(1, 2),
                        cache_dir=tmp_path)

        def no_resimulation(*args, **kwargs):
            raise AssertionError("shard warm start must not re-simulate")

        import repro.core.campaign as campaign_module
        import repro.core.parallel as parallel_module
        monkeypatch.setattr(campaign_module, "run_scenario",
                            no_resimulation)
        monkeypatch.setattr(parallel_module, "run_scenario",
                            no_resimulation)
        warmed = warm.random_campaign(4, seed=0)
        assert strip_wall(warmed.records) == strip_wall(reference.records)


class TestCandidateCacheResilience:
    """A torn or corrupt candidate cache is a miss, not a crash.

    Shards share the candidate cache file (their mining is global), so
    a reader may race a writer; writes are atomic and reads degrade to
    re-mining.
    """

    @pytest.mark.parametrize("pooled", [True, False])
    def test_corrupt_cache_re_mines(self, tmp_path, pooled):
        scenarios = [replace(lead_vehicle_cutin(), duration=14.0)]
        workers = 2 if pooled else None
        cold = Campaign(scenarios, CampaignConfig(), cache_dir=tmp_path)
        cold_result = cold.bayesian_campaign(top_k=3, workers=workers)
        cache_files = list(tmp_path.glob("candidates-*.json"))
        assert len(cache_files) == 1
        cache_files[0].write_text("{ torn write")
        warm = Campaign(scenarios, CampaignConfig(), cache_dir=tmp_path)
        warm_result = warm.bayesian_campaign(top_k=3, workers=workers)
        assert candidate_keys(warm_result.candidates) == \
            candidate_keys(cold_result.candidates)
        # ...and re-mining healed the cache file.
        from repro.core.persistence import try_load_candidates
        assert try_load_candidates(cache_files[0]) is not None


class TestSummaryMerge:
    def records(self, scenario, base):
        return [ExperimentRecord(
                    scenario=scenario, injection_tick=base + 10 * i,
                    variable="brake" if i % 2 else "throttle",
                    value=float(i), duration_ticks=4, seed=0,
                    hazard=Hazard.COLLISION if i == 1 else Hazard.NONE,
                    landed=True, pre_delta_long=5.0, pre_delta_lat=2.0,
                    min_delta_long=float(2 - i),
                    min_delta_lat=math.inf if i == 2 else 1.0,
                    sim_seconds=8.0, wall_seconds=0.25)
                for i in range(3)]

    def test_merge_equals_single_summary(self):
        all_records = self.records("s0", 0) + self.records("s1", 100)
        reference = CampaignSummary(records=all_records)
        shards = [CampaignSummary(records=self.records("s0", 0)),
                  CampaignSummary(records=self.records("s1", 100))]
        merged = CampaignSummary.merge(shards)
        assert merged.same_aggregates(reference)
        assert merged.wall_seconds == pytest.approx(
            reference.wall_seconds)
        assert strip_wall(merged.records) == strip_wall(all_records)

    def test_merge_without_records_stays_bounded(self):
        shards = [CampaignSummary(records=self.records("s0", 0),
                                  keep_records=False),
                  CampaignSummary(records=self.records("s1", 100))]
        merged = CampaignSummary.merge(shards)
        assert merged.records == []
        assert merged.total == 6

    def test_merge_empty(self):
        merged = CampaignSummary.merge([])
        assert merged.total == 0
        assert merged.same_aggregates(CampaignSummary())
