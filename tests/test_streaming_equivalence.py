"""Sharded golden collection and streamed records must equal the oracle.

Three pure performance features ride the campaign engine: golden-run
collection sharded over the process pool, checkpoint stores persisted
for spawn-safe cross-process reuse, and records streamed to a sink
instead of accumulated in memory.  None of them may change a single
number: sharded golden runs must be bit-for-bit the serial loop's,
streamed campaigns must be record-for-record the in-memory ones across
all four campaign styles, and a JSONL stream must reload into an
equivalent summary — non-finite safety potentials included.
"""

import json
import math
import pickle
from dataclasses import replace

import pytest
from reference import reference_records, strip_wall

from repro.core import (Campaign, CampaignConfig, CampaignPipeline,
                        CheckpointStore, ExperimentRecord, FaultSpec,
                        Hazard, ListSink, execute_experiment)
from repro.core.persistence import (JsonlRecordSink, iter_records_jsonl,
                                    load_summary_jsonl, record_from_dict,
                                    record_to_dict)
from repro.core.plans import JobsPlan, Plan
from repro.core.results import CampaignSummary
from repro.sim import highway_cruise, lead_vehicle_cutin, queued_traffic


def small_scenarios():
    return [replace(highway_cruise(), duration=24.0),
            replace(lead_vehicle_cutin(), duration=16.0),
            replace(queued_traffic(), duration=18.0)]


def make_campaign(cache_dir=None) -> Campaign:
    return Campaign(small_scenarios(), CampaignConfig(),
                    cache_dir=cache_dir)


@pytest.fixture(scope="module")
def serial_campaign():
    """Golden runs collected serially (``workers=None``)."""
    campaign = make_campaign()
    campaign.golden_runs()
    return campaign


@pytest.fixture(scope="module")
def sharded_campaign():
    """Golden runs collected over a two-worker pool."""
    campaign = make_campaign()
    campaign.golden_runs(workers=2)
    return campaign


class TestShardedGoldenRuns:
    def test_traces_bit_for_bit(self, serial_campaign, sharded_campaign):
        serial = serial_campaign.golden_runs()
        sharded = sharded_campaign.golden_runs()
        assert list(serial) == list(sharded)   # scenario order preserved
        for name, reference in serial.items():
            run = sharded[name]
            assert run.hazard == reference.hazard
            assert run.min_delta_long == reference.min_delta_long
            assert run.min_delta_lat == reference.min_delta_lat
            assert run.sim_seconds == reference.sim_seconds
            reference_arrays = reference.trace.as_arrays()
            for column, array in run.trace.as_arrays().items():
                assert array.tolist() == \
                    reference_arrays[column].tolist(), column

    def test_checkpoint_ladders_match(self, serial_campaign,
                                      sharded_campaign):
        for scenario in small_scenarios():
            assert sharded_campaign.checkpoints.ticks(scenario.name) == \
                serial_campaign.checkpoints.ticks(scenario.name)
            assert sharded_campaign.checkpoints.has_scenario(scenario.name)

    def test_sharded_validation_matches_serial(self, serial_campaign,
                                               sharded_campaign):
        """Records resumed from worker-captured ladders equal the oracle."""
        scenario = small_scenarios()[0]
        tick = serial_campaign.injection_ticks(scenario)[4]
        fault = FaultSpec("brake", 0.0, tick, 4)
        reference = serial_campaign.run_fault(scenario.name, fault)
        resumed = sharded_campaign.run_fault(scenario.name, fault)
        assert strip_wall([resumed]) == strip_wall([reference])


class TestStreamedRecords:
    """All four campaign styles: sink-streamed == in-memory, in order."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_random_campaign(self, serial_campaign, workers):
        reference = serial_campaign.random_campaign(8, seed=11)
        sink = ListSink()
        streamed = serial_campaign.random_campaign(
            8, seed=11, workers=workers, record_sink=sink)
        assert strip_wall(sink.records) == strip_wall(reference.records)
        assert streamed.records == []          # not retained
        assert streamed.same_aggregates(reference)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_exhaustive_campaign(self, serial_campaign, workers):
        reference = serial_campaign.exhaustive_campaign(
            tick_stride=40, variable_names=["brake", "steering"])
        sink = ListSink()
        streamed = serial_campaign.exhaustive_campaign(
            tick_stride=40, variable_names=["brake", "steering"],
            workers=workers, record_sink=sink)
        assert strip_wall(sink.records) == strip_wall(reference.records)
        assert streamed.records == []
        assert streamed.same_aggregates(reference)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_architectural_campaign(self, serial_campaign, workers):
        reference, ref_outcomes = serial_campaign.architectural_campaign(
            25, seed=3)
        sink = ListSink()
        streamed, outcomes = serial_campaign.architectural_campaign(
            25, seed=3, workers=workers, record_sink=sink)
        assert outcomes == ref_outcomes
        assert strip_wall(sink.records) == strip_wall(reference.records)
        assert streamed.records == []
        assert streamed.same_aggregates(reference)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_bayesian_campaign(self, serial_campaign, workers):
        reference = serial_campaign.bayesian_campaign(top_k=6)
        sink = ListSink()
        streamed = serial_campaign.bayesian_campaign(
            top_k=6, workers=workers, record_sink=sink)
        assert [(c.scenario, c.injection_tick, c.variable, c.value)
                for c in streamed.candidates] == \
               [(c.scenario, c.injection_tick, c.variable, c.value)
                for c in reference.candidates]
        assert strip_wall(sink.records) == \
            strip_wall(reference.summary.records)
        assert streamed.summary.records == []
        assert streamed.summary.same_aggregates(reference.summary)
        # Regression: precision must read the incremental aggregates,
        # not the (empty) retained-record list.
        assert streamed.precision == reference.precision


class TestJsonlStreaming:
    def synthetic_record(self, **overrides) -> ExperimentRecord:
        fields = dict(
            scenario="s", injection_tick=40, variable="throttle",
            value=1.0, duration_ticks=4, seed=0, hazard=Hazard.NONE,
            landed=True, pre_delta_long=12.5, pre_delta_lat=2.0,
            min_delta_long=3.25, min_delta_lat=1.5, sim_seconds=10.0,
            wall_seconds=0.125)
        fields.update(overrides)
        return ExperimentRecord(**fields)

    def test_non_finite_floats_round_trip(self):
        """Regression: inf potentials and NaNs survive strict JSON."""
        record = self.synthetic_record(
            pre_delta_long=math.inf, pre_delta_lat=-math.inf,
            min_delta_long=math.nan, min_delta_lat=math.inf)
        payload = json.dumps(record_to_dict(record), allow_nan=False)
        restored = record_from_dict(json.loads(payload))
        assert restored.pre_delta_long == math.inf
        assert restored.pre_delta_lat == -math.inf
        assert math.isnan(restored.min_delta_long)
        assert restored.min_delta_lat == math.inf
        assert restored.value == record.value

    def test_sink_writes_strict_json_lines(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [self.synthetic_record(injection_tick=t,
                                         min_delta_long=math.inf)
                   for t in (10, 20, 30)]
        with JsonlRecordSink(path) as sink:
            for record in records:
                sink.add(record)
            assert sink.count == 3
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            json.loads(line)            # every line is valid JSON
            assert "Infinity" in line   # spelled as a string, not a token
        assert strip_wall(iter_records_jsonl(path)) == strip_wall(records)

    def test_campaign_stream_reloads_into_equivalent_summary(
            self, tmp_path, serial_campaign):
        reference = serial_campaign.random_campaign(6, seed=7)
        path = tmp_path / "random.jsonl"
        with JsonlRecordSink(path) as sink:
            streamed = serial_campaign.random_campaign(
                6, seed=7, record_sink=sink)
        assert streamed.records == []
        loaded = load_summary_jsonl(path)
        assert strip_wall(loaded.records) == strip_wall(reference.records)
        assert loaded.same_aggregates(reference)
        bounded = load_summary_jsonl(path, keep_records=False)
        assert bounded.records == []
        assert bounded.same_aggregates(reference)

    def test_closed_sink_rejects_records(self, tmp_path):
        sink = JsonlRecordSink(tmp_path / "closed.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.add(self.synthetic_record())


class TestIncrementalSummary:
    def records(self):
        return [ExperimentRecord(
                    scenario=f"s{i % 2}", injection_tick=10 * i,
                    variable="brake" if i % 2 else "throttle",
                    value=float(i), duration_ticks=4, seed=0,
                    hazard=Hazard.COLLISION if i == 3 else Hazard.NONE,
                    landed=bool(i % 2), pre_delta_long=5.0,
                    pre_delta_lat=2.0, min_delta_long=float(4 - i),
                    min_delta_lat=1.0, sim_seconds=8.0, wall_seconds=0.5)
                for i in range(5)]

    def test_add_matches_construction(self):
        records = self.records()
        constructed = CampaignSummary(records=records)
        incremental = CampaignSummary()
        for record in records:
            incremental.add(record)
        assert incremental.same_aggregates(constructed)
        assert incremental.records == constructed.records == records

    def test_unretained_summary_same_aggregates(self):
        records = self.records()
        retained = CampaignSummary(records=records)
        bounded = CampaignSummary(records=records, keep_records=False)
        assert bounded.records == []
        assert bounded.same_aggregates(retained)
        assert bounded.total == 5
        assert bounded.hazards == 1
        assert bounded.hazard_breakdown()["collision"] == 1
        assert bounded.hazardous_scenes() == {("s1", 30)}


def spill(store, directory):
    """Persist every ladder of ``store`` under ``directory``, one
    scenario at a time, as the pipeline driver spills them."""
    for name in store.scenarios():
        store.save_scenario(directory, name)
    return directory


def reload(directory):
    """A store holding every ladder persisted under ``directory``."""
    store = CheckpointStore()
    for name in CheckpointStore.saved_scenarios(directory):
        assert store.load_scenario(directory, name)
    return store


class TestCheckpointStoreDisk:
    def test_save_load_round_trip(self, tmp_path, serial_campaign):
        store = serial_campaign.checkpoints
        directory = spill(store, tmp_path / "ckpt")
        loaded = reload(directory)
        assert loaded.scenarios() == store.scenarios()
        assert CheckpointStore.saved_scenarios(directory) == \
            set(store.scenarios())
        assert CheckpointStore.saved_ticks(directory) == {
            name: store.ticks(name) for name in store.scenarios()}
        for name in store.scenarios():
            assert loaded.ticks(name) == store.ticks(name)
        scenario = small_scenarios()[0]
        tick = serial_campaign.injection_ticks(scenario)[2]
        direct = store.nearest(scenario.name, tick)
        restored = loaded.nearest(scenario.name, tick)
        assert pickle.dumps(restored) == pickle.dumps(direct)

    def test_load_scenario_pulls_single_ladder(self, tmp_path,
                                               serial_campaign):
        directory = spill(serial_campaign.checkpoints, tmp_path / "ckpt")
        name = small_scenarios()[1].name
        partial_store = CheckpointStore()
        assert partial_store.load_scenario(directory, name)
        assert partial_store.scenarios() == [name]
        assert partial_store.ticks(name) == \
            serial_campaign.checkpoints.ticks(name)
        assert not partial_store.load_scenario(directory, "no_such")

    def test_unreadable_store_is_none(self, tmp_path):
        name = small_scenarios()[0].name
        assert not CheckpointStore().load_scenario(tmp_path / "missing",
                                                   name)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "index.json").write_text("not json")
        assert not CheckpointStore().load_scenario(bad, name)
        assert CheckpointStore.saved_scenarios(bad) == set()
        assert CheckpointStore.saved_ticks(bad) == {}

    def test_resume_from_loaded_store_matches(self, tmp_path,
                                              serial_campaign):
        directory = spill(serial_campaign.checkpoints, tmp_path / "ckpt")
        scenarios = small_scenarios()
        scenario = scenarios[0]
        tick = serial_campaign.injection_ticks(scenario)[3]
        jobs = [(scenario.name, FaultSpec("throttle", 1.0, tick, 4))]
        reference = reference_records(serial_campaign, jobs)
        loaded = reload(directory)
        assert loaded.nearest(scenario.name, tick) is not None
        via_path = [execute_experiment(
            scenario, serial_campaign.config, fault,
            loaded.nearest(scenario.name, fault.start_tick))
            for _, fault in jobs]
        assert strip_wall(via_path) == strip_wall(reference)


class TestWarmStartCheckpoints:
    def test_warm_start_reuses_persisted_ladders(self, tmp_path,
                                                 monkeypatch):
        cold = make_campaign(cache_dir=tmp_path)
        cold_result = cold.bayesian_campaign(top_k=4)
        checkpoint_dirs = list(tmp_path.glob("checkpoints-*"))
        assert len(checkpoint_dirs) == 1

        warm = make_campaign(cache_dir=tmp_path)

        def no_resimulation(*args, **kwargs):
            raise AssertionError(
                "warm start must not re-simulate golden prefixes")

        import repro.core.campaign as campaign_module
        import repro.core.parallel as parallel_module
        monkeypatch.setattr(campaign_module, "run_scenario",
                            no_resimulation)
        monkeypatch.setattr(parallel_module, "run_scenario",
                            no_resimulation)
        warm_result = warm.bayesian_campaign(top_k=4)
        assert strip_wall(warm_result.summary.records) == \
            strip_wall(cold_result.summary.records)

    def test_checkpoint_cache_key(self, tmp_path):
        """One ladder directory per config fingerprint and shard; which
        ticks a ladder holds is not part of the key, and a ladder of an
        older format is a clean miss."""
        campaign = make_campaign(cache_dir=tmp_path)
        fingerprint = campaign._fingerprint()
        directory = campaign._checkpoint_cache_dir()
        assert directory == tmp_path / f"checkpoints-{fingerprint}"
        reseeded = Campaign(small_scenarios(), CampaignConfig(seed=1),
                            cache_dir=tmp_path)
        assert reseeded._checkpoint_cache_dir() != directory
        shard = Campaign(small_scenarios(),
                         CampaignConfig(shard_index=1, shard_count=2),
                         cache_dir=tmp_path)
        assert shard._checkpoint_cache_dir().name == \
            f"checkpoints-{fingerprint}-shard1of2"

        scenario = small_scenarios()[0]
        campaign.run_fault(scenario.name, FaultSpec(
            "brake", 0.0, campaign.schedule_injection_ticks(scenario)[3], 4))
        assert CheckpointStore.saved_scenarios(directory) == {scenario.name}
        index = json.loads((directory / "index.json").read_text())
        index["version"] -= 1
        (directory / "index.json").write_text(json.dumps(index))
        assert CheckpointStore.saved_ticks(directory) == {}
        assert not CheckpointStore().load_scenario(directory, scenario.name)


def _cruise_build_30():
    from repro.sim.world import World
    return World.on_highway(ego_speed=30.0)


def _cruise_build_31():
    from repro.sim.world import World
    return World.on_highway(ego_speed=31.0)


class TestScenarioFingerprint:
    """Cache identity must rotate when a builder's behaviour changes."""

    def test_constant_edit_rotates_key(self):
        """Regression: literals live in co_consts, not co_code — a
        changed constant inside a build function must invalidate warm
        caches even though the bytecode is unchanged."""
        from functools import partial

        from repro.sim import Scenario
        a = Campaign._scenario_key(Scenario("s", _cruise_build_30))
        b = Campaign._scenario_key(Scenario("s", _cruise_build_31))
        assert _cruise_build_30.__code__.co_code == \
            _cruise_build_31.__code__.co_code
        assert a != b
        pa = Campaign._scenario_key(Scenario("s", partial(_cruise_build_30)))
        pb = Campaign._scenario_key(Scenario("s", partial(_cruise_build_31)))
        assert pa != pb

    def test_bound_arguments_rotate_key(self):
        from repro.sim import highway_cruise
        a = Campaign._scenario_key(highway_cruise(lead_gap=60.0))
        b = Campaign._scenario_key(highway_cruise(lead_gap=61.0))
        assert a != b


class TestSpawnStartMethod:
    """The no-fork path: scenarios and stores ship by pickle/disk."""

    def test_scenarios_pickle(self):
        for scenario in small_scenarios():
            clone = pickle.loads(pickle.dumps(scenario))
            assert clone.name == scenario.name
            world = clone.make_world()
            assert world.ego.state.v > 0.0

    def test_spawn_pool_matches_serial(self, serial_campaign):
        scenarios = small_scenarios()
        scenario = scenarios[0]
        ticks = serial_campaign.injection_ticks(scenario)
        jobs = [(scenario.name, FaultSpec("brake", 0.0, ticks[2], 4)),
                (scenario.name, FaultSpec("throttle", 1.0, ticks[-1], 4))]
        reference = reference_records(serial_campaign, jobs)
        spawned = CampaignPipeline(
            serial_campaign, workers=2, start_method="spawn").run(
            JobsPlan(serial_campaign, jobs))
        assert strip_wall(spawned.records) == strip_wall(reference)

    def test_spawn_golden_collection_matches_serial(self, serial_campaign):
        scenarios = small_scenarios()[:2]
        campaign = Campaign(scenarios, CampaignConfig())
        CampaignPipeline(campaign, workers=2, start_method="spawn").run(
            Plan(campaign))
        # Worker-captured ladders reached the spool; load them from it.
        assert CheckpointStore.saved_scenarios(
            campaign._ladder_spool_dir()) == {s.name for s in scenarios}
        campaign._ensure_checkpoints(s.name for s in scenarios)
        serial = serial_campaign.golden_runs()
        for name, run in campaign._golden.items():
            reference = serial[name]
            assert run.min_delta_long == reference.min_delta_long
            reference_arrays = reference.trace.as_arrays()
            for column, array in run.trace.as_arrays().items():
                assert array.tolist() == \
                    reference_arrays[column].tolist(), column
            assert campaign.checkpoints.ticks(name) == \
                serial_campaign.checkpoints.ticks(name)
