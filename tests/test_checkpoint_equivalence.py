"""Checkpoint-resume fidelity: forked runs must equal full replay.

The checkpoint engine is a pure performance feature — every experiment
resumed from a golden-prefix snapshot must produce an
``ExperimentRecord`` field-for-field identical (wall clock aside) to the
full-replay reference loop (``tests/reference.py``), across all four
campaign styles, serial and process-pooled, including faults at the
first and last eligible injection ticks and hand-built sparse ladders
with nearest-earlier fallback.
"""

import pickle
from dataclasses import replace

import pytest
from reference import (architectural_jobs, candidate_jobs, exhaustive_jobs,
                       random_jobs, reference_records, strip_wall)

from repro.core import (Campaign, CampaignConfig, CheckpointStore,
                        FaultSpec, run_scenario,
                        run_scenario_from_checkpoint)
from repro.core.parallel import execute_experiment, execute_experiment_batch
from repro.core.persistence import (config_fingerprint, load_golden_traces,
                                    save_golden_traces)
from repro.sim import TraceStore, highway_cruise, lead_vehicle_cutin


def small_scenarios():
    return [replace(highway_cruise(), duration=24.0),
            replace(lead_vehicle_cutin(), duration=16.0)]


def make_campaign(cache_dir=None) -> Campaign:
    return Campaign(small_scenarios(), CampaignConfig(), cache_dir=cache_dir)


def sparse_ladder(campaign, scenario, ticks) -> CheckpointStore:
    """A store holding one golden-prefix ladder captured at ``ticks``."""
    config = campaign.config
    run = run_scenario(scenario, ads_config=config.ads, seed=config.seed,
                       safety_config=config.safety, record_trace=False,
                       checkpoint_ticks=ticks)
    store = CheckpointStore()
    store.add_all(run.checkpoints)
    return store


def replayed(campaign, jobs):
    """The reference loop's records of ``jobs``: full replay from 0."""
    return strip_wall(reference_records(campaign, jobs))


@pytest.fixture(scope="module")
def forked():
    """Checkpoint-resume campaign over the small scenario set."""
    return make_campaign()


class TestSnapshotRoundtrip:
    def test_resume_reproduces_suffix_bitwise(self):
        """Mid-run snapshot -> restore -> identical continuation."""
        scenario = small_scenarios()[0]
        run = run_scenario(scenario, record_trace=True,
                           checkpoint_ticks=[100])
        checkpoint = run.checkpoints[100]
        fault = FaultSpec("brake", 0.0, 200, 4)
        full = run_scenario(scenario, faults=[fault], record_trace=True)
        resumed = run_scenario_from_checkpoint(scenario, checkpoint,
                                               faults=[fault],
                                               record_trace=True)
        assert resumed.sim_seconds == full.sim_seconds
        assert resumed.min_delta_long == full.min_delta_long
        # The resumed trace is the suffix of the full trace, bit for bit.
        full_arrays = full.trace.as_arrays()
        resumed_arrays = resumed.trace.as_arrays()
        offset = len(full.trace) - len(resumed.trace)
        assert offset > 0
        for name, column in resumed_arrays.items():
            assert column.tolist() == full_arrays[name][offset:].tolist()

    def test_checkpoint_is_picklable(self):
        scenario = small_scenarios()[0]
        run = run_scenario(scenario, record_trace=False,
                           checkpoint_ticks=[120])
        checkpoint = pickle.loads(pickle.dumps(run.checkpoints[120]))
        fault = FaultSpec("throttle", 1.0, 140, 4)
        direct = run_scenario_from_checkpoint(scenario,
                                              run.checkpoints[120],
                                              faults=[fault])
        via_pickle = run_scenario_from_checkpoint(scenario, checkpoint,
                                                  faults=[fault])
        assert via_pickle.min_delta_long == direct.min_delta_long
        assert via_pickle.sim_seconds == direct.sim_seconds

    def test_resume_rejects_faults_before_checkpoint(self):
        scenario = small_scenarios()[0]
        run = run_scenario(scenario, record_trace=False,
                           checkpoint_ticks=[200])
        with pytest.raises(ValueError):
            run_scenario_from_checkpoint(
                scenario, run.checkpoints[200],
                faults=[FaultSpec("brake", 0.0, 100, 4)])

    def test_resume_requires_faults(self):
        scenario = small_scenarios()[0]
        run = run_scenario(scenario, record_trace=False,
                           checkpoint_ticks=[100])
        with pytest.raises(ValueError):
            run_scenario_from_checkpoint(scenario, run.checkpoints[100])


class TestSingleFaultFidelity:
    @pytest.mark.parametrize("position", ["first", "last"])
    @pytest.mark.parametrize("variable,value", [("brake", 0.0),
                                                ("throttle", 1.0)])
    def test_edge_tick_records_identical(self, forked, position,
                                         variable, value):
        """Faults at the first and last eligible injection ticks."""
        for scenario in forked.scenarios:
            ticks = forked.injection_ticks(scenario)
            tick = ticks[0] if position == "first" else ticks[-1]
            fault = FaultSpec(variable, value, tick,
                              forked.config.fault_duration_ticks)
            resumed = forked.run_fault(scenario.name, fault)
            assert strip_wall([resumed]) == \
                replayed(forked, [(scenario.name, fault)])


class TestCampaignStyleFidelity:
    """All four campaign styles, serial and workers=2."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_random_campaign(self, forked, workers):
        resumed = forked.random_campaign(8, seed=11, workers=workers)
        assert strip_wall(resumed.records) == \
            replayed(forked, random_jobs(forked, 8, seed=11))

    @pytest.mark.parametrize("workers", [None, 2])
    def test_exhaustive_campaign(self, forked, workers):
        resumed = forked.exhaustive_campaign(
            tick_stride=40, variable_names=["brake", "steering"],
            workers=workers)
        assert strip_wall(resumed.records) == replayed(
            forked, exhaustive_jobs(forked, tick_stride=40,
                                    variable_names=["brake", "steering"]))

    @pytest.mark.parametrize("workers", [None, 2])
    def test_architectural_campaign(self, forked, workers):
        resumed, res_outcomes = forked.architectural_campaign(
            30, seed=3, workers=workers)
        jobs, ref_outcomes = architectural_jobs(forked, 30, seed=3)
        assert res_outcomes == ref_outcomes
        assert strip_wall(resumed.records) == replayed(forked, jobs)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_bayesian_campaign(self, forked, workers):
        resumed = forked.bayesian_campaign(top_k=6, workers=workers)
        assert strip_wall(resumed.summary.records) == replayed(
            forked, candidate_jobs(forked, resumed.candidates))


class TestStrideFallback:
    def test_sparse_stride_resumes_from_nearest_earlier(self, forked):
        """A hand-built ladder of every 7th eligible tick: most faults
        land between snapshots and replay the gap from the nearest
        earlier one, in both engines."""
        scenario = forked.scenarios[0]
        ticks = forked.injection_ticks(scenario)
        store = sparse_ladder(forked, scenario, ticks[::7])
        uncaptured = [t for t in ticks if t not in store.ticks(scenario.name)]
        assert uncaptured, "the ladder must leave gaps for this test"
        faults = [FaultSpec("brake", 0.0, tick,
                            forked.config.fault_duration_ticks)
                  for tick in (uncaptured[0], uncaptured[-1])]
        for fault in faults:
            nearest = store.nearest(scenario.name, fault.start_tick)
            assert nearest is not None and nearest.tick < fault.start_tick
        expected = replayed(forked, [(scenario.name, f) for f in faults])
        scalar = [execute_experiment(
            scenario, forked.config, fault,
            store.nearest(scenario.name, fault.start_tick))
            for fault in faults]
        assert strip_wall(scalar) == expected
        fused = execute_experiment_batch(
            [(scenario, fault) for fault in faults], forked.config,
            [store.nearest(scenario.name, fault.start_tick)
             for fault in faults])
        assert strip_wall(fused) == expected

    @pytest.mark.parametrize("offset", [1, 3, 5])
    def test_odd_gaps_and_odd_snapshots(self, forked, offset):
        """Snapshots and faults off the planner ticks: a ladder captured
        at odd ticks forks faults at, and just past, its snapshots."""
        scenario = forked.scenarios[1]
        ticks = [t + offset for t in forked.injection_ticks(scenario)[::9]]
        store = sparse_ladder(forked, scenario, ticks)
        assert store.ticks(scenario.name) == ticks
        faults = [FaultSpec("throttle", 1.0, tick + gap, 4)
                  for tick in ticks[:3] for gap in (0, 1, 2)]
        scalar = [execute_experiment(
            scenario, forked.config, fault,
            store.nearest(scenario.name, fault.start_tick))
            for fault in faults]
        assert strip_wall(scalar) == replayed(
            forked, [(scenario.name, fault) for fault in faults])

    def test_empty_store_falls_back_to_full_replay(self, forked):
        scenario = forked.scenarios[0]
        tick = forked.injection_ticks(scenario)[5]
        fault = FaultSpec("brake", 0.0, tick, 4)
        reference = execute_experiment(scenario, forked.config, fault)
        via_empty = execute_experiment(
            scenario, forked.config, fault,
            CheckpointStore().nearest(scenario.name, tick))
        assert strip_wall([via_empty]) == strip_wall([reference])


class TestGoldenTraceCache:
    def test_roundtrip_preserves_runs_and_mining(self, tmp_path, forked):
        fingerprint = config_fingerprint(
            forked.config.ads, forked.config.safety, forked.config.seed,
            ((s.name, s.duration) for s in forked.scenarios))
        path = tmp_path / "golden.json.gz"
        store = TraceStore(tmp_path / "traces")
        save_golden_traces(forked.golden_runs(), path, fingerprint, store)
        loaded = load_golden_traces(path, fingerprint, store)
        assert loaded is not None
        for name, run in forked.golden_runs().items():
            restored = loaded[name]
            assert restored.hazard == run.hazard
            assert restored.min_delta_long == run.min_delta_long
            assert len(restored.trace) == len(run.trace)
            for column in run.trace.columns:
                assert restored.trace.column(column).tolist() == \
                    run.trace.column(column).tolist()

    def test_stale_fingerprint_is_rejected(self, tmp_path, forked):
        path = tmp_path / "golden.json.gz"
        store = TraceStore(tmp_path / "traces")
        save_golden_traces(forked.golden_runs(), path, "fp-old", store)
        assert load_golden_traces(path, "fp-new", store) is None
        assert load_golden_traces(tmp_path / "missing.json.gz", "x",
                                  store) is None

    def test_campaign_warm_start_matches_fresh(self, tmp_path):
        cold = make_campaign(cache_dir=tmp_path)
        cold_result = cold.bayesian_campaign(top_k=4)
        assert any(tmp_path.glob("golden-*.json.gz"))
        assert any(tmp_path.glob("candidates-*.json"))

        warm = make_campaign(cache_dir=tmp_path)
        warm_result = warm.bayesian_campaign(top_k=4)
        # Warm start loads both golden traces and mined candidates.
        assert warm_result.mining.wall_seconds == 0.0
        assert [(c.scenario, c.injection_tick, c.variable, c.value)
                for c in warm_result.candidates] == \
               [(c.scenario, c.injection_tick, c.variable, c.value)
                for c in cold_result.candidates]
        assert strip_wall(warm_result.summary.records) == \
            strip_wall(cold_result.summary.records)
