"""Pool-plumbing coverage: start-method fallback and degenerate pools.

The pipeline driver leans on :mod:`repro.core.parallel`'s quiet
degradation rules — unknown start methods return no context, spawn
pools refuse unpicklable state, single-worker pools collapse to the
serial loop — so each rule is pinned here rather than discovered by a
hanging campaign.
"""

import multiprocessing
from dataclasses import replace

import pytest
from reference import random_jobs, reference_records, strip_wall

from repro.core import (Campaign, CampaignConfig, CampaignPipeline,
                        FaultSpec, ListSink)
from repro.core.parallel import _picklable, _pool_context
from repro.core.plans import JobsPlan, Plan
from repro.sim import Scenario, highway_cruise, lead_vehicle_cutin


def small_scenarios():
    return [replace(highway_cruise(), duration=16.0),
            replace(lead_vehicle_cutin(), duration=14.0)]


def run_driver(campaign, jobs, workers, start_method=None):
    """``jobs`` on the streaming driver under a forced start method."""
    summary = CampaignPipeline(campaign, workers=workers,
                               start_method=start_method).run(
        JobsPlan(campaign, jobs))
    return strip_wall(summary.records)


def collect_goldens(scenarios, workers=None, start_method=None):
    """Golden runs of a fresh campaign through a golden-only plan."""
    campaign = Campaign(scenarios, CampaignConfig())
    CampaignPipeline(campaign, workers=workers,
                     start_method=start_method).run(
        Plan(campaign))
    return campaign._golden


@pytest.fixture(scope="module")
def campaign():
    campaign = Campaign(small_scenarios(), CampaignConfig())
    campaign.golden_runs()
    return campaign


@pytest.fixture(scope="module")
def jobs(campaign):
    scenario = campaign.scenarios[0]
    ticks = campaign.injection_ticks(scenario)
    return [(scenario.name, FaultSpec("brake", 0.0, ticks[1], 4)),
            (campaign.scenarios[1].name,
             FaultSpec("throttle", 1.0, ticks[2], 4)),
            (scenario.name, FaultSpec("steering", 0.55, ticks[3], 4))]


class TestPoolContext:
    def test_prefers_fork_else_spawn(self):
        context = _pool_context()
        assert context is not None
        methods = multiprocessing.get_all_start_methods()
        expected = "fork" if "fork" in methods else "spawn"
        assert context.get_start_method() == expected

    def test_explicit_method_honored(self):
        context = _pool_context("spawn")
        assert context is not None
        assert context.get_start_method() == "spawn"

    def test_unknown_method_falls_back_to_serial(self):
        assert _pool_context("no_such_start_method") is None

    def test_unknown_method_still_runs_experiments(self, campaign, jobs):
        reference = strip_wall(reference_records(campaign, jobs))
        fallback = run_driver(campaign, jobs, workers=2,
                              start_method="no_such_start_method")
        assert fallback == reference


class TestPicklability:
    def test_partial_scenarios_pickle(self):
        assert _picklable(small_scenarios(), CampaignConfig())

    def test_closure_scenarios_do_not(self):
        closure = Scenario("closure", lambda: None, duration=10.0)
        assert not _picklable([closure])

    def test_spawn_with_closure_scenarios_falls_back_serial(self):
        """Unpicklable pool state degrades to in-process execution."""
        from repro.sim.world import World
        scenarios = [Scenario("closure_cruise",
                              lambda: World.on_highway(ego_speed=28.0),
                              duration=14.0)]
        campaign = Campaign(scenarios, CampaignConfig())
        tick = campaign.injection_ticks(scenarios[0])[1]
        closure_jobs = [("closure_cruise",
                         FaultSpec("brake", 0.0, tick, 4))]
        reference = strip_wall(reference_records(campaign, closure_jobs))
        with pytest.warns(RuntimeWarning, match="scenarios"):
            spawned = run_driver(campaign, closure_jobs, workers=2,
                                 start_method="spawn")
        assert spawned == reference

    def test_spawn_golden_collection_with_closures_falls_back(self):
        from repro.sim.world import World
        scenarios = [Scenario("closure_a",
                              lambda: World.on_highway(ego_speed=26.0),
                              duration=12.0),
                     Scenario("closure_b",
                              lambda: World.on_highway(ego_speed=30.0),
                              duration=12.0)]
        serial = collect_goldens(scenarios)
        with pytest.warns(RuntimeWarning, match="scenarios"):
            spawned = collect_goldens(scenarios, workers=2,
                                      start_method="spawn")
        assert list(spawned) == list(serial)
        for name, run in spawned.items():
            assert run.min_delta_long == serial[name].min_delta_long
            assert len(run.trace) == len(serial[name].trace)


class TestSingleWorkerPools:
    """workers=1 (and workers=0) must collapse to the serial loop."""

    @pytest.mark.parametrize("workers", [0, 1])
    def test_run_experiments_degenerate(self, campaign, jobs, workers):
        """``run_jobs`` with 0 or 1 workers equals the reference loop."""
        reference = strip_wall(reference_records(campaign, jobs))
        summary = campaign.run_jobs(jobs, workers=workers)
        assert strip_wall(summary.records) == reference

    def test_run_experiments_streaming_degenerate(self, campaign, jobs):
        reference = strip_wall(reference_records(campaign, jobs))
        sink = ListSink()
        summary = campaign.run_jobs(jobs, workers=1, record_sink=sink)
        assert summary.records == []      # streamed out, not retained
        assert summary.total == len(jobs)
        assert strip_wall(sink.records) == reference

    def test_collect_golden_runs_single_worker(self, campaign):
        """Golden collection with one worker equals the serial loop."""
        serial = campaign.golden_runs()
        collected = collect_goldens(campaign.scenarios, workers=1)
        assert list(collected) == list(serial)
        for name, run in collected.items():
            reference = serial[name].trace.as_arrays()
            for column, array in run.trace.as_arrays().items():
                assert array.tolist() == reference[column].tolist()

    def test_single_scenario_pool_stays_serial(self, campaign):
        """A one-scenario golden fan-out (nothing to shard) gives the
        serial run's result."""
        scenario = campaign.scenarios[0]
        collected = collect_goldens([scenario], workers=4)
        reference = campaign.golden_runs()[scenario.name]
        assert collected[scenario.name].min_delta_long == \
            reference.min_delta_long

    def test_pipeline_campaign_single_worker(self, campaign):
        reference = strip_wall(reference_records(
            campaign, random_jobs(campaign, 5, seed=9)))
        single = Campaign(small_scenarios(),
                          CampaignConfig()).random_campaign(
            5, seed=9, workers=1)
        assert strip_wall(single.records) == reference
