"""Tests for campaign orchestration (random/exhaustive/arch/Bayesian)."""

from dataclasses import replace

import pytest

from repro.core import (MINED_VARIABLES, Campaign, CampaignConfig,
                        FaultSpec, Hazard)
from repro.core.plans import (ArchitecturalPlan, BayesianPlan,
                              ExhaustivePlan, RandomPlan)
from repro.sim import (empty_road, highway_cruise, lead_vehicle_cutin,
                       stalled_vehicle)


@pytest.fixture(scope="module")
def campaign():
    scenarios = [replace(empty_road(), duration=15.0),
                 replace(highway_cruise(), duration=20.0),
                 replace(lead_vehicle_cutin(), duration=15.0),
                 replace(stalled_vehicle(), duration=20.0)]
    return Campaign(scenarios, CampaignConfig())


class TestGolden:
    def test_golden_runs_cached(self, campaign):
        assert campaign.golden_runs() is campaign.golden_runs()

    def test_golden_runs_hold_checkpoint_ladders(self, campaign):
        """The golden-only pipeline plan spills ladders to its spool;
        ``golden_runs()`` reloads them into ``campaign.checkpoints``."""
        campaign.golden_runs()
        assert campaign.checkpoints.scenarios() == \
            sorted(s.name for s in campaign.scenarios)

    def test_all_golden_safe(self, campaign):
        for name, run in campaign.golden_runs().items():
            assert run.hazard is Hazard.NONE, (
                f"golden {name} not hazard-free")

    def test_injection_ticks_respect_window(self, campaign):
        scenario = campaign.scenarios[0]
        ticks = campaign.injection_ticks(scenario)
        start = (campaign.config.injection_window_start
                 / campaign.config.ads.control_period)
        assert all(t >= start for t in ticks)
        assert ticks

    def test_injection_ticks_respect_end_margin(self, campaign):
        # Regression: the documented end margin used to be ignored, so
        # faults landed in the last seconds of a scenario and lost their
        # post-fault monitoring horizon.
        dt = campaign.config.ads.control_period
        margin = campaign.config.injection_window_margin
        for scenario in campaign.scenarios:
            end = (scenario.duration - margin) / dt
            ticks = campaign.injection_ticks(scenario)
            assert ticks, scenario.name
            assert all(t <= end for t in ticks), scenario.name

    def test_scene_rows_respect_end_margin(self, campaign):
        dt = campaign.config.ads.control_period
        margin = campaign.config.injection_window_margin
        durations = {s.name: s.duration for s in campaign.scenarios}
        for row in campaign.scene_rows():
            end = (durations[row.scenario] - margin) / dt
            assert row.injection_tick <= end

    def test_injection_ticks_cached(self, campaign):
        scenario = campaign.scenarios[0]
        assert campaign.injection_ticks(scenario) is \
            campaign.injection_ticks(scenario)
        assert campaign.injection_ticks(scenario, stride=3) is \
            campaign.injection_ticks(scenario, stride=3)

    def test_injection_tick_stride(self, campaign):
        scenario = campaign.scenarios[0]
        dense = campaign.injection_ticks(scenario, stride=1)
        sparse = campaign.injection_ticks(scenario, stride=5)
        assert len(sparse) == pytest.approx(len(dense) / 5, abs=1)

    def test_scene_rows_cover_scenarios(self, campaign):
        scenarios = {row.scenario for row in campaign.scene_rows()}
        assert scenarios == {s.name for s in campaign.scenarios}


class TestRunFault:
    def test_record_fields(self, campaign):
        fault = FaultSpec("throttle", 1.0, start_tick=60, duration_ticks=2)
        record = campaign.run_fault("highway_cruise", fault)
        assert record.scenario == "highway_cruise"
        assert record.variable == "throttle"
        assert record.injection_tick == 60
        assert record.wall_seconds > 0
        assert record.landed

    def test_reproducible(self, campaign):
        fault = FaultSpec("brake", 1.0, start_tick=80, duration_ticks=4)
        a = campaign.run_fault("highway_cruise", fault)
        b = campaign.run_fault("highway_cruise", fault)
        assert a.hazard == b.hazard
        assert a.min_delta_long == b.min_delta_long


class TestRandomCampaign:
    def test_size_and_determinism(self, campaign):
        a = campaign.random_campaign(6, seed=9)
        b = campaign.random_campaign(6, seed=9)
        assert a.total == 6
        assert ([r.variable for r in a.records]
                == [r.variable for r in b.records])

    def test_random_hazard_rate_low(self, campaign):
        summary = campaign.random_campaign(25, seed=1)
        # The paper's baseline shape: uniform random rarely hits F_crit.
        assert summary.hazard_rate < 0.3


class TestExhaustiveCampaign:
    def test_grid_size_formula(self, campaign):
        ticks = sum(len(campaign.injection_ticks(s, stride=20))
                    for s in campaign.scenarios)
        assert campaign.grid_size(["throttle"], tick_stride=20) == ticks * 2

    def test_max_experiments_cap(self, campaign):
        summary = campaign.exhaustive_campaign(
            tick_stride=40, variable_names=["throttle", "brake"],
            max_experiments=5)
        assert summary.total == 5

    def test_covers_min_and_max(self, campaign):
        summary = campaign.exhaustive_campaign(
            tick_stride=100, variable_names=["brake"])
        values = {r.value for r in summary.records}
        assert values == {0.0, 1.0}


class TestArchitecturalCampaign:
    def test_outcome_accounting(self, campaign):
        summary, outcomes = campaign.architectural_campaign(40, seed=3)
        assert sum(outcomes.values()) == 40
        # Only silent corruptions become driving experiments.
        assert summary.total == outcomes["sdc"]

    def test_masked_dominates(self, campaign):
        _, outcomes = campaign.architectural_campaign(60, seed=4)
        assert outcomes["masked"] >= max(outcomes["sdc"],
                                         outcomes["crash"])


class TestBayesianCampaign:
    def test_end_to_end(self, campaign):
        result = campaign.bayesian_campaign(top_k=8)
        assert len(result.candidates) <= 8
        assert result.summary.total == len(result.candidates)
        assert result.mining.n_scored > 0
        assert result.total_wall_seconds > 0

    def test_bayesian_beats_random_yield(self, campaign):
        bayesian = campaign.bayesian_campaign(top_k=8)
        random = campaign.random_campaign(8, seed=2)
        assert bayesian.precision >= random.hazard_rate
        assert bayesian.summary.hazards > 0

    def test_candidates_target_tight_scenes(self, campaign):
        result = campaign.bayesian_campaign(top_k=10)
        scenarios = {c.scenario for c in result.candidates}
        # The tight scenarios, not the open road, should dominate.
        assert "empty_road" not in scenarios or len(scenarios) > 1


class TestWorkKeys:
    """Work keys name the journal and lease directories, so a renamed
    key would make ``--resume`` redo everything after an upgrade."""

    @pytest.mark.parametrize("plan, key", [
        (lambda c: RandomPlan(c, 48, None), "86e7bbb6094b"),
        (lambda c: RandomPlan(c, 120, 1, 0.25), "95a1f2dc4ca4"),
        (lambda c: ExhaustivePlan(c, 40, None, 120), "cbadc7b710ad"),
        (lambda c: ArchitecturalPlan(c, 100, None, None), "2e10eea46e3a"),
        (lambda c: BayesianPlan(c, None, MINED_VARIABLES, 0.0, 80),
         "8c1c8a2e662f"),
        (lambda c: BayesianPlan(c, None, MINED_VARIABLES, 0.0, None),
         "86d375e401b0"),
    ], ids=["random", "random-interface", "exhaustive", "architectural",
            "bayesian-top-80", "bayesian-all"])
    def test_work_key_is_stable(self, plan, key):
        assert plan(Campaign()).work_key == key
