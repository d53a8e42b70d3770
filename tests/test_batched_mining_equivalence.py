"""Equivalence suite: the miner vs the scalar oracle, and parallel vs
serial campaign validation.

The miner's affine engine and the process-pool executor are pure
performance features — these tests pin down that neither changes any
result.  The scalar oracle (one Gaussian conditioning per candidate)
lives in ``reference.py``.
"""

from dataclasses import replace

import numpy as np
import pytest
from reference import reference_mine, reference_potential, strip_wall

from repro.bayesnet import GaussianInference, LinearGaussianBayesianNetwork
from repro.bayesnet.cpd import LinearGaussianCPD
from repro.core import (BayesianFaultInjector, Campaign, CampaignConfig,
                        ConditioningFaultInjector)
from repro.sim import (adjacent_traffic, braking_lead, empty_road,
                       highway_cruise, lead_vehicle_cutin, stalled_vehicle,
                       two_lead_reveal)


@pytest.fixture(scope="module")
def campaign():
    """The benchmark suite's scenario population (all seven scenarios)."""
    scenarios = [replace(empty_road(), duration=15.0),
                 replace(highway_cruise(), duration=20.0),
                 replace(lead_vehicle_cutin(), duration=15.0),
                 replace(two_lead_reveal(), duration=20.0),
                 replace(braking_lead(), duration=20.0),
                 replace(stalled_vehicle(), duration=20.0),
                 replace(adjacent_traffic(), duration=15.0)]
    return Campaign(scenarios, CampaignConfig())


@pytest.fixture(scope="module")
def injector(campaign):
    return BayesianFaultInjector.train(
        list(campaign.golden_runs().values()),
        safety_config=campaign.config.safety)


class TestAffineMap:
    def network(self):
        network = LinearGaussianBayesianNetwork(edges=[("a", "b"),
                                                       ("b", "c")])
        network.add_cpd(LinearGaussianCPD("a", intercept=1.0, variance=2.0))
        network.add_cpd(LinearGaussianCPD("b", intercept=-0.5, variance=1.0,
                                          parents=["a"], weights=[2.0]))
        network.add_cpd(LinearGaussianCPD("c", intercept=0.0, variance=0.5,
                                          parents=["b"], weights=[-1.0]))
        return network

    def test_affine_map_matches_map_query(self):
        engine = GaussianInference(self.network())
        gain, offset = engine.affine_map(["c"], ["a", "b"])
        for a, b in [(0.0, 0.0), (1.5, -2.0), (-3.0, 4.0)]:
            expected = engine.map_query(["c"], {"a": a, "b": b})["c"]
            got = float((gain @ np.array([a, b]) + offset)[0])
            assert got == pytest.approx(expected, abs=1e-12)

    def test_affine_map_respects_caller_evidence_order(self):
        engine = GaussianInference(self.network())
        gain_ab, offset_ab = engine.affine_map(["c"], ["a", "b"])
        gain_ba, offset_ba = engine.affine_map(["c"], ["b", "a"])
        e = np.array([1.5, -2.0])
        assert float((gain_ab @ e + offset_ab)[0]) == pytest.approx(
            float((gain_ba @ e[::-1] + offset_ba)[0]), abs=1e-12)

    def test_affine_map_rejects_observed_query(self):
        engine = GaussianInference(self.network())
        with pytest.raises(KeyError):
            engine.affine_map(["a"], ["a", "b"])

    def test_condition_gain_cache_reused(self):
        engine = GaussianInference(self.network())
        first = engine.joint.condition({"a": 0.0})
        second = engine.joint.condition({"a": 2.0})
        assert first.variables == second.variables
        plan = engine.joint.conditioning_plan(["a"])
        assert plan is engine.joint.conditioning_plan(["a"])


class TestBatchedMiningEquivalence:
    @pytest.mark.parametrize("engine", [BayesianFaultInjector,
                                        ConditioningFaultInjector],
                             ids=lambda cls: cls.__name__)
    def test_fcrit_identical_to_scalar_oracle(self, campaign, engine):
        """Both engines of the do()/conditioning ablation: the
        conditioning engine swaps only the graph the miner reads."""
        injector = engine.train(list(campaign.golden_runs().values()),
                                safety_config=campaign.config.safety)
        scenes = list(campaign.scene_rows())
        scalar, scalar_report = reference_mine(injector, scenes)
        batched, batched_report = injector.mine_critical_faults(scenes)
        assert batched_report.n_scored == scalar_report.n_scored
        assert batched_report.n_scenes == scalar_report.n_scenes
        assert len(batched) == len(scalar)
        for a, b in zip(scalar, batched):
            assert (a.scenario, a.injection_tick, a.variable, a.value) == \
                (b.scenario, b.injection_tick, b.variable, b.value)
            assert b.predicted_delta_long == pytest.approx(
                a.predicted_delta_long, abs=1e-9)
            assert b.predicted_delta_lat == pytest.approx(
                a.predicted_delta_lat, abs=1e-9)
            assert b.observed_delta_long == a.observed_delta_long
            assert b.observed_delta_lat == a.observed_delta_lat

    def test_batched_potentials_match_scalar_per_candidate(self, campaign,
                                                           injector):
        """Spot-check raw potentials, not just the critical subset."""
        scenes = [s for s in campaign.scene_rows() if s.observed_safe][::40]
        assert scenes
        batched, _ = injector.mine_critical_faults(
            scenes, threshold=float("inf"))
        by_key = {(c.scenario, c.injection_tick, c.variable, c.value): c
                  for c in batched}
        from repro.ads.variables import variable_by_name
        for scene in scenes:
            for variable in ("throttle", "tracked_gap", "steering"):
                for value in variable_by_name(variable).corruption_values():
                    value = float(value)
                    potential = reference_potential(
                        injector, scene, variable, value)
                    candidate = by_key[(scene.scenario,
                                        scene.injection_tick,
                                        variable, value)]
                    assert candidate.predicted_delta_long == pytest.approx(
                        potential.longitudinal, abs=1e-9)
                    assert candidate.predicted_delta_lat == pytest.approx(
                        potential.lateral, abs=1e-9)

    def test_batched_respects_top_k_and_sorting(self, campaign, injector):
        scenes = campaign.scene_rows()
        candidates, _ = injector.mine_critical_faults(scenes, top_k=5)
        assert len(candidates) <= 5
        keys = [c.predicted_minimum for c in candidates]
        assert keys == sorted(keys)

    def test_batched_empty_scene_list(self, injector):
        candidates, report = injector.mine_critical_faults([])
        assert candidates == []
        assert report.n_scored == 0


class TestParallelValidation:
    @pytest.fixture(scope="class")
    def small_campaign(self):
        scenarios = [replace(highway_cruise(), duration=20.0),
                     replace(lead_vehicle_cutin(), duration=15.0)]
        return Campaign(scenarios, CampaignConfig())

    def test_random_campaign_worker_parity(self, small_campaign):
        serial = small_campaign.random_campaign(6, seed=7, workers=1)
        parallel = small_campaign.random_campaign(6, seed=7, workers=2)
        assert strip_wall(parallel.records) == \
            strip_wall(serial.records)

    def test_exhaustive_campaign_worker_parity(self, small_campaign):
        serial = small_campaign.exhaustive_campaign(
            tick_stride=30, variable_names=["brake"], workers=1)
        parallel = small_campaign.exhaustive_campaign(
            tick_stride=30, variable_names=["brake"], workers=2)
        assert strip_wall(parallel.records) == \
            strip_wall(serial.records)

    def test_bayesian_campaign_worker_parity(self, small_campaign):
        serial = small_campaign.bayesian_campaign(top_k=4, workers=1)
        parallel = small_campaign.bayesian_campaign(
            injector=serial.injector, top_k=4, workers=2)
        assert [
            (c.scenario, c.injection_tick, c.variable, c.value)
            for c in parallel.candidates] == [
            (c.scenario, c.injection_tick, c.variable, c.value)
            for c in serial.candidates]
        assert strip_wall(parallel.summary.records) == \
            strip_wall(serial.summary.records)
