"""Tests for the Bayesian fault-selection engine (the core contribution)."""

from dataclasses import replace

import numpy as np
import pytest
from reference import reference_potential, reference_predict_after_fault

from repro.bayesnet import slice_node
from repro.core import (BN_VARIABLES, MINED_VARIABLES, BayesianFaultInjector,
                        Campaign, CampaignConfig, ads_dbn_template,
                        scene_rows_from_trace)
from repro.sim import (empty_road, highway_cruise, lead_vehicle_cutin,
                       stalled_vehicle)


@pytest.fixture(scope="module")
def small_campaign():
    scenarios = [replace(empty_road(), duration=15.0),
                 replace(highway_cruise(), duration=20.0),
                 replace(lead_vehicle_cutin(), duration=15.0),
                 replace(stalled_vehicle(), duration=20.0)]
    return Campaign(scenarios, CampaignConfig())


@pytest.fixture(scope="module")
def injector(small_campaign):
    return BayesianFaultInjector.train(
        list(small_campaign.golden_runs().values()))


class TestTemplate:
    def test_every_variable_present(self):
        template = ads_dbn_template()
        assert set(template.variables) == set(BN_VARIABLES)

    def test_unrolls_to_three_slices(self):
        dag = ads_dbn_template().unrolled_dag(3)
        assert len(dag) == 3 * len(BN_VARIABLES)

    def test_actuation_drives_future_speed(self):
        dag = ads_dbn_template().unrolled_dag(2)
        assert ("throttle@0", "v@1") in dag.edges()
        assert ("brake@0", "v@1") in dag.edges()

    def test_world_drives_actuation_within_slice(self):
        dag = ads_dbn_template().unrolled_dag(1)
        assert ("gap@0", "brake@0") in dag.edges()


class TestSceneRows:
    def test_rows_pair_consecutive_ticks(self, small_campaign):
        golden = small_campaign.golden_runs()["highway_cruise"]
        rows = list(scene_rows_from_trace("highway_cruise",
                                         golden.trace))
        assert len(rows) == len(golden.trace) - 1
        assert rows[0].injection_tick > rows[0].evidence_tick

    def test_rows_carry_observed_delta(self, small_campaign):
        golden = small_campaign.golden_runs()["highway_cruise"]
        rows = list(scene_rows_from_trace("highway_cruise",
                                         golden.trace))
        assert all(r.observed_delta_long > 0 for r in rows)
        assert all(r.observed_safe for r in rows)


class TestTraining:
    def test_model_covers_three_slices(self, injector):
        nodes = injector.model.dag.nodes()
        assert slice_node("v", 2) in nodes
        assert len(nodes) == 21

    def test_learned_speed_dynamics_sensible(self, injector):
        # v@1 should depend positively on v@0 with weight near 1
        cpd = injector.model.cpds[slice_node("v", 1)]
        weight = dict(zip(cpd.parents, cpd.weights))[slice_node("v", 0)]
        assert 0.7 < weight < 1.2


class TestCounterfactuals:
    def scene(self, small_campaign, scenario, index=50):
        golden = small_campaign.golden_runs()[scenario]
        return list(scene_rows_from_trace(scenario,
                                         golden.trace))[index]

    def test_neutral_intervention_tracks_golden(self, small_campaign,
                                                injector):
        """do(observed value) should predict roughly the observed future."""
        scene = self.scene(small_campaign, "highway_cruise")
        estimate = reference_predict_after_fault(
            injector, scene, "throttle", scene.values["throttle"])
        assert estimate["v"] == pytest.approx(scene.values["v"], abs=2.0)
        assert estimate["gap"] == pytest.approx(scene.values["gap"],
                                                abs=10.0)

    def test_max_throttle_raises_predicted_speed(self, small_campaign,
                                                 injector):
        scene = self.scene(small_campaign, "highway_cruise")
        low = reference_predict_after_fault(injector, scene, "throttle",
                                            0.0)
        high = reference_predict_after_fault(injector, scene, "throttle",
                                             1.0)
        assert high["v_end"] > low["v_end"]

    def test_max_brake_lowers_predicted_speed(self, small_campaign,
                                              injector):
        scene = self.scene(small_campaign, "highway_cruise")
        braked = reference_predict_after_fault(injector, scene, "brake",
                                               1.0)
        coasting = reference_predict_after_fault(injector, scene, "brake",
                                                 0.0)
        assert braked["v_end"] < coasting["v_end"]

    def test_throttle_fault_erodes_predicted_potential(self, small_campaign,
                                                       injector):
        scene = self.scene(small_campaign, "stalled_vehicle", index=60)
        nominal = reference_potential(
            injector, scene, "throttle", scene.values["throttle"])
        faulted = reference_potential(injector, scene, "throttle", 1.0)
        assert faulted.longitudinal < nominal.longitudinal

    def test_steering_fault_erodes_lateral_potential(self, small_campaign,
                                                     injector):
        scene = self.scene(small_campaign, "empty_road")
        faulted = reference_potential(injector, scene, "steering", 0.55)
        nominal = reference_potential(
            injector, scene, "steering", scene.values["steering"])
        assert faulted.lateral < nominal.lateral


class TestMining:
    def test_mining_finds_candidates(self, small_campaign, injector):
        scenes = list(small_campaign.scene_rows())
        candidates, report = injector.mine_critical_faults(scenes)
        assert report.n_scored > 0
        assert report.n_scenes == len(scenes)
        assert candidates, "no critical faults mined"

    def test_candidates_sorted_most_critical_first(self, small_campaign,
                                                   injector):
        candidates, _ = injector.mine_critical_faults(
            small_campaign.scene_rows())
        keys = [c.predicted_minimum for c in candidates]
        assert keys == sorted(keys)

    def test_top_k_truncates(self, small_campaign, injector):
        candidates, _ = injector.mine_critical_faults(
            small_campaign.scene_rows(), top_k=3)
        assert len(candidates) <= 3

    def test_negative_top_k_rejected(self, small_campaign, injector):
        """Slicing by -1 would silently drop the last candidate."""
        with pytest.raises(ValueError, match="top_k must be >= 0"):
            injector.mine_critical_faults(small_campaign.scene_rows(),
                                          top_k=-1)

    def test_candidates_come_from_safe_scenes(self, small_campaign,
                                              injector):
        candidates, _ = injector.mine_critical_faults(
            small_campaign.scene_rows())
        assert all(c.observed_delta_long > 0 for c in candidates)

    def test_mined_variables_are_mappable(self, small_campaign, injector):
        candidates, _ = injector.mine_critical_faults(
            small_campaign.scene_rows())
        assert all(c.variable in MINED_VARIABLES for c in candidates)

    def test_fault_spec_round_trip(self, small_campaign, injector):
        candidates, _ = injector.mine_critical_faults(
            small_campaign.scene_rows(), top_k=1)
        spec = candidates[0].to_fault_spec(duration_ticks=4)
        assert spec.variable == candidates[0].variable
        assert spec.start_tick == candidates[0].injection_tick
        assert spec.duration_ticks == 4
