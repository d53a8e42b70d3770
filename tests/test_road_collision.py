"""Tests for road geometry, OBB collision, and safe-distance helpers."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (Campaign, CampaignConfig, CampaignSummary, FaultSpec,
                        Hazard)
from repro.sim import (SENSOR_RANGE, Obstacle, Road, default_scenarios,
                       ego_collides, lateral_safe_distance,
                       longitudinal_safe_distance, obb_overlap)


class TestRoad:
    def test_width(self):
        assert Road(n_lanes=3, lane_width=3.7).width == pytest.approx(11.1)

    def test_lane_center(self):
        road = Road(n_lanes=3, lane_width=4.0)
        assert road.lane_center(0) == pytest.approx(2.0)
        assert road.lane_center(2) == pytest.approx(10.0)

    def test_lane_center_out_of_range(self):
        with pytest.raises(IndexError):
            Road(n_lanes=2).lane_center(2)

    def test_lane_of(self):
        road = Road(n_lanes=3, lane_width=4.0)
        assert road.lane_of(1.0) == 0
        assert road.lane_of(5.0) == 1
        assert road.lane_of(50.0) == 2  # clipped
        assert road.lane_of(-5.0) == 0  # clipped

    def test_lane_bounds(self):
        road = Road(n_lanes=2, lane_width=4.0)
        assert road.lane_bounds(1) == (4.0, 8.0)

    def test_contains(self):
        road = Road(n_lanes=2, lane_width=4.0)
        assert road.contains(7.9)
        assert not road.contains(8.1)

    def test_lateral_margin_in_lane(self):
        road = Road(n_lanes=3, lane_width=4.0)
        margin = road.lateral_margin_in_lane(6.0, half_width=1.0)
        assert margin == pytest.approx(1.0)

    def test_lateral_margin_negative_when_crossing(self):
        road = Road(n_lanes=3, lane_width=4.0)
        margin = road.lateral_margin_in_lane(7.8, half_width=1.0)
        assert margin < 0.0

    def test_invalid_road(self):
        with pytest.raises(ValueError):
            Road(n_lanes=0)
        with pytest.raises(ValueError):
            Road(lane_width=-1.0)


class TestObbOverlap:
    def square(self, cx, cy, half=1.0, angle=0.0):
        corners = np.array([[half, half], [half, -half],
                            [-half, -half], [-half, half]])
        c, s = np.cos(angle), np.sin(angle)
        return corners @ np.array([[c, -s], [s, c]]).T + np.array([cx, cy])

    def test_overlapping_squares(self):
        assert obb_overlap(self.square(0, 0), self.square(1.5, 0))

    def test_separated_squares(self):
        assert not obb_overlap(self.square(0, 0), self.square(3.0, 0))

    def test_rotated_overlap(self):
        # A rotated square slips between diagonal gaps only when far enough.
        assert obb_overlap(self.square(0, 0),
                           self.square(2.1, 0, angle=np.pi / 4))
        assert not obb_overlap(self.square(0, 0),
                               self.square(2.5, 0, angle=np.pi / 4))

    def test_containment(self):
        assert obb_overlap(self.square(0, 0, half=3.0),
                           self.square(0.5, 0.5, half=0.5))


class TestLongitudinalSafeDistance:
    def test_clear_corridor(self):
        assert longitudinal_safe_distance(0, 5.55, 4.8, 1.9, []) == (
            SENSOR_RANGE)

    def test_lead_in_corridor(self):
        lead = Obstacle(1, x=50.0, y=5.55)
        gap = longitudinal_safe_distance(0.0, 5.55, 4.8, 1.9, [lead])
        assert gap == pytest.approx(50.0 - 4.8)

    def test_vehicle_in_other_lane_ignored(self):
        lead = Obstacle(1, x=50.0, y=9.25)
        assert longitudinal_safe_distance(0.0, 5.55, 4.8, 1.9, [lead]) == (
            SENSOR_RANGE)

    def test_vehicle_behind_ignored(self):
        follower = Obstacle(1, x=-30.0, y=5.55)
        assert longitudinal_safe_distance(0.0, 5.55, 4.8, 1.9,
                                          [follower]) == SENSOR_RANGE

    def test_nearest_of_several(self):
        obstacles = [Obstacle(1, x=80.0, y=5.55), Obstacle(2, x=30.0, y=5.55)]
        gap = longitudinal_safe_distance(0.0, 5.55, 4.8, 1.9, obstacles)
        assert gap == pytest.approx(30.0 - 4.8)

    def test_partial_lateral_overlap_counts(self):
        # A vehicle straddling the lane line still blocks the corridor.
        lead = Obstacle(1, x=40.0, y=5.55 + 1.8)
        gap = longitudinal_safe_distance(0.0, 5.55, 4.8, 1.9, [lead])
        assert gap == pytest.approx(40.0 - 4.8)


class TestLateralSafeDistance:
    def road(self):
        return Road(n_lanes=3, lane_width=3.7)

    def test_centered_in_lane(self):
        road = self.road()
        margin = lateral_safe_distance(0.0, road.lane_center(1), 4.8, 1.9,
                                       [], road)
        assert margin == pytest.approx((3.7 - 1.9) / 2)

    def test_flanking_vehicle_reduces_margin(self):
        road = self.road()
        ego_y = road.lane_center(1)
        # A flanker hugging the shared lane line sits closer than the
        # ego-lane boundary margin of (3.7 - 1.9) / 2 = 0.9 m.
        flanker = Obstacle(1, x=1.0, y=ego_y + 2.2)
        margin = lateral_safe_distance(0.0, ego_y, 4.8, 1.9, [flanker], road)
        assert margin == pytest.approx(2.2 - 1.9)

    def test_distant_flanker_leaves_lane_margin(self):
        road = self.road()
        ego_y = road.lane_center(1)
        flanker = Obstacle(1, x=1.0, y=road.lane_center(2))
        margin = lateral_safe_distance(0.0, ego_y, 4.8, 1.9, [flanker], road)
        # Full-lane separation (1.8 m gap) exceeds the in-lane margin.
        assert margin == pytest.approx((3.7 - 1.9) / 2)

    def test_vehicle_far_ahead_does_not_flank(self):
        road = self.road()
        ego_y = road.lane_center(1)
        leader = Obstacle(1, x=60.0, y=road.lane_center(2))
        margin = lateral_safe_distance(0.0, ego_y, 4.8, 1.9, [leader], road)
        assert margin == pytest.approx((3.7 - 1.9) / 2)


class TestEgoCollides:
    def test_collision_detected(self):
        footprint = np.array([[2.4, 0.95], [2.4, -0.95],
                              [-2.4, -0.95], [-2.4, 0.95]])
        assert ego_collides(footprint, [Obstacle(1, x=4.0, y=0.0)])

    def test_no_collision(self):
        footprint = np.array([[2.4, 0.95], [2.4, -0.95],
                              [-2.4, -0.95], [-2.4, 0.95]])
        assert not ego_collides(footprint, [Obstacle(1, x=10.0, y=0.0)])


class TestCollisionCounters:
    """The ``collision`` row of ``stage_timings``: counts from both
    engines, no timer."""

    @staticmethod
    def _scenarios():
        return [replace(scenario, duration=12.0)
                for scenario in default_scenarios()]

    @staticmethod
    def _check_row(summary):
        row = summary.extra_info["stage_timings"]["collision"]
        assert row["seconds"] == 0.0 and row["calls"] == 0
        assert row["checks"] >= row["prescreen_passes"] >= row["collisions"]
        assert row["collisions"] == sum(
            record.hazard is Hazard.COLLISION for record in summary.records)
        return row

    def test_serial_random_campaign(self):
        campaign = Campaign(self._scenarios(),
                            CampaignConfig(profile_stages=True))
        summary = campaign.random_campaign(24, seed=3)
        row = self._check_row(summary)
        assert row["collisions"] >= 1
        # Most ticks have no body near the ego: the prescreen settles them.
        assert row["prescreen_passes"] * 20 < row["checks"]

        merged = CampaignSummary.merge([summary, summary])
        assert merged.extra_info["stage_timings"]["collision"] == {
            name: 2 * value for name, value in row.items()}

    def test_fused_lanes_count_too(self, monkeypatch):
        from repro.ads.batch import BatchADSState
        from repro.core import parallel
        fused = []
        attach = BatchADSState.attach
        monkeypatch.setattr(BatchADSState, "attach", lambda self, slot, p:
                            fused.append(slot) or attach(self, slot, p))
        monkeypatch.setattr(parallel, "LANES", 4)
        campaign = Campaign(self._scenarios(),
                            CampaignConfig(profile_stages=True))
        jobs = [("adjacent_traffic", FaultSpec("raw_steering", value, 48, 4))
                for value in (0.42, -0.45, 0.5, 0.05)]
        summary = campaign.run_jobs(jobs)
        assert fused
        row = self._check_row(summary)
        assert row["collisions"] >= 1
