"""Collision tests and the safety envelope ``d_safe``.

``d_safe`` (paper Definition 2) is the distance the ego vehicle can travel
before touching any static or dynamic object.  We compute it separately
for the longitudinal direction (bodies ahead in the ego's travel corridor)
and the lateral direction (bodies alongside, plus the ego-lane boundaries,
which the paper treats as static objects so that lane departures register
as safety violations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .road import Road

#: Objects farther than this are invisible to the safety envelope, matching
#: a realistic forward sensor range.
SENSOR_RANGE = 250.0

#: Slack added to summed half-extents by both collision prescreens, so
#: rounding in the footprint corners can never turn a touching pair
#: into a rejected one.
PRESCREEN_SLACK = 1e-6


def box_footprint(x: float, y: float, theta: float, length: float,
                  width: float) -> np.ndarray:
    """Corners of an oriented ``length`` x ``width`` box centred on
    ``(x, y)`` at heading ``theta``, shape (4, 2)."""
    half_l, half_w = length / 2.0, width / 2.0
    corners = np.array([[half_l, half_w], [half_l, -half_w],
                        [-half_l, -half_w], [-half_l, half_w]])
    c, s = np.cos(theta), np.sin(theta)
    rotation = np.array([[c, -s], [s, c]])
    return corners @ rotation.T + np.array([x, y])


def aabb_half_extents(length, width, cos_theta, sin_theta):
    """Half-extents ``(along x, along y)`` of the axis-aligned box
    around an oriented ``length`` x ``width`` box.

    Takes the heading's cosine and sine so the same expression serves
    Python floats (the scalar prescreen, ``math.cos``) and per-lane
    arrays (the batched prescreen, ``np.cos``).
    """
    c = abs(cos_theta)
    s = abs(sin_theta)
    return (length * c + width * s) / 2.0, (length * s + width * c) / 2.0


@dataclass(frozen=True)
class Obstacle:
    """A rigid body in the world (typically a target vehicle)."""

    obstacle_id: int
    x: float
    y: float
    v: float = 0.0
    theta: float = 0.0
    length: float = 4.8
    width: float = 1.9

    def footprint(self) -> np.ndarray:
        """Corners of the oriented bounding box, shape (4, 2)."""
        return box_footprint(self.x, self.y, self.theta, self.length,
                             self.width)


def obb_overlap(corners_a: np.ndarray, corners_b: np.ndarray) -> bool:
    """Separating-axis overlap test for two convex quadrilaterals."""
    for corners in (corners_a, corners_b):
        for i in range(len(corners)):
            edge = corners[(i + 1) % len(corners)] - corners[i]
            axis = np.array([-edge[1], edge[0]])
            norm = np.linalg.norm(axis)
            if norm < 1e-12:
                continue
            axis = axis / norm
            proj_a = corners_a @ axis
            proj_b = corners_b @ axis
            if proj_a.max() < proj_b.min() or proj_b.max() < proj_a.min():
                return False
    return True


def _corridor_overlaps(ego_y: float, ego_width: float,
                       obstacle: Obstacle) -> bool:
    """True if the obstacle's body intersects the ego travel corridor."""
    gap = abs(obstacle.y - ego_y) - (ego_width + obstacle.width) / 2.0
    return gap < 0.0


def longitudinal_safe_distance(ego_x: float, ego_y: float, ego_length: float,
                               ego_width: float,
                               obstacles: list[Obstacle]) -> float:
    """Bumper-to-bumper distance to the nearest body ahead in the corridor.

    Returns :data:`SENSOR_RANGE` when the corridor is clear; can be
    negative when bodies already overlap longitudinally.
    """
    nearest = SENSOR_RANGE
    for obstacle in obstacles:
        if not _corridor_overlaps(ego_y, ego_width, obstacle):
            continue
        gap = (obstacle.x - ego_x) - (ego_length + obstacle.length) / 2.0
        if obstacle.x >= ego_x and gap < nearest:
            nearest = gap
    return nearest


def lateral_safe_distance(ego_x: float, ego_y: float, ego_length: float,
                          ego_width: float, obstacles: list[Obstacle],
                          road: Road) -> float:
    """Clearance to the nearest flanking body or ego-lane boundary.

    The ego-lane boundary term implements the paper's "lane markings are
    static objects" rule; crossing the line drives the margin negative.
    """
    margin = road.lateral_margin_in_lane(ego_y, ego_width / 2.0)
    for obstacle in obstacles:
        longitudinal_gap = (abs(obstacle.x - ego_x)
                            - (ego_length + obstacle.length) / 2.0)
        if longitudinal_gap >= 0.0:
            continue  # no side-by-side overlap
        side_gap = abs(obstacle.y - ego_y) - (ego_width + obstacle.width) / 2.0
        margin = min(margin, side_gap)
    return margin


def lateral_clearance(ego_x: float, ego_y: float, ego_length: float,
                      ego_width: float, obstacles: list[Obstacle],
                      road: Road) -> float:
    """Clearance to the nearest flanking body or *road edge*.

    This is the envelope used by the emergency-stop lateral safety
    check: the maneuver freezes steering, so the relevant free space is
    everything up to the pavement edge and any vehicle alongside, not
    the ego-lane line (which lane-keeping crosses benignly under small
    steering noise).
    """
    margin = road.lateral_margin_on_road(ego_y, ego_width / 2.0)
    for obstacle in obstacles:
        longitudinal_gap = (abs(obstacle.x - ego_x)
                            - (ego_length + obstacle.length) / 2.0)
        if longitudinal_gap >= 0.0:
            continue
        side_gap = abs(obstacle.y - ego_y) - (ego_width + obstacle.width) / 2.0
        margin = min(margin, side_gap)
    return margin


def lateral_clearance_directional(ego_x: float, ego_y: float,
                                  ego_length: float, ego_width: float,
                                  obstacles: list[Obstacle], road: Road,
                                  side: int) -> float:
    """Clearance toward one side (+1 = increasing y, -1 = decreasing).

    Counts the road edge on that side plus any body alongside on that
    side; used by the Bayesian engine to score directional steering
    faults.
    """
    if side >= 0:
        margin = road.width - (ego_y + ego_width / 2.0)
    else:
        margin = ego_y - ego_width / 2.0
    for obstacle in obstacles:
        longitudinal_gap = (abs(obstacle.x - ego_x)
                            - (ego_length + obstacle.length) / 2.0)
        if longitudinal_gap >= 0.0:
            continue
        if side >= 0 and obstacle.y <= ego_y:
            continue
        if side < 0 and obstacle.y >= ego_y:
            continue
        side_gap = abs(obstacle.y - ego_y) - (ego_width + obstacle.width) / 2.0
        margin = min(margin, side_gap)
    return margin


def nearest_lead(ego_x: float, ego_y: float, ego_width: float,
                 obstacles: list[Obstacle],
                 extra_margin: float = 0.0) -> Obstacle | None:
    """The closest obstacle ahead in the ego corridor, if any.

    ``extra_margin`` widens the corridor test; scene recording uses it
    to include impending entrants (a vehicle mid-cut-in) the way a
    tracked world model with lateral velocities would.
    """
    lead = None
    for obstacle in obstacles:
        if obstacle.x < ego_x:
            continue
        gap = (abs(obstacle.y - ego_y)
               - (ego_width + obstacle.width) / 2.0 - extra_margin)
        if gap >= 0.0:
            continue
        if obstacle.x - ego_x > SENSOR_RANGE:
            continue
        if lead is None or obstacle.x < lead.x:
            lead = obstacle
    return lead


def ego_collides(ego_footprint: np.ndarray,
                 obstacles: list[Obstacle]) -> bool:
    """True if the ego body overlaps any obstacle body (exact SAT)."""
    return any(obb_overlap(ego_footprint, obstacle.footprint())
               for obstacle in obstacles)


def collision_candidates(x: float, y: float, theta: float, length: float,
                         width: float,
                         obstacles: list[Obstacle]) -> list[Obstacle]:
    """The obstacles whose axis-aligned bounds reach those of the box.

    Conservative: an obstacle left out cannot overlap the box, because
    disjoint bounding boxes (by more than :data:`PRESCREEN_SLACK`)
    separate the bodies.  Each obstacle's bounds use its own heading.
    """
    half_x, half_y = aabb_half_extents(length, width, math.cos(theta),
                                       math.sin(theta))
    candidates = []
    for obstacle in obstacles:
        reach_x, reach_y = aabb_half_extents(
            obstacle.length, obstacle.width, math.cos(obstacle.theta),
            math.sin(obstacle.theta))
        if (abs(obstacle.x - x) <= half_x + (reach_x + PRESCREEN_SLACK)
                and abs(obstacle.y - y)
                <= half_y + (reach_y + PRESCREEN_SLACK)):
            candidates.append(obstacle)
    return candidates


def count_collision_checks(timer, checks: int, passes: int,
                           collisions: int) -> None:
    """Charge collision tests to the ``collision`` row of a
    :class:`~repro.ads.profiling.StageTimer`: ``checks`` per-lane tests,
    ``passes`` of them reaching the SAT, ``collisions`` confirmed."""
    timer.count("collision", "checks", checks)
    timer.count("collision", "prescreen_passes", passes)
    timer.count("collision", "collisions", collisions)


def box_collides(x: float, y: float, theta: float, length: float,
                 width: float, obstacles: list[Obstacle],
                 timer=None) -> bool:
    """True if the oriented box overlaps any obstacle.

    The exact answer of :func:`ego_collides` on every obstacle, found
    by running the SAT only on the :func:`collision_candidates`.  Both
    engines confirm collisions here: ``World.in_collision`` for the
    scalar one, the per-lane confirm of
    ``BatchWorldState.collided_mask`` for the batched one.  With a
    ``timer`` the test is counted (:func:`count_collision_checks`).
    """
    hits = collision_candidates(x, y, theta, length, width, obstacles)
    collided = bool(hits) and ego_collides(
        box_footprint(x, y, theta, length, width), hits)
    if timer is not None:
        count_collision_checks(timer, 1, int(bool(hits)), int(collided))
    return collided


# -- batched variants --------------------------------------------------------
#
# The batch simulation engine keeps N lanes in a structure-of-arrays
# layout: per-lane ego positions as ``(N,)`` vectors and per-lane
# obstacle positions as ``(N, M)`` matrices.  Obstacle sizes are
# ``(N, M)`` too (lanes of different scenarios carry different bodies),
# or an ``(M,)`` row shared by every lane (``sizes[..., j]`` is a lane
# column of the one and a scalar of the other).  A padded
# column (a lane with fewer than M obstacles) holds NaN positions, which
# fail every comparison below, so it never counts.  Each function is the
# elementwise mirror of its scalar sibling above: identical operation
# order, identical compare-and-select clamps (``min`` is written as
# ``where(b < a, b, a)``, never ``np.minimum``, so signed-zero and tie
# behaviour match Python's), so per lane the results are bit-for-bit
# the scalar answers.


def batched_lateral_clearance(ego_x: np.ndarray, ego_y: np.ndarray,
                              ego_length: float, ego_width: float,
                              obs_x: np.ndarray, obs_y: np.ndarray,
                              obs_lengths, obs_widths,
                              road: Road) -> np.ndarray:
    """Per-lane :func:`lateral_clearance` over ``(N, M)`` bodies."""
    half_width = ego_width / 2.0
    a = ego_y - half_width - 0.0
    b = road.width - (ego_y + half_width)
    margin = np.where(np.less(b, a), b, a)
    lengths = np.asarray(obs_lengths, dtype=float)
    widths = np.asarray(obs_widths, dtype=float)
    for j in range(obs_x.shape[1]):
        longitudinal_gap = (np.abs(obs_x[:, j] - ego_x)
                            - (ego_length + lengths[..., j]) / 2.0)
        side_gap = (np.abs(obs_y[:, j] - ego_y)
                    - (ego_width + widths[..., j]) / 2.0)
        # min(margin, side_gap) with Python-``min`` ties (keep margin).
        update = (longitudinal_gap < 0.0) & np.less(side_gap, margin)
        margin[update] = side_gap[update]
    return margin


def batched_off_road(ego_y: np.ndarray, ego_width: float,
                     road: Road) -> np.ndarray:
    """Per-lane ``World.off_road`` (road-edge margin gone negative)."""
    half_width = ego_width / 2.0
    a = ego_y - half_width - 0.0
    b = road.width - (ego_y + half_width)
    return np.where(np.less(b, a), b, a) < 0.0


def batched_nearest_lead(ego_x: np.ndarray, ego_y: np.ndarray,
                         ego_width: float, obs_x: np.ndarray,
                         obs_y: np.ndarray, obs_widths,
                         extra_margin: float = 0.0
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane :func:`nearest_lead` over ``(N, M)`` bodies.

    Returns ``(lead_index, has_lead)``: the obstacle column index of
    each lane's lead (first occurrence of the minimum x, matching the
    scalar strict ``<`` scan) and a mask of lanes that have one.
    """
    n, m = obs_x.shape
    if m == 0:
        return (np.zeros(n, dtype=np.intp), np.zeros(n, dtype=bool))
    eligible = np.empty((n, m), dtype=bool)
    widths = np.asarray(obs_widths, dtype=float)
    for j in range(m):
        gap = (np.abs(obs_y[:, j] - ego_y)
               - (ego_width + widths[..., j]) / 2.0 - extra_margin)
        eligible[:, j] = ((obs_x[:, j] >= ego_x) & (gap < 0.0)
                          & ((obs_x[:, j] - ego_x) <= SENSOR_RANGE))
    masked_x = np.where(eligible, obs_x, np.inf)
    lead_index = np.argmin(masked_x, axis=1)
    return lead_index, eligible.any(axis=1)


def batched_collision_prescreen(ego_x: np.ndarray, ego_y: np.ndarray,
                                ego_theta: np.ndarray, ego_length: float,
                                ego_width: float, obs_x: np.ndarray,
                                obs_y: np.ndarray, obs_lengths,
                                obs_widths) -> np.ndarray:
    """Conservative per-lane collision candidate mask.

    The per-lane mirror of :func:`collision_candidates` for the batch's
    axis-aligned NPC bodies: the ego box at heading ``ego_theta`` fits
    inside :func:`aabb_half_extents`, so disjoint bounds guarantee
    :func:`obb_overlap` is False.  Much tighter than bounding circles —
    traffic one lane over (3.5 m of lateral offset against ~2 m of
    summed half-widths) does not pass, which matters because lanes that
    do pass still need the exact per-lane SAT test.
    """
    n, m = obs_x.shape
    candidates = np.zeros(n, dtype=bool)
    if m == 0:
        return candidates
    half_x, half_y = aabb_half_extents(ego_length, ego_width,
                                       np.cos(ego_theta), np.sin(ego_theta))
    lengths = np.asarray(obs_lengths, dtype=float)
    widths = np.asarray(obs_widths, dtype=float)
    for j in range(m):
        reach_x = half_x + (lengths[..., j] / 2.0 + PRESCREEN_SLACK)
        reach_y = half_y + (widths[..., j] / 2.0 + PRESCREEN_SLACK)
        candidates |= ((np.abs(obs_x[:, j] - ego_x) <= reach_x)
                       & (np.abs(obs_y[:, j] - ego_y) <= reach_y))
    return candidates

