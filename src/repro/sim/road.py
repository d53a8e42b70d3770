"""Road geometry: a straight multi-lane highway along the x-axis.

Lane 0 is the bottom lane; lane centers increase in ``y``.  The paper's
safety model treats the ego lane's boundaries as static objects, so the
road exposes both lane-local and road-edge lateral distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Road:
    """A straight highway segment with ``n_lanes`` parallel lanes."""

    n_lanes: int = 3
    lane_width: float = 3.7     # m, U.S. interstate standard
    length: float = 10_000.0    # m

    def __post_init__(self):
        if self.n_lanes < 1:
            raise ValueError("road needs at least one lane")
        if self.lane_width <= 0:
            raise ValueError("lane width must be positive")

    @property
    def width(self) -> float:
        """Total paved width."""
        return self.n_lanes * self.lane_width

    def lane_center(self, lane: int) -> float:
        """y-coordinate of the center of ``lane`` (0-indexed from bottom)."""
        if not 0 <= lane < self.n_lanes:
            raise IndexError(f"lane {lane} out of range")
        return (lane + 0.5) * self.lane_width

    def lane_of(self, y: float) -> int:
        """Index of the lane containing lateral position ``y`` (clipped)."""
        lane = int(y // self.lane_width)
        return min(max(lane, 0), self.n_lanes - 1)

    def lane_centers(self, y: np.ndarray) -> np.ndarray:
        """Array form of ``lane_center(lane_of(y))``: the center of the
        lane containing each lateral position of ``y`` (clipped)."""
        lane = np.clip(np.floor_divide(y, self.lane_width), 0,
                       self.n_lanes - 1)
        return (lane + 0.5) * self.lane_width

    def lane_bounds(self, lane: int) -> tuple[float, float]:
        """(low, high) y-boundaries of ``lane``."""
        if not 0 <= lane < self.n_lanes:
            raise IndexError(f"lane {lane} out of range")
        return lane * self.lane_width, (lane + 1) * self.lane_width

    def contains(self, y: float) -> bool:
        """True if ``y`` lies on the paved road."""
        return 0.0 <= y <= self.width

    def lateral_margin_in_lane(self, y: float, half_width: float) -> float:
        """Distance from a body edge to the nearest ego-lane boundary.

        Negative once the body crosses the lane line — the paper counts
        that as a lateral safety violation.
        """
        low, high = self.lane_bounds(self.lane_of(y))
        return min(y - half_width - low, high - (y + half_width))

    def lateral_margin_on_road(self, y: float, half_width: float) -> float:
        """Distance from a body edge to the nearest road edge."""
        return min(y - half_width - 0.0, self.width - (y + half_width))
