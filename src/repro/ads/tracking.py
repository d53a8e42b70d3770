"""Multi-object tracking: per-object Kalman filters over fused detections.

This is the world model ``W_t`` of the paper's ML module, and one of the
three resilience mechanisms credited for masking random faults: a single
corrupted detection is averaged against the track's state and prior
covariance instead of being believed outright.

The filter math lives in :mod:`repro.ads.kernels` as straight-line
closed-form arithmetic (no BLAS): on plain floats here, an order of
magnitude cheaper per track than 4x4 ``ndarray`` products and
deterministic across backends.  This class is the scalar engine's
tracker and the oracle of the batched one: the fused lanes keep every
lane's tracks in one columnar table
(:class:`~repro.ads.batch.BatchADSState`) and run the *same* kernels on
its columns, with association, births, drops and confirmation following
:meth:`MultiObjectTracker.update` step for step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import kf_predict4, kf_update4
from .messages import Detection, TrackedObject


@dataclass(frozen=True)
class TrackerConfig:
    """Kalman and track-management parameters."""

    process_noise: float = 0.8       # acceleration spectral density
    measurement_noise: float = 0.5   # m (position measurement, 1 sigma)
    speed_measurement_noise: float = 0.4   # m/s
    association_gate: float = 4.5    # m
    max_misses: int = 4              # drop a track after this many misses
    confirm_age: int = 2             # report tracks at least this old
    enabled: bool = True             # ablation switch: raw detections if off


@dataclass(frozen=True)
class TrackerSnapshot:
    """Frozen copy of every live Kalman track (filter state in the
    kernels' flat layout) plus the id counter."""

    tracks: tuple[tuple[int, tuple, tuple, int, int], ...]
    next_id: int


@dataclass
class _KalmanTrack:
    """Internal filter state for one object: [x, y, vx, vy].

    ``mean`` is a 4-tuple, ``covariance`` a row-major 16-tuple of
    floats (the kernels' closed-form layout).
    """

    track_id: int
    mean: tuple
    covariance: tuple
    age: int = 0
    misses: int = 0

    def predict(self, dt: float, q: float) -> None:
        self.mean, self.covariance = kf_predict4(
            self.mean, self.covariance, dt, q)

    def update(self, detection: Detection, r_pos: float,
               r_speed: float) -> None:
        # Measure position and longitudinal speed: z = [x, y, vx].
        self.mean, self.covariance = kf_update4(
            self.mean, self.covariance,
            detection.x, detection.y, detection.v, r_pos, r_speed)


#: Fresh-track covariance diag([2, 2, 4, 1]) in the flat layout.
NEW_TRACK_COV = (2.0, 0.0, 0.0, 0.0,
                 0.0, 2.0, 0.0, 0.0,
                 0.0, 0.0, 4.0, 0.0,
                 0.0, 0.0, 0.0, 1.0)


@dataclass
class MultiObjectTracker:
    """Nearest-neighbour data association over per-object Kalman filters."""

    config: TrackerConfig = field(default_factory=TrackerConfig)
    _tracks: list[_KalmanTrack] = field(default_factory=list)
    _next_id: int = 1

    def update(self, detections: list[Detection],
               dt: float) -> list[TrackedObject]:
        """Advance all tracks by ``dt`` and fold in new detections."""
        if not self.config.enabled:
            # Ablation mode: believe raw detections directly.
            return [TrackedObject(track_id=i + 1, x=d.x, y=d.y, vx=d.v,
                                  vy=0.0, age=self.config.confirm_age)
                    for i, d in enumerate(detections)]
        for track in self._tracks:
            track.predict(dt, self.config.process_noise)
        unmatched = list(range(len(detections)))
        for track in sorted(self._tracks, key=lambda t: -t.age):
            best, best_distance = None, self.config.association_gate
            for index in unmatched:
                detection = detections[index]
                distance = float(np.hypot(detection.x - track.mean[0],
                                          detection.y - track.mean[1]))
                if distance < best_distance:
                    best, best_distance = index, distance
            if best is None:
                track.misses += 1
            else:
                unmatched.remove(best)
                track.update(detections[best],
                             self.config.measurement_noise,
                             self.config.speed_measurement_noise)
                track.misses = 0
            track.age += 1
        for index in unmatched:
            detection = detections[index]
            self._tracks.append(_KalmanTrack(
                track_id=self._next_id,
                mean=(detection.x, detection.y, detection.v, 0.0),
                covariance=NEW_TRACK_COV,
                age=1))
            self._next_id += 1
        self._tracks = [t for t in self._tracks
                        if t.misses <= self.config.max_misses]
        return [TrackedObject(track_id=t.track_id,
                              x=float(t.mean[0]), y=float(t.mean[1]),
                              vx=float(t.mean[2]), vy=float(t.mean[3]),
                              age=t.age, misses=t.misses)
                for t in self._tracks if t.age >= self.config.confirm_age]

    @property
    def track_count(self) -> int:
        """Live tracks, confirmed or not."""
        return len(self._tracks)

    def snapshot(self) -> TrackerSnapshot:
        """Capture all filter states."""
        return TrackerSnapshot(
            tracks=tuple((t.track_id, t.mean, t.covariance, t.age,
                          t.misses) for t in self._tracks),
            next_id=self._next_id)

    def restore(self, snapshot: TrackerSnapshot) -> None:
        """Rewind to a snapshot (the filter states are immutable tuples,
        so the tracks share them)."""
        self._tracks = [
            _KalmanTrack(track_id=track_id, mean=mean,
                         covariance=covariance, age=age, misses=misses)
            for track_id, mean, covariance, age, misses in snapshot.tracks]
        self._next_id = snapshot.next_id

    def reset(self) -> None:
        """Drop all tracks (new scenario)."""
        self._tracks.clear()
        self._next_id = 1
