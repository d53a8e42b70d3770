"""The straight-line filter kernels against their loop-form oracles.

``repro.ads.kernels`` writes the track Kalman filter and the ego EKF as
straight-line float code; ``tests/reference.py`` keeps the index-loop
forms they replaced.  Every output must match bit for bit (compared as
``float.hex``, so signed zeros count), over random SPD covariances,
diagonal ones, and states that trip the EKF's negative-speed clamp.
The filters built on the kernels must also keep their state in Python
floats, and run end to end identical to the same filters on the
oracles.  Both engines count the world model's live tracks and folded
detections alike.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads import (Detection, EgoLocalizer, GpsFix, ImuSample,
                       MultiObjectTracker)
from repro.ads.kernels import (_update_h012, ekf_correct, ekf_predict,
                               kf_predict4, kf_update4)
from repro.ads.profiling import STAGE_TIMER
from repro.cli import _print_summary
from repro.core import CampaignSummary
from repro.core.simulate import (FaultSpec, run_experiments_batched,
                                 run_scenario)
from repro.sim import two_lead_reveal

from reference import (reference_ekf_correct, reference_ekf_predict,
                       reference_kernels, reference_kf_predict4,
                       reference_kf_update4, reference_update_h012)

finite = st.floats(-50.0, 50.0, allow_nan=False)
small = st.floats(-3.0, 3.0, allow_nan=False)
positive = st.floats(1e-3, 5.0, allow_nan=False)
dts = st.sampled_from([0.05, 0.1, 0.2]) | st.floats(1e-3, 0.5)


@st.composite
def spd(draw):
    """A row-major 4x4 SPD covariance as 16 Python floats."""
    a = np.array(draw(st.lists(small, min_size=16, max_size=16)))
    a = a.reshape(4, 4)
    ridge = draw(st.floats(1e-3, 2.0))
    return (a @ a.T + ridge * np.eye(4)).ravel().tolist()


@st.composite
def diagonal(draw):
    """A diagonal covariance: every off-diagonal entry exactly 0.0."""
    cov = [0.0] * 16
    for i in range(4):
        cov[5 * i] = draw(positive)
    return cov


covariances = spd() | diagonal()
means = st.lists(finite, min_size=4, max_size=4)


def bits(values):
    return [float(value).hex() for value in values]


def both(kernel, oracle, mean, cov, *args):
    """Run ``kernel`` and ``oracle`` on copies; return both states."""
    fast = (list(mean), list(cov))
    slow = (list(mean), list(cov))
    kernel(*fast, *args)
    oracle(*slow, *args)
    return fast, slow


def assert_same(fast, slow):
    assert bits(fast[0]) == bits(slow[0])
    assert bits(fast[1]) == bits(slow[1])
    assert all(type(value) is float for value in fast[0] + fast[1])


class TestKernelsMatchOracles:
    @settings(max_examples=300, deadline=None)
    @given(means, covariances, dts, positive)
    def test_kf_predict4(self, mean, cov, dt, q):
        assert_same(*both(kf_predict4, reference_kf_predict4, mean, cov,
                          dt, q))

    @settings(max_examples=300, deadline=None)
    @given(means, covariances, finite, finite, finite, positive, positive,
           positive)
    def test_update_h012(self, mean, cov, z0, z1, z2, r0, r1, r2):
        assert_same(*both(_update_h012, reference_update_h012, mean, cov,
                          z0, z1, z2, r0, r1, r2))

    @settings(max_examples=300, deadline=None)
    @given(means, covariances, finite, finite, finite, positive, positive)
    def test_kf_update4(self, mean, cov, zx, zy, zv, r_pos, r_speed):
        assert_same(*both(kf_update4, reference_kf_update4, mean, cov,
                          zx, zy, zv, r_pos, r_speed))

    @settings(max_examples=300, deadline=None)
    @given(means, covariances, small, dts, positive, positive, positive)
    def test_ekf_predict(self, mean, cov, yaw_rate, dt, q_pos, q_speed,
                         q_heading):
        assert_same(*both(ekf_predict, reference_ekf_predict, mean, cov,
                          yaw_rate, dt, q_pos, q_speed, q_heading))

    @settings(max_examples=300, deadline=None)
    @given(means, covariances, finite, finite, finite, positive, positive)
    def test_ekf_correct(self, mean, cov, zx, zy, zv, gps_noise,
                         imu_noise):
        assert_same(*both(ekf_correct, reference_ekf_correct, mean, cov,
                          zx, zy, zv, gps_noise, imu_noise))

    @settings(max_examples=100, deadline=None)
    @given(means, diagonal(), st.floats(-40.0, -1.0), positive)
    def test_ekf_correct_clamps_negative_speed(self, mean, cov, zv,
                                               gps_noise):
        # An IMU speed far below zero with a tight speed noise drags the
        # corrected speed negative, which the clamp must pin to 0.0.
        mean[2] = zv
        fast, slow = both(ekf_correct, reference_ekf_correct, mean, cov,
                          mean[0], mean[1], zv, gps_noise, 1e-3)
        assert fast[0][2] == 0.0
        assert_same(fast, slow)


def _drive(steps=60, seed=3):
    """A recorded stream of detections and ego measurements: two objects
    ahead (one drops out of view for a while), a curving, braking ego."""
    rng = np.random.default_rng(seed)
    stream = []
    for step in range(steps):
        t = 0.1 * step
        detections = [Detection(40.0 + 18.0 * t + rng.normal(0, 0.5),
                                3.5 + rng.normal(0, 0.5),
                                18.0 + rng.normal(0, 0.3))]
        if not 20 <= step < 26:
            detections.append(Detection(
                70.0 + 12.0 * t + rng.normal(0, 0.5),
                rng.normal(0, 0.5), 12.0))
        gps = GpsFix(x=20.0 * t + rng.normal(0, 0.9),
                     y=0.02 * step + rng.normal(0, 0.9))
        imu = ImuSample(v=max(0.0, 20.0 - 0.5 * t + rng.normal(0, 0.1)),
                        a=-0.5, yaw_rate=0.01 + rng.normal(0, 0.01),
                        heading=0.002 * step)
        stream.append((detections, gps, imu))
    return stream


def _replay(stream, dt=0.1):
    tracker = MultiObjectTracker()
    localizer = EgoLocalizer()
    outputs = []
    for detections, gps, imu in stream:
        outputs.append((tracker.update(detections, dt),
                        localizer.update(gps, imu, imu.yaw_rate, dt)))
    return outputs, tracker.snapshot(), localizer.snapshot()


def test_filters_match_oracle_filters():
    stream = _drive()
    fast = _replay(stream)
    with reference_kernels():
        slow = _replay(stream)
    assert fast == slow


def test_localizer_state_stays_python_floats():
    localizer = EgoLocalizer()
    for _detections, gps, imu in _drive(steps=25):
        localizer.update(gps, imu, imu.yaw_rate, 0.1)
        assert all(type(value) is float
                   for value in localizer._mean + localizer._cov)
    snapshot = localizer.snapshot()
    assert all(type(value) is float
               for value in snapshot.mean + snapshot.covariance)


class TestWorldModelCounters:
    """The ``world_model`` row's ``tracks`` and ``detections`` events:
    counted by both engines, equal for the same lanes."""

    SCENARIO = replace(two_lead_reveal(), duration=8.0)
    LANES = [[FaultSpec("gps_y", 5.0, 20, 3)],
             [FaultSpec("detection_x", 0.0, 30, 2)],
             [FaultSpec("raw_throttle", 1.0, 25, 2)]]

    @staticmethod
    def _world_model_row(run):
        STAGE_TIMER.reset()
        STAGE_TIMER.enabled = True
        try:
            run()
        finally:
            STAGE_TIMER.enabled = False
        row = STAGE_TIMER.report()["world_model"]
        STAGE_TIMER.reset()
        return row

    def test_fused_and_scalar_engines_count_alike(self):
        fused = self._world_model_row(lambda: run_experiments_batched(
            [self.SCENARIO] * len(self.LANES), self.LANES, seed=1))
        scalar = self._world_model_row(lambda: [
            run_scenario(self.SCENARIO, seed=1, faults=faults,
                         record_trace=False)
            for faults in self.LANES])
        keys = ("calls", "tracks", "detections")
        assert [fused[key] for key in keys] == [scalar[key] for key in keys]
        assert fused["tracks"] > 0 and fused["detections"] > 0

    def test_cli_prints_per_update_counts(self, capsys):
        summary = CampaignSummary()
        summary.extra_info["stage_timings"] = {
            "world_model": {"seconds": 0.5, "calls": 200, "tracks": 300,
                            "detections": 250}}
        merged = CampaignSummary.merge([summary, summary])
        assert merged.extra_info["stage_timings"]["world_model"] == {
            "seconds": 1.0, "calls": 400, "tracks": 600, "detections": 500}
        _print_summary(merged, "random")
        assert ("world model: 400 updates, 1.50 live tracks and 1.25 "
                "detections per update") in capsys.readouterr().out
