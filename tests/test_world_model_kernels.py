"""The straight-line filter kernels against their loop-form oracles.

``repro.ads.kernels`` writes the track Kalman filter and the ego EKF as
straight-line code that takes a state as components and returns new
tuples; ``tests/reference.py`` keeps the index-loop forms they replaced.
Every output must match bit for bit (compared as ``float.hex``, so
signed zeros count), over random SPD covariances, diagonal ones, and
states that trip the EKF's negative-speed clamp.  The kernels are
polymorphic: run on float64 columns (the batched world model's layout)
they must equal the same kernels run on each column's floats, and so
must the numpy functions the columns lean on (``np.hypot`` for the
association distance, ``np.cos``/``np.sin`` for the EKF).  The filters
built on the kernels must also keep their state in Python floats, and
run end to end identical to the same filters on the oracles.  Both
engines count the world model's live tracks and folded detections
alike.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads import (Detection, EgoLocalizer, GpsFix, ImuSample,
                       MultiObjectTracker)
from repro.ads.kernels import (_update_h012, ekf_correct, ekf_predict,
                               kf_predict4, kf_update4, py_where)
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
    """Run ``kernel`` and ``oracle`` on the same state; return both
    ``(mean, cov)`` results."""
    return (kernel(tuple(mean), tuple(cov), *args),
            oracle(tuple(mean), tuple(cov), *args))


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
                          zx, zy, zv, gps_noise, imu_noise, py_where))

    @settings(max_examples=100, deadline=None)
    @given(means, diagonal(), st.floats(-40.0, -1.0), positive)
    def test_ekf_correct_clamps_negative_speed(self, mean, cov, zv,
                                               gps_noise):
        # An IMU speed far below zero with a tight speed noise drags the
        # corrected speed negative, which the clamp must pin to 0.0.
        mean[2] = zv
        fast, slow = both(ekf_correct, reference_ekf_correct, mean, cov,
                          mean[0], mean[1], zv, gps_noise, 1e-3, py_where)
        assert fast[0][2] == 0.0
        assert_same(fast, slow)


def _columns(states):
    """Per-component float64 columns of a list of component lists."""
    return [np.array(column) for column in zip(*states)]


class TestKernelsOnColumns:
    """One implementation, two callers: every kernel run on float64
    columns equals the same kernel run on each column's floats."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(means, covariances, finite, finite, finite),
                    min_size=1, max_size=8), dts, positive, positive,
           positive, small)
    def test_every_kernel(self, states, dt, q, r_pos, r_speed, yaw_rate):
        mean = _columns([state[0] for state in states])
        cov = _columns([state[1] for state in states])
        z = _columns([state[2:] for state in states])
        runs = [
            (kf_predict4, (dt, q), lambda i: (dt, q)),
            (kf_update4, (*z, r_pos, r_speed),
             lambda i: (*states[i][2:], r_pos, r_speed)),
            (ekf_predict, (np.full(len(states), yaw_rate), dt, q, r_pos,
                           r_speed),
             lambda i: (yaw_rate, dt, q, r_pos, r_speed)),
            (ekf_correct, (*z, r_pos, r_speed, np.where),
             lambda i: (*states[i][2:], r_pos, r_speed, py_where))]
        for kernel, column_args, float_args in runs:
            column_mean, column_cov = kernel(mean, cov, *column_args)
            for i, (state_mean, state_cov, *_) in enumerate(states):
                float_mean, float_cov = kernel(tuple(state_mean),
                                               tuple(state_cov),
                                               *float_args(i))
                assert bits(column[i] for column in column_mean) == \
                    bits(float_mean), kernel.__name__
                assert bits(column[i] for column in column_cov) == \
                    bits(float_cov), kernel.__name__

    def test_noise_columns_equal_scalar_noises(self):
        """The fused correct passes each column its own noises."""
        rng = np.random.default_rng(5)
        mean = list(rng.normal(size=(4, 6)))
        cov = list(rng.normal(size=(16, 6)) + 3.0)
        z = list(rng.normal(size=(3, 6)))
        scalar = kf_update4(mean, cov, *z, 0.9, 0.1)
        columns = kf_update4(mean, cov, *z, np.full(6, 0.9),
                             np.full(6, 0.1))
        for fast, slow in zip(columns[0] + columns[1],
                              scalar[0] + scalar[1]):
            assert bits(fast) == bits(slow)


class TestNumpyIdentities:
    """The numpy identities the world-model columns rely on."""

    def test_array_hypot_equals_scalar_hypot(self):
        # The batched association takes every distance from one array
        # np.hypot call; the scalar tracker calls np.hypot per pair.
        # (math.hypot is a different algorithm and disagrees with
        # np.hypot in the last ulp on a few pairs in a thousand, so
        # neither engine may use it.)
        rng = np.random.default_rng(11)
        dx = np.concatenate((rng.normal(0.0, 5.0, 40_000),
                             rng.uniform(-300.0, 300.0, 40_000),
                             [0.0, -0.0, 4.5, -4.5, 1e-300, 1e300,
                              np.inf, -np.inf, np.nan]))
        dy = np.concatenate((rng.normal(0.0, 2.0, 40_000),
                             rng.uniform(-60.0, 60.0, 40_000),
                             [0.0, 0.0, 0.0, 4.5, 1e-300, 1e300,
                              1.0, np.nan, 1.0]))
        array = np.hypot(dx, dy)
        scalar = [np.hypot(x, y) for x, y in zip(dx.tolist(), dy.tolist())]
        assert bits(array.tolist()) == bits(scalar)

    def test_array_trig_equals_scalar_trig(self):
        # The batched EKF predict takes np.cos/np.sin of a heading
        # column; the scalar EKF of one heading float.
        rng = np.random.default_rng(13)
        theta = np.concatenate((np.linspace(-np.pi, np.pi, 20_001),
                                rng.uniform(-7.0, 7.0, 20_000),
                                rng.normal(0.0, 0.05, 20_000),
                                [0.0, -0.0, 1e-300]))
        for function in (np.cos, np.sin):
            assert bits(function(theta).tolist()) == bits(
                [float(function(value)) for value in theta.tolist()])


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
