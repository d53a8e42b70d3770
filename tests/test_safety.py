"""Tests for the kinematic safety model (d_stop, d_safe, delta), its
bulk stop and excursion tables, and the deferred safety monitor of the
tick loop."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.runtime import ADSConfig, ADSPipeline
from repro.cli import _print_summary
from repro.core import (BayesianFaultInjector, Campaign, CampaignConfig,
                        CampaignSummary, FaultSpec, Hazard, SafetyConfig,
                        SafetyPotential, bulk_safety_potential,
                        longitudinal_envelope, run_scenario,
                        run_scenario_from_checkpoint, safety_potential,
                        steering_excursion, stopping_displacement,
                        world_safety_inputs, world_safety_potential)
from repro.core import safety
from repro.core.safety import (StopTable, _bulk_chunk, _bulk_excursions,
                               _bulk_stops, _excursion_kernel,
                               _excursion_params, _excursion_rollout,
                               _rk4_stop, _stop_params)
from repro.core.simulate import _arm_faults, _fault_schedule, _SafetyMonitor
from repro.sim import (SENSOR_RANGE, NPCVehicle, World, fastmath,
                       highway_cruise, lead_vehicle_cutin)
from repro.sim.trace import Trace


class TestStoppingDisplacement:
    def test_straight_line_matches_analytic(self):
        # Straight emergency stop: d = v^2 / (2 a).
        config = SafetyConfig(a_max=6.0)
        for v in (10.0, 20.0, 33.5):
            stop = stopping_displacement(v, theta=0.0, phi=0.0,
                                         config=config)
            assert stop.longitudinal == pytest.approx(v ** 2 / 12.0,
                                                      rel=0.01)
            assert stop.lateral == pytest.approx(0.0, abs=1e-9)

    def test_stop_time_matches_analytic(self):
        config = SafetyConfig(a_max=6.0)
        stop = stopping_displacement(30.0, 0.0, 0.0, config)
        assert stop.stop_time == pytest.approx(5.0, abs=0.1)

    def test_zero_speed_zero_displacement(self):
        stop = stopping_displacement(0.0, 0.0, 0.0)
        assert stop.longitudinal == 0.0
        assert stop.stop_time == 0.0

    def test_steering_produces_lateral_drift(self):
        straight = stopping_displacement(30.0, 0.0, 0.0)
        steered = stopping_displacement(30.0, 0.0, 0.1)
        assert abs(steered.lateral) > 1.0
        assert abs(straight.lateral) < 1e-6
        # Curved paths cover less longitudinal ground.
        assert steered.longitudinal < straight.longitudinal + 1e-6

    def test_lateral_sign_follows_steering(self):
        left = stopping_displacement(20.0, 0.0, 0.1)
        right = stopping_displacement(20.0, 0.0, -0.1)
        assert left.lateral > 0.0 > right.lateral

    def test_heading_rotates_displacement(self):
        config = SafetyConfig(a_max=6.0)
        angled = stopping_displacement(20.0, theta=0.1, phi=0.0,
                                       config=config)
        straight = stopping_displacement(20.0, theta=0.0, phi=0.0,
                                         config=config)
        assert angled.lateral > 0.0
        assert angled.longitudinal < straight.longitudinal

    def test_monotone_in_speed(self):
        distances = [stopping_displacement(v, 0.0, 0.0).longitudinal
                     for v in (5.0, 15.0, 25.0, 35.0)]
        assert distances == sorted(distances)

    def test_quantization_is_fine_grained(self):
        a = stopping_displacement(20.0, 0.0, 0.0).longitudinal
        b = stopping_displacement(20.049, 0.0, 0.0).longitudinal
        assert abs(a - b) < 0.5


class TestLongitudinalEnvelope:
    def test_clear_road_is_sensor_range(self):
        assert longitudinal_envelope(SENSOR_RANGE, None) == SENSOR_RANGE
        assert longitudinal_envelope(300.0, 20.0) == SENSOR_RANGE

    def test_stopped_lead_is_raw_gap(self):
        assert longitudinal_envelope(40.0, 0.0) == pytest.approx(40.0)

    def test_moving_lead_adds_its_stopping_distance(self):
        config = SafetyConfig(a_max=6.0)
        envelope = longitudinal_envelope(40.0, 24.0, config)
        assert envelope == pytest.approx(40.0 + 24.0 ** 2 / 12.0)

    def test_reversing_lead_contributes_nothing(self):
        assert longitudinal_envelope(40.0, -5.0) == pytest.approx(40.0)


class TestSafetyPotential:
    def test_same_speed_following_delta_is_gap(self):
        # The paper's Example 1 calibration: delta ~= gap when following
        # a same-speed lead (both charge the same stopping distance).
        potential = safety_potential(v=30.0, theta=0.0, phi=0.0, gap=20.0,
                                     lead_speed=30.0, lateral_free=4.0)
        assert potential.longitudinal == pytest.approx(20.0, abs=0.5)

    def test_stopped_lead_requires_full_stopping_distance(self):
        potential = safety_potential(v=30.0, theta=0.0, phi=0.0, gap=60.0,
                                     lead_speed=0.0, lateral_free=4.0)
        assert potential.longitudinal == pytest.approx(60.0 - 75.0, abs=0.5)
        assert not potential.safe

    def test_faster_lead_increases_delta(self):
        slow = safety_potential(30.0, 0.0, 0.0, 30.0, 25.0, 4.0)
        fast = safety_potential(30.0, 0.0, 0.0, 30.0, 35.0, 4.0)
        assert fast.longitudinal > slow.longitudinal

    def test_lateral_potential(self):
        potential = safety_potential(v=30.0, theta=0.0, phi=0.0, gap=250.0,
                                     lead_speed=None, lateral_free=2.0)
        assert potential.lateral == pytest.approx(2.0, abs=0.01)

    def test_steering_erodes_lateral_potential(self):
        straight = safety_potential(30.0, 0.0, 0.0, 250.0, None, 2.0)
        steered = safety_potential(30.0, 0.0, 0.15, 250.0, None, 2.0)
        assert steered.lateral < 0.0 < straight.lateral

    def test_minimum_and_safe(self):
        potential = SafetyPotential(longitudinal=5.0, lateral=-1.0)
        assert potential.minimum == -1.0
        assert not potential.safe
        assert SafetyPotential(1.0, 1.0).safe


class TestWorldSafetyPotential:
    def test_empty_world_is_safe(self):
        world = World.on_highway(ego_speed=30.0)
        potential = world_safety_potential(world)
        assert potential.safe
        assert potential.longitudinal > 100.0

    def test_stopped_lead_close_is_unsafe(self):
        world = World.on_highway(ego_speed=30.0)
        world.add_npc(NPCVehicle(npc_id=1, x=40.0,
                                 y=world.road.lane_center(1), v=0.0))
        potential = world_safety_potential(world)
        assert potential.longitudinal < 0.0

    def test_same_speed_lead_is_safe(self):
        world = World.on_highway(ego_speed=30.0)
        world.add_npc(NPCVehicle(npc_id=1, x=40.0,
                                 y=world.road.lane_center(1), v=30.0))
        potential = world_safety_potential(world)
        assert potential.longitudinal == pytest.approx(40.0 - 4.8, abs=0.5)


# -- the stop table and its bulk kernel ---------------------------------------

def _bits(stops):
    """Stops as exact bit patterns (``float.hex`` keeps the sign of 0)."""
    return [tuple(value.hex() for value in stop) for stop in stops]


def _scalar(keys, params):
    return [_rk4_stop(v, phi, *params) for v, phi in keys]


needs_exact_trig = pytest.mark.skipif(
    not fastmath.numpy_trig_exact(),
    reason="numpy trig differs from math here; the table runs scalar")

speeds = st.one_of(st.just(0.0), st.floats(0.0, 0.4),   # < one step
                   st.floats(0.0, 45.0))
steering = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.6, 0.6))
configs = st.builds(
    SafetyConfig, a_max=st.sampled_from([3.0, 6.0, 9.5]),
    wheelbase=st.sampled_from([2.8, 3.5]),
    integration_dt=st.sampled_from([0.02, 0.05, 0.1]),
    max_maneuver_time=st.sampled_from([0.3, 2.0, 30.0]),
    lateral_window=st.sampled_from([-1.0, 0.0, 0.05, 0.5, 4.0]))


@needs_exact_trig
class TestBulkKernel:
    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.tuples(speeds, steering), min_size=1,
                         max_size=80),
           config=configs)
    def test_bulk_equals_scalar_bitwise(self, keys, config):
        # Up to 80 keys: chunks of short and long stops side by side,
        # and two chunks once the sort-by-speed split kicks in.
        params = _stop_params(config)
        assert _bits(_bulk_chunk([v for v, _ in keys],
                                 [phi for _, phi in keys], *params)) \
            == _bits(_scalar(keys, params))
        assert _bits(_bulk_stops(keys, params)) \
            == _bits(_scalar(keys, params))

    @pytest.mark.parametrize("config, keys", [
        # v = 0 and a stop shorter than one step (a_max * dt = 0.3 m/s).
        (SafetyConfig(), [(0.0, 0.0), (0.1, 0.05), (0.3, -0.2)]),
        # Stops inside the lateral window, beside one that outlasts it.
        (SafetyConfig(lateral_window=0.5), [(1.0, 0.1), (2.5, -0.1),
                                            (30.0, 0.1)]),
        # No lateral window at all.
        (SafetyConfig(lateral_window=0.0), [(20.0, 0.1), (5.0, -0.3)]),
        (SafetyConfig(lateral_window=-1.0), [(20.0, 0.1)]),
        # The max_maneuver_time cap ends long stops before v reaches 0.
        (SafetyConfig(max_maneuver_time=1.0), [(30.0, 0.02), (3.0, 0.0),
                                               (45.0, 0.4)]),
    ])
    def test_edge_cases(self, config, keys):
        params = _stop_params(config)
        assert _bits(_bulk_stops(keys, params)) \
            == _bits(_scalar(keys, params))

    def test_many_chunks_mixing_short_and_long_stops(self):
        keys = [(round(v * 0.05 % 40.0, 2), ((v * 7) % 23 - 11) * 0.01)
                for v in range(1, 300, 2)]
        params = _stop_params(SafetyConfig())
        assert len(keys) > 2 * safety._CHUNK
        assert _bits(_bulk_stops(keys, params)) \
            == _bits(_scalar(keys, params))


class TestStopTable:
    def test_counts_every_key_like_lru_cache(self):
        table = StopTable()
        params = _stop_params(SafetyConfig())
        stops = table.lookup([(10.0, 0.0), (20.0, 0.0), (10.0, 0.0)],
                             params)
        assert stops[0] == stops[2]
        info = table.cache_info()
        assert (info.hits, info.misses, info.batches) == (1, 2, 1)
        table.lookup([(20.0, 0.0)], params)
        assert table.cache_info()[:3] == (2, 2, 1)
        assert table.lookup_one((10.0, 0.0), params) == stops[0]
        assert table.cache_info()[:3] == (3, 2, 1)
        assert _bits([table.lookup_one((5.0, 0.1), params)]) == _bits(
            _scalar([(5.0, 0.1)], params))
        assert table.cache_info()[:3] == (3, 3, 2)
        assert _bits(stops[:2]) == _bits(
            _scalar([(10.0, 0.0), (20.0, 0.0)], params))

    def test_one_table_per_config(self):
        table = StopTable()
        slow = _stop_params(SafetyConfig(a_max=3.0))
        fast = _stop_params(SafetyConfig(a_max=9.0))
        a = table.lookup([(20.0, 0.0)], slow)[0]
        b = table.lookup([(20.0, 0.0)], fast)[0]
        assert a[0] > b[0]
        assert table.cache_info().misses == 2
        assert table.cache_info().currsize == 2

    def test_bounded_oldest_out(self):
        table = StopTable(maxsize=4)
        params = _stop_params(SafetyConfig())
        keys = [(float(v), 0.0) for v in range(1, 7)]
        stops = table.lookup(keys, params)
        assert _bits(stops) == _bits(_scalar(keys, params))
        assert table.cache_info().currsize == 4
        table.lookup(keys[-4:], params)
        assert table.cache_info().misses == 6      # newest four kept
        table.cache_clear()
        assert table.cache_info()[:3] == (0, 0, 0)

    def test_trig_self_check_failure_falls_back_to_scalar(self,
                                                          monkeypatch):
        samples = [(0.0, 0.0, 0.0, 30.0, 20.0, 2.0),
                   (8.0, 0.01, -0.02, 31.0, 20.0, 2.0),
                   (21.5, -0.02, 0.04, 32.0, None, 2.0),
                   (33.0, 0.03, 0.02, 33.0, 20.0, 2.0),
                   (33.0, -0.04, 0.02, 34.0, 20.0, 2.0)]   # repeated key
        expected = [safety_potential(*sample) for sample in samples]

        real_sin = np.sin
        monkeypatch.setattr(fastmath, "_TRIG_EXACT", None)
        monkeypatch.setattr(safety.np, "sin",
                            lambda a: np.nextafter(real_sin(a), np.inf))
        assert not fastmath.numpy_trig_exact()
        monkeypatch.setattr(safety.np, "sin", real_sin)

        scalar_calls = []

        def counted(*args):
            scalar_calls.append(args)
            return _rk4_stop(*args)

        monkeypatch.setattr(safety, "_rk4_stop", counted)
        monkeypatch.setattr(safety, "_canonical_stop", StopTable())
        longitudinal, lateral = bulk_safety_potential(samples)
        assert len(scalar_calls) == 4               # distinct keys
        assert [d.hex() for d in longitudinal] == \
            [p.longitudinal.hex() for p in expected]
        assert [d.hex() for d in lateral] == \
            [p.lateral.hex() for p in expected]


#: A lead speed whose C ``pow`` square differs from ``x * x`` in the
#: last ulp.
POW_SQUARE = 32.951254335710864
assert POW_SQUARE ** 2 != POW_SQUARE * POW_SQUARE

_SIGNED = st.sampled_from([0.0, -0.0, -1e-5, 1e-5, -2.5e-4, 2.5e-4])
#: ``(v, theta, phi, gap, lead_speed, lateral_free)`` samples.
_FOLD_SAMPLES = st.tuples(
    st.floats(-5.0, 60.0) | _SIGNED,
    st.floats(-0.6, 0.6) | _SIGNED,
    st.floats(-0.6, 0.6) | _SIGNED,
    st.floats(-5.0, 300.0) | st.sampled_from([SENSOR_RANGE, 249.99]),
    st.none() | st.just(float("nan")) | st.floats(-5.0, 60.0)
    | st.sampled_from([POW_SQUARE, -0.0, 0.0]),
    st.floats(-5.0, 10.0))


class TestBulkSafetyPotential:
    def test_matches_per_sample_potential(self):
        samples = [(30.0, 0.0, 0.0, 20.0, 30.0, 4.0),
                   (25.3, 0.02, -0.01, 250.0, None, 2.0),
                   (12.0, -0.05, 0.08, 15.0, -3.0, 1.0),
                   (-0.5, 0.0, 0.0, 5.0, 0.0, 0.5)]
        longitudinal, lateral = bulk_safety_potential(samples)
        for sample, d_long, d_lat in zip(samples, longitudinal, lateral):
            potential = safety_potential(*sample)
            assert d_long.hex() == potential.longitudinal.hex()
            assert d_lat.hex() == potential.lateral.hex()

    @settings(max_examples=60, deadline=None)
    @given(samples=st.lists(_FOLD_SAMPLES, max_size=40),
           trig_exact=st.booleans())
    def test_columnar_fold_equals_per_sample_bitwise(self, samples,
                                                     trig_exact):
        """The columnar fold is :func:`safety_potential` per sample, bit
        for bit, through either rotation path: NaN and ``None`` leads
        (a clear corridor), gaps at and past the sensing range, negative
        and signed-zero speeds and angles (whose keys quantize to 0.0),
        and a lead speed whose ``** 2`` differs from ``x * x``."""
        expected = [safety_potential(
            v, theta, phi, gap, None if lead is None or lead != lead
            else lead, free) for v, theta, phi, gap, lead, free in samples]
        with mock.patch.object(safety, "numpy_trig_exact",
                               lambda: trig_exact):
            longitudinal, lateral = bulk_safety_potential(samples)
        assert [d.hex() for d in longitudinal.tolist()] == \
            [p.longitudinal.hex() for p in expected]
        assert [d.hex() for d in lateral.tolist()] == \
            [p.lateral.hex() for p in expected]

    def test_world_inputs_feed_the_same_potential(self):
        world = World.on_highway(ego_speed=30.0)
        world.add_npc(NPCVehicle(npc_id=1, x=40.0,
                                 y=world.road.lane_center(1), v=20.0))
        longitudinal, lateral = bulk_safety_potential(
            [world_safety_inputs(world)])
        potential = world_safety_potential(world)
        assert (longitudinal[0], lateral[0]) == (potential.longitudinal,
                                                 potential.lateral)


# -- the excursion table and its bulk kernel ----------------------------------

def _hex(peaks):
    """Peaks as exact bit patterns."""
    return [peak.hex() for peak in peaks]


def _rollouts(keys, params):
    return [_excursion_rollout(v, phi, *params) for v, phi in keys]


def _kernel(keys, params):
    return _excursion_kernel([v for v, _ in keys], [phi for _, phi in keys],
                             *params)


#: (window, slew rate, recovery authority, wheelbase, dt, horizon).  A
#: 6 s window outlasts every horizon; zero recovery authority never
#: brings the heading back, so those keys run to the horizon.
excursion_params = st.tuples(
    st.sampled_from([0.0, 0.05, 0.2, 0.5, 6.0]), st.sampled_from([0.6, 2.0]),
    st.sampled_from([0.0, 0.02, 0.08]), st.sampled_from([2.8, 3.5]),
    st.sampled_from([0.01, 0.02]), st.sampled_from([0.3, 1.0, 5.0]))
excursion_keys = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 45.0)),
    st.one_of(st.sampled_from([0.0, -0.0, 0.6, -0.6]),
              st.floats(-0.6, 0.6)))
BREAK_EVEN = safety._EXCURSION_BREAK_EVEN


@needs_exact_trig
class TestExcursionKernel:
    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(excursion_keys, min_size=1,
                         max_size=2 * BREAK_EVEN),
           params=excursion_params)
    def test_kernel_equals_rollout_bitwise(self, keys, params):
        # Duplicates ride along; the sizes straddle the break-even, so
        # _bulk_excursions takes both of its paths.
        keys = keys + keys[:3]
        expected = _hex(_rollouts(keys, params))
        assert _hex(_kernel(keys, params)) == expected
        assert _hex(_bulk_excursions(keys, params)) == expected

    @pytest.mark.parametrize("params, keys", [
        # v = 0, signed zero and the extreme faults, duplicated.
        (_excursion_params(0.2, SafetyConfig()),
         [(0.0, 0.3), (0.0, -0.0), (20.0, 0.0), (20.0, -0.0), (20.0, 0.6),
          (20.0, -0.6), (20.0, 0.6), (33.3, -0.6)]),
        # Window 0: recovery from the first step.
        ((0.0, 0.6, 0.08, 2.8, 0.01, 5.0), [(0.0, 0.1), (25.0, 0.2)]),
        # The window outlasts the horizon: no early exit at all.
        ((6.0, 0.6, 0.08, 2.8, 0.01, 5.0), [(10.0, 0.05), (30.0, -0.4)]),
        # No recovery authority: the heading never re-crosses zero.
        ((0.2, 0.6, 0.0, 2.8, 0.01, 5.0), [(10.0, 0.05), (30.0, -0.4),
                                           (0.0, 0.2)]),
    ])
    def test_edge_cases(self, params, keys):
        assert _hex(_kernel(keys, params)) == _hex(_rollouts(keys, params))

    def test_never_recrossing_keys_run_to_the_horizon(self):
        keys = [(30.0, 0.3)]
        short = (0.2, 0.6, 0.0, 2.8, 0.01, 1.0)
        long = (0.2, 0.6, 0.0, 2.8, 0.01, 2.0)
        assert _kernel(keys, long)[0] > _kernel(keys, short)[0] > 0.0

    @pytest.mark.parametrize("size", [BREAK_EVEN - 1, BREAK_EVEN,
                                      BREAK_EVEN + 1])
    def test_break_even_picks_the_path(self, size, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _excursion_rollout(*args)

        keys = [(0.5 * i, (i % 13 - 6) * 0.05) for i in range(size)]
        params = _excursion_params(0.2, SafetyConfig())
        expected = _hex(_rollouts(keys, params))
        monkeypatch.setattr(safety, "_excursion_rollout", counted)
        assert _hex(_bulk_excursions(keys, params)) == expected
        assert len(calls) == (size if size < BREAK_EVEN else 0)


class TestExcursionTable:
    def test_trig_self_check_failure_falls_back_to_scalar(self,
                                                          monkeypatch):
        keys = [(0.5 * i, (i % 7 - 3) * 0.1) for i in range(2 * BREAK_EVEN)]
        params = _excursion_params(0.2, SafetyConfig())
        expected = _hex(_rollouts(keys, params))

        real_sin = np.sin
        monkeypatch.setattr(fastmath, "_TRIG_EXACT", None)
        monkeypatch.setattr(safety.np, "sin",
                            lambda a: np.nextafter(real_sin(a), np.inf))
        assert not fastmath.numpy_trig_exact()
        monkeypatch.setattr(safety.np, "sin", real_sin)

        calls = []

        def counted(*args):
            calls.append(args)
            return _excursion_rollout(*args)

        monkeypatch.setattr(safety, "_excursion_rollout", counted)
        table = StopTable(_bulk_excursions, "excursion")
        assert _hex(table.lookup(keys + keys[:2], params)) == \
            expected + expected[:2]
        assert len(calls) == len(keys)              # distinct keys
        assert table.cache_info()[:3] == (2, len(keys), 1)

    def test_steering_excursion_matches_the_batched_miner(self,
                                                          monkeypatch):
        scenarios = [replace(highway_cruise(), duration=12.0),
                     replace(lead_vehicle_cutin(), duration=12.0)]
        campaign = Campaign(scenarios, CampaignConfig())
        injector = BayesianFaultInjector.train(
            list(campaign.golden_runs().values()),
            safety_config=campaign.config.safety)
        table = safety._canonical_excursion
        table.cache_clear()
        seen = {}
        real_lookup = table.lookup

        def recording(keys, params):
            peaks = real_lookup(keys, params)
            seen.update(((params, key), peak)
                        for key, peak in zip(keys, peaks))
            return peaks

        monkeypatch.setattr(table, "lookup", recording)
        injector.mine_critical_faults(campaign.scene_rows())
        monkeypatch.undo()
        assert len(seen) >= BREAK_EVEN
        # A cold table serves each one-key call from the scalar rollout.
        table.cache_clear()
        config = campaign.config.safety
        for ((window, slew, recovery, *_), (v, phi)), peak in seen.items():
            assert steering_excursion(
                v, phi, window, slew, recovery, config).hex() == peak.hex()


# -- the deferred monitor of the tick loop ------------------------------------

def per_tick_run(scenario, faults=(), checkpoint=None, duration=None,
                 record_trace=True):
    """The tick loop as it was before the monitor was deferred:
    ``world_safety_potential`` on every monitored tick, folded on the
    spot.  Returns ``(pre, minimum, trace deltas, collided)``."""
    faults = list(faults)
    config = ADSConfig()
    world = scenario.make_world()
    pipeline = ADSPipeline(config, seed=checkpoint.seed if checkpoint
                           else 0)
    start = 0
    if checkpoint is not None:
        world.restore(checkpoint.world)
        pipeline.restore(checkpoint.pipeline)
        start = checkpoint.tick
    _arm_faults(pipeline, faults)
    dt = config.control_period
    n_ticks = int(round((duration or scenario.duration) / dt))
    monitor_from, stop_after = _fault_schedule(faults, 8.0, dt)
    inf = float("inf")
    pre, minimum, deltas, collided = (inf, inf), [inf, inf], [], False
    for tick in range(start, n_ticks):
        planning = pipeline.is_planning_tick
        command = pipeline.tick(world)
        world.step(command.throttle, command.brake, command.steering, dt)
        recording = record_trace and planning
        if tick >= monitor_from or recording:
            potential = world_safety_potential(world)
        if tick == monitor_from:
            pre = (potential.longitudinal, potential.lateral)
        if tick >= monitor_from:
            minimum[0] = min(minimum[0], potential.longitudinal)
            minimum[1] = min(minimum[1], potential.lateral)
            collided = collided or world.in_collision()
        if recording:
            deltas.append((potential.longitudinal, potential.lateral))
        if collided or (stop_after is not None and tick >= stop_after):
            break
    return pre, tuple(minimum), deltas, collided


def deferred(result):
    trace = result.trace
    deltas = (list(zip(trace.column("delta_long").tolist(),
                       trace.column("delta_lat").tolist()))
              if len(trace) else [])
    return ((result.pre_delta_long, result.pre_delta_lat),
            (result.min_delta_long, result.min_delta_lat), deltas,
            result.collided)


class TestDeferredMonitor:
    def test_golden_run(self):
        scenario = lead_vehicle_cutin()
        result = run_scenario(scenario, seed=0, duration=10.0)
        assert len(result.trace) > 50
        assert deferred(result) == per_tick_run(scenario, duration=10.0)

    def test_checkpoint_forked_fault_run(self):
        scenario = lead_vehicle_cutin()
        golden = run_scenario(scenario, seed=0, duration=12.0,
                              checkpoint_ticks=[100])
        checkpoint = golden.checkpoints[100]
        faults = [FaultSpec("steering", 0.3, start_tick=110,
                            duration_ticks=4)]
        result = run_scenario_from_checkpoint(
            scenario, checkpoint, faults=faults, duration=12.0,
            record_trace=True)
        assert deferred(result) == per_tick_run(
            scenario, faults, checkpoint=checkpoint, duration=12.0)

    def test_run_ending_in_collision(self):
        scenario = lead_vehicle_cutin()
        faults = [FaultSpec("throttle", 1.0, start_tick=60,
                            duration_ticks=40)]
        result = run_scenario(scenario, seed=0, faults=faults,
                              duration=15.0)
        assert result.hazard is Hazard.COLLISION
        # The trace also holds the pre-fault planning ticks, sampled for
        # the recorder only and left out of the fold.
        assert deferred(result) == per_tick_run(scenario, faults,
                                                duration=15.0)

    def test_trace_only_ticks_stay_out_of_the_fold(self):
        monitor = _SafetyMonitor(monitor_from=5)
        close, far = 2.0, 150.0          # gaps ahead of a stopped lead
        for tick, gap in ((4, close), (5, far), (6, far)):
            monitor.sample(tick, (20.0, 0.0, 0.0, gap, 0.0, 3.0))
            monitor.hold_row({"tick": float(tick)})
        trace = Trace()
        outcome = monitor.finish(SafetyConfig(), trace)
        unsafe = safety_potential(20.0, 0.0, 0.0, close, 0.0, 3.0)
        safe = safety_potential(20.0, 0.0, 0.0, far, 0.0, 3.0)
        assert outcome["hazard"] is Hazard.NONE
        assert outcome["pre_delta_long"] == safe.longitudinal
        assert outcome["min_delta_long"] == safe.longitudinal
        assert trace.column("delta_long").tolist() == [
            unsafe.longitudinal, safe.longitudinal, safe.longitudinal]


# -- observability ------------------------------------------------------------

class TestSafetyProfile:
    def test_safety_row_and_shard_merge(self):
        scenarios = [replace(highway_cruise(), duration=12.0),
                     replace(lead_vehicle_cutin(), duration=12.0)]
        campaign = Campaign(scenarios, CampaignConfig(profile_stages=True))
        summary = campaign.random_campaign(4, seed=2)
        safety_row = summary.extra_info["stage_timings"]["safety"]
        assert safety_row["seconds"] > 0.0
        # One call per evaluated tick, each a stop-table lookup.
        assert safety_row["calls"] == (safety_row["stop_hits"]
                                       + safety_row["stop_misses"])
        assert safety_row["stop_batches"] >= 1

        merged = CampaignSummary.merge([summary, summary])
        doubled = merged.extra_info["stage_timings"]["safety"]
        assert doubled == {name: 2 * value
                           for name, value in safety_row.items()}

    def test_excursion_table_counts_in_a_bayesian_campaign(self,
                                                           monkeypatch):
        # The cut-in mines enough distinct keys for the kernel.
        scenarios = [replace(highway_cruise(), duration=12.0),
                     replace(lead_vehicle_cutin(), duration=20.0)]
        campaign = Campaign(scenarios, CampaignConfig(profile_stages=True))
        table = safety._canonical_excursion
        table.cache_clear()
        scored, miss_sets, rollouts = [], [], []
        real_lookup, real_bulk = table.lookup, table.bulk

        def recording_lookup(keys, params):
            scored.extend((params, key) for key in keys)
            return real_lookup(keys, params)

        def recording_bulk(keys, params):
            miss_sets.append(len(keys))
            return real_bulk(keys, params)

        def counted(*args):
            rollouts.append(args)
            return _excursion_rollout(*args)

        monkeypatch.setattr(table, "lookup", recording_lookup)
        monkeypatch.setattr(table, "bulk", recording_bulk)
        monkeypatch.setattr(safety, "_excursion_rollout", counted)
        result = campaign.bayesian_campaign(top_k=2)
        row = result.summary.extra_info["stage_timings"]["safety"]
        assert row["excursion_misses"] == len(set(scored))
        assert row["excursion_hits"] == len(scored) - len(set(scored))
        assert row["excursion_batches"] == len(miss_sets)
        assert sum(miss_sets) == len(set(scored))
        if fastmath.numpy_trig_exact():
            # The kernel serves every miss set from the break-even up;
            # the scalar rollout runs only below it.
            assert max(miss_sets) >= BREAK_EVEN
            assert len(rollouts) == sum(n for n in miss_sets
                                        if n < BREAK_EVEN)

        merged = CampaignSummary.merge([result.summary, result.summary])
        doubled = merged.extra_info["stage_timings"]["safety"]
        assert doubled == {name: 2 * value for name, value in row.items()}

    def test_cli_prints_both_tables(self, capsys):
        summary = CampaignSummary()
        summary.extra_info["stage_timings"] = {"safety": {
            "seconds": 0.1, "calls": 40, "stop_hits": 30, "stop_misses": 10,
            "stop_batches": 2, "excursion_hits": 5, "excursion_misses": 15,
            "excursion_batches": 3}}
        _print_summary(CampaignSummary.merge([summary, summary]), "mined")
        out = capsys.readouterr().out
        assert ("stop table: 60 hits, 20 misses (75.0% hit rate), 4 bulk "
                "batches") in out
        assert ("excursion table: 10 hits, 30 misses (25.0% hit rate), 6 "
                "bulk batches") in out
