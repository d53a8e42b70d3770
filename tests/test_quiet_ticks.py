"""Quiet ticks against the hooks-always oracle.

Outside every fault window ``ADSPipeline.tick`` skips the per-stage
fault hooks (the bus's hang check, value corruption, faulty delivery)
and hands each payload to ``ChannelBus.pass_through``.
:func:`reference.hooks_always` makes every tick run the hooks instead.
For a value fault on each stage and each interface fault kind on each
channel, both runs must agree at every tick on the command, the latched
plan and world model, ``bus.snapshot()`` and the ``PipelineSnapshot``
bytes, and afterwards on the stage timer's lane-call and event counts;
a profiled campaign mixing value and interface faults must report the
same records and ``--profile-stages`` counts either way.
"""

import pickle
from dataclasses import replace

import pytest
from reference import hooks_always, strip_wall

from repro.ads import ADSPipeline
from repro.ads.channels import (CHANNELS, DEFAULT_INTERFACE_PARAMS,
                                INTERFACE_KINDS)
from repro.ads.profiling import STAGE_TIMER
from repro.core import Campaign, CampaignConfig, safety
from repro.sim import highway_cruise, lead_vehicle_cutin

#: One value fault per stage: ``(variable, value)``.
VALUE_FAULTS = {
    "sensing": ("imu_speed", 40.0),
    "perception": ("detection_x", 5.0),
    "world_model": ("ego_speed_estimate", 40.0),
    "planning": ("raw_steering", 0.4),
    "actuation": ("brake", 1.0),
}
START, DURATION, TICKS = 41, 6, 100


def closed_loop(arm):
    """Per-tick state of ``lead_vehicle_cutin`` under a pipeline that
    ``arm(pipeline)`` armed, plus the stage timer's counts and whether
    the fault landed."""
    world = lead_vehicle_cutin().make_world()
    pipeline = ADSPipeline(seed=3)
    arm(pipeline)
    dt = pipeline.config.control_period
    rows = []
    STAGE_TIMER.reset()
    STAGE_TIMER.enabled = True
    try:
        for _ in range(TICKS):
            command = pipeline.tick(world)
            world.step(command.throttle, command.brake, command.steering,
                       dt)
            rows.append((command,
                         pickle.dumps((pipeline.last_plan,
                                       pipeline.last_model)),
                         pickle.dumps(pipeline.bus.snapshot()),
                         pickle.dumps(pipeline.snapshot()),
                         world.ego.state))
        counts = (dict(STAGE_TIMER.calls), pickle.dumps(STAGE_TIMER.events))
    finally:
        STAGE_TIMER.enabled = False
        STAGE_TIMER.reset()
    return rows, counts, pipeline.fault_landed


def assert_quiet_equals_hooks(arm):
    quiet = closed_loop(arm)
    with hooks_always():
        expected = closed_loop(arm)
    rows, counts, landed = quiet
    for tick, (row, oracle_row) in enumerate(zip(rows, expected[0])):
        assert row == oracle_row, f"tick {tick}"
    assert len(rows) == len(expected[0]) == TICKS
    assert counts == expected[1]
    assert landed == expected[2]
    return landed


def test_fault_free_run():
    assert not assert_quiet_equals_hooks(lambda pipeline: None)


@pytest.mark.parametrize("stage", sorted(VALUE_FAULTS))
def test_value_fault(stage):
    variable, value = VALUE_FAULTS[stage]
    assert assert_quiet_equals_hooks(
        lambda pipeline: pipeline.arm_fault(variable, value, START,
                                            DURATION))


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("kind", INTERFACE_KINDS)
def test_interface_fault(kind, channel):
    param = DEFAULT_INTERFACE_PARAMS[kind]
    assert_quiet_equals_hooks(
        lambda pipeline: pipeline.arm_channel_fault(
            kind, channel, START, DURATION, param=param))


def test_two_windows():
    """A value fault and an interface fault in separate windows: the
    ticks between them are quiet again."""
    def arm(pipeline):
        pipeline.arm_fault("brake", 1.0, 30, 4)
        pipeline.arm_channel_fault("delay", "planning", 60, 8, param=2)

    assert assert_quiet_equals_hooks(arm)


def test_profiled_campaign_counts():
    def run():
        # The stop table is a process-wide cache: start both runs cold.
        safety._canonical_stop.cache_clear()
        campaign = Campaign([replace(highway_cruise(), duration=24.0),
                             replace(lead_vehicle_cutin(), duration=16.0)],
                            CampaignConfig(profile_stages=True))
        summary = campaign.random_campaign(8, seed=2, interface_share=0.5)
        counts = {layer: {name: value for name, value in row.items()
                          if name != "seconds"}
                  for layer, row in
                  summary.extra_info["stage_timings"].items()}
        return strip_wall(summary.records), counts

    quiet = run()
    with hooks_always():
        expected = run()
    assert quiet == expected
    assert quiet[1]["sensing"]["calls"] > 0
