"""Oracles the equivalence suites compare the program against.

The reference loop: serial
:func:`~repro.core.parallel.execute_experiment` per job, full replay
from tick 0 (no checkpoint store), one job after another in job order.
It is simpler than any driver — no pool, no checkpoint fork, no fused
lanes, no reorder buffer, no journal — so each driver feature is
checked against code that has none of them.  Job lists come from the
campaign's own draw helpers, so the reference executes exactly the
experiments the campaign scheduled.

The scalar tick's two per-tick shortcuts keep their oracles here too:
:func:`reference_in_collision`, the SAT against every obstacle (what
``World.in_collision`` must answer behind its bounds prescreen), and
:func:`reference_measure`, one ``normal(0, sigma)`` call per noise term
in stream order (what the packed draws of ``SensorSuite.measure`` must
reproduce).
"""

from dataclasses import asdict

import numpy as np

from repro.ads.messages import Detection, GpsFix, ImuSample, SensorBundle
from repro.core.parallel import execute_experiment
from repro.sim import obb_overlap


def strip_wall(records):
    """Records as dicts without ``wall_seconds`` (host timing differs)."""
    rows = []
    for record in records:
        row = asdict(record)
        row.pop("wall_seconds")   # host timing necessarily differs
        rows.append(row)
    return rows


def reference_records(campaign, jobs):
    """Serial full-replay records of ``jobs``, in job order."""
    by_name = {s.name: s for s in campaign.scenarios}
    return [execute_experiment(by_name[name], campaign.config, fault, None)
            for name, fault in jobs]


def ticks_of(campaign):
    """The golden-derived tick source the draw helpers expect."""
    return lambda name: campaign.injection_ticks(campaign._by_name[name])


def random_jobs(campaign, n_experiments, seed=None, **interface):
    """The jobs ``campaign.random_campaign(n, seed, **interface)`` runs."""
    return campaign._random_jobs(n_experiments, seed, ticks_of(campaign),
                                 **interface)


def exhaustive_jobs(campaign, tick_stride=10, variable_names=None,
                    max_experiments=None, interface_grid=False):
    """The jobs ``campaign.exhaustive_campaign(...)`` runs."""
    jobs = []
    for scenario in campaign.scenarios:
        ticks = campaign.injection_ticks(scenario, stride=tick_stride)
        grid = campaign._exhaustive_grid(ticks, variable_names,
                                         interface_grid)
        jobs.extend((scenario.name, fault) for fault in grid)
    return jobs if max_experiments is None else jobs[:max_experiments]


def architectural_jobs(campaign, n_experiments, model=None, seed=None,
                       interface_hangs=False):
    """``(jobs, outcome_counts)`` of ``architectural_campaign(...)``."""
    return campaign._architectural_jobs(n_experiments, model, seed,
                                        ticks_of(campaign), interface_hangs)


def candidate_jobs(campaign, candidates, interface_probe=()):
    """Validation jobs of mined candidates, probes after each value job."""
    duration = campaign.config.fault_duration_ticks
    jobs = []
    for candidate in candidates:
        jobs.append((candidate.scenario,
                     candidate.to_fault_spec(duration_ticks=duration)))
        jobs.extend(campaign._probe_jobs(candidate, interface_probe))
    return jobs


def reference_in_collision(world):
    """``world.in_collision()`` without the prescreen: the SAT against
    every obstacle."""
    ego = world.ego.footprint()
    return any(obb_overlap(ego, obstacle.footprint())
               for obstacle in world.obstacles())


def reference_measure(sensors, world):
    """``sensors.measure(world)`` drawing each noise term on its own.

    Advances ``sensors``' RNG and acceleration estimator exactly as
    :meth:`~repro.ads.sensors.SensorSuite.measure` must.
    """
    cfg = sensors.config
    rng = sensors.rng
    ego = world.ego.state
    camera = []
    radar = []
    obstacles = world.obstacles()
    for obstacle in obstacles:
        ahead = obstacle.x - ego.x
        if ahead > 0.0 and sensors._occluded(obstacle, obstacles, ego.x):
            continue
        if 0.0 < ahead <= cfg.camera_range:
            if rng.random() >= cfg.camera_dropout:
                camera.append(Detection(
                    x=obstacle.x + rng.normal(0, cfg.camera_position_noise),
                    y=obstacle.y + rng.normal(0, cfg.camera_position_noise),
                    v=obstacle.v,
                    sensor="camera"))
        if 0.0 < ahead <= cfg.radar_range:
            radar.append(Detection(
                x=obstacle.x + rng.normal(0, cfg.radar_position_noise),
                y=obstacle.y + rng.normal(0, cfg.radar_position_noise),
                v=obstacle.v + rng.normal(0, cfg.radar_speed_noise),
                sensor="radar"))

    acceleration = sensors._estimate_acceleration(world.time, ego.v)
    yaw_rate = ego.v * np.tan(ego.phi) / world.ego.params.wheelbase
    lane_center = world.road.lane_center(world.road.lane_of(ego.y))
    return SensorBundle(
        time=world.time,
        camera=camera,
        radar=radar,
        gps=GpsFix(x=ego.x + rng.normal(0, cfg.gps_noise),
                   y=ego.y + rng.normal(0, cfg.gps_noise)),
        imu=ImuSample(
            v=max(0.0, ego.v + rng.normal(0, cfg.imu_speed_noise)),
            a=acceleration,
            yaw_rate=yaw_rate + rng.normal(0, cfg.imu_yaw_noise),
            heading=ego.theta),
        lane_offset=ego.y - lane_center + rng.normal(0, cfg.lane_offset_noise),
        lane_heading=ego.theta + rng.normal(0, cfg.lane_heading_noise),
    )
