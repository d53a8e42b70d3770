"""Oracles the equivalence suites compare the program against.

The reference loop: serial
:func:`~repro.core.parallel.execute_experiment` per job, full replay
from tick 0 (no checkpoint store), one job after another in job order.
It is simpler than any driver — no pool, no checkpoint fork, no fused
lanes, no reorder buffer, no journal — so each driver feature is
checked against code that has none of them.  Job lists come from the
campaign plans' own draws (:mod:`repro.core.plans`), so the reference
executes exactly the experiments the campaign scheduled.

The scalar tick's two per-tick shortcuts keep their oracles here too:
:func:`reference_in_collision`, the SAT against every obstacle (what
``World.in_collision`` must answer behind its bounds prescreen), and
:func:`reference_measure`, one ``normal(0, sigma)`` call per noise term
in stream order (what the packed draws of ``SensorSuite.measure`` must
reproduce).

The scalar tick's float kernels keep theirs as well:
:func:`reference_rk4_step`, the bicycle-model RK4 as four derivative
calls with numpy trig (what ``sim.kinematics.rk4_step`` must equal on
any host, whichever trig the gate picks); :func:`reference_packed_bundle`,
one ``standard_normal`` call per obstacle plus one for the ego terms
(what the merged runs of ``ads.sensors.noisy_bundle`` must reproduce,
values and generator state); and :func:`hooks_always`, which makes
every ``ADSPipeline.tick`` run its fault hooks (what quiet ticks must
equal).

So do the world model's filter kernels: :func:`reference_kf_predict4`,
:func:`reference_update_h012` and :func:`reference_ekf_predict` are the
index-loop forms the straight-line kernels of :mod:`repro.ads.kernels`
must match bit for bit, and :func:`reference_kernels` swaps them into
the tracker and the localizer.

The Bayesian miner keeps its oracle here as well: counterfactual
scoring one candidate at a time.  :func:`reference_infer_actuation`
runs one full Gaussian conditioning per candidate on the injector's
mutilated graph (``injector._engine_for(node)``, so
``ConditioningFaultInjector``'s unmutilated graph applies too);
:func:`reference_predict_after_fault` rolls the kinematic state out in
floats and :func:`reference_potential` re-evaluates the safety
potential through the scalar stop and excursion calls.  Its scalar
transforms (:data:`SCALAR_TRANSFORMS`) are written independently of the
miner's array transforms.  :func:`reference_mine` and
:func:`reference_scenario_candidates` are what
``BayesianFaultInjector.mine_critical_faults`` and
``mine_scenario_candidates`` must reproduce, to float round-off, in the
same candidate order.
"""

from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from repro.ads import localization, tracking
from repro.ads.kernels import _inv3
from repro.ads.messages import Detection, GpsFix, ImuSample, SensorBundle
from repro.ads.runtime import ADSPipeline
from repro.ads.variables import variable_by_name
from repro.bayesnet.dynamic import SLICE_SEPARATOR, slice_node
from repro.core.bayesian_fi import (BN_VARIABLES, MINED_VARIABLES,
                                    NODE_MAPPING, CandidateFault,
                                    MiningReport)
from repro.core.parallel import execute_experiment
from repro.core.plans import (ArchitecturalPlan, BayesianPlan,
                              ExhaustivePlan, RandomPlan)
from repro.core.safety import (SafetyPotential, longitudinal_envelope,
                               steering_excursion, stopping_displacement)
from repro.sim import VehicleState, obb_overlap
from repro.sim.collision import SENSOR_RANGE


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
    """The golden-derived tick source the plans' draws expect."""
    return lambda name, stride=1: campaign.injection_ticks(
        campaign._by_name[name], stride=stride)


def random_jobs(campaign, n_experiments, seed=None, **interface):
    """The jobs ``campaign.random_campaign(n, seed, **interface)`` runs."""
    return RandomPlan(campaign, n_experiments, seed, **interface).draw(
        ticks_of(campaign))


def exhaustive_jobs(campaign, tick_stride=10, variable_names=None,
                    max_experiments=None, interface_grid=False):
    """The jobs ``campaign.exhaustive_campaign(...)`` runs."""
    return ExhaustivePlan(campaign, tick_stride, variable_names,
                          max_experiments, interface_grid).draw(
        ticks_of(campaign))


def architectural_jobs(campaign, n_experiments, model=None, seed=None,
                       interface_hangs=False):
    """``(jobs, outcome_counts)`` of ``architectural_campaign(...)``."""
    plan = ArchitecturalPlan(campaign, n_experiments, model, seed,
                             interface_hangs)
    return plan.draw(ticks_of(campaign)), plan.outcome_counts


def candidate_jobs(campaign, candidates, interface_probe=()):
    """Validation jobs of mined candidates, probes after each value job."""
    plan = BayesianPlan(campaign, interface_probe=interface_probe)
    duration = campaign.config.fault_duration_ticks
    jobs = []
    for candidate in candidates:
        jobs.append((candidate.scenario,
                     candidate.to_fault_spec(duration_ticks=duration)))
        jobs.extend(plan.probe_jobs(candidate))
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


def reference_packed_bundle(rng, cfg, time, visible, x, y, v, theta,
                            acceleration, yaw_rate, lane_center):
    """``noisy_bundle`` with one ``standard_normal`` call per visible
    obstacle (2, 3 or 5 draws after its camera-dropout ``random()``) and
    one ``standard_normal(6)`` for the ego terms."""
    camera = []
    radar = []
    cam_noise = cfg.camera_position_noise
    rad_noise = cfg.radar_position_noise
    for ox, oy, ov, sees_cam, sees_rad in visible:
        if sees_cam:
            sees_cam = rng.random() >= cfg.camera_dropout
        draws = (2 if sees_cam else 0) + (3 if sees_rad else 0)
        if not draws:
            continue
        z = rng.standard_normal(draws).tolist()
        if sees_cam:
            camera.append(Detection(x=ox + (0.0 + cam_noise * z[0]),
                                    y=oy + (0.0 + cam_noise * z[1]),
                                    v=ov, sensor="camera"))
            del z[:2]
        if sees_rad:
            radar.append(Detection(
                x=ox + (0.0 + rad_noise * z[0]),
                y=oy + (0.0 + rad_noise * z[1]),
                v=ov + (0.0 + cfg.radar_speed_noise * z[2]),
                sensor="radar"))
    z = rng.standard_normal(6).tolist()
    return SensorBundle(
        time=time,
        camera=camera,
        radar=radar,
        gps=GpsFix(x=x + (0.0 + cfg.gps_noise * z[0]),
                   y=y + (0.0 + cfg.gps_noise * z[1])),
        imu=ImuSample(v=max(0.0, v + (0.0 + cfg.imu_speed_noise * z[2])),
                      a=acceleration,
                      yaw_rate=yaw_rate + (0.0 + cfg.imu_yaw_noise * z[3]),
                      heading=theta),
        lane_offset=y - lane_center + (0.0 + cfg.lane_offset_noise * z[4]),
        lane_heading=theta + (0.0 + cfg.lane_heading_noise * z[5]),
    )


def _reference_derivatives(v, theta, phi, acceleration, steering_rate,
                           wheelbase):
    """Bicycle-model derivative components with numpy trig."""
    if v < 0.0:
        v = 0.0
    return (v * np.cos(theta), v * np.sin(theta), acceleration,
            v * np.tan(phi) / wheelbase, steering_rate)


def reference_rk4_step(state, acceleration, steering_rate, wheelbase, dt):
    """``sim.kinematics.rk4_step`` as four full derivative calls."""
    x0, y0 = state.x, state.y
    v0, t0, p0 = state.v, state.theta, state.phi

    k1x, k1y, k1v, k1t, k1p = _reference_derivatives(
        v0, t0, p0, acceleration, steering_rate, wheelbase)
    half = 0.5 * dt
    k2x, k2y, k2v, k2t, k2p = _reference_derivatives(
        v0 + half * k1v, t0 + half * k1t, p0 + half * k1p,
        acceleration, steering_rate, wheelbase)
    k3x, k3y, k3v, k3t, k3p = _reference_derivatives(
        v0 + half * k2v, t0 + half * k2t, p0 + half * k2p,
        acceleration, steering_rate, wheelbase)
    k4x, k4y, k4v, k4t, k4p = _reference_derivatives(
        v0 + dt * k3v, t0 + dt * k3t, p0 + dt * k3p,
        acceleration, steering_rate, wheelbase)

    sixth = dt / 6.0
    x1 = x0 + sixth * (k1x + 2 * k2x + 2 * k3x + k4x)
    y1 = y0 + sixth * (k1y + 2 * k2y + 2 * k3y + k4y)
    v1 = v0 + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
    t1 = t0 + sixth * (k1t + 2 * k2t + 2 * k3t + k4t)
    p1 = p0 + sixth * (k1p + 2 * k2p + 2 * k3p + k4p)
    if v1 < 0.0:
        v1 = 0.0
    return VehicleState(x=float(x1), y=float(y1), v=float(v1),
                        theta=float(t1), phi=float(p1))


@contextmanager
def hooks_always():
    """Run every ``ADSPipeline.tick`` through its fault hooks (hang
    check, value corruption, ``ChannelBus.deliver``) while the block is
    open, as if a fault were active on every tick."""
    original = ADSPipeline._hooks_live
    ADSPipeline._hooks_live = lambda self, tick: True
    try:
        yield
    finally:
        ADSPipeline._hooks_live = original


def reference_kf_predict4(mean, cov, dt, q):
    """``kernels.kf_predict4`` as index loops over list copies."""
    mean, cov = list(mean), list(cov)
    mean[0] = mean[0] + dt * mean[2]
    mean[1] = mean[1] + dt * mean[3]
    # fP: row0 += dt*row2, row1 += dt*row3.
    t = cov[:]
    for j in range(4):
        t[j] = cov[j] + dt * cov[8 + j]
        t[4 + j] = cov[4 + j] + dt * cov[12 + j]
    # (fP)F^T: col0 += dt*col2, col1 += dt*col3.
    for i in range(0, 16, 4):
        cov[i] = t[i] + dt * t[i + 2]
        cov[i + 1] = t[i + 1] + dt * t[i + 3]
        cov[i + 2] = t[i + 2]
        cov[i + 3] = t[i + 3]
    a = (dt * dt) / 2.0
    qaa = q * (a * a)
    qad = q * (a * dt)
    qdd = q * (dt * dt)
    cov[0] = cov[0] + qaa
    cov[2] = cov[2] + qad
    cov[5] = cov[5] + qaa
    cov[7] = cov[7] + qad
    cov[8] = cov[8] + qad
    cov[10] = cov[10] + qdd
    cov[13] = cov[13] + qad
    cov[15] = cov[15] + qdd
    return tuple(mean), tuple(cov)


def reference_update_h012(mean, cov, z0, z1, z2, r0, r1, r2):
    """``kernels._update_h012`` as index loops into a ``new_cov`` copy."""
    mean = list(mean)
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = _inv3(
        cov[0] + r0, cov[1], cov[2],
        cov[4], cov[5] + r1, cov[6],
        cov[8], cov[9], cov[10] + r2)
    v0 = z0 - mean[0]
    v1 = z1 - mean[1]
    v2 = z2 - mean[2]
    new_cov = list(cov)
    for i in range(4):
        p0, p1, p2 = cov[i * 4], cov[i * 4 + 1], cov[i * 4 + 2]
        k0 = p0 * i00 + p1 * i10 + p2 * i20
        k1 = p0 * i01 + p1 * i11 + p2 * i21
        k2 = p0 * i02 + p1 * i12 + p2 * i22
        mean[i] = mean[i] + (k0 * v0 + k1 * v1 + k2 * v2)
        for j in range(4):
            new_cov[i * 4 + j] = cov[i * 4 + j] - (
                k0 * cov[j] + k1 * cov[4 + j] + k2 * cov[8 + j])
    return tuple(mean), tuple(new_cov)


def reference_kf_update4(mean, cov, zx, zy, zv, r_pos, r_speed):
    """``kernels.kf_update4`` over :func:`reference_update_h012`."""
    return reference_update_h012(mean, cov, zx, zy, zv, r_pos * r_pos,
                                 r_pos * r_pos, r_speed * r_speed)


def reference_ekf_predict(mean, cov, yaw_rate, dt, q_pos, q_speed,
                          q_heading):
    """``kernels.ekf_predict`` as index loops, with the trig left as
    numpy scalars (so a float state turns into ``numpy.float64``)."""
    mean, cov = list(mean), list(cov)
    v, theta = mean[2], mean[3]
    c = np.cos(theta)
    s = np.sin(theta)
    mean[0] = mean[0] + v * c * dt
    mean[1] = mean[1] + v * s * dt
    mean[3] = mean[3] + yaw_rate * dt
    a02 = c * dt
    a03 = -v * s * dt
    a12 = s * dt
    a13 = v * c * dt
    # FP: row0 += a02*row2 + a03*row3; row1 += a12*row2 + a13*row3.
    t = cov[:]
    for j in range(4):
        t[j] = cov[j] + (a02 * cov[8 + j] + a03 * cov[12 + j])
        t[4 + j] = cov[4 + j] + (a12 * cov[8 + j] + a13 * cov[12 + j])
    # (FP)F^T: col0 += a02*col2 + a03*col3; col1 += a12*col2 + a13*col3.
    for i in range(0, 16, 4):
        cov[i] = t[i] + (a02 * t[i + 2] + a03 * t[i + 3])
        cov[i + 1] = t[i + 1] + (a12 * t[i + 2] + a13 * t[i + 3])
        cov[i + 2] = t[i + 2]
        cov[i + 3] = t[i + 3]
    cov[0] = cov[0] + q_pos * dt
    cov[5] = cov[5] + q_pos * dt
    cov[10] = cov[10] + q_speed * dt
    cov[15] = cov[15] + q_heading * dt
    return tuple(mean), tuple(cov)


def reference_ekf_correct(mean, cov, zx, zy, zv, gps_noise,
                          imu_speed_noise, where=None):
    """``kernels.ekf_correct`` over :func:`reference_update_h012`, with
    the speed clamp as the scalar ``if`` the kernel's ``where`` select
    replaced (``where`` is taken for the kernel's signature, unused)."""
    mean, cov = reference_update_h012(
        mean, cov, zx, zy, zv, gps_noise * gps_noise,
        gps_noise * gps_noise, imu_speed_noise * imu_speed_noise)
    mean = list(mean)
    if mean[2] < 0.0:
        mean[2] = 0.0
    return tuple(mean), cov


@contextmanager
def reference_kernels():
    """Run :class:`~repro.ads.tracking.MultiObjectTracker` and
    :class:`~repro.ads.localization.EgoLocalizer` on the loop kernels
    above while the block is open."""
    bindings = ((tracking, "kf_predict4", reference_kf_predict4),
                (tracking, "kf_update4", reference_kf_update4),
                (localization, "ekf_predict", reference_ekf_predict),
                (localization, "ekf_correct", reference_ekf_correct))
    saved = [(module, name, getattr(module, name))
             for module, name, _ in bindings]
    for module, name, oracle in bindings:
        setattr(module, name, oracle)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _slewed(current, value):
    """A pedal corruption through the slew stage: at most 0.5 from the
    current position (slew rate 2.5/s x the 0.2 s window)."""
    return current + min(max(value - current, -0.5), 0.5)


#: Scalar ``(scene values, corruption value) -> BN intervention value``
#: by mined variable; any other variable intervenes with its value.
SCALAR_TRANSFORMS = {
    "raw_throttle": lambda scene, value: _slewed(scene["throttle"], value),
    "raw_brake": lambda scene, value: _slewed(scene["brake"], value),
    # detection_x is a world coordinate; the BN node is a bumper gap.
    "detection_x": lambda scene, value: max(value - scene["x"] - 4.8, 0.01),
    "tracked_speed": lambda scene, value: scene["v"] - value,
}


def reference_infer_actuation(injector, scene, node, node_value):
    """MLE of (throttle, brake, steering) at slices 1 and 2 under
    ``do(node@1, node@2 = node_value)``: one ``map_query`` per call."""
    engine = injector._engine_for(node)
    evidence = {slice_node(name, 0): scene.values[name]
                for name in BN_VARIABLES}
    evidence[slice_node(node, 1)] = node_value
    evidence[slice_node(node, 2)] = node_value
    query = [slice_node(name, t)
             for t in (1, 2) for name in injector._ACTUATION
             if name != node]
    estimate = engine.map_query(query, evidence) if query else {}
    result = {1: {}, 2: {}}
    for t in (1, 2):
        for name in injector._ACTUATION:
            low, high = injector._ACTUATION_BOUNDS[name]
            if name == node:
                raw = node_value
            else:
                raw = estimate[slice_node(name, t)]
                if name == "steering":
                    low = -injector._STEERING_AUTHORITY
                    high = injector._STEERING_AUTHORITY
            result[t][name] = float(min(max(raw, low), high))
    return result


def _cpd_step(cpd, values):
    """A slice-1 CPD's mean with slice-0 parent values."""
    parents = {parent: values[parent.rsplit(SLICE_SEPARATOR, 1)[0]]
               for parent in cpd.parents}
    return cpd.mean(parents)


def reference_predict_after_fault(injector, scene, node, node_value,
                                  recovery=0.25):
    """Physical kinematic state after ``do(f)`` plus recovery.

    Returns the MLE of ``{v, v_end, gap, closing, lat, steering}`` at
    the rollout instant with the worst longitudinal margin.
    """
    values = scene.values
    actuation = reference_infer_actuation(injector, scene, node, node_value)
    v_dynamics = injector._dynamics("v")
    lat_dynamics = injector._dynamics("lat")

    state0 = {name: values[name] for name in BN_VARIABLES}
    v_path = [values["v"], max(_cpd_step(v_dynamics, state0), 0.0)]
    state1 = dict(state0)
    state1.update(actuation[1])
    state1["v"] = v_path[1]
    state1["lat"] = _cpd_step(lat_dynamics, state0)
    v_path.append(max(_cpd_step(v_dynamics, state1), 0.0))
    lat2 = _cpd_step(lat_dynamics, state1)

    extra_steps = max(int(round(recovery / injector.slice_dt)), 0)
    for step in range(extra_steps):
        blend = (step + 1) / (extra_steps + 1)
        state = dict(state1)
        for name in injector._ACTUATION:
            state[name] = ((1.0 - blend) * actuation[2][name]
                           + blend * values[name])
        state["v"] = v_path[-1]
        v_path.append(max(_cpd_step(v_dynamics, state), 0.0))

    gt_gap = values["gt_gap"]
    lead_v = values["gt_lead_v"]
    if gt_gap >= 0.98 * SENSOR_RANGE or lead_v < 0.0:
        return {"v": v_path[2], "v_end": v_path[-1],
                "gap": SENSOR_RANGE, "closing": 0.0,
                "lat": lat2, "steering": actuation[2]["steering"]}
    gap = gt_gap
    gap_path = [gap]
    for i in range(1, len(v_path)):
        closing_step = ((v_path[i - 1] - lead_v)
                        + (v_path[i] - lead_v)) / 2.0
        gap -= closing_step * injector.slice_dt
        gap_path.append(gap)
    a_max = injector.safety_config.a_max
    worst = min(range(len(v_path)),
                key=lambda i: (gap_path[i] + lead_v ** 2 / (2.0 * a_max)
                               - v_path[i] ** 2 / (2.0 * a_max)))
    return {"v": v_path[worst], "v_end": v_path[-1],
            "gap": gap_path[worst],
            "closing": v_path[worst] - lead_v, "lat": lat2,
            "steering": actuation[2]["steering"]}


def reference_potential(injector, scene, variable, value):
    """``delta_hat_do(f)`` of one candidate, as a :class:`SafetyPotential`."""
    mapping = NODE_MAPPING[variable]
    node = mapping.node
    transform = SCALAR_TRANSFORMS.get(variable)
    node_value = transform(scene.values, value) if transform else value
    estimate = reference_predict_after_fault(injector, scene, node,
                                             node_value, mapping.recovery)
    config = injector.safety_config
    v_hat = max(estimate["v"], 0.0)
    gap_hat = max(estimate["gap"], 0.0)
    if gap_hat >= 0.98 * SENSOR_RANGE:
        gap_hat, lead_speed = SENSOR_RANGE, None
    else:
        lead_speed = max(v_hat - estimate["closing"], 0.0)
    stop = stopping_displacement(v_hat, 0.0, scene.values["steering"],
                                 config)
    delta_long = (longitudinal_envelope(gap_hat, lead_speed, config)
                  - stop.longitudinal)

    phi_fault = estimate["steering"]
    excursion = steering_excursion(v=scene.values["v"], phi_fault=phi_fault,
                                   window=2.0 * injector.slice_dt,
                                   config=config)
    drift = (0.0 if node == "steering"
             else estimate["lat"] - scene.values["lat"])
    direction = phi_fault if abs(phi_fault) > 1e-3 else drift
    if direction >= 0.0:
        clearance = scene.values["lat_free_up"]
    else:
        clearance = scene.values["lat_free_down"]
    delta_lat = clearance - excursion - abs(drift)
    return SafetyPotential(longitudinal=delta_long, lateral=delta_lat)


def reference_scenario_candidates(injector, scenes,
                                  variables=MINED_VARIABLES, threshold=0.0):
    """Unsorted ``F_crit`` in scene-major, (variable, value)-minor order,
    the scored count and the scene count, one candidate at a time."""
    critical = []
    n_scored = 0
    n_scenes = 0
    for scene in scenes:
        n_scenes += 1
        if not scene.observed_safe:
            continue
        for variable in variables:
            for value in variable_by_name(variable).corruption_values():
                n_scored += 1
                potential = reference_potential(injector, scene, variable,
                                                float(value))
                if potential.minimum <= threshold:
                    critical.append(CandidateFault(
                        scenario=scene.scenario,
                        injection_tick=scene.injection_tick,
                        variable=variable,
                        value=float(value),
                        predicted_delta_long=potential.longitudinal,
                        predicted_delta_lat=potential.lateral,
                        observed_delta_long=scene.observed_delta_long,
                        observed_delta_lat=scene.observed_delta_lat))
    return critical, n_scored, n_scenes


def reference_mine(injector, scenes, variables=MINED_VARIABLES,
                   threshold=0.0, top_k=None):
    """``(F_crit, report)``: the scenario candidates stable-sorted most
    critical first and cut to ``top_k``."""
    report = MiningReport()
    critical, report.n_scored, report.n_scenes = \
        reference_scenario_candidates(injector, scenes, variables, threshold)
    critical.sort(key=lambda c: c.predicted_minimum)
    if top_k is not None:
        critical = critical[:top_k]
    report.n_critical = len(critical)
    return critical, report
