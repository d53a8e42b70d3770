"""The paper's kinematics-based safety model (Section III-A).

Definitions (paper Definitions 1-3):

* ``d_stop``  — displacement of the ego during an *emergency stop*
  maneuver: deceleration pinned at the maximum comfortable value
  ``a_max`` with steering frozen (Eq. 5-6), integrated numerically with
  RK4 (Eq. 7's procedure ``P``).  Both the longitudinal and the lateral
  components of the displacement matter.
* ``d_safe``  — the distance the ego can travel without striking any
  object.  For a moving lead vehicle we charge the lead its own
  worst-case stopping distance ``v_lead^2 / (2 a_max)`` (the RSS-style
  reading of the paper's "estimate vehicle and object trajectories"):
  following a same-speed lead at gap ``g`` yields ``delta ~= g``, which
  matches the paper's Example 1 numbers (cut-in collapses delta from
  20 m to 2 m).
* ``delta = d_safe - d_stop`` — the safety potential.  The vehicle is
  safe iff ``delta > 0`` in both the longitudinal and lateral directions.

Laterally, the free distance is the clearance to the road edge and any
flanking vehicle (see :func:`repro.sim.collision.lateral_clearance`);
DESIGN.md records why the ego-lane line is not used for the lateral
*envelope* (steering noise would flag every highway scene).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..ads.profiling import STAGE_TIMER
from ..sim.collision import SENSOR_RANGE
from ..sim.world import World


@dataclass(frozen=True)
class SafetyConfig:
    """Parameters of the safety model."""

    a_max: float = 6.0            # maximum comfortable deceleration (m/s^2)
    wheelbase: float = 2.8        # m, matches VehicleParameters
    integration_dt: float = 0.05  # s, RK4 step for the stop maneuver
    max_maneuver_time: float = 30.0   # s, hard cap on integration
    #: Lateral drift is charged over this initial window of the maneuver.
    #: Freezing steering for the *entire* stop would flag every highway
    #: scene (millimetre steering jitter integrates to metres over an
    #: 80 m stop); within ~0.5 s the still-running lane keeper re-centres.
    lateral_window: float = 0.5


@dataclass(frozen=True)
class StoppingDisplacement:
    """Result of integrating the emergency-stop maneuver."""

    longitudinal: float   # road-frame x displacement at full stop (m)
    lateral: float        # road-frame y displacement in the window (m)
    stop_time: float      # s until v = 0


def _rk4_stop(v: float, phi: float, a_max: float, wheelbase: float,
              dt: float, lateral_window: float, max_time: float
              ) -> tuple[float, float, float, float, float]:
    """Emergency stop from heading 0: pure-float RK4 on (x, y, v, theta).

    Returns ``(x_stop, y_stop, x_window, y_window, t_stop)``.  Heading
    only rotates the trajectory rigidly, so callers rotate the result by
    the actual initial heading.  This is the scalar reference of the
    stop table's bulk kernel (:func:`_bulk_stops`), and its fallback on
    hosts whose numpy trig differs from :mod:`math`.
    """
    x = y = theta = 0.0
    t = 0.0
    x_window = y_window = 0.0
    window_done = lateral_window <= 0.0
    tan_phi = math.tan(phi)
    turn = tan_phi / wheelbase

    def derivs(xx, yy, vv, th):
        vv = vv if vv > 0.0 else 0.0
        return (vv * math.cos(th), vv * math.sin(th), -a_max, vv * turn)

    while v > 0.0 and t < max_time:
        d1 = derivs(x, y, v, theta)
        d2 = derivs(x + 0.5 * dt * d1[0], y + 0.5 * dt * d1[1],
                    v + 0.5 * dt * d1[2], theta + 0.5 * dt * d1[3])
        d3 = derivs(x + 0.5 * dt * d2[0], y + 0.5 * dt * d2[1],
                    v + 0.5 * dt * d2[2], theta + 0.5 * dt * d2[3])
        d4 = derivs(x + dt * d3[0], y + dt * d3[1], v + dt * d3[2],
                    theta + dt * d3[3])
        x += (dt / 6.0) * (d1[0] + 2 * d2[0] + 2 * d3[0] + d4[0])
        y += (dt / 6.0) * (d1[1] + 2 * d2[1] + 2 * d3[1] + d4[1])
        v += (dt / 6.0) * (d1[2] + 2 * d2[2] + 2 * d3[2] + d4[2])
        theta += (dt / 6.0) * (d1[3] + 2 * d2[3] + 2 * d3[3] + d4[3])
        t += dt
        if not window_done and t >= lateral_window:
            x_window, y_window = x, y
            window_done = True
    if not window_done:
        x_window, y_window = x, y  # stopped inside the window
    return x, y, x_window, y_window, t


#: Keys integrated per kernel call.  Misses are sorted by speed first,
#: so the rows of one chunk need similar step counts.
_CHUNK = 64


def _accumulate(first: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Row-wise running sums ``first, first + s0, (first + s0) + s1, ...``.

    ``np.add.accumulate`` adds strictly left to right, so column ``n``
    holds exactly the float a sequential ``+=`` loop reaches after ``n``
    steps.
    """
    return np.add.accumulate(np.column_stack([first, steps]), axis=1)


def _bulk_chunk(v0: list[float], phis: list[float], a_max: float,
                wheelbase: float, dt: float, lateral_window: float,
                max_time: float) -> list[tuple[float, float, float, float,
                                              float]]:
    """:func:`_rk4_stop` for several keys at once, bit for bit.

    The speed and heading derivatives depend on neither position nor
    heading, so the whole RK4 trajectory unrolls into keys x time
    arrays: speed is a running sum of one constant increment, every
    stage's speed and turn rate is elementwise, heading is a running sum
    of its increments, and position is a running sum of increments that
    are elementwise given the heading.  Every element sees the same
    float operations, in the same order, as the scalar loop.
    """
    neg = -a_max
    dv = (dt / 6.0) * (neg + 2 * neg + 2 * neg + neg)
    half = 0.5 * dt * neg       # v + 0.5 * dt * d[2], stages 2 and 3
    full = dt * neg             # v + dt * d3[2], stage 4
    sixth = dt / 6.0
    half_dt = 0.5 * dt
    k = len(v0)
    # ``math.tan``: ``np.tan`` is not bit-identical to it.
    turn = np.array([math.tan(phi) / wheelbase for phi in phis])[:, None]

    # Step count per key: the loop runs while v > 0 and t < max_time.
    width = max(int(max(v0) / (a_max * dt)) + 2 if a_max > 0.0 else 64, 1)
    while True:
        t = _accumulate(np.zeros(1), np.full((1, width), dt))[0]
        v = _accumulate(np.array(v0), np.full((k, width), dv))
        stopped = ~((v > 0.0) & (t < max_time))
        if stopped.any(axis=1).all():
            break
        width *= 2
    n_steps = stopped.argmax(axis=1)
    span = int(n_steps.max())

    vn = v[:, :span]
    c1 = np.where(vn > 0.0, vn, 0.0)
    v2 = vn + half
    c2 = np.where(v2 > 0.0, v2, 0.0)       # stage 3 sees the same speed
    v4 = vn + full
    c4 = np.where(v4 > 0.0, v4, 0.0)
    k1 = c1 * turn
    k2 = c2 * turn
    k4 = c4 * turn
    theta = _accumulate(np.zeros(k),
                        sixth * (k1 + 2 * k2 + 2 * k2 + k4))
    th1 = theta[:, :span]
    th2 = th1 + half_dt * k1
    th3 = th1 + half_dt * k2
    th4 = th1 + dt * k2
    x = _accumulate(np.zeros(k), sixth * (
        c1 * np.cos(th1) + 2 * (c2 * np.cos(th2))
        + 2 * (c2 * np.cos(th3)) + c4 * np.cos(th4)))
    y = _accumulate(np.zeros(k), sixth * (
        c1 * np.sin(th1) + 2 * (c2 * np.sin(th2))
        + 2 * (c2 * np.sin(th3)) + c4 * np.sin(th4)))

    if lateral_window <= 0.0:
        window = None
    else:
        reached = np.flatnonzero(t >= lateral_window)
        window = int(reached[0]) if len(reached) else width + 1
    stops = []
    for row, n in enumerate(n_steps.tolist()):
        if window is None:
            x_window = y_window = 0.0
        else:
            w = min(window, n)
            x_window, y_window = float(x[row, w]), float(y[row, w])
        stops.append((float(x[row, n]), float(y[row, n]), x_window,
                      y_window, float(t[n])))
    return stops


_TRIG_EXACT: bool | None = None


def _numpy_trig_exact() -> bool:
    """Whether ``np.sin``/``np.cos`` match ``math.sin``/``math.cos`` bit
    for bit on this host, checked once on first use.

    Some numpy builds evaluate trig with SIMD approximations that differ
    from the C library in the last ulp; on those hosts the stop table
    integrates with the scalar :func:`_rk4_stop` instead.  The sample
    spans the headings a stop maneuver reaches, near zero and far out,
    as contiguous arrays like the kernel's.
    """
    global _TRIG_EXACT
    if _TRIG_EXACT is None:
        rng = np.random.default_rng(0)
        magnitudes = np.geomspace(1e-12, 1.0, 64)
        sample = np.concatenate([
            rng.uniform(-0.05, 0.05, 1024), rng.uniform(-2.0, 2.0, 1024),
            rng.uniform(-64.0, 64.0, 1024), magnitudes, -magnitudes,
            [0.0, -0.0, math.pi]])
        _TRIG_EXACT = all(
            np.array_equal(fast(sample).view(np.int64),
                           np.array([exact(a) for a in sample.tolist()]
                                    ).view(np.int64))
            for fast, exact in ((np.sin, math.sin), (np.cos, math.cos)))
    return _TRIG_EXACT


def _bulk_stops(keys: list[tuple[float, float]], params: tuple
                ) -> list[tuple[float, float, float, float, float]]:
    """Canonical stops of many ``(v, phi)`` keys, in key order.

    Keys are sorted by speed and integrated :data:`_CHUNK` at a time by
    :func:`_bulk_chunk`; on hosts that fail :func:`_numpy_trig_exact`
    each key runs through the scalar :func:`_rk4_stop` instead.
    """
    if not _numpy_trig_exact():
        return [_rk4_stop(v, phi, *params) for v, phi in keys]
    order = sorted(range(len(keys)), key=lambda i: keys[i][0])
    stops: list = [None] * len(keys)
    for start in range(0, len(order), _CHUNK):
        chunk = order[start:start + _CHUNK]
        integrated = _bulk_chunk([keys[i][0] for i in chunk],
                                 [keys[i][1] for i in chunk], *params)
        for i, stop in zip(chunk, integrated):
            stops[i] = stop
    return stops


def _stop_params(config: SafetyConfig) -> tuple[float, float, float, float,
                                                 float]:
    """The fields of ``config`` the stop integration reads, in
    :func:`_rk4_stop` argument order; each distinct tuple has its own
    stop table."""
    return (config.a_max, config.wheelbase, config.integration_dt,
            config.lateral_window, config.max_maneuver_time)


StopTableInfo = namedtuple("StopTableInfo", "hits misses batches currsize")


class StopTable:
    """The process's canonical emergency stops, one table per
    :class:`SafetyConfig`.

    A lookup takes many quantized ``(v, phi)`` keys at once; the keys
    the table lacks are integrated together by the bulk kernel and
    stored.  Each table keeps at most ``maxsize`` entries, dropping the
    oldest first.  :meth:`cache_info` counts ``hits`` and ``misses``
    per key looked up, as the ``functools.lru_cache`` this replaces
    did, plus the bulk ``batches`` integrated.
    """

    def __init__(self, maxsize: int = 65536):
        self.maxsize = maxsize
        self._tables: dict[tuple, dict[tuple[float, float], tuple]] = {}
        self.hits = self.misses = self.batches = 0

    def lookup(self, keys: list[tuple[float, float]], params: tuple
               ) -> list[tuple[float, float, float, float, float]]:
        """Stops ``(x_stop, y_stop, x_window, y_window, t_stop)`` of
        quantized ``(v, phi)`` keys, in key order, under the
        :func:`_stop_params` tuple ``params``."""
        table = self._tables.setdefault(params, {})
        found = [table.get(key) for key in keys]
        missing = list(dict.fromkeys(
            key for key, stop in zip(keys, found) if stop is None))
        hits = len(keys) - len(missing)
        self.hits += hits
        self.misses += len(missing)
        if STAGE_TIMER.enabled:
            STAGE_TIMER.count("safety", "stop_hits", hits)
            STAGE_TIMER.count("safety", "stop_misses", len(missing))
            STAGE_TIMER.count("safety", "stop_batches", int(bool(missing)))
        if not missing:
            return found
        self.batches += 1
        fresh = dict(zip(missing, _bulk_stops(missing, params)))
        table.update(fresh)
        overflow = len(table) - self.maxsize
        if overflow > 0:
            for key in list(itertools.islice(table, overflow)):
                del table[key]
        return [fresh[key] if stop is None else stop
                for key, stop in zip(keys, found)]

    def cache_info(self) -> StopTableInfo:
        """Lookup counters and entries held, across every table."""
        return StopTableInfo(self.hits, self.misses, self.batches,
                             sum(len(t) for t in self._tables.values()))

    def cache_clear(self) -> None:
        """Drop every table and zero the counters."""
        self._tables.clear()
        self.hits = self.misses = self.batches = 0


#: The stop table every caller in this process shares.
_canonical_stop = StopTable()


def _quantize(v: float, phi: float) -> tuple[float, float]:
    """The stop-table key of a speed and a steering angle."""
    return round(max(v, 0.0) / 0.05) * 0.05, round(phi / 5e-4) * 5e-4


def stopping_displacement(v: float, theta: float, phi: float,
                          config: SafetyConfig | None = None
                          ) -> StoppingDisplacement:
    """Integrate Eq. 5-6: brake at ``a_max`` with steering frozen.

    Returns the displacement in the road frame (x longitudinal, y
    lateral) and the stopping time, via RK4 per the paper's Eq. 7
    procedure ``P``.  Longitudinal displacement covers the full stop;
    lateral drift is charged over ``config.lateral_window`` (see
    :class:`SafetyConfig`).  Speed and steering are quantized slightly
    and the stop from heading 0 is read from the process's
    :class:`StopTable`, which integrates keys it lacks in bulk; the
    heading then rotates that stop rigidly.
    """
    config = config or SafetyConfig()
    x_stop, y_stop, x_window, y_window, t_stop = _canonical_stop.lookup(
        [_quantize(v, phi)], _stop_params(config))[0]
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    longitudinal = x_stop * cos_t - y_stop * sin_t
    lateral = x_window * sin_t + y_window * cos_t
    return StoppingDisplacement(longitudinal=longitudinal, lateral=lateral,
                                stop_time=t_stop)


@lru_cache(maxsize=65536)
def _excursion_rollout(v: float, phi_fault: float, window: float,
                       slew_rate: float, recovery_phi: float,
                       wheelbase: float, dt: float,
                       max_time: float) -> float:
    """Peak |lateral drift| of a steering-corruption episode.

    The steering angle slews toward ``phi_fault`` for ``window`` seconds
    (the corruption persists at the actuation interface), then the lane
    keeper counters with its ``recovery_phi`` authority until the heading
    re-crosses zero.  Speed is held constant — the episode is short.
    """
    y = theta = phi = 0.0
    t = 0.0
    peak = 0.0
    while t < max_time:
        if t < window:
            target = phi_fault
        else:
            target = -recovery_phi if theta > 0 else recovery_phi
            if abs(theta) < 1e-4 and abs(y) <= peak:
                break
        step = max(min(target - phi, slew_rate * dt), -slew_rate * dt)
        phi += step
        theta += v * math.tan(phi) / wheelbase * dt
        y += v * math.sin(theta) * dt
        peak = max(peak, abs(y))
        t += dt
    return peak


def steering_excursion(v: float, phi_fault: float, window: float,
                       slew_rate: float = 0.6, recovery_phi: float = 0.08,
                       config: SafetyConfig | None = None) -> float:
    """Predicted lateral excursion of a steering fault (see above).

    Used by the Bayesian engine to predict physical lane/road departure;
    inputs are quantized so repeated queries hit a cache.
    """
    config = config or SafetyConfig()
    v_q = round(max(v, 0.0) / 0.1) * 0.1
    phi_q = round(phi_fault / 1e-3) * 1e-3
    window_q = round(window / 0.05) * 0.05
    return _excursion_rollout(v_q, phi_q, window_q, slew_rate,
                              recovery_phi, config.wheelbase, 0.01, 5.0)


@dataclass(frozen=True)
class SafetyPotential:
    """The pair of safety potentials (paper Definition 3)."""

    longitudinal: float
    lateral: float

    @property
    def safe(self) -> bool:
        """True iff both directions have positive potential."""
        return self.longitudinal > 0.0 and self.lateral > 0.0

    @property
    def minimum(self) -> float:
        """The binding margin."""
        return min(self.longitudinal, self.lateral)


def longitudinal_envelope(gap: float, lead_speed: float | None,
                          config: SafetyConfig | None = None) -> float:
    """``d_safe`` along the travel direction.

    ``gap`` is the current bumper gap to the nearest in-corridor object;
    ``lead_speed`` is that object's speed (``None`` for a clear road).
    A moving lead contributes its own worst-case stopping distance.
    """
    config = config or SafetyConfig()
    if lead_speed is None or gap >= SENSOR_RANGE:
        # Clear corridor: the envelope is the sensing horizon.
        return SENSOR_RANGE
    lead_stopping = max(lead_speed, 0.0) ** 2 / (2.0 * config.a_max)
    return gap + lead_stopping


def safety_potential(v: float, theta: float, phi: float, gap: float,
                     lead_speed: float | None, lateral_free: float,
                     config: SafetyConfig | None = None) -> SafetyPotential:
    """``delta`` in both directions from kinematic state + environment.

    ``lateral_free`` is the clearance to the nearest lateral obstruction
    (road edge or flanking vehicle).
    """
    config = config or SafetyConfig()
    stop = stopping_displacement(v, theta, phi, config)
    d_safe_long = longitudinal_envelope(gap, lead_speed, config)
    return SafetyPotential(
        longitudinal=d_safe_long - stop.longitudinal,
        lateral=lateral_free - abs(stop.lateral))


def bulk_safety_potential(samples, config: SafetyConfig | None = None
                          ) -> tuple[list[float], list[float]]:
    """:func:`safety_potential` of many samples at once.

    ``samples`` holds ``(v, theta, phi, gap, lead_speed, lateral_free)``
    tuples (see :func:`world_safety_inputs`).  Returns the longitudinal
    and the lateral potentials, each bit for bit the per-sample value;
    every stop the table lacks is integrated in one bulk call.
    """
    config = config or SafetyConfig()
    stops = _canonical_stop.lookup(
        [_quantize(sample[0], sample[2]) for sample in samples],
        _stop_params(config))
    longitudinal = []
    lateral = []
    for (_, theta, _, gap, lead_speed, lateral_free), stop in zip(samples,
                                                                  stops):
        x_stop, y_stop, x_window, y_window, _ = stop
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        longitudinal.append(longitudinal_envelope(gap, lead_speed, config)
                            - (x_stop * cos_t - y_stop * sin_t))
        lateral.append(lateral_free
                       - abs(x_window * sin_t + y_window * cos_t))
    return longitudinal, lateral


def world_safety_inputs(world: World) -> tuple[float, float, float, float,
                                                float | None, float]:
    """``(v, theta, phi, gap, lead_speed, lateral_free)`` of a live
    world: the arguments :func:`safety_potential` takes."""
    state = world.ego.state
    lead = world.lead_obstacle()
    if lead is None:
        gap, lead_speed = SENSOR_RANGE, None
    else:
        gap = ((lead.x - state.x)
               - (world.ego.params.length + lead.length) / 2.0)
        lead_speed = lead.v
    # Heading is measured relative to the road axis (road runs along x).
    return (state.v, state.theta, state.phi, gap, lead_speed,
            world.lateral_clearance())


def world_safety_potential(world: World,
                           config: SafetyConfig | None = None
                           ) -> SafetyPotential:
    """Ground-truth ``delta`` of a live world (used to judge hazards)."""
    return safety_potential(*world_safety_inputs(world), config=config)
