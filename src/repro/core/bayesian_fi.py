"""Bayesian fault injection: the paper's fault-selection engine (Sec. III).

The ADS is modelled as a 3-slice temporal Bayesian network (3-TBN,
Fig. 6) with linear-Gaussian CPDs fit from golden (fault-free) driving
traces.  A candidate fault ``f`` over one inter-module variable is scored
by counterfactual inference:

1. clamp slice 0 to the scene's observed state (``t = k - 1``),
2. apply ``do(node@1 = corrupted value)`` — graph surgery cuts the edges
   into the corrupted node, so no belief leaks backward (``t = k``),
3. take the MLE of the slice-2 kinematic state (Eq. 2; for a Gaussian
   posterior the MLE is the posterior mean), and
4. re-evaluate the safety potential ``delta`` through the kinematic
   safety model (Eq. 7).

A fault enters ``F_crit`` (Eq. 1) when the scene was safe before
injection but the predicted post-injection potential is non-positive.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..bayesnet.dynamic import (SLICE_SEPARATOR, DynamicBayesianNetwork,
                                slice_node)
from ..bayesnet.gaussian import GaussianInference
from ..bayesnet.network import LinearGaussianBayesianNetwork
from ..sim.collision import SENSOR_RANGE
from ..sim.trace import Trace
from ..ads.variables import variable_by_name
from .safety import (SafetyConfig, SafetyPotential, _canonical_stop,
                     _excursion_rollout, _stop_params, longitudinal_envelope,
                     steering_excursion, stopping_displacement)
from .simulate import FaultSpec, RunResult

#: Nodes of the per-slice BN: kinematic state + actuation commands.
BN_VARIABLES = ("v", "gap", "closing", "lat", "throttle", "brake",
                "steering")

#: Kinematic nodes whose slice-2 MLE feeds the safety re-evaluation.
KINEMATIC_NODES = ("v", "gap", "closing", "lat")


def ads_dbn_template() -> DynamicBayesianNetwork:
    """The 3-TBN topology, derived from the ADS architecture (Fig. 1/6).

    Within a slice, the world state drives the planner/controller
    outputs; across slices, actuation moves the kinematic state.
    """
    intra = [("gap", "throttle"), ("gap", "brake"),
             ("closing", "throttle"), ("closing", "brake"),
             ("v", "throttle"), ("v", "brake"),
             ("lat", "steering")]
    inter = [("v", "v"), ("throttle", "v"), ("brake", "v"),
             ("gap", "gap"), ("closing", "gap"),
             ("closing", "closing"), ("throttle", "closing"),
             ("brake", "closing"),
             ("lat", "lat"), ("steering", "lat")]
    return DynamicBayesianNetwork(BN_VARIABLES, intra_edges=intra,
                                  inter_edges=inter)


# -- mapping from injectable ADS variables to BN interventions --------------

def _gap_from_detection(scene: Mapping[str, float], value: float) -> float:
    # detection_x is a world coordinate; the BN node is a bumper gap.
    return max(value - scene["x"] - 4.8, 0.01)


def _closing_from_lead_speed(scene: Mapping[str, float],
                             value: float) -> float:
    return scene["v"] - value


def _identity(scene: Mapping[str, float], value: float) -> float:
    return value


#: Pedal positions can move at most this far within the corruption
#: window (controller slew rate 2.5/s x 0.2 s).
_PEDAL_SLEW_WINDOW = 0.5


def _slewed_throttle(scene: Mapping[str, float], value: float) -> float:
    # A planner-stage (U_A) pedal corruption reaches the vehicle through
    # the PID/slew stage, so its effective magnitude is rate-limited.
    current = scene["throttle"]
    delta = min(max(value - current, -_PEDAL_SLEW_WINDOW),
                _PEDAL_SLEW_WINDOW)
    return current + delta


def _slewed_brake(scene: Mapping[str, float], value: float) -> float:
    current = scene["brake"]
    delta = min(max(value - current, -_PEDAL_SLEW_WINDOW),
                _PEDAL_SLEW_WINDOW)
    return current + delta


@dataclass(frozen=True)
class MinedVariable:
    """How one injectable ADS variable maps into the 3-TBN.

    ``recovery`` is the stack's latency to unwind the corruption once
    the window closes: actuation-stage (A_t) corruptions are overwritten
    by the controller on the next frame; planner-stage (U_A) corruptions
    persist through the pedal slew; belief-stage (W_t / I_t / M_t)
    corruptions persist until the filters re-converge.
    """

    node: str
    transform: Callable[[Mapping[str, float], float], float] = _identity
    recovery: float = 0.25


#: Vectorized twins of the scalar transforms above, keyed by the scalar
#: function.  Each maps (scene column arrays, candidate value array) ->
#: BN node value array, element-for-element identical to the scalar
#: transform so the batched miner reproduces the scalar oracle.
_BATCH_TRANSFORMS: dict[Callable, Callable] = {
    _identity: lambda cols, values: values,
    _gap_from_detection:
        lambda cols, values: np.maximum(values - cols["x"] - 4.8, 0.01),
    _closing_from_lead_speed: lambda cols, values: cols["v"] - values,
    _slewed_throttle:
        lambda cols, values: cols["throttle"] + np.clip(
            values - cols["throttle"], -_PEDAL_SLEW_WINDOW,
            _PEDAL_SLEW_WINDOW),
    _slewed_brake:
        lambda cols, values: cols["brake"] + np.clip(
            values - cols["brake"], -_PEDAL_SLEW_WINDOW,
            _PEDAL_SLEW_WINDOW),
}


#: ADS variable -> BN intervention description.
NODE_MAPPING: dict[str, MinedVariable] = {
    "throttle": MinedVariable("throttle", recovery=0.2),
    "raw_throttle": MinedVariable("throttle", _slewed_throttle,
                                  recovery=0.4),
    "brake": MinedVariable("brake", recovery=0.2),
    "raw_brake": MinedVariable("brake", _slewed_brake, recovery=0.4),
    "steering": MinedVariable("steering", recovery=0.1),
    "raw_steering": MinedVariable("steering", recovery=0.4),
    "tracked_gap": MinedVariable("gap", recovery=0.25),
    "detection_x": MinedVariable("gap", _gap_from_detection,
                                 recovery=0.25),
    "tracked_speed": MinedVariable("closing", _closing_from_lead_speed,
                                   recovery=0.25),
    "imu_speed": MinedVariable("v", recovery=0.25),
    "ego_speed_estimate": MinedVariable("v", recovery=0.25),
    "sensed_lane_offset": MinedVariable("lat", recovery=0.25),
    "model_lane_offset": MinedVariable("lat", recovery=0.25),
}

#: The ADS variables the Bayesian engine can reason about.
MINED_VARIABLES = tuple(NODE_MAPPING)


@dataclass(frozen=True)
class SceneRow:
    """One golden-trace instant: evidence for slice 0 of the 3-TBN."""

    scenario: str
    evidence_tick: int      # control tick of the observed state (k - 1)
    injection_tick: int     # control tick a mined fault would fire at (k)
    values: dict            # all TRACE_COLUMNS at the evidence instant
    observed_delta_long: float   # golden delta at the injection instant
    observed_delta_lat: float

    @property
    def observed_safe(self) -> bool:
        """The F_crit premise: the scene is safe without the fault."""
        return (self.observed_delta_long > 0.0
                and self.observed_delta_lat > 0.0)


def scene_rows_from_trace(scenario: str,
                          trace: Trace) -> Iterator[SceneRow]:
    """Consecutive-row pairs of a golden trace -> scene rows, lazily.

    A generator: rows stream one at a time into the miners, so a
    scenario's scene population is never materialized as a list —
    wrap in ``list`` to hold one.
    """
    arrays = trace.as_arrays()
    n = len(trace)
    for i in range(n - 1):
        values = {name: float(column[i]) for name, column in arrays.items()}
        yield SceneRow(
            scenario=scenario,
            evidence_tick=int(arrays["tick"][i]),
            injection_tick=int(arrays["tick"][i + 1]),
            values=values,
            observed_delta_long=float(arrays["delta_long"][i + 1]),
            observed_delta_lat=float(arrays["delta_lat"][i + 1]))


#: Scene columns the batched scorer needs beyond the BN variables.
_BATCH_EXTRA_COLUMNS = ("x", "gt_gap", "gt_lead_v", "lat", "lat_free_up",
                        "lat_free_down")


class _SceneBatch:
    """Columnar (structure-of-arrays) view of streamed scene rows.

    Built in one pass over any iterable: each row's columns land in
    per-column buffers and only a light identity tuple (scenario,
    injection tick, observed deltas) is retained per scene — the row
    objects and their ``values`` dicts are released as the stream
    advances, so batched mining never holds a scene-row list.
    """

    def __init__(self, scenes: Iterable["SceneRow"]):
        names = set(BN_VARIABLES) | set(_BATCH_EXTRA_COLUMNS)
        buffers: dict[str, list[float]] = {name: [] for name in names}
        self.identities: list[tuple[str, int, float, float]] = []
        for scene in scenes:
            for name in names:
                buffers[name].append(scene.values[name])
            self.identities.append(
                (scene.scenario, scene.injection_tick,
                 scene.observed_delta_long, scene.observed_delta_lat))
        self.n = len(self.identities)
        self.cols = {name: np.array(buffer)
                     for name, buffer in buffers.items()}

    def tiled(self, k: int) -> dict[str, np.ndarray]:
        """Columns repeated ``k`` times (one block per corruption value)."""
        if k == 1:
            return self.cols
        return {name: np.tile(col, k) for name, col in self.cols.items()}


@dataclass(frozen=True)
class CandidateFault:
    """A mined fault: scene + corruption + predicted consequence."""

    scenario: str
    injection_tick: int
    variable: str
    value: float
    predicted_delta_long: float
    predicted_delta_lat: float
    observed_delta_long: float
    observed_delta_lat: float

    @property
    def predicted_minimum(self) -> float:
        """The binding predicted margin (ranking key)."""
        return min(self.predicted_delta_long, self.predicted_delta_lat)

    def to_fault_spec(self, duration_ticks: int = 2) -> FaultSpec:
        """The executable fault for validation."""
        return FaultSpec(variable=self.variable, value=self.value,
                         start_tick=self.injection_tick,
                         duration_ticks=duration_ticks)


@dataclass
class MiningReport:
    """Cost accounting of one mining pass (feeds E2)."""

    n_scenes: int = 0
    n_scored: int = 0
    n_critical: int = 0
    wall_seconds: float = 0.0


class InjectorTrainer:
    """Streaming sufficient-statistics training of the 3-TBN.

    Built by :meth:`BayesianFaultInjector.streaming_trainer`.  Each
    :meth:`add_run` folds one golden trace's training windows into
    per-node accumulators (:class:`repro.bayesnet.learning
    .LinearGaussianNetworkSuffStats`) and releases them; state between
    folds is O(network parameters), independent of trace count or
    length.  Folding the same traces in the same order as
    :meth:`BayesianFaultInjector.train` and calling :meth:`finish`
    reproduces the batch fit (the equivalence the streaming-training
    test suite enforces), including the batch path's convention of
    taking ``slice_dt`` from the last folded trace with two samples.
    """

    def __init__(self, injector_cls, safety_config: SafetyConfig | None,
                 n_slices: int):
        from ..bayesnet.learning import LinearGaussianNetworkSuffStats
        self.template = ads_dbn_template()
        self.safety_config = safety_config
        self.n_slices = n_slices
        self._injector_cls = injector_cls
        self._stats = LinearGaussianNetworkSuffStats(
            self.template.unrolled_dag(n_slices))
        self._slice_dt = 0.1
        self.n_folded = 0

    def add_run(self, run: RunResult) -> None:
        """Fold one golden run's trace in (in-RAM or stored)."""
        self.add_trace(run.trace)

    def add_trace(self, trace) -> None:
        """Fold one golden trace in; its windows are released after."""
        arrays = trace.as_arrays()
        if len(arrays["time"]) > 1:
            self._slice_dt = float(arrays["time"][1] - arrays["time"][0])
        columns = {name: arrays[name] for name in BN_VARIABLES}
        windows = self.template.trace_windows(columns, self.n_slices)
        if windows is not None:
            self._stats.update(windows)
        self.n_folded += 1

    def finish(self) -> "BayesianFaultInjector":
        """The trained injector over everything folded so far."""
        if self._stats.n == 0:
            raise ValueError(
                "no training windows: traces shorter than n_slices")
        model = self._stats.finalize()
        return self._injector_cls(model, self.safety_config,
                                  self.n_slices, self._slice_dt)


class BayesianFaultInjector:
    """Trains the 3-TBN and mines ``F_crit`` by do-calculus scoring."""

    def __init__(self, model: LinearGaussianBayesianNetwork,
                 safety_config: SafetyConfig | None = None,
                 n_slices: int = 3, slice_dt: float = 0.1):
        self.model = model
        self.safety_config = safety_config or SafetyConfig()
        self.n_slices = n_slices
        self.slice_dt = slice_dt      # s between planner frames / slices
        self._engines: dict[str, GaussianInference] = {}
        #: node -> (query order, gain, offset) of the actuation posterior.
        self._affines: dict[str, tuple[list[str], np.ndarray,
                                       np.ndarray]] = {}
        #: node set -> stacked scene-gain matrix + per-node splits.
        self._stacked: dict[tuple[str, ...], tuple] = {}

    # -- training -----------------------------------------------------------

    @classmethod
    def train(cls, golden_runs: list[RunResult],
              safety_config: SafetyConfig | None = None,
              n_slices: int = 3) -> "BayesianFaultInjector":
        """Fit the 3-TBN from fault-free traces."""
        template = ads_dbn_template()
        traces = []
        slice_dt = 0.1
        for run in golden_runs:
            arrays = run.trace.as_arrays()
            traces.append({name: arrays[name] for name in BN_VARIABLES})
            if len(arrays["time"]) > 1:
                slice_dt = float(arrays["time"][1] - arrays["time"][0])
        model = template.fit_linear_gaussian(traces, n_slices=n_slices)
        return cls(model, safety_config, n_slices, slice_dt)

    @classmethod
    def streaming_trainer(cls, safety_config: SafetyConfig | None = None,
                          n_slices: int = 3) -> "InjectorTrainer":
        """A fold-one-trace-at-a-time trainer (see :class:`InjectorTrainer`).

        The out-of-core counterpart of :meth:`train`: golden traces are
        folded into sufficient-statistics accumulators the moment each
        becomes available (campaign scenario order), so training
        overlaps golden collection and never holds more than one
        trace's training windows.  ``finish()`` reproduces the batch
        fit's CPDs (exact tabular counts; ~1e-12 relative for the
        linear-Gaussian weights and variances).
        """
        return InjectorTrainer(cls, safety_config, n_slices)

    # -- inference -----------------------------------------------------------
    #
    # The counterfactual follows the paper's factorization: the BN infers
    # how the *controller* responds to the corrupted belief (actuation at
    # slices 1 and 2), and the kinematic model propagates the *physical*
    # state.  Belief and physics share nodes in the golden traces (they
    # coincide without faults), so intervening on a belief node must not
    # be allowed to rewrite physics directly — a corrupted "lead speed"
    # does not move the real lead vehicle.

    #: Actuation nodes inferred from the mutilated network.
    _ACTUATION = ("throttle", "brake", "steering")
    _ACTUATION_BOUNDS = {"throttle": (0.0, 1.0), "brake": (0.0, 1.0),
                         "steering": (-0.55, 0.55)}
    #: The planner's lane-keeping authority: *inferred* steering
    #: responses (linear extrapolations of the learned CPDs) are clipped
    #: here, because the real planner clips its output.  An *injected*
    #: steering value bypasses the planner and keeps the physical range.
    _STEERING_AUTHORITY = 0.08

    def _engine_for(self, node: str) -> GaussianInference:
        """Engine on the graph mutilated for ``do(node@1, node@2)``.

        The corruption window spans two planner frames (the campaign
        default), so the belief is forced at both future slices.  Cutting
        the edges into the intervened nodes and conditioning on their
        values is the truncated-factorization semantics of ``do``.
        """
        if node not in self._engines:
            mutilated = self.model.copy()
            from ..bayesnet.cpd import LinearGaussianCPD
            for t in (1, 2):
                name = slice_node(node, t)
                mutilated.dag.remove_incoming_edges(name)
                mutilated.cpds[name] = LinearGaussianCPD(
                    name, intercept=0.0, variance=1.0)
            self._engines[node] = GaussianInference(mutilated)
        return self._engines[node]

    def _infer_actuation(self, scene: SceneRow, node: str,
                         node_value: float) -> dict[int, dict[str, float]]:
        """MLE of (throttle, brake, steering) at slices 1 and 2."""
        engine = self._engine_for(node)
        evidence = {slice_node(name, 0): scene.values[name]
                    for name in BN_VARIABLES}
        evidence[slice_node(node, 1)] = node_value
        evidence[slice_node(node, 2)] = node_value
        query = [slice_node(name, t)
                 for t in (1, 2) for name in self._ACTUATION
                 if name != node]
        estimate = engine.map_query(query, evidence) if query else {}
        result: dict[int, dict[str, float]] = {1: {}, 2: {}}
        for t in (1, 2):
            for name in self._ACTUATION:
                if name == node:
                    raw = node_value
                    low, high = self._ACTUATION_BOUNDS[name]
                else:
                    raw = estimate[slice_node(name, t)]
                    low, high = self._ACTUATION_BOUNDS[name]
                    if name == "steering":
                        low = -self._STEERING_AUTHORITY
                        high = self._STEERING_AUTHORITY
                result[t][name] = float(min(max(raw, low), high))
        return result

    def _dynamics(self, target: str) -> "LinearGaussianCPD":
        """The learned physical one-step dynamics CPD of ``target``."""
        return self.model.cpds[slice_node(target, 1)]

    def _step(self, cpd, values: Mapping[str, float]) -> float:
        """Evaluate a slice-1 CPD's mean with slice-0 parent values."""
        parents = {parent: values[parent.rsplit(SLICE_SEPARATOR, 1)[0]]
                   for parent in cpd.parents}
        return cpd.mean(parents)

    def predict_after_fault(self, scene: SceneRow, node: str,
                            node_value: float,
                            recovery: float = 0.25) -> dict[str, float]:
        """Physical kinematic state after ``do(f)`` plus recovery.

        The BN infers the actuation response; the kinematic model then
        propagates ``v`` through the corruption window *and* the
        controller's recovery latency, while the environment (gap to the
        real lead) evolves by the sensed ground truth — the paper's
        Eq. 2 -> Eq. 7 pipeline.  Returns the MLE of
        ``{v, gap, closing, lat, steering}`` at the worst rollout instant.
        """
        values = scene.values
        actuation = self._infer_actuation(scene, node, node_value)
        v_dynamics = self._dynamics("v")
        lat_dynamics = self._dynamics("lat")

        # Slice 1 physics follows the *observed* slice-0 actuation (the
        # fault fires at slice 1, whose commands act between 1 and 2).
        state0 = {name: values[name] for name in BN_VARIABLES}
        v_path = [values["v"], max(self._step(v_dynamics, state0), 0.0)]
        state1 = dict(state0)
        state1.update(actuation[1])
        state1["v"] = v_path[1]
        state1["lat"] = self._step(lat_dynamics, state0)
        v_path.append(max(self._step(v_dynamics, state1), 0.0))
        lat2 = self._step(lat_dynamics, state1)

        # Recovery phase: the stack unwinds the corruption over the
        # variable's recovery latency, so the rollout decays the faulted
        # commands linearly back to the scene's golden commands.
        extra_steps = max(int(round(recovery / self.slice_dt)), 0)
        for step in range(extra_steps):
            blend = (step + 1) / (extra_steps + 1)
            state = dict(state1)
            for name in self._ACTUATION:
                golden = scene.values[name]
                state[name] = ((1.0 - blend) * actuation[2][name]
                               + blend * golden)
            state["v"] = v_path[-1]
            v_path.append(max(self._step(v_dynamics, state), 0.0))

        # Environment: sensed ground truth, lead at constant speed.
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
            gap -= closing_step * self.slice_dt
            gap_path.append(gap)
        # Report the rollout instant with the worst safety margin.
        worst = min(
            range(len(v_path)),
            key=lambda i: (gap_path[i] + lead_v ** 2
                           / (2.0 * self.safety_config.a_max)
                           - v_path[i] ** 2
                           / (2.0 * self.safety_config.a_max)))
        return {"v": v_path[worst], "v_end": v_path[-1],
                "gap": gap_path[worst],
                "closing": v_path[worst] - lead_v, "lat": lat2,
                "steering": actuation[2]["steering"]}

    def predicted_potential(self, scene: SceneRow, variable: str,
                            value: float) -> SafetyPotential:
        """``delta_hat_do(f)``: safety potential after the counterfactual.

        Longitudinal: BN-inferred actuation + kinematic propagation (the
        paper's pipeline).  Lateral: hazards are physical (off-road or
        side collision), so steering-type faults are scored by the
        predicted excursion of the corruption-and-recovery episode
        against the scene's lateral clearance.
        """
        mapping = NODE_MAPPING[variable]
        node = mapping.node
        node_value = mapping.transform(scene.values, value)
        estimate = self.predict_after_fault(scene, node, node_value,
                                            recovery=mapping.recovery)
        v_hat = max(estimate["v"], 0.0)
        gap_hat = max(estimate["gap"], 0.0)
        if gap_hat >= 0.98 * SENSOR_RANGE:
            gap_hat, lead_speed = SENSOR_RANGE, None
        else:
            lead_speed = max(v_hat - estimate["closing"], 0.0)
        stop = stopping_displacement(v_hat, 0.0, scene.values["steering"],
                                     self.safety_config)
        delta_long = (longitudinal_envelope(gap_hat, lead_speed,
                                            self.safety_config)
                      - stop.longitudinal)

        # Lateral hazards are physical (side collision or road
        # departure): score the corruption-and-recovery excursion against
        # the clearance on the drift side.  For steering-type faults the
        # excursion is the whole effect; for belief faults the excursion
        # of the (authority-clipped) inferred response plus the predicted
        # physical drift.
        phi_fault = estimate["steering"]
        excursion = steering_excursion(
            v=scene.values["v"], phi_fault=phi_fault,
            window=2.0 * self.slice_dt, config=self.safety_config)
        drift = (0.0 if node == "steering"
                 else estimate["lat"] - scene.values["lat"])
        direction = phi_fault if abs(phi_fault) > 1e-3 else drift
        if direction >= 0.0:
            clearance = scene.values["lat_free_up"]
        else:
            clearance = scene.values["lat_free_down"]
        delta_lat = clearance - excursion - abs(drift)
        return SafetyPotential(longitudinal=delta_long, lateral=delta_lat)

    # -- batched inference ----------------------------------------------------
    #
    # For a linear-Gaussian network the posterior mean is affine in the
    # evidence vector, and the evidence *set* of the counterfactual is
    # fixed per mutilated graph (all slice-0 nodes plus the intervened
    # node at slices 1 and 2).  Precomputing that affine map turns the
    # per-candidate O(n^3) conditioning of the scalar path into one
    # matmul over all (scene, value) candidates of a node; the kinematic
    # rollout and safety re-evaluation vectorize the same way.  The
    # scalar methods above remain the reference oracle — the batched
    # path must reproduce them to within float round-off.

    def _affine_for(self, node: str) -> tuple[list[str], np.ndarray,
                                              np.ndarray]:
        """Cached actuation-posterior map of the graph mutilated at ``node``.

        Returns ``(query, gain, offset)`` with the queried actuation
        means given by ``evidence @ gain.T + offset``, evidence columns
        ordered as all slice-0 BN variables then ``node@1``, ``node@2``.
        """
        cached = self._affines.get(node)
        if cached is None:
            engine = self._engine_for(node)
            evidence_vars = [slice_node(name, 0) for name in BN_VARIABLES]
            evidence_vars += [slice_node(node, 1), slice_node(node, 2)]
            query = [slice_node(name, t) for t in (1, 2)
                     for name in self._ACTUATION if name != node]
            gain, offset = engine.affine_map(query, evidence_vars)
            cached = (query, gain, offset)
            self._affines[node] = cached
        return cached

    def _stacked_affine(self, nodes: tuple[str, ...]) -> tuple:
        """Fused affine maps: every node's scene-gain block in one matrix.

        The evidence of each node's affine map splits into the shared
        slice-0 scene vector and the node's own intervention value (fed
        to both ``node@1`` and ``node@2``); stacking the scene-gain
        blocks of all nodes lets a single ``scene_matrix @ stack.T``
        matmul compute every node's scene-dependent posterior term at
        once (the ROADMAP "batch multiple nodes' matmuls" item).
        Returns ``(stacked_gain, per_node)`` where ``per_node`` maps node
        -> (query order, column slice into the stack, value gain,
        offset).
        """
        key = tuple(nodes)
        cached = self._stacked.get(key)
        if cached is None:
            blocks = []
            per_node: dict[str, tuple] = {}
            start = 0
            for node in key:
                query, gain, offset = self._affine_for(node)
                scene_gain = gain[:, :len(BN_VARIABLES)]
                value_gain = gain[:, -2] + gain[:, -1]
                blocks.append(scene_gain)
                per_node[node] = (query,
                                  slice(start, start + len(query)),
                                  value_gain, offset)
                start += len(query)
            cached = (np.vstack(blocks), per_node)
            self._stacked[key] = cached
        return cached

    def _step_batch(self, cpd, columns: Mapping[str, np.ndarray]
                    ) -> np.ndarray:
        """Vectorized :meth:`_step`: a slice-1 CPD mean over column arrays."""
        total = np.full(len(columns["v"]), cpd.intercept)
        for parent, weight in zip(cpd.parents, cpd.weights):
            base = parent.rsplit(SLICE_SEPARATOR, 1)[0]
            total = total + weight * columns[base]
        return total

    def _batch_stop_longitudinal(self, v_hat: np.ndarray,
                                 phi: np.ndarray) -> np.ndarray:
        """Vectorized emergency-stop displacement at heading 0.

        Quantizes exactly like :func:`stopping_displacement` and looks
        the unique (v, phi) pairs up in the same stop table in one bulk
        call, so every element matches the scalar call bit for bit.
        """
        v_q = np.round(np.maximum(v_hat, 0.0) / 0.05) * 0.05
        phi_q = np.round(phi / 5e-4) * 5e-4
        pairs = np.column_stack([v_q, phi_q])
        unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
        stops = _canonical_stop.lookup(
            [(v, p) for v, p in unique.tolist()],
            _stop_params(self.safety_config))
        return np.array([stop[0] for stop in stops])[np.ravel(inverse)]

    def _batch_excursion(self, v: np.ndarray,
                         phi_fault: np.ndarray) -> np.ndarray:
        """Vectorized :func:`steering_excursion` over the candidate batch."""
        config = self.safety_config
        window = 2.0 * self.slice_dt
        window_q = round(window / 0.05) * 0.05
        v_q = np.round(np.maximum(v, 0.0) / 0.1) * 0.1
        phi_q = np.round(phi_fault / 1e-3) * 1e-3
        pairs = np.column_stack([v_q, phi_q])
        unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
        peaks = np.array([
            _excursion_rollout(float(v_i), float(p_i), window_q, 0.6, 0.08,
                               config.wheelbase, 0.01, 5.0)
            for v_i, p_i in unique])
        return peaks[np.ravel(inverse)]

    def _score_candidates(self, cols: Mapping[str, np.ndarray],
                          node: str, node_values: np.ndarray,
                          recovery: float,
                          posterior: tuple[list[str], np.ndarray] | None
                          = None) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`predicted_potential` over aligned candidate arrays.

        ``cols`` holds the scene columns (one row per candidate) and
        ``node_values`` the already-transformed BN intervention values.
        ``posterior`` optionally supplies the actuation-posterior means
        as ``(query order, estimate matrix)`` — the fused miner computes
        those for every node with one stacked matmul; when absent the
        per-node affine map is applied here.  Returns ``(delta_long,
        delta_lat)`` arrays.
        """
        n = len(node_values)
        if posterior is None:
            query, gain, offset = self._affine_for(node)
            evidence = np.empty((n, len(BN_VARIABLES) + 2))
            for j, name in enumerate(BN_VARIABLES):
                evidence[:, j] = cols[name]
            evidence[:, -2] = node_values
            evidence[:, -1] = node_values
            estimate = evidence @ gain.T + offset
        else:
            query, estimate = posterior
        column_of = {name: i for i, name in enumerate(query)}

        actuation: dict[int, dict[str, np.ndarray]] = {1: {}, 2: {}}
        for t in (1, 2):
            for name in self._ACTUATION:
                low, high = self._ACTUATION_BOUNDS[name]
                if name == node:
                    raw = node_values
                else:
                    raw = estimate[:, column_of[slice_node(name, t)]]
                    if name == "steering":
                        low = -self._STEERING_AUTHORITY
                        high = self._STEERING_AUTHORITY
                actuation[t][name] = np.clip(raw, low, high)

        # Kinematic rollout (the vectorized twin of predict_after_fault).
        v_dynamics = self._dynamics("v")
        lat_dynamics = self._dynamics("lat")
        state0 = {name: cols[name] for name in BN_VARIABLES}
        v_path = [state0["v"],
                  np.maximum(self._step_batch(v_dynamics, state0), 0.0)]
        state1 = dict(state0)
        state1.update(actuation[1])
        state1["v"] = v_path[1]
        state1["lat"] = self._step_batch(lat_dynamics, state0)
        v_path.append(np.maximum(self._step_batch(v_dynamics, state1), 0.0))
        lat2 = self._step_batch(lat_dynamics, state1)

        extra_steps = max(int(round(recovery / self.slice_dt)), 0)
        for step in range(extra_steps):
            blend = (step + 1) / (extra_steps + 1)
            state = dict(state1)
            for name in self._ACTUATION:
                state[name] = ((1.0 - blend) * actuation[2][name]
                               + blend * cols[name])
            state["v"] = v_path[-1]
            v_path.append(np.maximum(self._step_batch(v_dynamics, state),
                                     0.0))

        gt_gap = cols["gt_gap"]
        lead_v = cols["gt_lead_v"]
        clear = (gt_gap >= 0.98 * SENSOR_RANGE) | (lead_v < 0.0)
        gap = gt_gap
        gap_path = [gap]
        for i in range(1, len(v_path)):
            closing_step = ((v_path[i - 1] - lead_v)
                            + (v_path[i] - lead_v)) / 2.0
            gap = gap - closing_step * self.slice_dt
            gap_path.append(gap)
        denom = 2.0 * self.safety_config.a_max
        keys = np.stack([gap_path[i] + lead_v ** 2 / denom
                         - v_path[i] ** 2 / denom
                         for i in range(len(v_path))])
        worst = np.argmin(keys, axis=0)
        rows = np.arange(n)
        v_worst = np.stack(v_path)[worst, rows]
        gap_worst = np.stack(gap_path)[worst, rows]
        v_sel = np.where(clear, v_path[2], v_worst)
        gap_sel = np.where(clear, SENSOR_RANGE, gap_worst)
        closing_sel = np.where(clear, 0.0, v_worst - lead_v)

        # Longitudinal potential (vectorized predicted_potential).
        v_hat = np.maximum(v_sel, 0.0)
        gap_hat = np.maximum(gap_sel, 0.0)
        far = gap_hat >= 0.98 * SENSOR_RANGE
        lead_speed = np.maximum(v_hat - closing_sel, 0.0)
        envelope = np.where(far, SENSOR_RANGE,
                            gap_hat + np.maximum(lead_speed, 0.0) ** 2
                            / denom)
        stop_long = self._batch_stop_longitudinal(v_hat, cols["steering"])
        delta_long = envelope - stop_long

        # Lateral potential.
        phi_fault = actuation[2]["steering"]
        excursion = self._batch_excursion(cols["v"], phi_fault)
        if node == "steering":
            drift = np.zeros(n)
        else:
            drift = lat2 - cols["lat"]
        direction = np.where(np.abs(phi_fault) > 1e-3, phi_fault, drift)
        clearance = np.where(direction >= 0.0, cols["lat_free_up"],
                             cols["lat_free_down"])
        delta_lat = clearance - excursion - np.abs(drift)
        return delta_long, delta_lat

    def mine_critical_faults_batched(
            self, scenes: Iterable[SceneRow],
            variables: tuple[str, ...] = MINED_VARIABLES,
            threshold: float = 0.0, top_k: int | None = None,
            fuse_nodes: bool = True
            ) -> tuple[list[CandidateFault], MiningReport]:
        """Vectorized :meth:`mine_critical_faults` (the production path).

        Scores all scenes x corruption values of each BN node with one
        affine matmul plus a vectorized kinematic rollout, instead of one
        full Gaussian conditioning per candidate.  ``scenes`` may be any
        iterable (e.g. the lazy :meth:`Campaign.scene_rows` stream); it
        is consumed in one pass straight into the columnar batch.  With
        ``fuse_nodes`` (the default) the per-node matmuls collapse
        further into a single stacked matmul over every node's
        scene-gain block (see :meth:`_stacked_affine`); ``False`` keeps
        one matmul per node.  Both reproduce the scalar oracle's
        ``F_crit`` and predicted potentials to float round-off (see the
        equivalence suite), candidate order included.
        """
        report = MiningReport()
        start = time.perf_counter()
        critical, report.n_scored, report.n_scenes = self._mine_batched(
            scenes, variables, threshold, fuse_nodes)
        critical.sort(key=lambda c: c.predicted_minimum)
        if top_k is not None:
            critical = critical[:top_k]
        report.n_critical = len(critical)
        report.wall_seconds = time.perf_counter() - start
        return critical, report

    def _mine_batched(self, scenes: Iterable[SceneRow],
                      variables: tuple[str, ...], threshold: float,
                      fuse_nodes: bool
                      ) -> tuple[list[CandidateFault], int, int]:
        """Unsorted batched ``F_crit``, the scored count, the scene count.

        Candidates append scene-major, (variable, value)-minor — the
        scalar loop's iteration order — so callers that concatenate
        per-scenario results in scenario order and stable-sort by
        ``predicted_minimum`` reproduce the global miner's output.
        The scene stream is consumed exactly once: safe scenes flow
        straight into the columnar batch, unsafe ones are counted and
        dropped.
        """
        critical: list[CandidateFault] = []
        n_scored = 0
        n_scenes = 0

        def safe_stream() -> Iterator[SceneRow]:
            nonlocal n_scenes
            for scene in scenes:
                n_scenes += 1
                if scene.observed_safe:
                    yield scene

        batch = _SceneBatch(safe_stream())
        if batch.n:
            per_node = None
            scene_base = None
            if fuse_nodes:
                nodes = tuple(dict.fromkeys(
                    NODE_MAPPING[v].node for v in variables))
                stacked_gain, per_node = self._stacked_affine(nodes)
                scene_matrix = np.column_stack(
                    [batch.cols[name] for name in BN_VARIABLES])
                # One matmul covers the scene-dependent posterior term of
                # every mined node; per-variable scoring below only adds
                # the rank-1 intervention-value term.
                scene_base = scene_matrix @ stacked_gain.T
            combos: list[tuple[str, float, np.ndarray, np.ndarray]] = []
            for variable in variables:
                mapping = NODE_MAPPING[variable]
                transform = _BATCH_TRANSFORMS[mapping.transform]
                values = [float(v) for v in
                          variable_by_name(variable).corruption_values()]
                node_values = np.concatenate([
                    transform(batch.cols,
                              np.full(batch.n, value, dtype=float))
                    for value in values])
                posterior = None
                if per_node is not None:
                    query, columns, value_gain, offset = \
                        per_node[mapping.node]
                    estimate = (np.tile(scene_base[:, columns],
                                        (len(values), 1))
                                + node_values[:, None] * value_gain
                                + offset)
                    posterior = (query, estimate)
                delta_long, delta_lat = self._score_candidates(
                    batch.tiled(len(values)), mapping.node, node_values,
                    mapping.recovery, posterior=posterior)
                for k, value in enumerate(values):
                    block = slice(k * batch.n, (k + 1) * batch.n)
                    combos.append((variable, value, delta_long[block],
                                   delta_lat[block]))
                    n_scored += batch.n
            minima = np.stack([np.minimum(d_long, d_lat)
                               for _, _, d_long, d_lat in combos])
            # nonzero on the transpose walks scene-major, combo-minor —
            # the scalar loop's iteration order, so sort ties resolve
            # identically.
            scene_hits, combo_hits = np.nonzero(minima.T <= threshold)
            for s_i, c_i in zip(scene_hits.tolist(), combo_hits.tolist()):
                variable, value, d_long, d_lat = combos[c_i]
                scenario, injection_tick, obs_long, obs_lat = \
                    batch.identities[s_i]
                critical.append(CandidateFault(
                    scenario=scenario,
                    injection_tick=injection_tick,
                    variable=variable,
                    value=value,
                    predicted_delta_long=float(d_long[s_i]),
                    predicted_delta_lat=float(d_lat[s_i]),
                    observed_delta_long=obs_long,
                    observed_delta_lat=obs_lat))
        return critical, n_scored, n_scenes

    # -- mining ---------------------------------------------------------------

    def mine_critical_faults(self, scenes: Iterable[SceneRow],
                             variables: tuple[str, ...] = MINED_VARIABLES,
                             threshold: float = 0.0,
                             top_k: int | None = None
                             ) -> tuple[list[CandidateFault], MiningReport]:
        """Score every (scene, variable, min/max value); return ``F_crit``.

        A candidate is critical when the scene was safe
        (``delta > 0``) and the predicted potential after ``do(f)`` is at
        or below ``threshold``.  ``scenes`` may be any iterable; it is
        consumed once, one row at a time.  Results are sorted
        most-critical first.
        """
        report = MiningReport()
        start = time.perf_counter()
        critical, report.n_scored, report.n_scenes = self._mine_scalar(
            scenes, variables, threshold)
        critical.sort(key=lambda c: c.predicted_minimum)
        if top_k is not None:
            critical = critical[:top_k]
        report.n_critical = len(critical)
        report.wall_seconds = time.perf_counter() - start
        return critical, report

    def _mine_scalar(self, scenes: Iterable[SceneRow],
                     variables: tuple[str, ...], threshold: float
                     ) -> tuple[list[CandidateFault], int, int]:
        """Unsorted scalar-oracle ``F_crit``, scored count, scene count."""
        critical: list[CandidateFault] = []
        n_scored = 0
        n_scenes = 0
        for scene in scenes:
            n_scenes += 1
            if not scene.observed_safe:
                continue
            for variable in variables:
                for value in variable_by_name(variable).corruption_values():
                    n_scored += 1
                    potential = self.predicted_potential(scene, variable,
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

    def mine_scenario_candidates(
            self, scenes: Iterable[SceneRow],
            variables: tuple[str, ...] = MINED_VARIABLES,
            threshold: float = 0.0, use_batched: bool = True,
            fuse_nodes: bool = True
            ) -> tuple[list[CandidateFault], int, int]:
        """Per-scenario mining entry point for the streaming pipeline.

        Mines one scenario's scene-row *stream* in isolation — no global
        golden dict required, no per-scenario row list materialized —
        returning the *unsorted* (scene-major append order) critical
        candidates plus the number of (scene, variable, value)
        combinations scored and the number of scenes consumed.
        Concatenating per-scenario results in campaign scenario order
        and stable-sorting the union by ``predicted_minimum`` reproduces
        the global miner's candidate list, which is the equivalence the
        pipeline driver relies on.
        """
        if use_batched:
            return self._mine_batched(scenes, variables, threshold,
                                      fuse_nodes)
        return self._mine_scalar(scenes, variables, threshold)
