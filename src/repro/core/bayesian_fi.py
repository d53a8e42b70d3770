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
from functools import partial
from typing import Callable

import numpy as np

from ..bayesnet.dynamic import (SLICE_SEPARATOR, DynamicBayesianNetwork,
                                slice_node)
from ..bayesnet.gaussian import GaussianInference
from ..bayesnet.network import LinearGaussianBayesianNetwork
from ..sim.collision import SENSOR_RANGE
from ..sim.trace import Trace
from ..ads.variables import variable_by_name
from .safety import (SafetyConfig, _canonical_excursion, _canonical_stop,
                     _excursion_params, _stop_params)
from .simulate import FaultSpec, RunResult

#: Nodes of the per-slice BN: kinematic state + actuation commands.
BN_VARIABLES = ("v", "gap", "closing", "lat", "throttle", "brake",
                "steering")

#: Kinematic nodes whose slice-2 MLE feeds the safety re-evaluation.
KINEMATIC_NODES = ("v", "gap", "closing", "lat")

#: ``(scene column arrays, corruption values) -> BN intervention values``,
#: element for element over a batch of scenes.
_Transform = Callable[[Mapping[str, np.ndarray], np.ndarray], np.ndarray]


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

def _unchanged(cols: Mapping[str, np.ndarray],
               values: np.ndarray) -> np.ndarray:
    return values


def _detection_gap(cols: Mapping[str, np.ndarray],
                   values: np.ndarray) -> np.ndarray:
    # detection_x is a world coordinate; the BN node is a bumper gap.
    return np.maximum(values - cols["x"] - 4.8, 0.01)


def _lead_closing(cols: Mapping[str, np.ndarray],
                  values: np.ndarray) -> np.ndarray:
    return cols["v"] - values


#: Pedal positions can move at most this far within the corruption
#: window (controller slew rate 2.5/s x 0.2 s).
_PEDAL_SLEW_WINDOW = 0.5


def _slewed(pedal: str, cols: Mapping[str, np.ndarray],
            values: np.ndarray) -> np.ndarray:
    # A planner-stage (U_A) pedal corruption reaches the vehicle through
    # the PID/slew stage, so its effective magnitude is rate-limited.
    current = cols[pedal]
    return current + np.clip(values - current, -_PEDAL_SLEW_WINDOW,
                             _PEDAL_SLEW_WINDOW)


@dataclass(frozen=True)
class MinedVariable:
    """How one injectable ADS variable maps into the 3-TBN.

    ``transform`` turns corruption values into the BN node's
    intervention values over a batch of scenes.  ``recovery`` is the
    stack's latency to unwind the corruption once the window closes:
    actuation-stage (A_t) corruptions are overwritten by the controller
    on the next frame; planner-stage (U_A) corruptions persist through
    the pedal slew; belief-stage (W_t / I_t / M_t) corruptions persist
    until the filters re-converge.
    """

    node: str
    transform: _Transform = _unchanged
    recovery: float = 0.25


#: ADS variable -> BN intervention description.
NODE_MAPPING: dict[str, MinedVariable] = {
    "throttle": MinedVariable("throttle", recovery=0.2),
    "raw_throttle": MinedVariable("throttle", partial(_slewed, "throttle"),
                                  recovery=0.4),
    "brake": MinedVariable("brake", recovery=0.2),
    "raw_brake": MinedVariable("brake", partial(_slewed, "brake"),
                               recovery=0.4),
    "steering": MinedVariable("steering", recovery=0.1),
    "raw_steering": MinedVariable("steering", recovery=0.4),
    "tracked_gap": MinedVariable("gap", recovery=0.25),
    "detection_x": MinedVariable("gap", _detection_gap, recovery=0.25),
    "tracked_speed": MinedVariable("closing", _lead_closing,
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


def check_counts(top_k: int | None = None,
                 max_experiments: int | None = None,
                 tick_stride: int = 1) -> None:
    """Refuse a negative cap or a non-positive tick stride.

    Slicing would accept them and silently change what is selected (a
    cap of -1 drops the last job or mined candidate; a negative stride
    walks ticks backwards).  The campaign plans, the service and the
    miner all check their counts here.
    """
    for name, value in (("top_k", top_k),
                        ("max_experiments", max_experiments)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if tick_stride < 1:
        raise ValueError(f"tick_stride must be >= 1, got {tick_stride}")


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


def _quantized_keys(v: np.ndarray, phi: np.ndarray, v_step: float,
                    phi_step: float) -> tuple[list, np.ndarray]:
    """A batch's distinct quantized ``(v, phi)`` table keys and, per
    element, the index of its key.

    Quantizes like the scalar lookups (``round(max(v, 0) / v_step) *
    v_step``, and ``phi`` likewise), but deduplicates the integer codes
    packed into one int64 instead of sorting float pairs.  Each key is
    rebuilt from its codes, so the keys are the scalar path's floats
    (``+0.0`` for a zero code) in lexicographic ``(v, phi)`` order.
    """
    iv = np.round(np.maximum(v, 0.0) / v_step).astype(np.int64)
    iphi = np.round(phi / phi_step).astype(np.int64)
    low = iphi.min(initial=0)
    width = iphi.max(initial=0) - low + 1
    _, first, inverse = np.unique(iv * width + (iphi - low),
                                  return_index=True, return_inverse=True)
    keys = list(zip((iv[first] * v_step).tolist(),
                    (iphi[first] * phi_step).tolist()))
    return keys, inverse


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
    #
    # For a linear-Gaussian network the posterior mean is affine in the
    # evidence vector, and the evidence *set* of the counterfactual is
    # fixed per mutilated graph (all slice-0 nodes plus the intervened
    # node at slices 1 and 2).  Precomputing that affine map turns one
    # O(n^3) Gaussian conditioning per candidate into one matmul over all
    # (scene, value) candidates of a node; the kinematic rollout and
    # safety re-evaluation vectorize the same way.  The per-candidate
    # form is the scalar oracle in ``tests/reference.py``; the miner must
    # reproduce it to within float round-off.

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

    def _dynamics(self, target: str) -> "LinearGaussianCPD":
        """The learned physical one-step dynamics CPD of ``target``."""
        return self.model.cpds[slice_node(target, 1)]

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
        """A slice-1 CPD's mean over slice-0 parent column arrays."""
        total = np.full(len(columns["v"]), cpd.intercept)
        for parent, weight in zip(cpd.parents, cpd.weights):
            base = parent.rsplit(SLICE_SEPARATOR, 1)[0]
            total = total + weight * columns[base]
        return total

    def _batch_stop_longitudinal(self, v_hat: np.ndarray,
                                 phi: np.ndarray) -> np.ndarray:
        """Vectorized emergency-stop displacement at heading 0.

        Quantizes exactly like :func:`stopping_displacement` and looks
        the distinct (v, phi) keys up in the same stop table in one bulk
        call, so every element matches the scalar call bit for bit.
        """
        keys, inverse = _quantized_keys(v_hat, phi, 0.05, 5e-4)
        stops = _canonical_stop.lookup(keys, _stop_params(self.safety_config))
        return np.array([stop[0] for stop in stops])[inverse]

    def _batch_excursion(self, v: np.ndarray,
                         phi_fault: np.ndarray) -> np.ndarray:
        """Vectorized :func:`steering_excursion` over the candidate batch.

        Quantizes exactly like the scalar call and looks the distinct
        (v, phi) keys up in the same excursion table in one bulk call.
        """
        keys, inverse = _quantized_keys(v, phi_fault, 0.1, 1e-3)
        peaks = _canonical_excursion.lookup(
            keys, _excursion_params(2.0 * self.slice_dt, self.safety_config))
        return np.array(peaks)[inverse]

    def _score_candidates(self, cols: Mapping[str, np.ndarray],
                          node: str, node_values: np.ndarray,
                          recovery: float,
                          posterior: tuple[list[str], np.ndarray]
                          ) -> tuple[np.ndarray, ...]:
        """``delta_hat_do(f)``, the safety potential after the
        counterfactual, over aligned candidate arrays, short of the stop
        and excursion lookups.

        Longitudinal: BN-inferred actuation + kinematic propagation (the
        paper's Eq. 2 -> Eq. 7 pipeline).  The rollout carries ``v``
        through the corruption window *and* the controller's recovery
        latency, while the gap to the real lead evolves by the sensed
        ground truth; the rollout instant with the worst margin is
        scored.  Lateral: hazards are physical (off-road or side
        collision), so the predicted excursion of the
        corruption-and-recovery episode is scored against the scene's
        lateral clearance.

        ``cols`` holds the scene columns (one row per candidate) and
        ``node_values`` the already-transformed BN intervention values.
        ``posterior`` supplies the actuation-posterior means as
        ``(query order, estimate matrix)`` — the miner computes those for
        every node with one stacked matmul.  Returns the unsummed parts
        ``(envelope, v_hat, phi, clearance, v, phi_fault, drift)``:
        ``delta_long = envelope - stop(v_hat, phi)`` and ``delta_lat =
        clearance - excursion(v, phi_fault) - |drift|``, so the miner
        resolves a whole scenario's stops and excursions in one table
        lookup each (see :meth:`_resolve_potentials`).
        """
        n = len(node_values)
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

        # Kinematic rollout.  Slice 1 physics follows the *observed*
        # slice-0 actuation (the fault fires at slice 1, whose commands
        # act between 1 and 2).
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

        # Recovery phase: the stack unwinds the corruption over the
        # variable's recovery latency, so the rollout decays the faulted
        # commands linearly back to the scene's golden commands.
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

        # Environment: sensed ground truth, lead at constant speed.
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

        # Longitudinal potential.
        v_hat = np.maximum(v_sel, 0.0)
        gap_hat = np.maximum(gap_sel, 0.0)
        far = gap_hat >= 0.98 * SENSOR_RANGE
        lead_speed = np.maximum(v_hat - closing_sel, 0.0)
        envelope = np.where(far, SENSOR_RANGE,
                            gap_hat + np.maximum(lead_speed, 0.0) ** 2
                            / denom)

        # Lateral potential: the excursion against the clearance on the
        # drift side.  For steering-type faults the excursion is the
        # whole effect; for belief faults the excursion of the
        # (authority-clipped) inferred response plus the predicted
        # physical drift.
        phi_fault = actuation[2]["steering"]
        if node == "steering":
            drift = np.zeros(n)
        else:
            drift = lat2 - cols["lat"]
        direction = np.where(np.abs(phi_fault) > 1e-3, phi_fault, drift)
        clearance = np.where(direction >= 0.0, cols["lat_free_up"],
                             cols["lat_free_down"])
        return (envelope, v_hat, cols["steering"], clearance, cols["v"],
                phi_fault, drift)

    def _resolve_potentials(self, parts: list[tuple[np.ndarray, ...]]
                            ) -> tuple[np.ndarray, np.ndarray]:
        """``(delta_long, delta_lat)`` of :meth:`_score_candidates`
        parts, concatenated in order, with one stop-table and one
        excursion-table lookup for all of them."""
        envelope, v_hat, phi, clearance, v, phi_fault, drift = (
            np.concatenate(column) for column in zip(*parts))
        delta_long = envelope - self._batch_stop_longitudinal(v_hat, phi)
        delta_lat = (clearance - self._batch_excursion(v, phi_fault)
                     - np.abs(drift))
        return delta_long, delta_lat

    # -- mining ---------------------------------------------------------------

    def mine_critical_faults(self, scenes: Iterable[SceneRow],
                             variables: tuple[str, ...] = MINED_VARIABLES,
                             threshold: float = 0.0,
                             top_k: int | None = None
                             ) -> tuple[list[CandidateFault], MiningReport]:
        """Score every (scene, variable, min/max value); return ``F_crit``.

        A candidate is critical when the scene was safe (``delta > 0``)
        and the predicted potential after ``do(f)`` is at or below
        ``threshold``.  ``scenes`` may be any iterable (e.g. the lazy
        :meth:`Campaign.scene_rows` stream); it is consumed in one pass.
        Results are sorted most-critical first, ties in scene-major,
        (variable, value)-minor order, and cut to the first ``top_k``
        (which must be ``>= 0``).
        """
        check_counts(top_k=top_k)
        report = MiningReport()
        start = time.perf_counter()
        critical, report.n_scored, report.n_scenes = \
            self.mine_scenario_candidates(scenes, variables, threshold)
        critical.sort(key=lambda c: c.predicted_minimum)
        if top_k is not None:
            critical = critical[:top_k]
        report.n_critical = len(critical)
        report.wall_seconds = time.perf_counter() - start
        return critical, report

    def mine_scenario_candidates(
            self, scenes: Iterable[SceneRow],
            variables: tuple[str, ...] = MINED_VARIABLES,
            threshold: float = 0.0
            ) -> tuple[list[CandidateFault], int, int]:
        """Unsorted ``F_crit``, the scored count and the scene count.

        The streaming pipeline mines each scenario's scene-row *stream*
        through this entry point in isolation — no global golden dict
        required, no per-scenario row list materialized.  Candidates
        append scene-major, (variable, value)-minor, so concatenating
        per-scenario results in campaign scenario order and
        stable-sorting the union by ``predicted_minimum`` reproduces
        :meth:`mine_critical_faults`, which is the equivalence the
        pipeline driver relies on.  The scene stream is consumed exactly
        once: safe scenes flow straight into the columnar batch, unsafe
        ones are counted and dropped.

        Scores all scenes x corruption values of every mined BN node
        with one stacked matmul over every node's scene-gain block (see
        :meth:`_stacked_affine`) plus a vectorized kinematic rollout.
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
            nodes = tuple(dict.fromkeys(
                NODE_MAPPING[v].node for v in variables))
            stacked_gain, per_node = self._stacked_affine(nodes)
            scene_matrix = np.column_stack(
                [batch.cols[name] for name in BN_VARIABLES])
            # One matmul covers the scene-dependent posterior term of
            # every mined node; per-variable scoring below only adds the
            # rank-1 intervention-value term.
            scene_base = scene_matrix @ stacked_gain.T
            combos: list[tuple[str, float]] = []
            parts = []
            for variable in variables:
                mapping = NODE_MAPPING[variable]
                values = [float(v) for v in
                          variable_by_name(variable).corruption_values()]
                node_values = np.concatenate([
                    mapping.transform(batch.cols,
                                      np.full(batch.n, value, dtype=float))
                    for value in values])
                query, columns, value_gain, offset = per_node[mapping.node]
                estimate = (np.tile(scene_base[:, columns],
                                    (len(values), 1))
                            + node_values[:, None] * value_gain + offset)
                parts.append(self._score_candidates(
                    batch.tiled(len(values)), mapping.node, node_values,
                    mapping.recovery, posterior=(query, estimate)))
                combos.extend((variable, value) for value in values)
            n_scored += len(combos) * batch.n
            # Rows run combo-major, one block of batch.n scenes per
            # (variable, value).
            delta_long, delta_lat = (
                delta.reshape(len(combos), batch.n)
                for delta in self._resolve_potentials(parts))
            minima = np.minimum(delta_long, delta_lat)
            # nonzero on the transpose walks scene-major, combo-minor, so
            # sort ties resolve in that order.
            scene_hits, combo_hits = np.nonzero(minima.T <= threshold)
            for s_i, c_i in zip(scene_hits.tolist(), combo_hits.tolist()):
                variable, value = combos[c_i]
                scenario, injection_tick, obs_long, obs_lat = \
                    batch.identities[s_i]
                critical.append(CandidateFault(
                    scenario=scenario,
                    injection_tick=injection_tick,
                    variable=variable,
                    value=value,
                    predicted_delta_long=float(delta_long[c_i, s_i]),
                    predicted_delta_lat=float(delta_lat[c_i, s_i]),
                    observed_delta_long=obs_long,
                    observed_delta_lat=obs_lat))
        return critical, n_scored, n_scenes
