"""Ablation variants of the Bayesian fault-selection engine.

Two variants back the design-choice ablations promised in DESIGN.md:

* :class:`ConditioningFaultInjector` — scores faults by *conditioning*
  on the corrupted value instead of the ``do()`` intervention.  Without
  graph surgery, evidence on the corrupted node leaks *backward* into
  its parents ("the throttle is high, so the gap was probably large"),
  which biases the predicted consequences.  Comparing it against the
  real engine quantifies why the paper insists on causal semantics.
* :class:`DiscreteBayesianFaultInjector` — replaces the linear-Gaussian
  CPDs with discretized tabular CPDs and variable-elimination MAP
  queries, trading fidelity for distribution-free modelling.
"""

from __future__ import annotations

import numpy as np

from ..bayesnet.discretize import Discretizer
from ..bayesnet.dynamic import slice_node
from ..bayesnet.gaussian import GaussianInference
from ..bayesnet.inference import VariableElimination
from ..bayesnet.network import DiscreteBayesianNetwork
from .bayesian_fi import (BN_VARIABLES, BayesianFaultInjector, SceneRow,
                          ads_dbn_template)
from .simulate import RunResult


class ConditioningFaultInjector(BayesianFaultInjector):
    """The do-calculus ablation: condition instead of intervene.

    Identical to :class:`BayesianFaultInjector` except that the fault
    value is entered as ordinary evidence on the *unmutilated* network,
    so inference also revises beliefs about the fault's causal parents.
    """

    def _engine_for(self, node: str) -> GaussianInference:
        if node not in self._engines:
            # No graph surgery: the original network serves every query.
            self._engines[node] = GaussianInference(self.model)
        return self._engines[node]


class DiscreteBayesianFaultInjector:
    """Tabular-CPD variant of the fault selector.

    The per-slice variables are quantile-discretized; actuation response
    inference runs variable elimination on the unrolled, mutilated
    network.  It answers the counterfactual actuation step only
    (:meth:`infer_actuation`), the step in which it differs from the
    continuous engine; it has no kinematic rollout and does not mine.
    """

    def __init__(self, network: DiscreteBayesianNetwork,
                 discretizer: Discretizer):
        self.network = network
        self.discretizer = discretizer
        self._engines: dict[str, VariableElimination] = {}

    @classmethod
    def train(cls, golden_runs: list[RunResult], n_bins: int = 7,
              n_slices: int = 3) -> "DiscreteBayesianFaultInjector":
        """Fit the tabular model on quantile-binned golden traces."""
        template = ads_dbn_template()
        columns: dict[str, list[np.ndarray]] = {v: [] for v in BN_VARIABLES}
        traces = []
        for run in golden_runs:
            arrays = run.trace.as_arrays()
            traces.append({v: arrays[v] for v in BN_VARIABLES})
            for v in BN_VARIABLES:
                columns[v].append(arrays[v])
        pooled = {v: np.concatenate(chunks)
                  for v, chunks in columns.items()}
        discretizer = Discretizer.from_data(pooled, n_bins)
        binned_traces = [discretizer.transform(trace) for trace in traces]
        cardinalities = discretizer.cardinalities()
        network = template.fit_discrete(binned_traces, cardinalities,
                                        n_slices=n_slices)
        return cls(network, discretizer)

    def _engine_for(self, node: str) -> VariableElimination:
        if node not in self._engines:
            from ..bayesnet.cpd import TabularCPD
            mutilated = self.network.copy()
            for t in (1, 2):
                name = slice_node(node, t)
                mutilated.dag.remove_incoming_edges(name)
                mutilated.cpds[name] = TabularCPD.uniform(
                    name, self.network.cardinality(name))
            self._engines[node] = VariableElimination(mutilated)
        return self._engines[node]

    def infer_actuation(self, scene: SceneRow, node: str,
                        node_value: float) -> dict[str, float]:
        """MAP actuation at slice 1 under ``do(node@1,2 = value)``.

        Values are decoded from bin indices to bin midpoints.
        """
        engine = self._engine_for(node)
        evidence = {}
        for name in BN_VARIABLES:
            evidence[slice_node(name, 0)] = self.discretizer.transform_value(
                name, scene.values[name])
        fault_bin = self.discretizer.transform_value(node, node_value)
        evidence[slice_node(node, 1)] = fault_bin
        evidence[slice_node(node, 2)] = fault_bin
        query = [slice_node(name, 1)
                 for name in ("throttle", "brake", "steering")
                 if name != node]
        assignment = engine.map_query(query, evidence) if query else {}
        result = {}
        for name in ("throttle", "brake", "steering"):
            if name == node:
                result[name] = node_value
            else:
                bin_index = assignment[slice_node(name, 1)]
                result[name] = self.discretizer.midpoint(name, bin_index)
        return result
