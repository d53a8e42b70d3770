"""Outside-in layer tracer for the campaign benchmark.

Wraps public entry points of the program (methods on its classes and
functions as bound in the module that calls them) with spans that
record wall time and call counts.  Spans nest: a layer's *self* time
is its span's duration minus the time of the spans opened inside it,
so the self times of all layers partition the traced time and their
sum over the campaign's duration is the trace's coverage.

Nothing in the program is edited; the tracer swaps attributes for the
duration of one campaign and puts the originals back afterwards.
"""

from __future__ import annotations

import importlib
import time

#: (module, class or None, attribute, layer).  A layer may wrap several
#: entry points; their spans pool into one row.  ``phase.*`` layers
#: enclose the others and are reported by total time as well.  The
#: spill layer covers both halves of the ladder spool round trip.
LAYERS = (
    ("repro.ads.runtime", "ADSPipeline", "tick", "ads.runtime.tick"),
    ("repro.ads.batch", "BatchADSState", "tick_all", "ads.batch.tick_all"),
    ("repro.sim.world", "World", "step", "sim.world.step"),
    ("repro.sim.batch", "BatchWorldState", "step", "sim.world.step"),
    ("repro.sim.world", "World", "in_collision", "sim.collision"),
    ("repro.sim.world", "World", "off_road", "sim.collision"),
    ("repro.core.simulate", None, "world_safety_potential", "core.safety"),
    ("repro.core.simulate", None, "safety_potential", "core.safety"),
    ("repro.sim.world", "World", "snapshot", "core.checkpoint.snapshot"),
    ("repro.ads.runtime", "ADSPipeline", "snapshot",
     "core.checkpoint.snapshot"),
    ("repro.core.checkpoint", "CheckpointStore", "save_scenario",
     "core.checkpoint.spill"),
    ("repro.core.checkpoint", "CheckpointStore", "load_scenario",
     "core.checkpoint.spill"),
    ("repro.sim.world", "World", "restore", "core.checkpoint.restore"),
    ("repro.ads.runtime", "ADSPipeline", "restore",
     "core.checkpoint.restore"),
    ("repro.core.bayesian_fi", "BayesianFaultInjector",
     "mine_scenario_candidates", "core.bayesian_fi.mine"),
    ("repro.core.bayesian_fi", "InjectorTrainer", "add_run",
     "core.bayesian_fi.train"),
    ("repro.core.bayesian_fi", "InjectorTrainer", "finish",
     "core.bayesian_fi.train"),
    ("repro.core.parallel", None, "run_scenario", "phase.golden"),
    ("repro.core.pipeline", None, "execute_experiment", "phase.validate"),
    ("repro.core.pipeline", None, "execute_experiment_batch",
     "phase.validate"),
)


def layer_names() -> list[str]:
    """Every layer, once, in table order."""
    return list(dict.fromkeys(layer for *_, layer in LAYERS))


class LayerTracer:
    """Self-time and call-count spans around the entry points in
    :data:`LAYERS`.  Use as a context manager around one campaign."""

    def __init__(self):
        #: layer -> [self seconds, total seconds, calls]
        self.stats = {layer: [0.0, 0.0, 0] for layer in layer_names()}
        self._open: list[float] = []   # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        for module_name, class_name, attr, layer in LAYERS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._span(original, self.stats[layer]))
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _span(self, function, cell):
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed - open_spans.pop()
                cell[1] += elapsed
                cell[2] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def covered_seconds(self) -> float:
        """Time spent inside any traced span (the sum of self times)."""
        return sum(cell[0] for cell in self.stats.values())
