"""E7 — fidelity of the 3-TBN's next-state prediction.

The paper's engine is useful exactly because the MLE of the next
kinematic state under the learned model is accurate enough to rank
faults.  Shape targets: one-step-ahead prediction of the ego speed and
gap beats a persistence baseline, and the neutral counterfactual
(do(observed value)) stays close to the observed next state.
"""

import numpy as np
from reference import reference_predict_after_fault

from repro.analysis import ascii_table
from repro.core import scene_rows_from_trace


def test_bench_bn_fidelity(benchmark, campaign, bayesian_result):
    injector = bayesian_result.injector
    golden = campaign.golden_runs()

    # Held-out style evaluation: predict t+1 values from each scene row
    # under the neutral intervention and compare with the recorded trace.
    errors_v, errors_gap = [], []
    persistence_v, persistence_gap = [], []
    sample_scene = None
    for name, run in golden.items():
        arrays = run.trace.as_arrays()
        rows = list(scene_rows_from_trace(name, run.trace))
        for i in range(10, len(rows) - 1, 7):
            scene = rows[i]
            if sample_scene is None:
                sample_scene = scene
            estimate = reference_predict_after_fault(
                injector, scene, "throttle", scene.values["throttle"])
            # Slice 2 corresponds to the trace row i+2.
            truth_v = float(arrays["v"][i + 2])
            truth_gap = float(arrays["gap"][i + 2])
            errors_v.append(abs(estimate["v"] - truth_v))
            errors_gap.append(abs(estimate["gap"] - truth_gap))
            persistence_v.append(abs(scene.values["v"] - truth_v))
            persistence_gap.append(abs(scene.values["gap"] - truth_gap))

    benchmark(lambda: reference_predict_after_fault(
        injector, sample_scene, "throttle", 1.0))

    mae_v = float(np.mean(errors_v))
    mae_gap = float(np.mean(errors_gap))
    base_v = float(np.mean(persistence_v))
    base_gap = float(np.mean(persistence_gap))
    print("\nE7: 3-TBN next-state fidelity (mean absolute error)")
    print(ascii_table(["signal", "3-TBN MLE", "persistence baseline"],
                      [["ego speed (m/s)", mae_v, base_v],
                       ["gap (m)", mae_gap, base_gap]]))
    print(f"samples: {len(errors_v)}; "
          f"Bayesian campaign precision: {bayesian_result.precision:.0%}")

    benchmark.extra_info["mae_v"] = mae_v
    benchmark.extra_info["mae_gap"] = mae_gap

    assert mae_v < 1.0, "speed prediction should be sub-m/s on average"
    assert mae_v <= base_v * 1.1
    assert mae_gap <= base_gap * 1.1
