"""Mining throughput: the batched affine engine vs the scalar oracle.

The miner (``mine_critical_faults``) precomputes one affine
posterior-mean map per mutilated graph and scores all scenes x
corruption values of a node in a single matmul (plus a vectorized
kinematic rollout), stacking every node's scene-gain block so all mined
variables ride one matmul; the scalar oracle in ``tests/reference.py``
runs one full Gaussian conditioning per candidate.  This bench reports
candidates-scored-per-second for both and pins the speedup the paper's
"minutes instead of weeks" claim rides on.

The timed comparison runs on warm stop and excursion tables, so it
isolates per-candidate cost.  A campaign process starts with both
tables empty, so the bench also times one cold batched pass, with both
tables cleared first, and reports it in ``extra_info``.
"""

import time

from reference import reference_mine

from repro.analysis import ascii_table
from repro.core import safety

from conftest import timing_gates


def test_bench_mining_throughput(benchmark, campaign, bayesian_result):
    scenes = list(campaign.scene_rows())
    injector = bayesian_result.injector

    # The cold pass every campaign pays: empty stop and excursion tables.
    safety._canonical_stop.cache_clear()
    safety._canonical_excursion.cache_clear()
    cold_start = time.perf_counter()
    cold_candidates, _ = injector.mine_critical_faults(scenes)
    cold_seconds = time.perf_counter() - cold_start

    # Warm every cache all paths share (affine maps, stacked gain
    # blocks, conditioning plans, RK4 kernels) so the comparison
    # isolates per-candidate cost.
    injector.mine_critical_faults(scenes)
    scalar_candidates, scalar_report = reference_mine(injector, scenes)

    def mine_batched():
        return injector.mine_critical_faults(scenes)

    batched_candidates, batched_report = benchmark(mine_batched)

    # Timed manually (not via benchmark.stats) so the comparison also
    # works under --benchmark-disable smoke runs.
    scalar_start = time.perf_counter()
    reference_mine(injector, scenes)
    scalar_seconds = time.perf_counter() - scalar_start
    batched_start = time.perf_counter()
    injector.mine_critical_faults(scenes)
    batched_seconds = time.perf_counter() - batched_start

    scalar_cps = scalar_report.n_scored / scalar_seconds
    batched_cps = batched_report.n_scored / batched_seconds
    speedup = batched_cps / scalar_cps

    print("\nMining throughput: fused matmul vs scalar")
    print(ascii_table(["metric", "scalar", "fused"], [
        ["candidates scored", scalar_report.n_scored,
         batched_report.n_scored],
        ["wall seconds", f"{scalar_seconds:.3f}", f"{batched_seconds:.3f}"],
        ["cold-table seconds", "", f"{cold_seconds:.3f}"],
        ["candidates / s", f"{scalar_cps:,.0f}", f"{batched_cps:,.0f}"],
        ["speedup", "1x", f"{speedup:,.1f}x"],
    ]))
    benchmark.extra_info["scalar_candidates_per_sec"] = scalar_cps
    benchmark.extra_info["batched_candidates_per_sec"] = batched_cps
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cold_batched_seconds"] = cold_seconds
    benchmark.extra_info["cold_batched_candidates_per_sec"] = (
        batched_report.n_scored / cold_seconds)

    # Both paths must agree on F_crit, cold tables or warm...
    assert cold_candidates == batched_candidates
    assert len(batched_candidates) == len(scalar_candidates)
    for a, b in zip(scalar_candidates, batched_candidates):
        assert (a.scenario, a.injection_tick, a.variable, a.value) == \
            (b.scenario, b.injection_tick, b.variable, b.value)
        assert abs(a.predicted_delta_long - b.predicted_delta_long) <= 1e-9
        assert abs(a.predicted_delta_lat - b.predicted_delta_lat) <= 1e-9
    # ...and batching must pay for itself by a wide margin.  The
    # wall-clock gate is opt-in (timing_gates).
    if timing_gates(benchmark):
        assert speedup >= 10.0, (
            f"batched mining only {speedup:.1f}x faster than the "
            f"scalar oracle")
