"""Mining throughput: the batched affine engine vs the scalar oracle.

The batched engine precomputes one affine posterior-mean map per
mutilated graph and scores all scenes x corruption values of a node in
a single matmul (plus a vectorized kinematic rollout); the scalar path
runs one full Gaussian conditioning per candidate.  The fused production
path goes one step further and stacks every node's scene-gain block so
all mined variables ride a single matmul.  This bench reports
candidates-scored-per-second for all three and pins the speedup the
paper's "minutes instead of weeks" claim rides on.
"""

import time

from repro.analysis import ascii_table

from conftest import timing_gates


def test_bench_mining_throughput(benchmark, campaign, bayesian_result):
    scenes = list(campaign.scene_rows())
    injector = bayesian_result.injector

    # Warm every cache all paths share (affine maps, stacked gain
    # blocks, conditioning plans, RK4 kernels) so the comparison
    # isolates per-candidate cost.
    injector.mine_critical_faults_batched(scenes)
    injector.mine_critical_faults_batched(scenes, fuse_nodes=False)
    scalar_candidates, scalar_report = injector.mine_critical_faults(scenes)

    def mine_batched():
        return injector.mine_critical_faults_batched(scenes)

    batched_candidates, batched_report = benchmark(mine_batched)

    # Timed manually (not via benchmark.stats) so the comparison also
    # works under --benchmark-disable smoke runs.
    scalar_start = time.perf_counter()
    injector.mine_critical_faults(scenes)
    scalar_seconds = time.perf_counter() - scalar_start
    per_node_start = time.perf_counter()
    per_node_candidates, per_node_report = \
        injector.mine_critical_faults_batched(scenes, fuse_nodes=False)
    per_node_seconds = time.perf_counter() - per_node_start
    batched_start = time.perf_counter()
    injector.mine_critical_faults_batched(scenes)
    batched_seconds = time.perf_counter() - batched_start

    scalar_cps = scalar_report.n_scored / scalar_seconds
    per_node_cps = per_node_report.n_scored / per_node_seconds
    batched_cps = batched_report.n_scored / batched_seconds
    speedup = batched_cps / scalar_cps

    print("\nMining throughput: fused vs per-node matmuls vs scalar")
    print(ascii_table(["metric", "scalar", "per-node", "fused"], [
        ["candidates scored", scalar_report.n_scored,
         per_node_report.n_scored, batched_report.n_scored],
        ["wall seconds", f"{scalar_seconds:.3f}",
         f"{per_node_seconds:.3f}", f"{batched_seconds:.3f}"],
        ["candidates / s", f"{scalar_cps:,.0f}", f"{per_node_cps:,.0f}",
         f"{batched_cps:,.0f}"],
        ["speedup", "1x", f"{per_node_cps / scalar_cps:,.1f}x",
         f"{speedup:,.1f}x"],
    ]))
    benchmark.extra_info["scalar_candidates_per_sec"] = scalar_cps
    benchmark.extra_info["per_node_candidates_per_sec"] = per_node_cps
    benchmark.extra_info["batched_candidates_per_sec"] = batched_cps
    benchmark.extra_info["speedup"] = speedup

    # All paths must agree on F_crit...
    assert len(batched_candidates) == len(scalar_candidates)
    assert len(per_node_candidates) == len(scalar_candidates)
    for a, b, c in zip(scalar_candidates, batched_candidates,
                       per_node_candidates):
        assert (a.scenario, a.injection_tick, a.variable, a.value) == \
            (b.scenario, b.injection_tick, b.variable, b.value)
        assert (a.scenario, a.injection_tick, a.variable, a.value) == \
            (c.scenario, c.injection_tick, c.variable, c.value)
        assert abs(a.predicted_delta_long - b.predicted_delta_long) <= 1e-9
        assert abs(a.predicted_delta_lat - b.predicted_delta_lat) <= 1e-9
        assert abs(a.predicted_delta_long - c.predicted_delta_long) <= 1e-9
        assert abs(a.predicted_delta_lat - c.predicted_delta_lat) <= 1e-9
    # ...and batching must pay for itself by a wide margin.  The
    # wall-clock gate is opt-in (timing_gates).
    if timing_gates(benchmark):
        assert speedup >= 10.0, (
            f"batched mining only {speedup:.1f}x faster than the "
            f"scalar oracle")
