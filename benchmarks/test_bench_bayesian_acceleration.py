"""E2 — exhaustive grid vs Bayesian FI (the paper's headline result).

Paper: the fault model (b) grid held 98,400 faults (615 days of
experiments); Bayesian FI found 561 maximally-critical faults in under
4 hours — a 3690x acceleration — and 460 of the 561 (82%) manifested as
real hazards.  Shape targets: the acceleration factor is large (orders
of magnitude) and mined-fault precision far exceeds the grid's base
hazard rate.
"""

from repro.analysis import acceleration_report, ascii_table


def test_bench_bayesian_acceleration(benchmark, campaign, bayesian_result):
    # Strided sample of the exhaustive grid to measure per-experiment cost
    # and the base hazard rate.
    sample = campaign.exhaustive_campaign(tick_stride=40)
    grid = campaign.grid_size()

    # The benchmarked unit: one full mining pass over all scenes (the
    # cheap step that replaces grid execution).
    scenes = list(campaign.scene_rows())
    injector = bayesian_result.injector

    def mine():
        return injector.mine_critical_faults(scenes)

    benchmark(mine)

    report = acceleration_report(grid, sample, bayesian_result)
    print("\nE2: exhaustive vs Bayesian")
    print(ascii_table(["metric", "this repro", "paper"], [
        ["grid size", report.grid_experiments, "98,400"],
        ["extrapolated grid cost (s)",
         f"{report.exhaustive_seconds:,.0f}", "615 days"],
        ["Bayesian cost (s)", f"{report.bayesian_seconds:,.1f}",
         "< 4 hours"],
        ["acceleration", f"{report.acceleration_factor:,.0f}x", "3690x"],
        ["critical faults mined", report.critical_found, "561"],
        ["validated hazards", report.hazards_confirmed, "460"],
        ["precision", f"{report.precision:.0%}", "82%"],
        ["grid-sample hazard rate", f"{sample.hazard_rate:.1%}",
         "~0.6% of grid"],
    ]))
    benchmark.extra_info["acceleration_factor"] = report.acceleration_factor
    benchmark.extra_info["precision"] = report.precision
    benchmark.extra_info["critical_found"] = report.critical_found

    # Shape assertions.
    assert report.critical_found > 0
    assert report.hazards_confirmed > 0
    assert report.acceleration_factor > 10.0, (
        "Bayesian mining must be orders of magnitude cheaper than the grid")
    assert report.precision > max(sample.hazard_rate, 0.02), (
        "mined faults must be enriched in hazards vs the raw grid")
