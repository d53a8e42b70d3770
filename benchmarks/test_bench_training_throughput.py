"""Training memory and throughput: out-of-core traces, streamed fits.

Two costs used to scale with the *whole* golden-trace population:

* **Memory** — every golden trace stayed resident (plus the batch
  window dataset stacked over all of them) for the lifetime of a
  Bayesian campaign.  With a ``cache_dir`` each trace spools to a
  memory-mapped columnar file the moment its scenario completes and the
  streaming trainer folds it into O(parameters) accumulators, so peak
  resident trace memory is O(largest single trace).  The memory probe
  runs the same campaign both ways in fresh subprocesses — the in-RAM
  side fitting the model over the whole golden dataset at once
  (:meth:`BayesianFaultInjector.train`) — and asserts the out-of-core
  peak is at most half the in-RAM path's on a 20-scenario population — traced allocations as the primary gate,
  peak-RSS growth as a looser secondary one (the store's resident set
  includes kernel-evictable mmap pages) — and record streams must
  agree experiment for experiment.
* **Wall-clock** — batch training is a barrier: every golden run must
  land before the fit starts.  Streaming training folds each trace as
  it completes, so on the pipeline driver the fit overlaps golden
  collection (and mining overlaps validation).  The throughput bench
  runs the overlapped campaign at ``workers=4`` on a mixed-duration
  population, records its wall and train seconds, and pins its records
  to the reference loop.  There is no second driver to race, so there
  is no speedup gate.

Both halves export their numbers through the pytest-benchmark JSON
(tracked as ``BENCH_training.json``), peak RSS included.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from reference import candidate_jobs, reference_records, strip_wall

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.sim import (braking_lead, highway_cruise, lead_vehicle_cutin,
                       overtake_cutin, queued_traffic, stalled_vehicle,
                       two_lead_reveal)


WORKERS = 4
MEMORY_SCENARIOS = 20        # the ≥20-scenario memory population
MEMORY_SCENARIOS_SMOKE = 6   # --benchmark-disable lanes


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without affinity
        return os.cpu_count() or 1


#: Runs one campaign variant in a *fresh* interpreter so allocator and
#: import state cannot leak between the in-RAM and out-of-core
#: measurements.  Prints one JSON line: peak tracemalloc bytes (numpy
#: data allocations included, mmapped pages naturally excluded — the
#: "resident trace memory" the gate is about), the process peak RSS,
#: and the full record stream for the equivalence check.
_MEMORY_PROBE = """
import json, resource, sys, tracemalloc
from dataclasses import replace
from repro.core import BayesianFaultInjector, Campaign, CampaignConfig
from repro.sim import (adjacent_traffic, braking_lead, empty_road,
                       highway_cruise, lead_vehicle_cutin,
                       occluded_pedestrian, overtake_cutin,
                       queued_traffic, stalled_vehicle, two_lead_reveal)

mode, count, cache_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bases = [highway_cruise, lead_vehicle_cutin, two_lead_reveal,
         braking_lead, stalled_vehicle, adjacent_traffic, overtake_cutin,
         queued_traffic, occluded_pedestrian]
scenarios = []
for i in range(count):
    base = bases[i % len(bases)]()
    scenarios.append(replace(base, name=f"{base.name}_v{i}",
                             duration=30.0 + 4.0 * (i % 5)))
# One snapshot per scenario keeps checkpoint ladders out of both
# sides' peak: the probe measures trace memory.  Golden-only and
# Bayesian plans snapshot every scheduled injection tick, so the probe
# cuts the schedule to its first tick.
schedule = Campaign.schedule_injection_ticks
Campaign.schedule_injection_ticks = lambda self, s: schedule(self, s)[:1]
config = CampaignConfig()
rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
tracemalloc.start()
campaign = Campaign(scenarios, config,
                    cache_dir=cache_dir if mode == "store" else None)
# The in-RAM side fits the whole golden dataset at once; the store
# side streams each trace into the trainer as it lands.
injector = None
if mode != "store":
    injector = BayesianFaultInjector.train(
        list(campaign.golden_runs().values()),
        safety_config=config.safety)
# A two-variable mining subset keeps the probe's scoring scratch (and
# the process-wide RK4 stop-kernel caches) small relative to the
# trace population the gate is actually about.
result = campaign.bayesian_campaign(
    injector=injector, variables=("brake", "tracked_gap"), top_k=8)
_, peak = tracemalloc.get_traced_memory()
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "peak_traced_bytes": peak,
    "rss_before_kb": rss_before_kb,
    "peak_rss_kb": rss_kb,
    "candidates": [(c.scenario, c.injection_tick, c.variable, c.value)
                   for c in result.candidates],
    "records": [(r.scenario, r.injection_tick, r.variable, r.value,
                 r.duration_ticks, r.hazard.value, r.landed,
                 r.min_delta_long, r.min_delta_lat)
                for r in result.summary.records],
}))
"""


def run_memory_probe(mode: str, count: int, cache_dir: Path) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" \
        + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, mode, str(count),
         str(cache_dir)],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(output.stdout.strip().splitlines()[-1])


def test_bench_training_memory(benchmark, tmp_path):
    count = MEMORY_SCENARIOS_SMOKE if benchmark.disabled \
        else MEMORY_SCENARIOS
    in_ram = run_memory_probe("inram", count, tmp_path / "unused")

    def timed_store():
        return run_memory_probe("store", count, tmp_path / "cache")

    stored = benchmark.pedantic(timed_store, rounds=1, iterations=1)

    ratio = stored["peak_traced_bytes"] / in_ram["peak_traced_bytes"]

    def rss_growth(probe):
        """Peak-RSS growth over the campaign (baseline subtracted —
        interpreter+numpy import residency would otherwise swamp the
        trace signal on small hosts)."""
        return probe["peak_rss_kb"] - probe["rss_before_kb"]

    rss_ratio = rss_growth(stored) / max(rss_growth(in_ram), 1)
    print(f"\nPeak resident trace memory over a {count}-scenario "
          f"bayesian campaign")
    print(ascii_table(["metric", "in-RAM", "trace store"], [
        ["peak traced MB",
         f"{in_ram['peak_traced_bytes'] / 1e6:.2f}",
         f"{stored['peak_traced_bytes'] / 1e6:.2f}"],
        ["RSS growth MB",
         f"{rss_growth(in_ram) / 1e3:.1f}",
         f"{rss_growth(stored) / 1e3:.1f}"],
        ["traced ratio", "1x", f"{ratio:.2f}x"],
        ["RSS-growth ratio", "1x", f"{rss_ratio:.2f}x"],
    ]))
    benchmark.extra_info["scenarios"] = count
    benchmark.extra_info["inram_peak_traced_bytes"] = \
        in_ram["peak_traced_bytes"]
    benchmark.extra_info["store_peak_traced_bytes"] = \
        stored["peak_traced_bytes"]
    benchmark.extra_info["inram_peak_rss_kb"] = in_ram["peak_rss_kb"]
    benchmark.extra_info["store_peak_rss_kb"] = stored["peak_rss_kb"]
    benchmark.extra_info["traced_ratio"] = ratio
    benchmark.extra_info["rss_growth_ratio"] = rss_ratio

    # Out-of-core must not change a single number.
    assert stored["candidates"] == in_ram["candidates"]
    assert stored["records"] == in_ram["records"]
    if benchmark.disabled:
        return
    # O(largest trace), not O(total traces).  Primary gate: traced
    # allocations (what the process actually *holds*) must be at most
    # half the in-RAM path's.  Secondary RSS gate: looser, because the
    # store's resident set legitimately includes file-backed mmap
    # pages the kernel can evict at will — counting evictable cache
    # against the bound would punish the design for working.
    assert ratio <= 0.5, (
        f"trace store peak is {ratio:.2f}x the in-RAM path; "
        f"expected <= 0.5x on {count} scenarios")
    assert rss_ratio <= 0.7, (
        f"trace store peak-RSS growth is {rss_ratio:.2f}x the in-RAM "
        f"path; expected <= 0.7x on {count} scenarios")


def overlap_population(smoke: bool):
    """Mixed durations, the long scenario last — the barrier worst case.

    Identical shape to the pipeline-throughput bench: a phase barrier
    would idle every worker during the long golden run *and* during
    batch training; the streaming driver folds finished traces while
    the long scenario still simulates.
    """
    scale = 0.5 if smoke else 1.0
    return [replace(lead_vehicle_cutin(), duration=14.0 * scale),
            replace(two_lead_reveal(), duration=14.0 * scale),
            replace(stalled_vehicle(), duration=16.0 * scale),
            replace(queued_traffic(), duration=16.0 * scale),
            replace(overtake_cutin(), duration=18.0 * scale),
            replace(braking_lead(), duration=18.0 * scale),
            replace(highway_cruise(), duration=48.0 * scale)]


def test_bench_training_overlap_throughput(benchmark):
    smoke = benchmark.disabled
    campaign = Campaign(overlap_population(smoke),
                        CampaignConfig())

    def timed_pipeline():
        start = time.perf_counter()
        # No top_k: a cross-scenario cut would gate eager dispatch and
        # serialize mining against validation.
        result = campaign.bayesian_campaign(
            top_k=24 if smoke else None, workers=WORKERS)
        return result, time.perf_counter() - start

    result, seconds = benchmark.pedantic(timed_pipeline, rounds=1,
                                         iterations=1)

    print("\nBayesian campaign on the streaming pipeline (overlapped "
          "training)")
    print(ascii_table(["metric", "overlapped"], [
        ["experiments", result.summary.total],
        ["train seconds", f"{result.train_seconds:.2f}"],
        ["wall seconds", f"{seconds:.2f}"],
    ]))
    benchmark.extra_info["pipeline_seconds"] = seconds
    benchmark.extra_info["train_seconds"] = result.train_seconds
    benchmark.extra_info["experiments"] = result.summary.total
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["usable_cpus"] = usable_cpus()

    # Overlapped training, pooled validation and eager dispatch must
    # agree with the reference loop over the mined candidates, record
    # for record (wall clock aside).
    reference = reference_records(
        campaign, candidate_jobs(campaign, result.candidates))
    assert strip_wall(result.summary.records) == strip_wall(reference)
