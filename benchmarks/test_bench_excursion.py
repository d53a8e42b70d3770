"""Mining excursions: the keys x time excursion kernel against the
scalar rollout oracle.

The Bayesian miner scores every steering-type candidate by the peak
lateral excursion of its corruption-and-recovery episode
(``repro.core.safety.steering_excursion``).  The miner looks a whole
scenario's distinct ``(v, phi)`` keys up in the process's excursion
table at once, and the table integrates the keys it lacks with
``_excursion_kernel`` (miss sets below ``_EXCURSION_BREAK_EVEN`` go
key by key through ``_excursion_rollout``).  The oracle side is the
scalar ``_excursion_rollout`` once per distinct key, which is how every
miss was integrated before the kernel.

The lookups are recorded once, from a Bayesian campaign's mining pass
over the default scenarios.  Each round replays them on a cleared
table (the kernel side) or through the oracle, and every round's peaks
are asserted bit-identical to the oracle's.  Timings interleave oracle
and kernel rounds; the gate compares medians over the rounds, the
spread goes to ``extra_info``, and, like every wall-clock gate, it
fires only with ``REPRO_BENCH_GATES=1`` (``conftest.timing_gates``).
"""

import statistics
import time

import pytest

from repro.analysis import ascii_table
from repro.core import Campaign, CampaignConfig
from repro.core import safety
from repro.sim import default_scenarios

from conftest import host_info, timing_gates

#: Interleaved oracle/kernel rounds.
ROUNDS = 5
#: Gate on the ratio of median round times (kernel / oracle).
MAX_RATIO = 0.5


def record_lookups():
    """Every excursion-table lookup of a Bayesian campaign's mining
    pass over the default scenarios: ``(keys, params)``, in order."""
    table = safety._canonical_excursion
    lookups = []
    real_lookup = table.lookup

    def recording(keys, params):
        lookups.append((list(keys), params))
        return real_lookup(keys, params)

    table.lookup = recording
    try:
        Campaign(default_scenarios(), CampaignConfig(seed=1)) \
            .bayesian_campaign(top_k=1)
    finally:
        del table.lookup
    return lookups


@pytest.fixture(scope="module")
def lookups():
    return record_lookups()


def replay_kernel(lookups):
    """The lookups on a cleared excursion table: one bulk integration
    per scenario's miss set."""
    table = safety._canonical_excursion
    table.cache_clear()
    return [peak.hex() for keys, params in lookups
            for peak in table.lookup(keys, params)]


def replay_oracle(lookups):
    """The lookups with one scalar rollout per distinct key."""
    cache = {}
    peaks = []
    for keys, params in lookups:
        for key in keys:
            if (params, key) not in cache:
                cache[params, key] = safety._excursion_rollout(*key,
                                                               *params)
            peaks.append(cache[params, key].hex())
    return peaks


def _summary(seconds):
    """Median and quartiles of round seconds."""
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "rounds": len(seconds)}


def test_bench_excursion(benchmark, lookups):
    distinct = len({(params, key) for keys, params in lookups
                    for key in keys})
    assert distinct >= 1000
    expected = replay_oracle(lookups)

    seconds = {"oracle": [], "kernel": []}
    sides = [("oracle", replay_oracle), ("kernel", replay_kernel)]
    for index in range(ROUNDS):
        for side, run in (sides if index % 2 == 0 else sides[::-1]):
            start = time.perf_counter()
            peaks = run(lookups)
            seconds[side].append(time.perf_counter() - start)
            assert peaks == expected, side
    stats = {side: _summary(times) for side, times in seconds.items()}
    ratio = stats["kernel"]["median"] / stats["oracle"]["median"]

    # The pytest-benchmark record times the kernel side (cold table).
    benchmark(replay_kernel, lookups)

    rows = [[side, f"{1e3 * stats[side]['median']:.1f}",
             f"{1e3 * stats[side]['q1']:.1f}",
             f"{1e3 * stats[side]['q3']:.1f}"]
            for side in ("oracle", "kernel")]
    print(f"\nMining excursions: {distinct} distinct keys in "
          f"{len(lookups)} scenario lookups (median of {ROUNDS} "
          f"interleaved rounds); kernel / oracle = {ratio:.2f}x")
    print(ascii_table(["side", "ms", "q1", "q3"], rows))
    for side in ("oracle", "kernel"):
        for key, value in stats[side].items():
            benchmark.extra_info[f"{side}_{key}"] = value
    benchmark.extra_info["ratio"] = ratio
    benchmark.extra_info["distinct_keys"] = distinct
    benchmark.extra_info["lookups"] = len(lookups)
    benchmark.extra_info.update(host_info())

    if not timing_gates(benchmark):
        return
    assert ratio <= MAX_RATIO, (
        f"excursion kernel takes {ratio:.2f}x the scalar rollout's time "
        f"(gate {MAX_RATIO}x)")
