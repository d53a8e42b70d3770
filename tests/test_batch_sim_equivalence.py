"""Batched validation equals the scalar oracle, record for record.

The acceptance contract of the vectorized batch engine: a campaign
fuses the value-fault jobs of one dispatch, across scenarios, when
there are at least :data:`repro.core.parallel.LANES` of them, runs
every other job scalar,
and every campaign style emits a
record stream *bit-for-bit* identical (wall-clock timing aside) to the
reference loop — serial scalar :class:`~repro.sim.world.World` runs with
full replay, in job order — both serial and over the process pool.  The
small streams here fuse because the tests patch ``LANES`` down; one
test checks the choice at the shipped lane count.  The streams include
interface faults (drop / freeze / delay / jitter / hang) and
graceful-degradation outcomes, so the engine choice is held to the full
interface-fault surface, not just value corruption.  Checkpoint-forked
batched validation must likewise equal full replay, at both the
campaign and engine levels.
"""

import time
from dataclasses import asdict, replace

import pytest
from reference import (architectural_jobs, candidate_jobs, exhaustive_jobs,
                       random_jobs, reference_records, strip_wall)

from repro.arch.injector import Outcome
from repro.cli import _print_summary
from repro.core import (Campaign, CampaignConfig, CampaignSummary, ListSink,
                        parallel)
from repro.core.fault_models import ArchFaultOutcome
from repro.core.interface_faults import CHANNELS, interface_fault
from repro.core.simulate import FaultSpec, run_experiments_batched
from repro.sim import highway_cruise, lead_vehicle_cutin, two_lead_reveal

#: Lanes per fused batch in the patched runs below.  Three cuts the
#: per-scenario job lists into uneven parts (full + remainder), which
#: is the shape that catches chunking / reorder bugs.
BATCH = 3


@pytest.fixture
def lanes(monkeypatch):
    """Patch the lane count; a forked pool inherits the patch."""
    def patch(count=BATCH):
        monkeypatch.setattr(parallel, "LANES", count)
    patch()
    return patch


def count_fused_attaches(monkeypatch) -> list:
    """Record the slot of every lane that joins the fused ADS path."""
    from repro.ads.batch import BatchADSState
    attached = []
    original = BatchADSState.attach

    def counting(self, slot, pipeline):
        attached.append(slot)
        return original(self, slot, pipeline)

    monkeypatch.setattr(BatchADSState, "attach", counting)
    return attached


def log_fused_attaches(monkeypatch, path) -> None:
    """Append one line per fused attach to ``path``: the pipeline's
    armed value faults and interface faults.  A file, so attaches in
    forked pool workers are seen too."""
    from repro.ads.batch import BatchADSState
    original = BatchADSState.attach

    def logging(self, slot, pipeline):
        with open(path, "a") as log:
            log.write(f"{len(pipeline.faults)} {len(pipeline.bus.faults)}\n")
        return original(self, slot, pipeline)

    monkeypatch.setattr(BatchADSState, "attach", logging)


def mixed_group(campaign):
    """``LANES`` value faults of the campaign's first scenario with three
    interface faults interleaved."""
    scenario = campaign.scenarios[0]
    ticks = campaign.injection_ticks(scenario)
    duration = campaign.config.fault_duration_ticks
    jobs = [(scenario.name, FaultSpec("brake" if i % 2 else "throttle",
                                      float(i % 2),
                                      ticks[(7 * i) % len(ticks)], duration))
            for i in range(parallel.LANES)]
    for i, channel in enumerate(CHANNELS[:3]):
        jobs.insert(5 * i, (scenario.name, interface_fault(
            "freeze", channel, ticks[(11 * i) % len(ticks)],
            duration_ticks=duration)))
    return jobs


STYLES = ["random", "exhaustive", "architectural", "bayesian"]


def small_scenarios():
    return [replace(highway_cruise(), duration=24.0),
            replace(lead_vehicle_cutin(), duration=16.0),
            replace(two_lead_reveal(), duration=18.0)]


class HangingModel:
    """Architectural stub that always hangs, forcing interface faults
    through the batched architectural path (register flips hang too
    rarely to cover it reliably)."""

    def sample(self, rng, injection_ticks, duration_ticks=2,
               interface_hangs=False):
        tick = int(injection_ticks[int(rng.integers(len(injection_ticks)))])
        channel = CHANNELS[int(rng.integers(len(CHANNELS)))]
        fault = (interface_fault("hang", channel, tick,
                                 duration_ticks=duration_ticks)
                 if interface_hangs else None)
        return ArchFaultOutcome(kernel="dot16", outcome=Outcome.HANG,
                                relative_error=0.0, fault=fault)


def run_style(style, *, workers):
    sink = ListSink()
    campaign = Campaign(small_scenarios(), CampaignConfig())
    kwargs = dict(workers=workers, record_sink=sink)
    if style == "random":
        campaign.random_campaign(12, seed=11, interface_share=0.5,
                                 **kwargs)
    elif style == "exhaustive":
        campaign.exhaustive_campaign(tick_stride=40,
                                     variable_names=["brake"],
                                     interface_grid=True, **kwargs)
    elif style == "architectural":
        campaign.architectural_campaign(8, model=HangingModel(), seed=3,
                                        interface_hangs=True, **kwargs)
    else:
        campaign.bayesian_campaign(top_k=4,
                                   interface_probe=("freeze", "delay"),
                                   **kwargs)
    return strip_wall(sink.records)


def reference_jobs(style, campaign):
    """The jobs ``run_style(style, ...)`` schedules on ``campaign``."""
    if style == "random":
        return random_jobs(campaign, 12, seed=11, interface_share=0.5)
    if style == "exhaustive":
        return exhaustive_jobs(campaign, tick_stride=40,
                               variable_names=["brake"],
                               interface_grid=True)
    if style == "architectural":
        jobs, _ = architectural_jobs(campaign, 8, model=HangingModel(),
                                     seed=3, interface_hangs=True)
        return jobs
    result = campaign.bayesian_campaign(top_k=4)
    return candidate_jobs(campaign, result.candidates,
                          interface_probe=("freeze", "delay"))


@pytest.fixture(scope="module")
def scalar_reference():
    """Reference-loop record streams, one per style."""
    cache = {}

    def get(style):
        if style not in cache:
            campaign = Campaign(small_scenarios(), CampaignConfig())
            cache[style] = strip_wall(reference_records(
                campaign, reference_jobs(style, campaign)))
        return cache[style]

    return get


class TestBatchedDriverEquivalence:
    """Fused groups == the reference loop for every style, serial and
    pooled."""

    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("workers", [None, 2])
    def test_records_equal_scalar_oracle(self, scalar_reference, lanes,
                                         style, workers):
        reference = scalar_reference(style)
        assert reference, "oracle campaign produced no records"
        assert run_style(style, workers=workers) == reference

    def test_streams_cover_the_interface_fault_surface(self,
                                                       scalar_reference):
        """The equality above must be exercised on PR-8 faults too."""
        kinds = {row["kind"] for style in STYLES
                 for row in scalar_reference(style)}
        assert "value" in kinds
        assert kinds - {"value"}, "no interface faults in any stream"

    def test_single_lane_batch_is_still_batched_code(self,
                                                     scalar_reference,
                                                     lanes):
        """Two-lane batches drain to a 1-lane tail whenever one lane
        retires first.  The exhaustive stream fuses its value
        faults."""
        lanes(2)
        assert run_style("exhaustive", workers=None) == \
            scalar_reference("exhaustive")


class TestFusedADSPath:
    """The batched runs above must actually exercise the fused ADS
    engine, which must see only the jobs it can represent."""

    def test_default_config_fuses_lanes(self, monkeypatch, lanes):
        """The exhaustive stream has at least ``BATCH`` value faults per
        scenario, so its value faults fuse."""
        attached = count_fused_attaches(monkeypatch)
        run_style("exhaustive", workers=None)
        assert attached, "no lane ever took the fused ADS path"

    def test_group_size_picks_the_engine(self, monkeypatch):
        """At the shipped lane count, a group of ``LANES`` same-scenario
        jobs fuses and a group of ``LANES - 1`` runs scalar; both equal
        the reference loop."""
        campaign = Campaign(small_scenarios()[:1], CampaignConfig())
        name = campaign.scenarios[0].name
        ticks = campaign.injection_ticks(campaign.scenarios[0])
        jobs = [(name, FaultSpec("brake" if i % 2 else "throttle",
                                 float(i % 2), ticks[(7 * i) % len(ticks)],
                                 campaign.config.fault_duration_ticks))
                for i in range(parallel.LANES)]
        attached = count_fused_attaches(monkeypatch)
        for group, fused in ((jobs, True), (jobs[:-1], False)):
            attached.clear()
            summary = campaign.run_jobs(group)
            assert bool(attached) == fused
            assert strip_wall(summary.records) == \
                strip_wall(reference_records(campaign, group))

    @pytest.mark.parametrize("workers", [None, 2])
    def test_mixed_group_fuses_only_value_faults(self, monkeypatch,
                                                 tmp_path, workers):
        """A scenario with ``LANES`` value faults and some interface
        faults fuses exactly the value faults, runs the interface faults
        scalar, and equals the reference loop, serial and pooled."""
        campaign = Campaign(small_scenarios()[:1], CampaignConfig())
        jobs = mixed_group(campaign)
        log = tmp_path / "attaches.txt"
        log_fused_attaches(monkeypatch, log)
        summary = campaign.run_jobs(jobs, workers=workers)
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))
        attaches = log.read_text().split("\n")[:-1]
        assert attaches == ["1 0"] * parallel.LANES

    def test_ttl_config_runs_every_job_scalar(self, monkeypatch, lanes):
        """``planner_divisor=6`` leaves plans staler than the default
        degradation TTL, so :func:`can_fuse` rejects every job: nothing
        fuses, the safe-stop fallback engages routinely, and the records
        still equal the scalar oracle, degradation included."""
        from repro.ads.batch import can_fuse
        from repro.ads.runtime import ADSConfig
        ads = replace(ADSConfig(), planner_divisor=6)
        assert not can_fuse(ads, ())

        attached = count_fused_attaches(monkeypatch)
        campaign = Campaign(small_scenarios(), CampaignConfig(ads=ads))
        sink = ListSink()
        campaign.random_campaign(8, seed=5, interface_share=0.3,
                                 record_sink=sink)
        reference = strip_wall(reference_records(
            campaign, random_jobs(campaign, 8, seed=5, interface_share=0.3)))
        assert strip_wall(sink.records) == reference
        assert any(row["degraded"] for row in reference)
        assert not attached


class TestCheckpointForkOracle:
    """Checkpoint-forked batched validation == full replay from t=0."""

    @pytest.mark.parametrize("pooled", [False, True])
    def test_campaign_fork_equals_full_replay(self, pooled, lanes):
        campaign = Campaign(small_scenarios(), CampaignConfig())
        sink = ListSink()
        campaign.random_campaign(10, seed=7, interface_share=0.4,
                                 workers=2 if pooled else None,
                                 record_sink=sink)
        replayed = reference_records(
            campaign, random_jobs(campaign, 10, seed=7,
                                  interface_share=0.4))
        assert strip_wall(sink.records) == strip_wall(replayed)

    def test_engine_fork_equals_full_replay(self):
        campaign = Campaign(small_scenarios(), CampaignConfig())
        campaign.golden_runs()
        scenario = campaign.scenarios[1]
        config = campaign.config
        fault_lists = [
            [FaultSpec(variable="brake", value=0.0, start_tick=tick)]
            for tick in (40, 55, 70, 90)]
        forks = [campaign.checkpoints.nearest(scenario.name,
                                              faults[0].start_tick)
                 for faults in fault_lists]
        assert all(forks), "golden run captured no usable checkpoints"

        def run(checkpoints):
            results = run_experiments_batched(
                [scenario] * len(fault_lists), fault_lists,
                ads_config=config.ads,
                safety_config=config.safety, seed=config.seed,
                checkpoints=checkpoints,
                horizon_after_fault=config.horizon_after_fault,
                batch_size=BATCH)
            rows = []
            for result in results:
                row = asdict(result)
                row.pop("wall_seconds")
                row.pop("trace")     # empty: batched runs record none
                rows.append(row)
            return rows

        assert run(forks) == run(None)


class TestFusedWallClock:
    """Fused lanes share each tick's wall clock instead of each timing
    the whole batch, so summed record clocks never exceed real time."""

    def test_engine_lane_clocks_sum_within_elapsed(self):
        campaign = Campaign(small_scenarios()[:1], CampaignConfig())
        scenario = campaign.scenarios[0]
        ticks = campaign.injection_ticks(scenario)
        fault_lists = [[FaultSpec("brake", 0.0, ticks[i], 4)]
                       for i in range(0, len(ticks), len(ticks) // 12)]
        start = time.perf_counter()
        results = run_experiments_batched([scenario] * len(fault_lists),
                                          fault_lists, batch_size=8)
        elapsed = time.perf_counter() - start
        clocks = [result.wall_seconds for result in results]
        assert all(clock > 0.0 for clock in clocks)
        assert sum(clocks) <= elapsed

    def test_dense_campaign_wall_within_elapsed(self, monkeypatch):
        attached = count_fused_attaches(monkeypatch)
        campaign = Campaign(small_scenarios()[:1], CampaignConfig())
        start = time.perf_counter()
        summary = campaign.random_campaign(parallel.LANES + 4, seed=2)
        elapsed = time.perf_counter() - start
        assert attached, "the dense group did not fuse"
        assert 0.0 < summary.wall_seconds <= elapsed


class TestEngineCounters:
    """The ``engine`` row of ``stage_timings``: jobs per engine, fused
    ticks, and live lane-ticks against slot-ticks (fused lane
    occupancy)."""

    def test_job_counts_sum_to_jobs_run(self):
        campaign = Campaign(small_scenarios()[:1],
                            CampaignConfig(profile_stages=True))
        summary = campaign.run_jobs(mixed_group(campaign))
        engine = summary.extra_info["stage_timings"]["engine"]
        assert engine["fused_jobs"] + engine["scalar_jobs"] == summary.total
        assert (engine["fused_jobs"], engine["scalar_jobs"]) == \
            (parallel.LANES, 3)
        assert 0.0 < engine["lane_ticks"] / engine["slot_ticks"] <= 1.0
        assert (engine["fused_batches"], engine["batch_scenarios"]) == \
            (1, 1)

    def test_batches_count_their_scenarios(self, lanes):
        """Groups of two scenarios that only reach ``LANES`` together
        run as one batch of both."""
        lanes(4)
        campaign = Campaign(small_scenarios()[:2],
                            CampaignConfig(profile_stages=True))
        jobs = [(scenario.name, FaultSpec("brake", 0.0, tick, 4))
                for scenario in campaign.scenarios for tick in (30, 60)]
        summary = campaign.run_jobs(jobs)
        engine = summary.extra_info["stage_timings"]["engine"]
        assert (engine["fused_jobs"], engine["fused_batches"],
                engine["batch_scenarios"]) == (4, 1, 2)
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))

    def test_only_hot_lanes_build_messages(self, capsys):
        """Fused lanes build a message only on a planning tick with a
        perception or world-model fault active: none for brake or IMU
        faults (column writes), one per planning fault tick for
        detection and tracked-gap faults."""
        campaign = Campaign(small_scenarios()[:1],
                            CampaignConfig(profile_stages=True))
        scenario = campaign.scenarios[0]
        ticks = campaign.injection_ticks(scenario)[::4][:parallel.LANES]
        built = {}
        for variable, value in (("brake", 0.0), ("imu_speed", 45.0),
                                ("detection_x", 250.0),
                                ("tracked_gap", 80.0)):
            jobs = [(scenario.name, FaultSpec(variable, value, tick, 4))
                    for tick in ticks]
            summary = campaign.run_jobs(jobs)
            engine = summary.extra_info["stage_timings"]["engine"]
            assert engine["fused_jobs"] == len(jobs) == parallel.LANES
            assert engine["lane_ticks"] > 0
            built[variable] = engine.get("bundles_built", 0)
            if variable == "brake":
                _print_summary(summary, "random")
                assert ", 0 fused fallbacks, 0 messages built" in \
                    capsys.readouterr().out
        divisor = campaign.config.ads.planner_divisor
        planning_fault_ticks = sum(len(range(-tick % divisor, 4, divisor))
                                   for tick in ticks)
        assert built == {"brake": 0, "imu_speed": 0,
                         "detection_x": planning_fault_ticks,
                         "tracked_gap": planning_fault_ticks}

    def test_rows_merge_and_print(self, capsys):
        summary = CampaignSummary()
        summary.extra_info["stage_timings"] = {
            "engine": {"seconds": 0.0, "calls": 0, "fused_jobs": 16,
                       "scalar_jobs": 4, "fused_ticks": 25,
                       "lane_ticks": 300, "slot_ticks": 400,
                       "fused_batches": 2, "batch_scenarios": 5,
                       "fused_fallbacks": 1, "bundles_built": 6}}
        merged = CampaignSummary.merge([summary, summary])
        assert merged.extra_info["stage_timings"]["engine"] == {
            "seconds": 0.0, "calls": 0, "fused_jobs": 32,
            "scalar_jobs": 8, "fused_ticks": 50, "lane_ticks": 600,
            "slot_ticks": 800, "fused_batches": 4, "batch_scenarios": 10,
            "fused_fallbacks": 2, "bundles_built": 12}
        _print_summary(merged, "random")
        assert ("engine: 32 fused jobs, 8 scalar jobs, lane occupancy "
                "75.0% (600 of 800 slot-ticks) in 50 fused ticks "
                "(12.0 lanes per tick), 4 fused batches "
                "(2.5 scenarios per batch), 2 fused fallbacks, "
                "12 messages built") in capsys.readouterr().out


class TestFusedFallback:
    """A fused batch that raises is rerun on the scalar engine: the
    records stay the reference loop's, no job counts as fused, and
    every fallback is counted."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_failing_batch_reruns_scalar(self, lanes, monkeypatch,
                                         tmp_path, workers):
        from repro.core import pipeline
        attempts = tmp_path / "attempts"      # a file: pool workers too

        def failing_batch(jobs, *args, **kwargs):
            with open(attempts, "a") as log:
                log.write(f"{len(jobs)}\n")
            raise RuntimeError("fused engine failure")

        # Patched before the pool forks, so workers inherit it.
        monkeypatch.setattr(pipeline, "execute_experiment_batch",
                            failing_batch)
        campaign = Campaign(small_scenarios()[:2],
                            CampaignConfig(profile_stages=True))
        jobs = [(scenario.name, FaultSpec(variable, 0.0, tick, 4))
                for scenario in campaign.scenarios
                for variable in ("brake", "throttle")
                for tick in (30, 60)]
        summary = campaign.run_jobs(jobs, workers=workers)
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))
        # Every job was offered to the fused engine first...
        batches = attempts.read_text().split()
        assert sum(map(int, batches)) == len(jobs)
        # ...none of them is counted as fused, and each failed batch is
        # one fallback.
        engine = summary.extra_info["stage_timings"]["engine"]
        assert engine.get("fused_jobs", 0) == 0
        assert engine["scalar_jobs"] == len(jobs)
        assert engine["fused_fallbacks"] == len(batches) >= 1
