"""Batched validation equals the scalar oracle, record for record.

The acceptance contract of the vectorized batch engine: under a
fusable ADS configuration a campaign fuses the jobs of one dispatch,
across scenarios and fault kinds, when there are at least
:data:`repro.core.parallel.LANES` of them (an interface-fault job runs
scalar through its fault windows and joins the batch at its hand-off
tick), runs a smaller dispatch scalar, and every campaign style emits a
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
from repro.ads.runtime import ADSConfig
from repro.core import (Campaign, CampaignConfig, CampaignSummary,
                        DegradationConfig, Hazard, ListSink,
                        ResilienceConfig, parallel, simulate)
from repro.core.fault_models import ArchFaultOutcome
from repro.core.interface_faults import (CHANNELS, INTERFACE_KINDS,
                                         interface_fault)
from repro.core.parallel import execute_experiment_batch
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


def hand_off(fault, divisor=2):
    """The hand-off tick of an interface fault: the first planner tick
    at or after the end of its window."""
    return -(-(fault.start_tick + fault.duration_ticks) // divisor) * divisor


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
    def test_mixed_group_fuses_interface_faults_late(self, monkeypatch,
                                                     tmp_path, workers):
        """A scenario with ``LANES`` value faults and some interface
        faults fuses every job, the interface faults after their
        windows, and equals the reference loop, serial and pooled."""
        campaign = Campaign(small_scenarios()[:1], CampaignConfig())
        jobs = mixed_group(campaign)
        log = tmp_path / "attaches.txt"
        log_fused_attaches(monkeypatch, log)
        summary = campaign.run_jobs(jobs, workers=workers)
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))
        attaches = log.read_text().split("\n")[:-1]
        assert sorted(attaches) == \
            ["0 1"] * 3 + ["1 0"] * parallel.LANES

    def test_ttl_config_runs_every_job_scalar(self, monkeypatch, lanes):
        """``planner_divisor=6`` leaves plans staler than the default
        degradation TTL, so :func:`can_fuse` rejects every job: nothing
        fuses, the safe-stop fallback engages routinely, and the records
        still equal the scalar oracle, degradation included."""
        from repro.ads.batch import can_fuse
        ads = replace(ADSConfig(), planner_divisor=6)
        assert not can_fuse(ads)

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
        jobs = mixed_group(campaign)
        summary = campaign.run_jobs(jobs)
        engine = summary.extra_info["stage_timings"]["engine"]
        assert engine["fused_jobs"] + engine["scalar_jobs"] == summary.total
        assert (engine["fused_jobs"], engine["scalar_jobs"]) == \
            (parallel.LANES + 3, 0)
        # The three interface faults join after their windows; their
        # forks sit at their first fault tick.
        interface = [fault for _, fault in jobs if fault.kind != "value"]
        assert (engine["handoffs"], engine["handoff_ticks"]) == \
            (3, sum(hand_off(fault) - fault.start_tick
                    for fault in interface))
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
                       "fused_fallbacks": 1, "bundles_built": 6,
                       "handoffs": 3, "handoff_ticks": 11}}
        merged = CampaignSummary.merge([summary, summary])
        assert merged.extra_info["stage_timings"]["engine"] == {
            "seconds": 0.0, "calls": 0, "fused_jobs": 32,
            "scalar_jobs": 8, "fused_ticks": 50, "lane_ticks": 600,
            "slot_ticks": 800, "fused_batches": 4, "batch_scenarios": 10,
            "fused_fallbacks": 2, "bundles_built": 12, "handoffs": 6,
            "handoff_ticks": 22}
        _print_summary(merged, "random")
        assert ("engine: 32 fused jobs, 8 scalar jobs, lane occupancy "
                "75.0% (600 of 800 slot-ticks) in 50 fused ticks "
                "(12.0 lanes per tick), 4 fused batches "
                "(2.5 scenarios per batch), 2 fused fallbacks, "
                "12 messages built, 6 hand-offs after 22 scalar "
                "ticks") in capsys.readouterr().out


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


# -- late fusion: interface-fault jobs join the batch after their windows ---

#: Interface-fault durations of the sweep: 1-3 ticks, and past the
#: default degradation TTL (4), so the fallback engages inside the
#: scalar segment.
DURATIONS = (1, 2, 3, DegradationConfig().ttl_ticks + 3)


def late_fusion_scenario():
    return replace(lead_vehicle_cutin(), duration=9.0)


def sweep_jobs(name, starts=(60, 71), durations=DURATIONS):
    """Every interface kind x channel x duration, from an even and an
    odd start tick."""
    return [(name, interface_fault(kind, channel, start,
                                   duration_ticks=duration))
            for start in starts for duration in durations
            for kind in INTERFACE_KINDS for channel in CHANNELS]


def bits(records):
    """Records as dicts without wall clocks, every float as its bit
    pattern (``float.hex``), so NaNs and signed zeros compare too."""
    return [{name: value.hex() if isinstance(value, float) else value
             for name, value in row.items()}
            for row in strip_wall(records)]


def late_config(degradation=True, **kwargs):
    ads = ADSConfig(degradation=DegradationConfig(enabled=degradation))
    return CampaignConfig(ads=ads, profile_stages=True, **kwargs)


class TestLateFusion:
    """An interface-fault job runs the scalar pipeline through its fault
    windows up to its hand-off tick (the first planner tick at or after
    the last window's end), then joins the fused batch.  Its records
    equal :func:`execute_experiment`'s field by field, bit for bit."""

    @pytest.mark.parametrize("degradation", [True, False])
    def test_every_kind_channel_and_duration(self, degradation):
        """Forked from the golden ladder, every lane hands off (no run
        ends inside its segment here) and no batch falls back."""
        campaign = Campaign([late_fusion_scenario()],
                            late_config(degradation, horizon_after_fault=1.0))
        jobs = sweep_jobs(campaign.scenarios[0].name)
        summary = campaign.run_jobs(jobs)
        reference = reference_records(campaign, jobs)
        assert bits(summary.records) == bits(reference)
        engine = summary.extra_info["stage_timings"]["engine"]
        assert (engine["fused_jobs"], engine["scalar_jobs"],
                engine.get("fused_fallbacks", 0)) == (len(jobs), 0, 0)
        assert (engine["handoffs"], engine["handoff_ticks"]) == \
            (len(jobs), sum(hand_off(fault) - fault.start_tick
                            for _, fault in jobs))
        assert any(record.degraded for record in reference) == degradation
        assert any(record.landed for record in reference)
        assert not all(record.landed for record in reference)

    def test_group_folds_mix_segment_and_fused_lanes(self, monkeypatch):
        """Lanes that retire on the same fused tick fold together:
        interface-fault lanes, whose scalar segments' samples come
        first, beside value-fault lanes that ran fused from their fork.
        Here every lane joins the batch at tick 62 (the interface
        lanes' hand-off, the value lanes' fault tick) and runs to the
        scenario's end.  Each record equals
        :func:`execute_experiment`'s."""
        groups = []
        original = simulate._fold_lanes

        def recording(lanes, *args):
            groups.append([bool(lane.samples) for lane in lanes])
            return original(lanes, *args)

        monkeypatch.setattr(simulate, "_fold_lanes", recording)
        campaign = Campaign([late_fusion_scenario()], late_config())
        name = campaign.scenarios[0].name
        jobs = sweep_jobs(name, starts=(60,), durations=(2,)) + [
            (name, FaultSpec(variable, value, 62, 2))
            for variable, value in (("brake", 0.0), ("throttle", 1.0),
                                    ("gps_y", 2.0), ("tracked_gap", 80.0))]
        summary = campaign.run_jobs(jobs)
        assert bits(summary.records) == bits(reference_records(campaign,
                                                               jobs))
        assert any(any(group) and not all(group) for group in groups)

    def test_tick_zero_starts(self):
        """Without forks every lane replays from tick 0 through its
        segment, as full replay does."""
        campaign = Campaign([late_fusion_scenario()],
                            late_config(horizon_after_fault=0.5))
        scenario = campaign.scenarios[0]
        jobs = sweep_jobs(scenario.name, starts=(33,), durations=(3, 7))
        fused = execute_experiment_batch(
            [(scenario, fault) for _, fault in jobs], campaign.config)
        assert bits(fused) == bits(reference_records(campaign, jobs))

    def test_runs_ending_inside_the_segment(self):
        """A run can end before its hand-off tick: at the post-fault
        horizon (0 here, so an odd window end stops a tick short of the
        hand-off and an even one runs one fused tick), at the scenario's
        end, or at a collision; it finishes as its scalar result."""
        overlap = replace(highway_cruise(ego_speed=30.0, lead_gap=0.0,
                                         lead_speed=30.0, name="overlap"),
                          duration=6.0)
        scenarios = [late_fusion_scenario(), overlap]
        campaign = Campaign(scenarios, late_config(horizon_after_fault=0.0))
        last = round(scenarios[0].duration / 0.05) - 2
        jobs = (sweep_jobs(scenarios[0].name, starts=(60, 61),
                           durations=(2, 3))
                + sweep_jobs(scenarios[0].name, starts=(last,),
                             durations=(7,))
                + sweep_jobs(overlap.name, starts=(1,), durations=(3,)))
        summary = campaign.run_jobs(jobs)
        reference = reference_records(campaign, jobs)
        assert bits(summary.records) == bits(reference)
        engine = summary.extra_info["stage_timings"]["engine"]
        assert engine["fused_jobs"] == len(jobs)
        # Only the even window ends (start 60 + 2, start 61 + 3) reach
        # their hand-off.
        assert engine["handoffs"] == 2 * len(INTERFACE_KINDS) * len(CHANNELS)
        assert any(record.hazard == Hazard.COLLISION for record in reference)

    def test_pooled_equals_serial(self):
        """Two workers fuse one wide part each; records and the merged
        hand-off counts equal the serial run's."""
        campaign = Campaign([late_fusion_scenario()],
                            late_config(horizon_after_fault=1.0))
        name = campaign.scenarios[0].name
        interface = sweep_jobs(name, starts=(60, 61), durations=(3,))
        jobs = interface + [(name, FaultSpec("brake", 0.0, tick, 4))
                            for tick in (50, 70)]
        serial = campaign.run_jobs(jobs)
        pooled = campaign.run_jobs(jobs, workers=2)
        assert bits(pooled.records) == bits(serial.records) == \
            bits(reference_records(campaign, jobs))
        engines = [summary.extra_info["stage_timings"]["engine"]
                   for summary in (serial, pooled)]
        expected = (len(interface), sum(hand_off(fault) - fault.start_tick
                                        for _, fault in interface))
        assert [(engine["handoffs"], engine["handoff_ticks"])
                for engine in engines] == [expected] * 2
        assert [engine["fused_batches"] for engine in engines] == [1, 2]

    def test_resume_after_a_kill_inside_the_batch(self, tmp_path,
                                                  monkeypatch):
        """A campaign killed inside its batch, after the lanes handed
        off, resumes to the reference records; every job fuses again."""
        from repro.ads.batch import BatchADSState
        campaign = Campaign([late_fusion_scenario()],
                            late_config(horizon_after_fault=1.0))
        jobs = sweep_jobs(campaign.scenarios[0].name, starts=(61,),
                          durations=(2, 7))
        reference = bits(reference_records(campaign, jobs))
        original = BatchADSState.tick_all
        calls = []

        def dying(self):
            calls.append(1)
            if len(calls) == 5:
                raise KeyboardInterrupt
            return original(self)

        monkeypatch.setattr(BatchADSState, "tick_all", dying)
        killed = Campaign(campaign.scenarios, late_config(
            horizon_after_fault=1.0), cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            killed.run_jobs(jobs)
        monkeypatch.undo()
        attached = count_fused_attaches(monkeypatch)
        resumed = Campaign(campaign.scenarios, late_config(
            horizon_after_fault=1.0,
            resilience=ResilienceConfig(resume=True)), cache_dir=tmp_path)
        summary = resumed.run_jobs(jobs)
        assert (resumed._last_journal.hits,
                resumed._last_journal.appended) == (0, len(jobs))
        assert len(attached) == len(jobs)
        assert bits(summary.records) == reference

    def test_attach_takes_expired_residue_not_pending_faults(self):
        """On its hand-off tick a lane's bus may still hold an expired
        delay queue (the planning channel delivers on planner ticks
        only); ``attach`` takes it, and refuses the same pipeline while
        its fault is still pending or active."""
        from repro.ads.batch import BatchADSState
        from repro.ads.runtime import ADSPipeline
        from repro.core.simulate import _arm_faults
        from repro.sim.batch import BatchWorldState
        scenario = late_fusion_scenario()
        fault = interface_fault("delay", "planning", 40, duration_ticks=3)
        world = scenario.make_world()
        pipeline = ADSPipeline(ADSConfig(), seed=0)
        _arm_faults(pipeline, [fault])
        ads = BatchADSState(BatchWorldState([scenario.make_world()]),
                            ADSConfig())
        for tick in range(hand_off(fault)):
            if tick in (0, 40, 42):
                with pytest.raises(ValueError):
                    ads.attach(0, pipeline)
            command = pipeline.tick(world)
            world.step(command.throttle, command.brake, command.steering,
                       0.05)
        assert pipeline.bus._states["planning"].queue
        ads.attach(0, pipeline)
        assert ads.active[0]
