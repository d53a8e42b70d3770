"""Wide fused batches: one batch per dispatch, columnar samples.

The driver validates the fusable jobs of one dispatch, whatever their
scenarios, as one :func:`~repro.core.parallel.execute_experiment_batch`
call of up to :data:`~repro.core.parallel.MAX_LANES` live lanes,
refilling retired slots from the rest of the jobs.  Fused lanes keep
their safety samples in the batch's columns, decide collision, off-road
and retirement as array masks, skip the fault hooks outside their fault
windows, and let go of their samples, world and pipeline once their
result is built.  Every record still equals the scalar engine's.
"""

import gc
import pickle
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from reference import random_jobs, reference_records, strip_wall

from repro.ads.batch import BatchADSState
from repro.core import Campaign, CampaignConfig, parallel
from repro.core import pipeline as pipeline_module
from repro.core import simulate
from repro.core.checkpoint import Checkpoint
from repro.core.interface_faults import interface_fault
from repro.core.resilience import ResilienceConfig
from repro.core.simulate import (FaultSpec, _SafetyColumns,
                                 run_experiments_batched, run_scenario)
from repro.sim import (adjacent_traffic, empty_road, highway_cruise,
                       lead_vehicle_cutin, stop_and_go, two_lead_reveal)

DT = 0.05


def overlap_scenario():
    """The lead starts on top of the ego at the ego's speed: a fault
    before the ADS has braked clear collides at its first monitored
    tick, and a later one runs to the scenario's end."""
    return replace(highway_cruise(ego_speed=30.0, lead_gap=0.0,
                                  lead_speed=30.0, name="overlap"),
                   duration=6.0)


def overlap_jobs(count=40):
    variables = ("tracked_gap", "throttle", "brake", "gps_y")
    values = {"tracked_gap": 80.0, "throttle": 1.0, "brake": 0.0,
              "gps_y": 2.0}
    jobs = []
    for i in range(count):
        variable = variables[i % len(variables)]
        jobs.append(("overlap", FaultSpec(variable, values[variable],
                                          3 * i, 4)))
    return jobs


def strip(result):
    row = asdict(result)
    for name in ("wall_seconds", "trace", "checkpoints"):
        row.pop(name)
    return row


@pytest.fixture
def count_batch_calls(monkeypatch):
    """The size of every fused batch the serial driver starts."""
    sizes = []
    original = pipeline_module.execute_experiment_batch

    def counting(jobs, config, forks=None):
        sizes.append(len(jobs))
        return original(jobs, config, forks)

    monkeypatch.setattr(pipeline_module, "execute_experiment_batch",
                        counting)
    return sizes


class TestRefill:
    """A group wider than ``MAX_LANES`` refills retired slots."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_narrow_batches_refill(self, monkeypatch, workers):
        monkeypatch.setattr(parallel, "LANES", 4)
        monkeypatch.setattr(parallel, "MAX_LANES", 4)
        attached = []
        original = BatchADSState.attach

        def counting(self, slot, pipeline):
            attached.append(slot)
            return original(self, slot, pipeline)

        monkeypatch.setattr(BatchADSState, "attach", counting)
        campaign = Campaign([replace(lead_vehicle_cutin(), duration=14.0)],
                            CampaignConfig())
        jobs = [(name, fault)
                for name, fault in random_jobs(campaign, 11, seed=3)]
        assert len(jobs) == 11
        summary = campaign.run_jobs(jobs, workers=workers)
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))
        if workers is None:
            # Four slots, eleven lanes: seven joined retired slots.
            assert len(attached) == 11
            assert set(attached) == {0, 1, 2, 3}


class TestOneWideBatch:
    """At the shipped width, a 40-job group is one batch call."""

    def test_group_runs_as_one_batch(self, count_batch_calls):
        assert parallel.MAX_LANES >= 40
        campaign = Campaign([overlap_scenario()], CampaignConfig())
        jobs = overlap_jobs()
        summary = campaign.run_jobs(jobs)
        assert count_batch_calls == [40]
        reference = reference_records(campaign, jobs)
        assert strip_wall(summary.records) == strip_wall(reference)
        for fused, scalar in zip(summary.records, reference):
            for field in ("min_delta_long", "min_delta_lat",
                          "pre_delta_long", "pre_delta_lat"):
                assert getattr(fused, field) == getattr(scalar, field)

    def test_group_covers_both_lane_ends(self):
        """The equality above covers lanes that collide at their first
        monitored tick and lanes that run to the scenario's end."""
        scenario = overlap_scenario()
        n_ticks = round(scenario.duration / DT)
        ends = []
        for _, fault in overlap_jobs():
            result = run_scenario(scenario, faults=[fault],
                                  record_trace=False)
            ticks = round(result.sim_seconds / DT)
            if result.collided and ticks == fault.start_tick + 1:
                ends.append("first")
            elif ticks == n_ticks:
                ends.append("end")
        assert ends.count("first") >= 5
        assert ends.count("end") >= 5

    def test_small_group_stays_scalar(self, count_batch_calls):
        campaign = Campaign([overlap_scenario()], CampaignConfig())
        campaign.run_jobs(overlap_jobs(parallel.LANES - 1))
        assert count_batch_calls == []


class TestNoTicks:
    """A run with no tick to simulate folds no samples, in both
    engines."""

    def test_zero_tick_runs(self):
        scenario = replace(highway_cruise(), duration=0.0)
        faults = [[FaultSpec("brake", 0.0, 0, 2)]] * 2
        fused = run_experiments_batched([scenario] * 2, faults)
        scalar = [run_scenario(scenario, faults=lane, record_trace=False)
                  for lane in faults]
        assert [strip(result) for result in fused] == \
            [strip(result) for result in scalar]
        assert fused[0].min_delta_long == float("inf")


class TestRelease:
    """A retired lane holds no samples, world or pipeline."""

    def test_retired_lanes_let_go(self, monkeypatch):
        lanes = []
        original = simulate._BatchLane.result

        def keeping(self, *args):
            result = original(self, *args)
            lanes.append(self)
            return result

        monkeypatch.setattr(simulate._BatchLane, "result", keeping)
        batches = set()
        original_release = simulate.BatchWorldState.release

        def release(self, lane):
            batches.add(self)
            original_release(self, lane)

        monkeypatch.setattr(simulate.BatchWorldState, "release", release)
        scenario = overlap_scenario()
        faults = [[fault] for _, fault in overlap_jobs(12)]
        results = run_experiments_batched([scenario] * len(faults), faults,
                                          batch_size=5)
        assert len(lanes) == len(results) == 12
        for lane in lanes:
            assert lane.first_block is None
            assert lane.world is None and lane.pipeline is None
        (batch,) = batches
        assert batch.worlds == [None] * 5

    def test_forks_are_freed_as_lanes_fork(self, monkeypatch):
        """A checkpoint is collectable once the last lane forking from
        it has forked: one slot, three jobs, the first two sharing a
        fork.  At each attach, only the forks of lanes still pending
        are alive."""
        campaign = Campaign([replace(lead_vehicle_cutin(), duration=16.0)],
                            CampaignConfig())
        campaign.golden_runs()
        scenario = campaign.scenarios[0]
        ticks = campaign.checkpoints.ticks(scenario.name)
        assert len(ticks) >= 2
        # Private copies: the campaign's store holds its own.
        shared, last = (pickle.loads(pickle.dumps(
            campaign.checkpoints.nearest(scenario.name, tick)))
            for tick in (ticks[0], ticks[-1]))
        faults = [[FaultSpec("brake", 0.0, tick, 4)]
                  for tick in (ticks[0], ticks[0] + 1, ticks[-1])]
        refs = [weakref.ref(shared), weakref.ref(last)]
        forks = [shared, shared, last]
        del shared, last
        alive = []
        original = BatchADSState.attach

        def attach(self, slot, pipeline):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            return original(self, slot, pipeline)

        monkeypatch.setattr(BatchADSState, "attach", attach)
        fused = run_experiments_batched([scenario] * 3, faults,
                                        checkpoints=forks, batch_size=1)
        assert alive == [[True, True], [False, True], [False, False]]
        assert forks == [None, None, None]
        assert [strip(result) for result in fused] == [
            strip(run_scenario(scenario, faults=lane, record_trace=False))
            for lane in faults]

    def test_serial_dispatch_holds_no_fused_fork(self, monkeypatch):
        """Once every lane of the serial driver's batch has forked, no
        checkpoint is left alive: the driver hands the batch its forks
        as a list the batch consumes, and keeps no store of them."""
        forked = set()
        original_fork = simulate._fork

        def fork(scenario, checkpoint, *args):
            forked.add(checkpoint.tick)
            return original_fork(scenario, checkpoint, *args)

        alive = []
        original = BatchADSState.tick_all

        def tick_all(self):
            if not alive:
                gc.collect()
                alive.append(sum(isinstance(thing, Checkpoint)
                                 and thing.scenario == "fork-release"
                                 for thing in gc.get_objects()))
            return original(self)

        monkeypatch.setattr(simulate, "_fork", fork)
        monkeypatch.setattr(BatchADSState, "tick_all", tick_all)
        scenarios = [replace(lead_vehicle_cutin(), name="fork-release",
                             duration=14.0)]
        # A random campaign keeps no ladder resident (it spools them),
        # so only the driver and the batch could hold a fork.
        summary = Campaign(scenarios, CampaignConfig()).random_campaign(
            24, seed=3)
        assert len(forked) > 10
        assert alive == [0]
        oracle = Campaign(scenarios, CampaignConfig())
        assert strip_wall(summary.records) == strip_wall(reference_records(
            oracle, random_jobs(oracle, 24, seed=3)))

    def test_columns_drop_unneeded_chunks(self):
        columns = _SafetyColumns(2)
        zeros = np.zeros((2, 5)), np.zeros(2), np.zeros(2), np.zeros(2)
        for _ in range(3 * _SafetyColumns.CHUNK + 1):
            columns.append(*zeros)
        assert len(columns._chunks) == 4
        columns.keep_from(2 * _SafetyColumns.CHUNK + 1)
        assert len(columns._chunks) == 2
        columns.keep_from(columns.next_block)
        assert len(columns._chunks) == 1     # the open chunk stays


class TestColumns:
    """A slot's samples are exactly what was appended for it."""

    def test_samples_round_trip(self):
        rng = np.random.default_rng(0)
        n = 3
        columns = _SafetyColumns(n)
        history, firsts = [], {}
        for tick in range(5 * _SafetyColumns.CHUNK + 7):
            ego = rng.normal(size=(n, 5))
            gap, free = rng.normal(size=n), rng.normal(size=n)
            lead = np.where(rng.random(n) < 0.3, np.nan,
                            rng.normal(size=n))
            assert columns.append(ego, gap, lead, free) == tick
            history.append(np.column_stack([ego[:, 2:5], gap, lead, free]))
            slot = tick % n
            if slot not in firsts:
                firsts[slot] = tick
            elif tick % 11 == 0:
                first = firsts.pop(slot)
                want = np.array([rows[slot] for rows in history[first:]])
                got = np.concatenate(columns.rows(slot, first))
                # Bit patterns: NaN leads included.
                assert got.view(np.int64).tolist() == \
                    want.view(np.int64).tolist()
            columns.keep_from(min(firsts.values(), default=tick + 1))


class TestQuietLanes:
    """Fused lanes call the fault hooks only inside their windows, and
    still equal the scalar engine, ``landed`` included."""

    #: Windows straddling a planning tick (odd starts, planner divisor
    #: 2), lanes with several faults across stages, and one lane whose
    #: windows are far apart.
    FAULTS = [
        [FaultSpec("tracked_gap", 5.0, 41, 2)],
        [FaultSpec("detection_x", 40.0, 43, 3),
         FaultSpec("raw_throttle", 1.0, 44, 2)],
        [FaultSpec("imu_speed", 0.0, 45, 4),
         FaultSpec("brake", 0.0, 47, 1), FaultSpec("planned_speed",
                                                   45.0, 49, 3)],
        [FaultSpec("gps_y", 3.0, 20, 1), FaultSpec("steering", 0.2, 90,
                                                   3)],
        [FaultSpec("throttle", 1.0, 61, 4)],
    ]

    def test_records_equal_scalar(self):
        scenario = replace(lead_vehicle_cutin(), duration=12.0)
        fused = run_experiments_batched([scenario] * len(self.FAULTS),
                                        self.FAULTS, horizon_after_fault=2.0)
        scalar = [run_scenario(scenario, faults=faults,
                               horizon_after_fault=2.0, record_trace=False)
                  for faults in self.FAULTS]
        assert [strip(result) for result in fused] == \
            [strip(result) for result in scalar]
        assert any(result.landed for result in fused)

    def test_hooks_run_only_inside_windows(self, monkeypatch):
        calls = []
        for name in ("_apply_object_faults", "_apply_column_faults"):
            original = getattr(BatchADSState, name)

            def hook(self, slot, stage, payload, original=original):
                calls.append((int(self.fault_from[slot]),
                              int(self.tick[slot]),
                              int(self.fault_until[slot])))
                return original(self, slot, stage, payload)

            monkeypatch.setattr(BatchADSState, name, hook)
        scenario = replace(lead_vehicle_cutin(), duration=12.0)
        run_experiments_batched([scenario] * len(self.FAULTS), self.FAULTS,
                                horizon_after_fault=2.0)
        assert calls
        assert all(start <= tick < until for start, tick, until in calls)


class TestPoolParts:
    """Pooled dispatch sends one wide fused part per worker."""

    def test_part_sizes(self, monkeypatch):
        sizes = []
        original = pipeline_module._parts

        def recording(items, size):
            parts = original(items, size)
            sizes.append([len(part) for part in parts])
            return parts

        monkeypatch.setattr(pipeline_module, "_parts", recording)
        campaign = Campaign([overlap_scenario()], CampaignConfig())
        jobs = overlap_jobs()
        summary = campaign.run_jobs(jobs, workers=2)
        assert sizes == [[20, 20]]
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))


class TestFusedTicks:
    """The ``engine`` row counts fused ticks and batches."""

    def test_counts_and_merge(self):
        campaign = Campaign([overlap_scenario()],
                            CampaignConfig(profile_stages=True))
        summary = campaign.run_jobs(overlap_jobs())
        engine = summary.extra_info["stage_timings"]["engine"]
        assert engine["fused_jobs"] == 40
        # One batch of 40 slots: every fused tick spans all of them.
        assert engine["slot_ticks"] == 40 * engine["fused_ticks"]
        assert 0 < engine["fused_ticks"] < engine["lane_ticks"]
        assert (engine["fused_batches"], engine["batch_scenarios"]) == \
            (1, 1)
        pooled = Campaign([overlap_scenario()],
                          CampaignConfig(profile_stages=True)).run_jobs(
            overlap_jobs(), workers=2)
        pooled_engine = pooled.extra_info["stage_timings"]["engine"]
        assert pooled_engine["fused_jobs"] == 40
        assert pooled_engine["lane_ticks"] == engine["lane_ticks"]
        # The tracked_gap lanes build a world model per planning fault
        # tick they run, in any worker: 16, as many as the scalar
        # pipelines corrupt (the gps_y lanes build none).
        assert pooled_engine["bundles_built"] == \
            engine["bundles_built"] == 16
        assert pooled_engine["fused_ticks"] >= engine["fused_ticks"]
        # Two wide parts of 20, one per worker, merged.
        assert (pooled_engine["fused_batches"],
                pooled_engine["batch_scenarios"]) == (2, 2)


class TestOneWave:
    """A dispatch of more than ``LANES`` and at most ``MAX_LANES`` jobs
    runs in one wave: as many fused ticks as its longest lane."""

    def test_equal_horizons_run_in_one_wave(self, monkeypatch):
        n = 160
        assert parallel.LANES < n <= parallel.MAX_LANES
        scenario = replace(empty_road(), name="one-wave", duration=8.0)
        variables = (("brake", 0.0), ("throttle", 1.0), ("gps_y", 2.0))
        jobs = [("one-wave", FaultSpec(*variables[i % 3], 20 + i % 50, 2))
                for i in range(n)]

        def run():
            summary = Campaign([scenario], CampaignConfig(
                profile_stages=True, horizon_after_fault=1.0)).run_jobs(jobs)
            engine = summary.extra_info["stage_timings"]["engine"]
            return summary.records, engine

        records, engine = run()
        # Each lane runs from its fork, the fault tick, through the
        # post-fault horizon: 2 + 20 + 1 ticks, none of them cut short.
        lengths = [round(record.sim_seconds / DT) - record.injection_tick
                   for record in records]
        assert set(lengths) == {23}
        assert engine["fused_batches"] == 1
        assert engine["fused_ticks"] == max(lengths)
        assert engine["lane_ticks"] == sum(lengths)
        assert engine["slot_ticks"] == n * engine["fused_ticks"]

        monkeypatch.setattr(parallel, "MAX_LANES", 16)
        narrow, waves = run()
        assert strip_wall(narrow) == strip_wall(records)
        assert waves["lane_ticks"] == engine["lane_ticks"]
        assert waves["fused_ticks"] == n // 16 * max(lengths)
        assert waves["slot_ticks"] == 16 * waves["fused_ticks"]


def small_library():
    """Six scenarios of 0 to 3 NPCs, none with ``LANES`` jobs alone."""
    return [replace(factory(), name=f"{factory.__name__}-lib",
                    duration=9.0)
            for factory in (empty_road, highway_cruise, lead_vehicle_cutin,
                            two_lead_reveal, stop_and_go, adjacent_traffic)]


def library_jobs(library):
    """Three value faults per scenario (18 in all), then two interface
    faults, which join the batch after their windows."""
    variables = (("brake", 0.0), ("throttle", 1.0), ("tracked_gap", 80.0),
                 ("gps_y", 2.0), ("steering", 0.3))
    jobs = []
    for i, scenario in enumerate(library):
        for k in range(3):
            variable, value = variables[(i + k) % len(variables)]
            jobs.append((scenario.name,
                         FaultSpec(variable, value, 20 + 25 * k + 3 * i, 4)))
    jobs.append((library[2].name, interface_fault("freeze", "planning", 40,
                                                  duration_ticks=4)))
    jobs.append((library[4].name, interface_fault("drop", "sensing", 55,
                                                  duration_ticks=4)))
    return jobs


class TestMixedBatches:
    """Small per-scenario groups that add up to ``LANES`` fuse as one
    batch of lanes from different scenarios."""

    def test_library_runs_as_one_batch(self, count_batch_calls):
        library = small_library()
        jobs = library_jobs(library)
        assert all(sum(name == scenario.name for name, _ in jobs)
                   < parallel.LANES for scenario in library)
        campaign = Campaign(library, CampaignConfig(profile_stages=True))
        summary = campaign.run_jobs(jobs)
        assert count_batch_calls == [20]
        engine = summary.extra_info["stage_timings"]["engine"]
        assert (engine["fused_batches"], engine["batch_scenarios"],
                engine["fused_jobs"], engine["scalar_jobs"],
                engine["handoffs"]) == (1, 6, 20, 0, 2)
        reference = reference_records(campaign, jobs)
        assert strip_wall(summary.records) == strip_wall(reference)
        for fused, scalar in zip(summary.records, reference):
            for field in ("min_delta_long", "min_delta_lat",
                          "pre_delta_long", "pre_delta_lat", "landed",
                          "sim_seconds"):
                assert getattr(fused, field) == getattr(scalar, field)

    def test_pooled_library_runs_as_one_batch(self):
        """With two workers, the 20 jobs are one wide part (a part is
        never narrower than ``LANES``), so one worker runs them as one
        mixed batch."""
        library = small_library()
        jobs = library_jobs(library)
        campaign = Campaign(library, CampaignConfig(profile_stages=True))
        summary = campaign.run_jobs(jobs, workers=2)
        engine = summary.extra_info["stage_timings"]["engine"]
        assert (engine["fused_batches"], engine["batch_scenarios"],
                engine["fused_jobs"], engine["handoffs"]) == (1, 6, 20, 2)
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))

    @pytest.mark.parametrize("kill", ["mid_batch", "after_records"])
    def test_resume_replays_the_remainder(self, tmp_path, monkeypatch,
                                          kill):
        """A campaign killed inside a mixed batch (no record of it
        journaled) or while emitting its records (some journaled)
        resumes to the reference records bit for bit; the remainder
        fuses again (``LANES`` patched to 4)."""
        monkeypatch.setattr(parallel, "LANES", 4)
        library = small_library()
        jobs = library_jobs(library)
        reference = strip_wall(reference_records(
            Campaign(library, CampaignConfig()), jobs))

        sink = None
        if kill == "mid_batch":
            calls = []
            original = BatchADSState.tick_all

            def dying(self):
                calls.append(1)
                if len(calls) == 30:
                    raise KeyboardInterrupt
                return original(self)

            monkeypatch.setattr(BatchADSState, "tick_all", dying)
        else:
            sink = InterruptAfter(5)
        killed = Campaign(library, CampaignConfig(), cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            killed.run_jobs(jobs, record_sink=sink)
        monkeypatch.undo()
        monkeypatch.setattr(parallel, "LANES", 4)

        attached = []
        original_attach = BatchADSState.attach

        def counting(self, slot, pipeline):
            attached.append(slot)
            return original_attach(self, slot, pipeline)

        monkeypatch.setattr(BatchADSState, "attach", counting)
        resumed = Campaign(
            library, CampaignConfig(resilience=ResilienceConfig(resume=True)),
            cache_dir=tmp_path)
        summary = resumed.run_jobs(jobs)
        journal = resumed._last_journal
        journaled = 0 if kill == "mid_batch" else 5
        assert (journal.hits, journal.appended) == \
            (journaled, len(jobs) - journaled)
        assert len(attached) == len(jobs) - journaled
        assert strip_wall(summary.records) == reference


class InterruptAfter:
    """Record sink raising KeyboardInterrupt at its Nth record."""

    def __init__(self, after: int):
        self.after = after
        self.seen = 0

    def add(self, record):
        self.seen += 1
        if self.seen >= self.after:
            raise KeyboardInterrupt
