"""Demand-driven checkpoint ladders: capture only where a job forks.

Random, architectural and exhaustive draws and explicit job lists name
their jobs before any golden run, so the driver snapshots exactly the
ticks those jobs start at.  Every campaign here must still produce the
reference loop's records (``tests/reference.py``: serial full replay),
whatever its ladder holds:

* fresh ladders hold exactly the demanded ticks, serial and pooled;
* a golden run that ends early makes the real draw differ from the
  schedule-based demand, so jobs fork from uncaptured ticks;
* a warm or spilled ladder lacking a new campaign's ticks is
  recaptured as the union, in one prefix run per scenario;
* Bayesian plans, whose jobs exist only after mining, capture nothing
  in their golden runs; dispatch replays one fault-free prefix per
  scenario with candidates, which snapshots exactly the distinct
  candidate ticks;
* a checkpoint never changes after capture: it pickles to the same
  bytes at capture and at the end of the run;
* the same plans stop golden runs at their last forkable tick; a cut
  run serves later job-known campaigns, while ``golden_runs()`` and
  Bayesian campaigns simulate it again in full;
* they simulate no golden run at all for a scenario they have no job
  in, unless a golden run that ends early moves the real draw there.
"""

import pickle
from dataclasses import replace

import pytest
from reference import (architectural_jobs, candidate_jobs, exhaustive_jobs,
                       random_jobs, reference_records, strip_wall)

import repro.core.campaign as campaign_module
import repro.core.simulate as simulate_module
from repro.core import (Campaign, CampaignConfig, CampaignSummary,
                        CheckpointStore, FaultSpec, run_scenario)
from repro.core.checkpoint import Checkpoint
from repro.core.plans import ExhaustivePlan
from repro.sim import (adjacent_traffic, braking_lead, default_scenarios,
                       highway_cruise, lead_vehicle_cutin)


def small_scenarios():
    return [replace(highway_cruise(), duration=24.0),
            replace(lead_vehicle_cutin(), duration=16.0)]


def mining_scenarios():
    """Scenarios whose Bayesian campaign mines candidates in two of
    three: at seed 0, 92 in ``adjacent_traffic``, 11 in
    ``lead_vehicle_cutin`` and none in ``braking_lead``."""
    return [replace(adjacent_traffic(), duration=16.0),
            lead_vehicle_cutin(),
            replace(braking_lead(), duration=16.0)]


def spooled_ticks(campaign) -> dict[str, list[int]]:
    """Ticks of every ladder the driver spilled, per scenario."""
    return CheckpointStore.saved_ticks(campaign._ladder_spool_dir())


def demand_of(jobs) -> dict[str, list[int]]:
    """The distinct start ticks of ``jobs``, per scenario."""
    demand: dict[str, set[int]] = {}
    for name, fault in jobs:
        demand.setdefault(name, set()).add(fault.start_tick)
    return {name: sorted(ticks) for name, ticks in demand.items()}


def explicit_jobs(campaign):
    """A hand-written job list with off-planner (odd) start ticks and
    two faults at one tick."""
    cruise, cutin = (s.name for s in campaign.scenarios)
    return [(cruise, FaultSpec("brake", 0.0, 41, 4)),
            (cutin, FaultSpec("throttle", 1.0, 57, 4)),
            (cruise, FaultSpec("steering", 0.3, 41, 4)),
            (cruise, FaultSpec("brake", 1.0, 130, 4)),
            (cutin, FaultSpec("raw_steering", -0.4, 90, 4))]


#: style -> (run the campaign, its reference job list).  The reference
#: helpers read golden ticks through ``golden_runs()``, so they run
#: after the campaign, which has collected the goldens by then.
STYLES = {
    "random": (
        lambda c, w: c.random_campaign(10, seed=11, workers=w,
                                       interface_share=0.3),
        lambda c: random_jobs(c, 10, seed=11, interface_share=0.3)),
    "architectural": (
        lambda c, w: c.architectural_campaign(60, seed=3, workers=w)[0],
        lambda c: architectural_jobs(c, 60, seed=3)[0]),
    "exhaustive": (
        lambda c, w: c.exhaustive_campaign(
            tick_stride=30, variable_names=["brake"], workers=w),
        lambda c: exhaustive_jobs(c, tick_stride=30,
                                  variable_names=["brake"])),
    "exhaustive-capped": (
        lambda c, w: c.exhaustive_campaign(
            tick_stride=20, variable_names=["brake", "steering"],
            max_experiments=14, workers=w),
        lambda c: exhaustive_jobs(c, tick_stride=20,
                                  variable_names=["brake", "steering"],
                                  max_experiments=14)),
    "jobs": (
        lambda c, w: c.run_jobs(explicit_jobs(c), workers=w),
        explicit_jobs),
}


class TestDemandLadders:
    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("style", sorted(STYLES))
    def test_ladder_holds_exactly_the_demand(self, style, workers):
        run, jobs_of = STYLES[style]
        campaign = Campaign(small_scenarios(),
                            CampaignConfig(profile_stages=True))
        summary = run(campaign, workers)
        jobs = jobs_of(campaign)
        assert jobs, "the style must schedule jobs for this test"
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))
        demand = demand_of(jobs)
        assert spooled_ticks(campaign) == demand
        if workers is None:
            # Serial: every layer ran in this process.  One snapshot per
            # demanded tick, one fork per job, no gap replayed.
            row = summary.extra_info["stage_timings"]["checkpoint"]
            demanded = sum(map(len, demand.values()))
            assert row["snapshots"] == row["demanded_ticks"] == demanded
            assert row["restores"] == len(jobs)
            assert row["gap_ticks"] == 0
            assert row["spill_bytes"] > 0


class TestBayesianLadder:
    """Bayesian golden runs capture nothing; each scenario's ladder is
    captured when its candidates are dispatched, and holds just the
    distinct ticks they fork from."""

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("top_k", [12, None])
    def test_ladder_holds_exactly_the_candidate_ticks(self, top_k, workers):
        campaign = Campaign(mining_scenarios(),
                            CampaignConfig(profile_stages=True))
        result = campaign.bayesian_campaign(top_k=top_k, workers=workers)
        jobs = candidate_jobs(campaign, result.candidates)
        demand = demand_of(jobs)
        assert len(demand) == 2, "candidates must span two scenarios"
        if top_k is not None:
            assert len(jobs) == top_k
        assert strip_wall(result.summary.records) == \
            strip_wall(reference_records(campaign, jobs))
        assert spooled_ticks(campaign) == demand
        # The driver replays and snapshots; pool workers ship their
        # restore counts back, so the row reads the same either way.
        row = result.summary.extra_info["stage_timings"]["checkpoint"]
        assert row["snapshots"] == row["demanded_ticks"] == \
            sum(map(len, demand.values()))
        assert row["replay_ticks"] == sum(ticks[-1] + 1
                                          for ticks in demand.values())
        assert row["restores"] == len(jobs)
        assert row["gap_ticks"] == 0

    def test_replay_ticks_count_the_prefix_runs(self, capsys):
        """The prefix ticks one serial run replays (its two candidate
        scenarios' last candidate ticks + 1), on the row and the CLI
        line; golden runs stay complete."""
        from repro.cli import _print_summary
        campaign = Campaign(mining_scenarios(),
                            CampaignConfig(profile_stages=True))
        result = campaign.bayesian_campaign(top_k=12)
        timings = result.summary.extra_info["stage_timings"]
        row = timings["checkpoint"]
        assert row["replay_ticks"] == 150
        assert timings["golden"]["cut_ticks"] == 0
        _print_summary(result.summary, "bayesian")
        assert (f"checkpoint: {row['snapshots']} snapshots for "
                f"{row['demanded_ticks']} demanded ticks "
                f"({row['replay_ticks']} prefix ticks replayed)") \
            in capsys.readouterr().out


class TestGoldenEndsEarly:
    @staticmethod
    def scenarios():
        # A close cut-in that the fault-free stack cannot avoid: its
        # golden run collides at 5.25 s, long before the schedule ends.
        early = replace(lead_vehicle_cutin(cutin_gap=5.0),
                        name="early_cutin", duration=20.0)
        return [early, replace(highway_cruise(), duration=24.0)]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_uncaptured_ticks_fork_from_nearest_or_cold(self, workers):
        campaign = Campaign(self.scenarios(), CampaignConfig())
        summary = campaign.random_campaign(16, seed=5, workers=workers)
        early = campaign.scenarios[0]
        golden = campaign.golden_runs()[early.name]
        assert golden.collided
        trace_ticks = campaign.injection_ticks(early)
        assert trace_ticks != campaign.schedule_injection_ticks(early)

        jobs = random_jobs(campaign, 16, seed=5)
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))
        # The demand came from the schedule; the real draw from the
        # shorter trace, so some jobs start where nothing was captured.
        captured = set(spooled_ticks(campaign).get(early.name, ()))
        uncaptured = [fault.start_tick for name, fault in jobs
                      if name == early.name
                      and fault.start_tick not in captured]
        assert uncaptured


class TestLadderRecapture:
    @pytest.mark.parametrize("cached", [False, True])
    def test_missing_ticks_recaptured_as_union(self, tmp_path, cached,
                                               monkeypatch):
        """A second campaign with a new seed forks elsewhere: each
        ladder lacking its ticks is recaptured once, as the union —
        from the spool of the same campaign object, or from the cache
        of a fresh one."""
        cache_dir = tmp_path if cached else None
        first = Campaign(small_scenarios(), CampaignConfig(),
                         cache_dir=cache_dir)
        first.random_campaign(8, seed=1)
        before = spooled_ticks(first)
        second = (Campaign(small_scenarios(), CampaignConfig(),
                           cache_dir=cache_dir)
                  if cached else first)

        prefix_runs = []
        real = campaign_module.run_scenario

        def counting(scenario, *args, **kwargs):
            prefix_runs.append(scenario.name)
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(campaign_module, "run_scenario", counting)
        summary = second.random_campaign(8, seed=2)
        monkeypatch.undo()

        jobs = random_jobs(second, 8, seed=2)
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(second, jobs))
        demand = demand_of(jobs)
        lacking = sorted(name for name, ticks in demand.items()
                         if not set(ticks) <= set(before.get(name, ())))
        assert lacking, "the new seed must fork somewhere new"
        assert sorted(prefix_runs) == lacking
        after = spooled_ticks(second)
        for name in set(before) | set(demand):
            assert after[name] == sorted(set(before.get(name, ()))
                                         | set(demand.get(name, ())))

        # The ladders now cover both seeds: a rerun re-simulates nothing.
        monkeypatch.setattr(campaign_module, "run_scenario", counting)
        prefix_runs.clear()
        second.random_campaign(8, seed=1)
        assert prefix_runs == []


class TestCheckpointsAreFrozen:
    @pytest.mark.parametrize("scenario", default_scenarios(),
                             ids=lambda s: s.name)
    def test_capture_bytes_equal_run_end_bytes(self, scenario, monkeypatch):
        """Every eligible-tick checkpoint of every default scenario
        pickles to the same bytes when captured and after the run: no
        snapshot aliases live state the run goes on to mutate."""
        at_capture = {}

        def recording(**fields):
            checkpoint = Checkpoint(**fields)
            at_capture[checkpoint.tick] = pickle.dumps(checkpoint)
            return checkpoint

        monkeypatch.setattr(simulate_module, "Checkpoint", recording)
        ticks = Campaign([scenario]).schedule_injection_ticks(scenario)
        run = run_scenario(scenario, record_trace=False,
                           checkpoint_ticks=ticks)
        assert sorted(run.checkpoints) == ticks
        assert {tick: pickle.dumps(checkpoint)
                for tick, checkpoint in run.checkpoints.items()} \
            == at_capture


class TestCheckpointRow:
    def test_row_merges_and_prints(self, capsys):
        from repro.cli import _print_summary
        campaign = Campaign(small_scenarios(),
                            CampaignConfig(profile_stages=True))
        summary = campaign.random_campaign(6, seed=4)
        row = summary.extra_info["stage_timings"]["checkpoint"]
        assert row["seconds"] == 0.0 and row["calls"] == 0
        merged = CampaignSummary.merge([summary, summary])
        assert merged.extra_info["stage_timings"]["checkpoint"] == {
            name: 2 * value for name, value in row.items()}
        _print_summary(summary, "random")
        assert (f"checkpoint: {row['snapshots']} snapshots for "
                f"{row['demanded_ticks']} demanded ticks") \
            in capsys.readouterr().out


def full_ticks(campaign, scenario) -> int:
    """Control ticks of a scenario run to its end."""
    return int(round(scenario.duration / campaign.config.ads.control_period))


def full_golden(campaign, scenario):
    """A fresh fault-free run of ``scenario`` to its end."""
    config = campaign.config
    return run_scenario(scenario, ads_config=config.ads, seed=config.seed,
                        safety_config=config.safety)


class TestGoldenCut:
    """Job-known plans stop golden runs at their last forkable tick.

    Records must stay the reference loop's (which runs full goldens
    through ``golden_runs()``), whatever the cut skipped — with in-RAM
    golden traces and with a ``cache_dir`` spooling them to disk.
    """

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("style", sorted(STYLES))
    def test_records_match_reference(self, style, workers, cached,
                                     tmp_path):
        run, jobs_of = STYLES[style]
        campaign = Campaign(small_scenarios(), CampaignConfig(),
                            cache_dir=tmp_path if cached else None)
        summary = run(campaign, workers)
        cut = {name: golden.cut_tick
               for name, golden in campaign._golden.items()}
        jobs = jobs_of(campaign)
        # A scenario without jobs simulates no golden run at all.
        assert set(cut) == {name for name, _ in jobs}
        for name in cut:
            assert cut[name] is not None
            assert cut[name] < full_ticks(campaign,
                                          campaign._by_name[name])
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))

    def test_job_past_the_window_forks_without_gap(self):
        campaign = Campaign(small_scenarios(),
                            CampaignConfig(profile_stages=True))
        cruise = campaign.scenarios[0]
        last_window = campaign.schedule_injection_ticks(cruise)[-1]
        late = last_window + 101
        assert late < full_ticks(campaign, cruise)
        jobs = [(cruise.name, FaultSpec("brake", 1.0, late, 4)),
                (cruise.name, FaultSpec("throttle", 1.0, 60, 4))]
        summary = campaign.run_jobs(jobs)
        assert campaign._golden[cruise.name].cut_tick == late + 1
        row = summary.extra_info["stage_timings"]["checkpoint"]
        assert row["restores"] == len(jobs)
        assert row["gap_ticks"] == 0
        assert late in spooled_ticks(campaign)[cruise.name]
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))

    def test_collision_inside_the_window_ends_the_run(self):
        campaign = Campaign(TestGoldenEndsEarly.scenarios(),
                            CampaignConfig())
        summary = campaign.random_campaign(16, seed=5)
        early, cruise = campaign.scenarios
        collided = campaign._golden[early.name]
        assert collided.collided and collided.cut_tick is None
        last_window = round((early.duration
                             - campaign.config.injection_window_margin)
                            / campaign.config.ads.control_period)
        assert round(collided.sim_seconds
                     / campaign.config.ads.control_period) < last_window
        assert campaign._golden[cruise.name].cut_tick is not None
        # Complete already: golden_runs() keeps it, the same object.
        assert campaign.golden_runs()[early.name] is collided
        jobs = random_jobs(campaign, 16, seed=5)
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))

    @pytest.mark.parametrize("workers", [None, 2])
    def test_no_window_ticks_raises(self, workers):
        short = replace(highway_cruise(), name="short", duration=10.0)
        campaign = Campaign([short], CampaignConfig())
        assert campaign.schedule_injection_ticks(short) == []
        with pytest.raises(ValueError) as raised:
            campaign.random_campaign(4, seed=0, workers=workers)
        assert str(raised.value) == str(campaign._no_ticks_error("short"))


class TestGoldenCutMemo:
    """Cut runs in the memo and the golden cache: complete-run readers
    re-simulate them, job-known plans reuse them."""

    @staticmethod
    def forbid_simulation(monkeypatch):
        def no_resimulation(*args, **kwargs):
            raise AssertionError("must not re-simulate")

        import repro.core.parallel as parallel_module
        monkeypatch.setattr(campaign_module, "run_scenario",
                            no_resimulation)
        monkeypatch.setattr(parallel_module, "run_scenario",
                            no_resimulation)

    @pytest.mark.parametrize("cached", [False, True])
    def test_golden_runs_are_complete(self, tmp_path, cached):
        cache_dir = tmp_path if cached else None
        first = Campaign(small_scenarios(), CampaignConfig(),
                         cache_dir=cache_dir)
        first.random_campaign(8, seed=1)
        readers = [first]
        if cached:
            readers.append(Campaign(small_scenarios(), CampaignConfig(),
                                    cache_dir=cache_dir))
        for campaign in readers:
            golden = campaign.golden_runs()
            for scenario in campaign.scenarios:
                run = golden[scenario.name]
                fresh = full_golden(campaign, scenario)
                assert run.cut_tick is None
                assert run.sim_seconds == fresh.sim_seconds
                assert len(run.trace) == len(fresh.trace)
                assert run.min_delta_long == fresh.min_delta_long
        if cached:
            # The complete runs replaced the cut ones in the cache.
            third = Campaign(small_scenarios(), CampaignConfig(),
                             cache_dir=cache_dir)
            assert all(run.cut_tick is None
                       for run in third._load_golden_cache().values())

    @pytest.mark.parametrize("cached", [False, True])
    def test_bayesian_after_random_matches_fresh(self, tmp_path, cached):
        cache_dir = tmp_path / "shared" if cached else None
        campaign = Campaign(small_scenarios(), CampaignConfig(),
                            cache_dir=cache_dir)
        campaign.random_campaign(8, seed=1)
        after = campaign.bayesian_campaign(top_k=4)
        fresh = Campaign(small_scenarios(), CampaignConfig(),
                         cache_dir=tmp_path / "fresh" if cached else None)
        expected = fresh.bayesian_campaign(top_k=4)
        assert after.candidates == expected.candidates
        assert strip_wall(after.summary.records) == \
            strip_wall(expected.summary.records)
        assert all(run.cut_tick is None
                   for run in campaign._golden.values())

    @pytest.mark.parametrize("cached", [False, True])
    def test_second_random_campaign_reuses_cut_runs(self, tmp_path,
                                                    cached, monkeypatch):
        cache_dir = tmp_path if cached else None
        first = Campaign(small_scenarios(), CampaignConfig(),
                         cache_dir=cache_dir)
        reference = first.random_campaign(8, seed=1)
        second = (Campaign(small_scenarios(), CampaignConfig(),
                           cache_dir=cache_dir)
                  if cached else first)
        self.forbid_simulation(monkeypatch)
        again = second.random_campaign(8, seed=1)
        assert strip_wall(again.records) == strip_wall(reference.records)
        assert all(run.cut_tick is not None
                   for run in second._golden.values())


class TestGoldenRow:
    def test_ticks_plus_cut_ticks_are_the_full_runs(self, capsys):
        from repro.cli import _print_summary
        campaign = Campaign(small_scenarios(),
                            CampaignConfig(profile_stages=True))
        summary = campaign.random_campaign(8, seed=1)
        row = summary.extra_info["stage_timings"]["golden"]
        assert row["seconds"] == 0.0 and row["calls"] == 0
        assert row["runs"] == len(campaign.scenarios)
        assert row["cut_ticks"] > 0
        assert row["ticks"] + row["cut_ticks"] == sum(
            full_ticks(campaign, s) for s in campaign.scenarios)
        merged = CampaignSummary.merge([summary, summary])
        assert merged.extra_info["stage_timings"]["golden"] == {
            name: 2 * value for name, value in row.items()}
        _print_summary(summary, "random")
        assert (f"golden: {row['runs']} runs, {row['ticks']} ticks "
                f"simulated, {row['cut_ticks']} cut after the last "
                f"forkable tick") in capsys.readouterr().out

    @pytest.mark.parametrize("style", ["random", "exhaustive-capped"])
    def test_pooled_counts_match_serial(self, style):
        """Pool workers ship their counters back: the per-job counts of
        ``workers=2`` equal ``workers=1``.  The stop table's hits and
        misses are process-local caches, so they are left out."""
        run, _ = STYLES[style]
        rows = []
        for workers in (1, 2):
            campaign = Campaign(small_scenarios(),
                                CampaignConfig(profile_stages=True))
            rows.append(run(campaign, workers)
                        .extra_info["stage_timings"])
        serial, pooled = rows
        from repro.ads.profiling import STAGES
        for layer in STAGES + ("safety",):
            assert pooled[layer]["calls"] == serial[layer]["calls"], layer
        for layer in ("collision", "engine", "golden"):
            assert pooled[layer] == serial[layer], layer
        for event in ("restores", "snapshots", "gap_ticks",
                      "demanded_ticks"):
            assert pooled["checkpoint"][event] == \
                serial["checkpoint"][event], event


def three_scenarios():
    return small_scenarios() + [replace(braking_lead(), duration=16.0)]


def two_scenario_jobs(campaign):
    """Jobs in the first two of :func:`three_scenarios` only."""
    cruise, cutin, _ = (s.name for s in campaign.scenarios)
    return [(cruise, FaultSpec("brake", 1.0, 60, 4)),
            (cutin, FaultSpec("steering", 0.3, 90, 4)),
            (cruise, FaultSpec("throttle", 1.0, 200, 4))]


#: Job-known styles that leave at least one of three scenarios jobless.
JOBLESS_STYLES = {
    "random": (
        lambda c, w: c.random_campaign(2, seed=4, workers=w),
        lambda c: random_jobs(c, 2, seed=4)),
    "exhaustive-capped": (
        lambda c, w: c.exhaustive_campaign(
            tick_stride=40, variable_names=["brake"], max_experiments=4,
            workers=w),
        lambda c: exhaustive_jobs(c, tick_stride=40,
                                  variable_names=["brake"],
                                  max_experiments=4)),
    "jobs": (
        lambda c, w: c.run_jobs(two_scenario_jobs(c), workers=w),
        two_scenario_jobs),
}


class TestJoblessScenarios:
    """A job-known plan simulates golden runs only where it has jobs."""

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("style", sorted(JOBLESS_STYLES))
    def test_records_and_golden_row(self, style, workers):
        run, jobs_of = JOBLESS_STYLES[style]
        campaign = Campaign(three_scenarios(),
                            CampaignConfig(profile_stages=True))
        summary = run(campaign, workers)
        simulated = set(campaign._golden)
        jobs = jobs_of(campaign)
        drawn = {name for name, _ in jobs}
        assert drawn < {s.name for s in campaign.scenarios}, \
            "the style must leave a scenario without jobs"
        assert simulated == drawn
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))
        row = summary.extra_info["stage_timings"]["golden"]
        assert row["runs"] == len(drawn)
        assert row["ticks"] + row["cut_ticks"] == sum(
            full_ticks(campaign, campaign._by_name[name]) for name in drawn)
        assert set(spooled_ticks(campaign)) <= drawn

    @pytest.mark.parametrize("workers", [None, 2])
    def test_early_end_draws_into_a_skipped_scenario(self, workers):
        """The schedule's capped grid fills in ``early_cutin``, so the
        demand names no job in ``highway_cruise``; the golden run of
        ``early_cutin`` collides, its real grid is shorter, and the cap
        then reaches ``highway_cruise``, whose golden run the driver
        simulates before dispatching."""
        campaign = Campaign(TestGoldenEndsEarly.scenarios(),
                            CampaignConfig(profile_stages=True))
        early, cruise = campaign.scenarios
        params = dict(tick_stride=20, variable_names=["brake"],
                      max_experiments=8)
        schedule_grid = ExhaustivePlan(campaign, **params).grid(
            campaign.schedule_injection_ticks(early)[::20])
        assert len(schedule_grid) >= params["max_experiments"]
        summary = campaign.exhaustive_campaign(workers=workers, **params)
        jobs = exhaustive_jobs(campaign, **params)
        assert cruise.name in {name for name, _ in jobs}
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(campaign, jobs))
        assert summary.extra_info["stage_timings"]["golden"]["runs"] == 2

    def test_cache_and_golden_runs(self, tmp_path, monkeypatch):
        """The cache file holds the runs the campaign simulated and
        serves the same campaign again; ``golden_runs()`` then
        simulates every scenario in full."""
        first = Campaign(three_scenarios(), CampaignConfig(),
                         cache_dir=tmp_path)
        reference = first.run_jobs(two_scenario_jobs(first))
        second = Campaign(three_scenarios(), CampaignConfig(),
                          cache_dir=tmp_path)
        TestGoldenCutMemo.forbid_simulation(monkeypatch)
        again = second.run_jobs(two_scenario_jobs(second))
        monkeypatch.undo()
        assert strip_wall(again.records) == strip_wall(reference.records)
        assert len(second._golden) == 2
        golden = second.golden_runs()
        assert list(golden) == [s.name for s in second.scenarios]
        for scenario in second.scenarios:
            run = golden[scenario.name]
            fresh = full_golden(second, scenario)
            assert run.cut_tick is None
            assert run.sim_seconds == fresh.sim_seconds
            assert run.min_delta_long == fresh.min_delta_long
        third = Campaign(three_scenarios(), CampaignConfig(),
                         cache_dir=tmp_path)
        assert len(third._load_golden_cache()) == 3

    def test_cache_keeps_the_union(self, tmp_path, monkeypatch):
        """A second job-known campaign on the same cache simulates only
        the scenario the file lacks, and the file then holds the runs
        of both campaigns."""
        import repro.core.parallel as parallel_module
        first = Campaign(three_scenarios(), CampaignConfig(),
                         cache_dir=tmp_path)
        first.run_jobs(two_scenario_jobs(first))    # cruise and cut-in
        second = Campaign(three_scenarios(), CampaignConfig(),
                          cache_dir=tmp_path)
        cutin, braking = (s.name for s in second.scenarios[1:])
        jobs = [(cutin, FaultSpec("brake", 1.0, 80, 4)),
                (braking, FaultSpec("throttle", 1.0, 70, 4))]
        simulated = []
        real = parallel_module.run_scenario

        def counting(scenario, *args, **kwargs):
            simulated.append(scenario.name)
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(parallel_module, "run_scenario", counting)
        summary = second.run_jobs(jobs)
        monkeypatch.undo()
        assert simulated == [braking]
        assert strip_wall(summary.records) == \
            strip_wall(reference_records(second, jobs))
        third = Campaign(three_scenarios(), CampaignConfig(),
                         cache_dir=tmp_path)
        assert list(third._load_golden_cache()) == \
            [s.name for s in third.scenarios]
