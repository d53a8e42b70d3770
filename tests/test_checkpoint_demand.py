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
* Bayesian plans, whose jobs exist only after mining, keep the full
  ladder;
* a checkpoint never changes after capture: it pickles to the same
  bytes at capture and at the end of the run.
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
from repro.sim import default_scenarios, highway_cruise, lead_vehicle_cutin


def small_scenarios():
    return [replace(highway_cruise(), duration=24.0),
            replace(lead_vehicle_cutin(), duration=16.0)]


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

    def test_bayesian_keeps_the_full_ladder(self):
        campaign = Campaign(small_scenarios(), CampaignConfig())
        result = campaign.bayesian_campaign(top_k=4)
        assert strip_wall(result.summary.records) == strip_wall(
            reference_records(campaign,
                              candidate_jobs(campaign, result.candidates)))
        assert spooled_ticks(campaign) == {
            s.name: campaign.schedule_injection_ticks(s)
            for s in campaign.scenarios}


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
