"""Interface-fault campaigns: determinism, driver equivalence, oracle.

The interface fault family (drop/freeze/delay/jitter/hang at the typed
module boundaries) rides the same contract as value faults: a seeded
schedule is deterministic, and the record stream is bit-for-bit
identical (wall-clock timing aside) to the reference loop (serial full
replay in job order), both on the serial driver and over the process
pool — including checkpoint-forked validation versus full replay.

The degradation half: with the graceful-degradation mode disabled the
brittle stack turns a frozen control-critical channel into a recorded
hazard, and with it enabled the same fault is absorbed by the
safe-stop fallback and recorded as masked-by-degradation.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from reference import (architectural_jobs, candidate_jobs, exhaustive_jobs,
                       random_jobs, reference_records, strip_wall)

from repro.arch.injector import Outcome
from repro.core import (Campaign, CampaignConfig, DegradationConfig, Hazard,
                        ListSink, ResilienceConfig)
from repro.core.fault_models import ArchFaultOutcome
from repro.core.interface_faults import (CHANNELS, INTERFACE_KINDS,
                                         interface_fault,
                                         interface_fault_grid,
                                         random_interface_fault)
from repro.ads.runtime import ADSConfig
from repro.sim import highway_cruise, lead_vehicle_cutin, two_lead_reveal

#: The hazard reproduction pair: freezing the planning channel late in
#: two_lead_reveal starves control through the second lead's reveal.
ORACLE_SCENARIO = "two_lead_reveal"
ORACLE_FAULT = dict(kind="freeze", channel="planning", start_tick=80,
                    duration_ticks=25)


def small_scenarios():
    return [replace(highway_cruise(), duration=24.0),
            replace(lead_vehicle_cutin(), duration=16.0),
            replace(two_lead_reveal(), duration=18.0)]


def no_degradation_config(**kwargs):
    ads = ADSConfig(degradation=DegradationConfig(enabled=False))
    return CampaignConfig(ads=ads, **kwargs)


class HangingModel:
    """Architectural stub that always hangs: register flips hang so
    rarely that exercising the interface_hangs path needs forcing."""

    def sample(self, rng, injection_ticks, duration_ticks=2,
               interface_hangs=False):
        tick = int(injection_ticks[int(rng.integers(len(injection_ticks)))])
        channel = CHANNELS[int(rng.integers(len(CHANNELS)))]
        fault = (interface_fault("hang", channel, tick,
                                 duration_ticks=duration_ticks)
                 if interface_hangs else None)
        return ArchFaultOutcome(kernel="dot16", outcome=Outcome.HANG,
                                relative_error=0.0, fault=fault)


class TestSeededSchedules:
    """Same seed, same schedule — the determinism prerequisite."""

    def test_random_interface_draws_reproduce(self):
        draws = [
            [random_interface_fault(np.random.default_rng(9), [10, 20, 30])
             for _ in range(20)]
            for _ in range(2)]
        assert draws[0] == draws[1]

    def test_grid_is_ordered_and_complete(self):
        grid = interface_fault_grid([5, 10])
        assert len(grid) == 2 * len(INTERFACE_KINDS) * len(CHANNELS)
        assert grid == interface_fault_grid([5, 10])
        assert [f.start_tick for f in grid[:len(grid) // 2]] == \
            [5] * (len(grid) // 2)

    @pytest.mark.parametrize("kind", INTERFACE_KINDS)
    def test_single_fault_records_reproduce(self, kind):
        fault = interface_fault(kind, "perception", 30, duration_ticks=6)
        records = [
            Campaign(small_scenarios(), CampaignConfig()).run_fault(
                ORACLE_SCENARIO, fault)
            for _ in range(2)]
        assert strip_wall(records[:1]) == strip_wall(records[1:])
        assert records[0].kind == kind
        assert records[0].channel == "perception"


class TestDriverEquivalence:
    """Reference loop == serial driver == pool workers."""

    @staticmethod
    def reference(style):
        campaign = Campaign(small_scenarios(), CampaignConfig())
        if style == "random":
            jobs = random_jobs(campaign, 12, seed=11, interface_share=0.6)
        elif style == "exhaustive":
            jobs = exhaustive_jobs(campaign, tick_stride=40,
                                   variable_names=["brake"],
                                   interface_grid=True)
        elif style == "architectural":
            jobs, _ = architectural_jobs(campaign, 8, model=HangingModel(),
                                         seed=3, interface_hangs=True)
        else:
            candidates = campaign.bayesian_campaign(top_k=4).candidates
            jobs = candidate_jobs(campaign, candidates,
                                  interface_probe=("freeze", "delay"))
        return strip_wall(reference_records(campaign, jobs))

    def records(self, style, workers):
        sink = ListSink()
        campaign = Campaign(small_scenarios(), CampaignConfig())
        kwargs = dict(workers=workers, record_sink=sink)
        if style == "random":
            campaign.random_campaign(12, seed=11, interface_share=0.6,
                                     **kwargs)
        elif style == "exhaustive":
            campaign.exhaustive_campaign(
                tick_stride=40, variable_names=["brake"],
                interface_grid=True, **kwargs)
        elif style == "architectural":
            campaign.architectural_campaign(8, model=HangingModel(),
                                            seed=3, interface_hangs=True,
                                            **kwargs)
        else:
            campaign.bayesian_campaign(top_k=4,
                                       interface_probe=("freeze", "delay"),
                                       **kwargs)
        return strip_wall(sink.records)

    @pytest.mark.parametrize("style", ["random", "exhaustive",
                                       "architectural", "bayesian"])
    def test_serial_pool_pipeline_identical(self, style):
        reference = self.reference(style)
        assert reference, "campaign produced no records"
        interface = [r for r in reference if r["kind"] != "value"]
        assert interface, "campaign exercised no interface faults"
        assert reference == self.records(style, workers=None)
        assert reference == self.records(style, workers=2)

    def test_bayesian_eager_dispatch_keeps_probe_order(self):
        # top_k=None enables eager dispatch: value jobs go out as each
        # scenario's mining lands, probes at finalize — the emitted
        # stream must still follow the sorted candidate order.
        def bay(workers):
            sink = ListSink()
            campaign = Campaign(small_scenarios(), CampaignConfig())
            result = campaign.bayesian_campaign(
                interface_probe=("hang",), workers=workers,
                record_sink=sink)
            return campaign, result.candidates, strip_wall(sink.records)

        campaign, candidates, serial = bay(None)
        assert serial == strip_wall(reference_records(
            campaign, candidate_jobs(campaign, candidates,
                                     interface_probe=("hang",))))
        assert serial == bay(2)[2]

    def test_resume_skips_finished_interface_experiments(self, tmp_path):
        def campaign(resume):
            return Campaign(
                small_scenarios(),
                CampaignConfig(
                    resilience=ResilienceConfig(resume=resume)),
                cache_dir=tmp_path / "cache")

        first = campaign(resume=False)
        sink = ListSink()
        first.random_campaign(10, seed=5, interface_share=0.7,
                              record_sink=sink)
        resumed = campaign(resume=True)
        again = ListSink()
        resumed.random_campaign(10, seed=5, interface_share=0.7,
                                record_sink=again)
        journal = resumed._last_journal
        assert journal.hits == len(sink.records)
        assert journal.appended == 0
        assert strip_wall(again.records) == strip_wall(sink.records)


class TestCheckpointOracle:
    """Checkpoint-forked interface faults equal full replay from 0."""

    def run(self, replay, degradation_enabled, **fault_kw):
        """One fault: checkpoint-forked, or the reference loop's replay."""
        config = (CampaignConfig() if degradation_enabled
                  else no_degradation_config())
        campaign = Campaign(config=config)
        spec = dict(ORACLE_FAULT)
        spec.update(fault_kw)
        fault = interface_fault(**spec)
        if replay:
            [record] = reference_records(campaign,
                                         [(ORACLE_SCENARIO, fault)])
            return record
        return campaign.run_fault(ORACLE_SCENARIO, fault)

    @pytest.mark.parametrize("kind", INTERFACE_KINDS)
    def test_forked_equals_full_replay(self, kind):
        for degradation in (True, False):
            replayed = self.run(True, degradation, kind=kind)
            forked = self.run(False, degradation, kind=kind)
            assert strip_wall([replayed]) == strip_wall([forked])

    def test_freeze_reproduces_hazard_without_degradation(self):
        record = self.run(True, degradation_enabled=False)
        assert record.hazard is Hazard.COLLISION
        assert record.landed
        assert not record.degraded
        # the scalar oracle (full replay) and the checkpoint fork agree
        assert strip_wall([record]) == \
            strip_wall([self.run(False, degradation_enabled=False)])

    def test_same_freeze_is_masked_with_degradation(self):
        record = self.run(False, degradation_enabled=True)
        assert record.hazard is Hazard.NONE
        assert record.landed
        assert record.degraded
        assert record.masked_by_degradation

    def test_degradation_off_is_recorded_distinctly(self):
        masked = self.run(False, degradation_enabled=True)
        hazardous = self.run(False, degradation_enabled=False)
        assert masked.kind == hazardous.kind == "freeze"
        assert masked.channel == hazardous.channel == "planning"
        assert masked.masked_by_degradation
        assert not hazardous.masked_by_degradation


class TestDegradationNoOverheadPath:
    """Fault-free runs are bit-identical with degradation on or off."""

    def test_golden_trace_unchanged(self):
        scenario = small_scenarios()[0]
        on = Campaign([scenario], CampaignConfig())
        off = Campaign([scenario], no_degradation_config())
        a = on.golden_runs()[scenario.name]
        b = off.golden_runs()[scenario.name]
        columns_a = a.trace.as_arrays()
        columns_b = b.trace.as_arrays()
        assert a.hazard is b.hazard
        if isinstance(columns_a, dict):
            assert all(np.array_equal(columns_a[k], columns_b[k])
                       for k in columns_a)
        else:
            assert np.array_equal(columns_a, columns_b)
