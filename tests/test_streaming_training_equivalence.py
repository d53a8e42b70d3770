"""Streamed sufficient-statistics training must equal the batch oracle.

Two layers of equivalence ride the streaming training stack:

* **Estimator equivalence** — folding data chunk by chunk through
  :class:`repro.bayesnet.TabularSuffStats` /
  :class:`LinearGaussianSuffStats` and finalizing reproduces the batch
  ``fit_*`` results: exactly for tabular counts, and to ≤1e-9 relative
  (measured ~1e-12) for linear-Gaussian weights/intercepts/variances.
* **Campaign equivalence** — Bayesian campaigns, which train through
  the streaming trainer, emit candidate lists and validation records
  identical to the batch-trained oracle (whole-population mining plus
  the reference loop), and every campaign style run with a
  ``cache_dir`` (which spools golden traces out-of-core) is
  record-for-record the in-RAM reference loop — serial and pooled,
  cold and warm caches.
"""

from dataclasses import replace

import numpy as np
import pytest
from reference import (architectural_jobs, candidate_jobs, exhaustive_jobs,
                       random_jobs, reference_records, strip_wall)

from repro.bayesnet import (DAG, LinearGaussianNetworkSuffStats,
                            LinearGaussianSuffStats, TabularSuffStats,
                            fit_linear_gaussian_cpd,
                            fit_linear_gaussian_network, fit_tabular_cpd)
from repro.core import BayesianFaultInjector, Campaign, CampaignConfig
from repro.core.bayesian_fi import BN_VARIABLES, ads_dbn_template
from repro.sim import (StoredTrace, highway_cruise, lead_vehicle_cutin,
                       queued_traffic)

#: The acceptance bound for linear-Gaussian streamed parameters.
RELATIVE_BOUND = 1e-9


def small_scenarios():
    return [replace(highway_cruise(), duration=24.0),
            replace(lead_vehicle_cutin(), duration=16.0),
            replace(queued_traffic(), duration=18.0)]


def candidate_keys(candidates):
    return [(c.scenario, c.injection_tick, c.variable, c.value)
            for c in candidates]


def chunked(data, sizes):
    """Split aligned columns into uneven chunks (the streaming feed)."""
    chunks = []
    start = 0
    for size in sizes:
        chunks.append({name: np.asarray(column)[start:start + size]
                       for name, column in data.items()})
        start += size
    total = len(next(iter(data.values())))
    assert start == total, "sizes must cover the dataset"
    return chunks


def relative_gap(a, b) -> float:
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), \
        np.atleast_1d(np.asarray(b, dtype=float))
    scale = np.maximum(np.abs(b), 1e-12)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def assert_cpds_close(streamed, batch, bound=RELATIVE_BOUND):
    assert streamed.parents == batch.parents
    assert relative_gap(streamed.intercept, batch.intercept) <= bound
    assert relative_gap(streamed.variance, batch.variance) <= bound
    assert relative_gap(streamed.weights, batch.weights) <= bound


class TestTabularSuffStats:
    """Streamed counts reproduce the smoothed batch CPT exactly."""

    def dataset(self, n=997, seed=7):
        rng = np.random.default_rng(seed)
        return {"x": rng.integers(0, 3, size=n),
                "a": rng.integers(0, 2, size=n),
                "b": rng.integers(0, 4, size=n)}

    def test_chunked_equals_batch(self):
        data = self.dataset()
        batch = fit_tabular_cpd("x", 3, ["a", "b"], [2, 4], data)
        stats = TabularSuffStats("x", 3, ["a", "b"], [2, 4])
        for chunk in chunked(data, [1, 400, 250, 346]):
            stats.update(chunk)
        streamed = stats.finalize()
        assert np.array_equal(streamed.table, batch.table)

    def test_no_parents(self):
        data = {"x": np.array([0, 1, 1, 2, 2, 2])}
        batch = fit_tabular_cpd("x", 3, [], [], data)
        stats = TabularSuffStats("x", 3, [], [])
        for chunk in chunked(data, [2, 4]):
            stats.update(chunk)
        assert np.array_equal(stats.finalize().table, batch.table)

    def test_zero_pseudocount_unseen_configuration(self):
        """Both paths fall back to uniform on unseen parent configs."""
        data = {"x": np.array([0, 1, 0, 1]), "a": np.array([0, 0, 0, 0])}
        batch = fit_tabular_cpd("x", 2, ["a"], [2], data, pseudocount=0.0)
        stats = TabularSuffStats("x", 2, ["a"], [2], pseudocount=0.0)
        for chunk in chunked(data, [3, 1]):
            stats.update(chunk)
        assert np.array_equal(stats.finalize().table, batch.table)

    def test_mismatched_chunk_rejected(self):
        stats = TabularSuffStats("x", 2, ["a"], [2])
        with pytest.raises(ValueError, match="mismatch"):
            stats.update({"x": np.array([0, 1]), "a": np.array([0])})


class TestLinearGaussianSuffStats:
    """Streamed moments reproduce the batch least squares fit."""

    def dataset(self, n=4096, noise=0.3, seed=3):
        rng = np.random.default_rng(seed)
        a = 20.0 + 5.0 * rng.standard_normal(n)
        b = 60.0 + 25.0 * rng.standard_normal(n)
        y = 1.7 * a - 0.04 * b + 3.5 + noise * rng.standard_normal(n)
        return {"a": a, "b": b, "y": y}

    @pytest.mark.parametrize("noise", [0.3, 1e-3])
    def test_chunked_equals_batch(self, noise):
        """Also at near-deterministic noise, where naive streaming
        moment subtraction would lose the residual to cancellation."""
        data = self.dataset(noise=noise)
        batch = fit_linear_gaussian_cpd("y", ["a", "b"], data)
        stats = LinearGaussianSuffStats("y", ["a", "b"])
        for chunk in chunked(data, [1, 2000, 1500, 595]):
            stats.update(chunk)
        assert_cpds_close(stats.finalize(), batch)

    def test_single_sample_chunks(self):
        data = self.dataset(n=64)
        batch = fit_linear_gaussian_cpd("y", ["a", "b"], data)
        stats = LinearGaussianSuffStats("y", ["a", "b"])
        for chunk in chunked(data, [1] * 64):
            stats.update(chunk)
        assert_cpds_close(stats.finalize(), batch)

    def test_no_parents(self):
        data = self.dataset(n=512)
        batch = fit_linear_gaussian_cpd("y", [], data)
        stats = LinearGaussianSuffStats("y", [])
        for chunk in chunked(data, [100, 412]):
            stats.update(chunk)
        assert_cpds_close(stats.finalize(), batch)

    def test_constant_parent_matches_batch_min_norm(self):
        """Rank-deficient designs: both paths pick the minimum-norm
        solution over the stacked (weights, intercept) vector, so a
        constant parent splits the mean between weight and intercept
        identically."""
        rng = np.random.default_rng(5)
        n = 200
        data = {"a": np.full(n, 2.0),
                "y": 3.2 + 0.1 * rng.standard_normal(n)}
        batch = fit_linear_gaussian_cpd("y", ["a"], data)
        stats = LinearGaussianSuffStats("y", ["a"])
        for chunk in chunked(data, [150, 50]):
            stats.update(chunk)
        streamed = stats.finalize()
        assert streamed.weights[0] != 0.0       # not the centered trap
        assert_cpds_close(streamed, batch)

    def test_variance_floor_applies(self):
        data = {"y": np.full(100, 2.5)}
        stats = LinearGaussianSuffStats("y", [], min_variance=1e-9)
        stats.update(data)
        assert stats.finalize().variance == 1e-9

    def test_empty_finalize_rejected(self):
        with pytest.raises(ValueError, match="no data"):
            LinearGaussianSuffStats("y", ["a"]).finalize()

    def test_network_level(self):
        rng = np.random.default_rng(11)
        n = 2048
        a = rng.standard_normal(n) * 3.0 + 10.0
        b = 0.5 * a + rng.standard_normal(n)
        c = -1.2 * a + 2.0 * b + 0.1 * rng.standard_normal(n)
        data = {"a": a, "b": b, "c": c}
        dag = DAG(nodes=["a", "b", "c"],
                  edges=[("a", "b"), ("a", "c"), ("b", "c")])
        batch = fit_linear_gaussian_network(dag, data)
        stats = LinearGaussianNetworkSuffStats(dag)
        for chunk in chunked(data, [700, 700, 648]):
            stats.update(chunk)
        streamed = stats.finalize()
        for node in dag.nodes():
            assert_cpds_close(streamed.cpds[node], batch.cpds[node])


@pytest.fixture(scope="module")
def golden_campaign():
    campaign = Campaign(small_scenarios(), CampaignConfig())
    campaign.golden_runs()
    return campaign


class TestInjectorTrainerEquivalence:
    """streaming_trainer folds == BayesianFaultInjector.train."""

    def test_cpds_match_batch_fit(self, golden_campaign):
        golden = list(golden_campaign.golden_runs().values())
        batch = BayesianFaultInjector.train(
            golden, safety_config=golden_campaign.config.safety)
        trainer = BayesianFaultInjector.streaming_trainer(
            safety_config=golden_campaign.config.safety)
        for run in golden:
            trainer.add_run(run)
        assert trainer.n_folded == len(golden)
        streamed = trainer.finish()
        assert streamed.slice_dt == batch.slice_dt
        assert set(streamed.model.cpds) == set(batch.model.cpds)
        for node, reference in batch.model.cpds.items():
            assert_cpds_close(streamed.model.cpds[node], reference)

    def test_folds_release_trace_windows(self, golden_campaign):
        """Trainer state is O(parameters): no trace retains a reference."""
        trainer = BayesianFaultInjector.streaming_trainer()
        run = next(iter(golden_campaign.golden_runs().values()))
        trainer.add_run(run)
        n_nodes = len(BN_VARIABLES) * 3
        assert len(trainer._stats._stats) == n_nodes

    def test_short_traces_rejected_like_batch(self):
        from repro.sim import Trace
        trace = Trace()
        trace.record({name: 0.0 for name in ("time",) + BN_VARIABLES})
        trainer = BayesianFaultInjector.streaming_trainer()
        trainer.add_trace(trace)
        with pytest.raises(ValueError, match="window"):
            trainer.finish()

    def test_mining_matches_batch_trained_model(self, golden_campaign):
        """The full inference path agrees, not just the parameters."""
        golden = list(golden_campaign.golden_runs().values())
        batch = BayesianFaultInjector.train(
            golden, safety_config=golden_campaign.config.safety)
        trainer = BayesianFaultInjector.streaming_trainer(
            safety_config=golden_campaign.config.safety)
        for run in golden:
            trainer.add_run(run)
        streamed = trainer.finish()
        scenes = list(golden_campaign.scene_rows())
        mined_batch, _ = batch.mine_critical_faults(scenes)
        mined_streamed, _ = streamed.mine_critical_faults(scenes)
        assert candidate_keys(mined_streamed) == candidate_keys(mined_batch)
        for streamed_c, batch_c in zip(mined_streamed, mined_batch):
            assert streamed_c.predicted_delta_long == pytest.approx(
                batch_c.predicted_delta_long, abs=1e-9)
            assert streamed_c.predicted_delta_lat == pytest.approx(
                batch_c.predicted_delta_lat, abs=1e-9)


@pytest.fixture(scope="module")
def batch_oracle():
    """In-RAM golden traces: the reference loop's campaign."""
    campaign = Campaign(small_scenarios(), CampaignConfig())
    campaign.golden_runs()
    return campaign


@pytest.fixture(scope="module")
def batch_fit(batch_oracle):
    """The whole-dataset fit and its whole-population top-6 mine."""
    injector = BayesianFaultInjector.train(
        list(batch_oracle.golden_runs().values()),
        safety_config=batch_oracle.config.safety)
    candidates, _ = injector.mine_critical_faults(
        batch_oracle.scene_rows(), top_k=6)
    return injector, candidates


def batch_reference(oracle, fit):
    """The batch oracle's candidate keys and reference-loop records."""
    _, candidates = fit
    records = reference_records(oracle, candidate_jobs(oracle, candidates))
    return candidate_keys(candidates), strip_wall(records)


class TestStreamingCampaignEquivalence:
    """Streamed training == the batch oracle, record for record."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_bayesian_streaming_vs_batch_records(self, batch_oracle,
                                                 batch_fit, workers):
        keys, records = batch_reference(batch_oracle, batch_fit)
        streamed = Campaign(small_scenarios(),
                            CampaignConfig()).bayesian_campaign(
            top_k=6, workers=workers)
        assert candidate_keys(streamed.candidates) == keys
        assert strip_wall(streamed.summary.records) == records

    def test_train_progress_events_tick_per_trace(self):
        events = []
        campaign = Campaign(small_scenarios(), CampaignConfig())
        campaign.bayesian_campaign(top_k=4, on_progress=events.append)
        train = [e for e in events if e.stage == "train"]
        assert [e.done for e in train] == [1, 2, 3]
        assert [e.scenario for e in train] == \
            [s.name for s in campaign.scenarios]
        stages = [e.stage for e in events]
        # golden -> train -> mine -> validate, end to end.
        assert stages.index("train") > stages.index("golden")
        assert stages.index("mined") > stages.index("train")
        assert {"golden", "train", "mined", "validated"} <= set(stages)

    def test_batch_training_emits_no_train_ticks(self, batch_fit):
        """A caller-supplied (batch-fit) model skips the streamed folds."""
        events = []
        campaign = Campaign(small_scenarios(), CampaignConfig())
        campaign.bayesian_campaign(injector=batch_fit[0],
                                   top_k=4, on_progress=events.append)
        assert not any(e.stage == "train" for e in events)
        assert "validated" in {e.stage for e in events}


class TestTraceStoreCampaignEquivalence:
    """All four styles with out-of-core traces == the in-RAM oracle."""

    @pytest.fixture()
    def store_campaign(self, tmp_path):
        return Campaign(small_scenarios(), CampaignConfig(),
                        cache_dir=tmp_path / "cache")

    @pytest.mark.parametrize("workers", [None, 2])
    def test_random(self, batch_oracle, store_campaign, workers):
        reference = reference_records(
            batch_oracle, random_jobs(batch_oracle, 8, seed=11))
        streamed = store_campaign.random_campaign(8, seed=11,
                                                  workers=workers)
        assert strip_wall(streamed.records) == strip_wall(reference)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_exhaustive(self, batch_oracle, store_campaign, workers):
        reference = reference_records(batch_oracle, exhaustive_jobs(
            batch_oracle, tick_stride=40,
            variable_names=["brake", "steering"]))
        streamed = store_campaign.exhaustive_campaign(
            tick_stride=40, variable_names=["brake", "steering"],
            workers=workers)
        assert strip_wall(streamed.records) == strip_wall(reference)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_architectural(self, batch_oracle, store_campaign, workers):
        jobs, ref_outcomes = architectural_jobs(batch_oracle, 25, seed=3)
        reference = reference_records(batch_oracle, jobs)
        streamed, outcomes = store_campaign.architectural_campaign(
            25, seed=3, workers=workers)
        assert outcomes == ref_outcomes
        assert strip_wall(streamed.records) == strip_wall(reference)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_bayesian(self, batch_oracle, batch_fit, store_campaign,
                      workers):
        keys, records = batch_reference(batch_oracle, batch_fit)
        streamed = store_campaign.bayesian_campaign(top_k=6,
                                                    workers=workers)
        assert candidate_keys(streamed.candidates) == keys
        assert strip_wall(streamed.summary.records) == records

    def test_goldens_are_stored_handles(self, store_campaign):
        store_campaign.bayesian_campaign(top_k=3)
        golden = store_campaign._golden or store_campaign._golden_shard
        assert golden
        assert all(isinstance(run.trace, StoredTrace)
                   for run in golden.values())
        store = store_campaign.golden_trace_store()
        assert all(store.has(name) for name in golden)

    def test_golden_runs_spool_too(self, batch_oracle, tmp_path):
        """Standalone ``golden_runs()`` spools like a campaign does."""
        campaign = Campaign(small_scenarios(), CampaignConfig(),
                            cache_dir=tmp_path / "cache")
        assert all(isinstance(run.trace, StoredTrace)
                   for run in campaign.golden_runs().values())
        reference = reference_records(
            batch_oracle, random_jobs(batch_oracle, 6, seed=5))
        streamed = campaign.random_campaign(6, seed=5)
        assert strip_wall(streamed.records) == strip_wall(reference)


class TestWarmColdCacheEquivalence:
    """Cold runs spool + persist; warm runs re-map without simulating."""

    def test_warm_start_matches_cold(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cold = Campaign(small_scenarios(), CampaignConfig(),
                        cache_dir=cache)
        cold_result = cold.bayesian_campaign(top_k=6)
        assert list(cache.glob("golden-*.json.gz"))
        assert list(cache.glob("traces-*/*.npy"))

        warm = Campaign(small_scenarios(), CampaignConfig(),
                        cache_dir=cache)

        def no_resimulation(*args, **kwargs):
            raise AssertionError("warm start must not re-simulate")

        import repro.core.campaign as campaign_module
        import repro.core.parallel as parallel_module
        monkeypatch.setattr(campaign_module, "run_scenario",
                            no_resimulation)
        monkeypatch.setattr(parallel_module, "run_scenario",
                            no_resimulation)
        warm_result = warm.bayesian_campaign(top_k=6)
        assert candidate_keys(warm_result.candidates) == \
            candidate_keys(cold_result.candidates)
        assert strip_wall(warm_result.summary.records) == \
            strip_wall(cold_result.summary.records)
        # ...and the warm goldens really are re-mapped store handles.
        golden = warm._golden or warm._golden_shard
        assert all(isinstance(run.trace, StoredTrace)
                   for run in golden.values())

    def test_inline_cache_is_resimulated(self, tmp_path, monkeypatch):
        """A golden cache holding inline trace columns (the format of
        in-RAM runs before ``cache_dir`` spooled every trace) is a
        miss: the campaign re-simulates, matches the cold records, and
        rewrites the cache with spool references only."""
        import gzip as gzip_module
        import json
        cache = tmp_path / "cache"
        cold = Campaign(small_scenarios(), CampaignConfig(),
                        cache_dir=cache)
        cold_result = cold.random_campaign(6, seed=5)
        cache_file = next(cache.glob("golden-*.json.gz"))
        payload = json.loads(gzip_module.decompress(
            cache_file.read_bytes()))
        store = cold.golden_trace_store()
        for run in payload["runs"].values():
            trace = store.get(run.pop("trace_ref"))
            run["trace"] = {name: column.tolist()
                            for name, column in trace.as_arrays().items()}
        cache_file.write_bytes(gzip_module.compress(
            json.dumps(payload).encode("utf-8")))

        import repro.core.parallel as parallel_module
        simulated = []
        real_run_scenario = parallel_module.run_scenario

        def counting_run_scenario(scenario, *args, **kwargs):
            if kwargs.get("record_trace"):        # a golden run
                simulated.append(scenario.name)
            return real_run_scenario(scenario, *args, **kwargs)

        monkeypatch.setattr(parallel_module, "run_scenario",
                            counting_run_scenario)
        warm = Campaign(small_scenarios(), CampaignConfig(),
                        cache_dir=cache)
        warm_result = warm.random_campaign(6, seed=5)
        assert sorted(simulated) == sorted(payload["runs"])
        assert strip_wall(warm_result.records) == \
            strip_wall(cold_result.records)
        rewritten = json.loads(gzip_module.decompress(
            cache_file.read_bytes()))
        assert rewritten["runs"].keys() == payload["runs"].keys()
        assert all("trace" not in run and "trace_ref" in run
                   for run in rewritten["runs"].values())
