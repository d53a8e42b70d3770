"""The out-of-core trace spool and the golden-cache formats around it.

A :class:`repro.sim.TraceStore` spools completed traces to
memory-mapped columnar files; a :class:`repro.sim.StoredTrace` handle
must serve every read of the in-RAM :class:`repro.sim.Trace` API with
bit-for-bit identical values (non-finite floats included), pickle as
just its path, and stay read-only.  The golden-trace JSON caches are
transparently gzip-compressed and hold per-scenario trace references
into a store — they round-trip exactly and degrade to cache misses,
never errors.
"""

import gzip
import json
import math
import pickle

import numpy as np
import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.persistence import (config_fingerprint, load_golden_traces,
                                    run_result_to_dict, save_golden_traces)
from repro.sim import StoredTrace, Trace, TraceStore
from repro.sim.scenario import lead_vehicle_cutin


def sample_trace(rows: int = 6) -> Trace:
    trace = Trace()
    for i in range(rows):
        trace.record({
            "tick": float(i),
            "v": 20.0 + 0.5 * i,
            "delta_long": math.inf if i == 0 else 3.0 - i,
            "delta_lat": math.nan if i == 3 else 1.25,
            "steering": -0.01 * i,
        })
    return trace


class TestTraceStoreRoundTrip:
    def test_values_bit_for_bit(self, tmp_path):
        trace = sample_trace()
        stored = TraceStore(tmp_path).put("cutin", trace)
        assert len(stored) == len(trace)
        assert stored.columns == trace.columns
        reference = trace.as_arrays()
        arrays = stored.as_arrays()
        for name, array in reference.items():
            assert np.array_equal(arrays[name], array, equal_nan=True)
            assert np.array_equal(stored.column(name), array,
                                  equal_nan=True)

    def test_views_are_read_only(self, tmp_path):
        stored = TraceStore(tmp_path).put("cutin", sample_trace())
        for array in stored.as_arrays().values():
            assert not array.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            stored.column("v")[0] = 99.0

    def test_window_and_last(self, tmp_path):
        trace = sample_trace()
        stored = TraceStore(tmp_path).put("cutin", trace)
        window = stored.window(1, 4)
        reference = trace.window(1, 4)
        for name, array in reference.items():
            assert np.array_equal(window[name], array, equal_nan=True)
        assert stored.last("v") == trace.last("v")

    def test_handle_pickles_as_path(self, tmp_path):
        stored = TraceStore(tmp_path).put("cutin", sample_trace())
        clone = pickle.loads(pickle.dumps(stored))
        assert np.array_equal(clone.column("delta_lat"),
                              stored.column("delta_lat"), equal_nan=True)
        # The payload is the path, not the samples.
        assert len(pickle.dumps(stored)) < 500

    def test_empty_trace(self, tmp_path):
        stored = TraceStore(tmp_path).put("empty", Trace())
        assert len(stored) == 0
        assert stored.columns == []
        assert stored.as_arrays() == {}
        with pytest.raises(IndexError):
            stored.last("v")

    def test_materialize_to_trace(self, tmp_path):
        trace = sample_trace()
        copied = TraceStore(tmp_path).put("cutin", trace).to_trace()
        assert isinstance(copied, Trace)
        for name in trace.columns:
            reference = trace.column(name)
            assert np.array_equal(copied.column(name), reference,
                                  equal_nan=True)

    def test_get_and_has(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get("missing") is None
        assert "missing" not in store
        store.put("cutin", sample_trace())
        assert "cutin" in store
        assert isinstance(store.get("cutin"), StoredTrace)

    def test_reput_self_heals_corrupt_spool(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = sample_trace()
        store.put("cutin", trace)
        (tmp_path / "cutin.npy").write_bytes(b"torn write")
        healed = store.put("cutin", trace)
        assert np.array_equal(healed.column("v"), trace.column("v"))

    def test_rejects_path_like_names(self, tmp_path):
        store = TraceStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("../escape", sample_trace())

    def test_put_accepts_stored_trace(self, tmp_path):
        trace = sample_trace()
        first = TraceStore(tmp_path / "a").put("cutin", trace)
        second = TraceStore(tmp_path / "b").put("cutin", first)
        assert np.array_equal(second.column("delta_long"),
                              trace.column("delta_long"))


def test_cache_dir_decides_where_traces_live(tmp_path):
    """No separate knob: a ``cache_dir`` spools, its absence keeps RAM."""
    with pytest.raises(TypeError):
        Campaign(trace_store=True)
    assert Campaign().golden_trace_store() is None
    store = Campaign(cache_dir=tmp_path).golden_trace_store()
    assert store.root.parent == tmp_path
    assert store.root.name.startswith("traces-")


@pytest.fixture(scope="module")
def golden_runs():
    from dataclasses import replace
    campaign = Campaign([replace(lead_vehicle_cutin(), duration=14.0)],
                        CampaignConfig())
    return campaign, campaign.golden_runs()


class TestGoldenCacheGzip:
    """save/load_golden_traces: gzip on disk, store references."""

    def fingerprint(self, campaign) -> str:
        return config_fingerprint(
            campaign.config.ads, campaign.config.safety,
            campaign.config.seed,
            ((s.name, s.duration) for s in campaign.scenarios))

    def assert_runs_equal(self, loaded, reference):
        assert loaded is not None
        assert list(loaded) == list(reference)
        for name, run in reference.items():
            restored = loaded[name]
            assert restored.hazard == run.hazard
            assert restored.min_delta_long == run.min_delta_long
            for column in run.trace.columns:
                assert np.array_equal(restored.trace.column(column),
                                      run.trace.column(column),
                                      equal_nan=True)

    def test_gzip_round_trip_equals_plain(self, tmp_path, golden_runs):
        campaign, runs = golden_runs
        fingerprint = self.fingerprint(campaign)
        store = TraceStore(tmp_path / "traces")
        packed = tmp_path / "golden.json.gz"
        save_golden_traces(runs, packed, fingerprint, store)
        # It really is gzip on disk, holding the plain JSON payload.
        with gzip.open(packed, "rt", encoding="utf-8") as stream:
            assert json.load(stream) == {
                "fingerprint": fingerprint,
                "runs": {name: json.loads(json.dumps(
                    run_result_to_dict(run, store)))
                    for name, run in runs.items()}}
        self.assert_runs_equal(load_golden_traces(packed, fingerprint,
                                                  store), runs)
        # Deterministic bytes: concurrent shard writers stay identical.
        payload = packed.read_bytes()
        save_golden_traces(runs, packed, fingerprint, store)
        assert packed.read_bytes() == payload

    def test_gzip_stale_or_corrupt_is_a_miss(self, tmp_path, golden_runs):
        campaign, runs = golden_runs
        store = TraceStore(tmp_path / "traces")
        path = tmp_path / "golden.json.gz"
        save_golden_traces(runs, path, "fp-old", store)
        assert load_golden_traces(path, "fp-new", store) is None
        path.write_bytes(b"definitely not gzip")
        assert load_golden_traces(path, "fp-old", store) is None

    def test_store_references_round_trip(self, tmp_path, golden_runs):
        campaign, runs = golden_runs
        fingerprint = self.fingerprint(campaign)
        store = TraceStore(tmp_path / "traces")
        path = tmp_path / "golden.json.gz"
        save_golden_traces(runs, path, fingerprint, store)
        # The JSON holds references; the samples live in the spool.
        for scenario in runs:
            assert store.has(scenario)
        payload = json.loads(gzip.decompress(path.read_bytes()))
        assert all("trace" not in run and "trace_ref" in run
                   for run in payload["runs"].values())
        loaded = load_golden_traces(path, fingerprint, store)
        self.assert_runs_equal(loaded, runs)
        assert all(isinstance(run.trace, StoredTrace)
                   for run in loaded.values())

    def test_reference_without_store_is_a_miss(self, tmp_path,
                                               golden_runs):
        """A reference into a spool that does not hold the trace (files
        gone, or another configuration's directory) is a miss."""
        campaign, runs = golden_runs
        fingerprint = self.fingerprint(campaign)
        store = TraceStore(tmp_path / "traces")
        path = tmp_path / "golden.json.gz"
        save_golden_traces(runs, path, fingerprint, store)
        assert load_golden_traces(path, fingerprint,
                                  TraceStore(tmp_path / "other")) is None


class TestTraceCSVEdgeCases:
    def test_empty_trace_round_trips(self):
        text = Trace().to_csv()
        restored = Trace.from_csv(text)
        assert len(restored) == 0
        assert restored.columns == []

    def test_ragged_row_is_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            Trace.from_csv("a,b\n1.0,2.0\n3.0\n")

    def test_header_only_duplicate_column_is_rejected(self):
        """A duplicate header would silently collapse into one column."""
        with pytest.raises(ValueError, match="repeats"):
            Trace.from_csv("a,b,a\n")

    def test_duplicate_column_with_rows_is_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            Trace.from_csv("a,b,a\n1.0,2.0,3.0\n")

    def test_ragged_columns_rejected_by_from_columns(self):
        with pytest.raises(ValueError, match="ragged"):
            Trace.from_columns({"a": [1.0, 2.0], "b": [1.0]})
