"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_golden(self, capsys):
        assert main(["golden"]) == 0
        out = capsys.readouterr().out
        assert "lead_vehicle_cutin" in out
        assert "min delta_long" in out

    def test_inject(self, capsys):
        code = main(["inject", "highway_cruise", "throttle", "1.0", "100",
                     "--duration", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome" in out
        assert "min delta_long (m)" in out

    def test_inject_unknown_scenario(self, capsys):
        code = main(["inject", "nope", "throttle", "1.0", "100"])
        assert code == 2

    def test_random_with_save(self, tmp_path, capsys):
        """Records have one file format, the JSONL ``--record-out``
        stream: ``random`` and ``exhaustive`` take no ``--save``."""
        for command in (["random", "-n", "3"],
                        ["exhaustive", "--stride", "200", "--max", "4"]):
            with pytest.raises(SystemExit) as exit_info:
                main(command + ["--save", str(tmp_path / "r.json")])
            assert exit_info.value.code == 2
        assert not (tmp_path / "r.json").exists()

    def test_arch(self, capsys):
        assert main(["arch", "-n", "25"]) == 0
        out = capsys.readouterr().out
        assert "masked" in out

    def test_random_record_out_streams_jsonl(self, tmp_path, capsys):
        from repro.core.persistence import load_summary_jsonl
        path = tmp_path / "records.jsonl"
        assert main(["random", "-n", "3", "--record-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 records streamed" in out
        summary = load_summary_jsonl(path)
        assert summary.total == 3

    def test_bayesian_save_with_record_out(self, tmp_path, capsys):
        """Bayesian ``--save`` writes candidates, so it goes with a
        ``--record-out`` record stream."""
        from repro.core.persistence import (load_candidates,
                                            load_summary_jsonl)
        candidates = tmp_path / "c.json"
        records = tmp_path / "r.jsonl"
        assert main(["bayesian", "--top-k", "2", "--save", str(candidates),
                     "--record-out", str(records)]) == 0
        assert len(load_candidates(candidates)) >= 2
        assert load_summary_jsonl(records).total >= 2

    def test_scenes(self, capsys):
        assert main(["scenes", "-n", "150"]) == 0
        out = capsys.readouterr().out
        assert "delta_long bin" in out

    def test_exhaustive_capped(self, capsys):
        assert main(["exhaustive", "--stride", "200", "--max", "4"]) == 0
        out = capsys.readouterr().out
        assert "full grid would be" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_cache_dir_spools_golden_traces(self, tmp_path, capsys):
        """--cache-dir alone spools golden traces out-of-core."""
        assert main(["random", "-n", "2", "--cache-dir", str(tmp_path)]) == 0
        assert list(tmp_path.glob("traces-*/*.npy"))

    def test_bayesian(self, capsys):
        assert main(["bayesian", "--top-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out

    def test_bayesian_batch_training(self, capsys):
        """The oracle-only --batch-training flag is gone: argparse
        rejects it (the batch fit stays a test oracle)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bayesian", "--top-k", "2", "--batch-training"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["random", "-n", "2", "--no-pipeline"],
        ["bayesian", "--top-k", "2", "--scalar-miner"],
        ["random", "-n", "4", "--batch-sim", "4"],
        ["random", "-n", "4", "--no-checkpoints"],
        # --cache-dir decides where golden traces live.
        ["random", "-n", "2", "--trace-store"]])
    def test_retired_oracle_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["random", "-n", "2", "--interface-kinds", "explode"],
         "explode"),
        (["exhaustive", "--max", "-1"], "max_experiments must be >= 0"),
        (["exhaustive", "--stride", "0"], "tick_stride must be >= 1"),
        (["exhaustive", "--stride", "-25"], "tick_stride must be >= 1"),
        (["bayesian", "--top-k", "-1"], "top_k must be >= 0")])
    def test_bad_campaign_parameters_are_clean_errors(self, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value).startswith("error: ")
        assert message in str(excinfo.value)


class TestMergeCLI:
    def _shard(self, path, style, n=2, base=0):
        from repro.core.persistence import JsonlRecordSink
        from repro.core.results import ExperimentRecord, Hazard
        with JsonlRecordSink(path, style=style) as sink:
            for i in range(n):
                sink.add(ExperimentRecord(
                    scenario="s", injection_tick=base + i,
                    variable="brake", value=0.0, duration_ticks=4,
                    seed=0, hazard=Hazard.NONE, landed=True,
                    pre_delta_long=1.0, pre_delta_lat=1.0,
                    min_delta_long=0.5, min_delta_lat=0.5,
                    sim_seconds=1.0, wall_seconds=0.1))

    def test_merge_accepts_glob_patterns(self, tmp_path, capsys):
        self._shard(tmp_path / "records-0.jsonl.gz", "random")
        self._shard(tmp_path / "records-1.jsonl.gz", "random", base=10)
        pattern = str(tmp_path / "records-*.jsonl.gz")
        assert main(["merge", pattern]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard stream(s)" in out
        assert "4/4" not in out          # 0 hazards of 4 experiments

    def test_merge_empty_glob_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(tmp_path / "records-*.jsonl.gz")])
        message = str(excinfo.value)
        assert "matches no files" in message
        assert "records-*.jsonl.gz" in message   # names the pattern
        assert "\n" not in message               # one line, no traceback

    def test_merge_missing_literal_shard_is_clean_error(self, tmp_path):
        """A literal (non-glob) path that does not exist errors cleanly
        too — naming the path, not leaking a stream-parser errno."""
        missing = tmp_path / "shard7.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(missing)])
        message = str(excinfo.value)
        assert "does not exist" in message
        assert "shard7.jsonl" in message
        assert "\n" not in message

    def test_merge_empty_glob_alongside_real_shard_still_errors(
            self, tmp_path):
        """One dead pattern poisons the merge even when other arguments
        match — merging fewer shards than pointed at would fabricate a
        smaller campaign."""
        self._shard(tmp_path / "a.jsonl", "random")
        with pytest.raises(SystemExit, match="matches no files"):
            main(["merge", str(tmp_path / "a.jsonl"),
                  str(tmp_path / "gone-*.jsonl")])

    def test_merge_mixed_styles_is_clean_one_line_error(self, tmp_path):
        self._shard(tmp_path / "a.jsonl", "random")
        self._shard(tmp_path / "b.jsonl", "bayesian")
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(tmp_path / "a.jsonl"),
                  str(tmp_path / "b.jsonl")])
        message = str(excinfo.value)
        assert "mix campaign styles" in message
        assert "\n" not in message

    def test_merge_untagged_streams_still_fold(self, tmp_path, capsys):
        """Pre-tag shard files (no _meta header) merge as before."""
        self._shard(tmp_path / "a.jsonl", None)
        self._shard(tmp_path / "b.jsonl", "random", base=10)
        assert main(["merge", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")]) == 0

    def test_merge_garbage_file_is_clean_error(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text("{ not json\n")
        with pytest.raises(SystemExit, match="not a JSONL record stream"):
            main(["merge", str(tmp_path / "bad.jsonl")])

    def test_merge_truncated_gzip_is_clean_error(self, tmp_path):
        """A shard writer crashing mid-write leaves a truncated gzip
        stream; merging it must fail one-line-clean, not traceback."""
        path = tmp_path / "records-0.jsonl.gz"
        self._shard(path, "random", n=200)
        truncated = path.read_bytes()[:-20]
        path.write_bytes(truncated)
        with pytest.raises(SystemExit, match="not a JSONL record stream"):
            main(["merge", str(path)])

    def test_failed_merge_leaves_no_partial_out_stream(self, tmp_path):
        """--out must not survive a failed merge: a well-formed partial
        file would read as success to downstream scripts."""
        self._shard(tmp_path / "good.jsonl", "random")
        bad = tmp_path / "bad.jsonl.gz"
        self._shard(bad, "random", n=200, base=100)
        bad.write_bytes(bad.read_bytes()[:-20])
        out = tmp_path / "merged.jsonl.gz"
        with pytest.raises(SystemExit):
            main(["merge", str(tmp_path / "good.jsonl"), str(bad),
                  "--out", str(out)])
        assert not out.exists()

    def test_merge_bit_corrupt_gzip_is_clean_error(self, tmp_path):
        """Mid-stream bit corruption (zlib.error, not the truncation
        EOFError) must also fail one-line-clean with no partial out."""
        self._shard(tmp_path / "good.jsonl", "random")
        bad = tmp_path / "bad.jsonl.gz"
        self._shard(bad, "random", n=500, base=100)
        payload = bytearray(bad.read_bytes())
        middle = len(payload) // 2
        payload[middle:middle + 8] = b"\xff" * 8
        bad.write_bytes(bytes(payload))
        out = tmp_path / "merged.jsonl.gz"
        with pytest.raises(SystemExit, match="not a JSONL record stream"):
            main(["merge", str(tmp_path / "good.jsonl"), str(bad),
                  "--out", str(out)])
        assert not out.exists()

    def test_glob_expansion_orders_shards_numerically(self, tmp_path):
        """records-10 must sort after records-9, not after records-1."""
        from repro.cli import _expand_shards
        for index in (0, 1, 2, 9, 10, 11):
            self._shard(tmp_path / f"records-{index}.jsonl", "random",
                        n=1, base=index)
        expanded = _expand_shards([str(tmp_path / "records-*.jsonl")])
        names = [p.rsplit("/", 1)[-1] for p in expanded]
        assert names == [f"records-{i}.jsonl"
                         for i in (0, 1, 2, 9, 10, 11)]

    def test_sink_write_failure_not_blamed_on_shard(self, tmp_path):
        """An output-side failure must not report the input shard as
        corrupt — and must still remove the partial out file."""
        from repro.core.persistence import merge_record_shards
        shard = tmp_path / "good.jsonl"
        self._shard(shard, "random")

        class ExplodingSink:
            path = tmp_path / "merged.jsonl"

            def add(self, record):
                raise OSError(28, "No space left on device")

            def close(self):
                pass

        import repro.core.persistence as persistence
        original = persistence.JsonlRecordSink
        persistence.JsonlRecordSink = lambda *a, **k: ExplodingSink()
        try:
            with pytest.raises(OSError) as excinfo:
                merge_record_shards([shard],
                                    out_path=tmp_path / "merged.jsonl")
        finally:
            persistence.JsonlRecordSink = original
        assert "record stream" not in str(excinfo.value)

    def test_merge_out_preserves_style_tag(self, tmp_path):
        from repro.core.persistence import record_stream_style
        self._shard(tmp_path / "a.jsonl", "arch")
        out = tmp_path / "merged.jsonl.gz"
        assert main(["merge", str(tmp_path / "a.jsonl"),
                     "--out", str(out)]) == 0
        assert record_stream_style(out) == "arch"
