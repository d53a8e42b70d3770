"""JSON persistence for campaign artifacts.

Campaigns can take minutes; records are cheap to store and replay.
Everything needed to reproduce an experiment (scenario, tick, variable,
value, duration, seed) plus its outcome round-trips through JSON.

Golden traces persist too (:func:`save_golden_traces`), keyed by a
fingerprint of everything that determines them — ADS and safety
configuration, seed, and the scenario set — so incremental campaigns can
warm-start training and mining from disk instead of re-simulating.
The cache file is gzip-compressed JSON with deterministic bytes, so
concurrent shard writers stay byte-identical and atomic.  The JSON carries per-scenario *references* into a
:class:`repro.sim.TraceStore`'s memory-mapped ``.npy`` spool, never
inline sample columns, so a warm start never materializes a full
trace set.

For out-of-core campaigns :class:`JsonlRecordSink` streams one record
per line as futures complete; :func:`iter_records_jsonl` /
:func:`load_summary_jsonl` read the stream back without ever holding
every record at once.  All record serialization is strict-JSON safe:
non-finite floats (the ``inf`` safety potentials of unobstructed runs,
or NaNs from degenerate kinematics) are encoded as the strings
``"Infinity"``/``"-Infinity"``/``"NaN"`` and decoded losslessly.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import zlib
from pathlib import Path

from ..sim.trace import StoredTrace, TraceStore
from .bayesian_fi import CandidateFault
from .ioutil import write_bytes_atomic, write_text_atomic
from .results import CampaignSummary, ExperimentRecord, Hazard
from .simulate import RunResult

#: String spellings for the three non-finite doubles.  Plain ``repr``
#: floats stay floats, so finite values round-trip bit-for-bit.
_NONFINITE_TO_STR = {math.inf: "Infinity", -math.inf: "-Infinity"}
_STR_TO_NONFINITE = {"Infinity": math.inf, "-Infinity": -math.inf,
                     "NaN": math.nan}


def encode_float(value: float) -> float | str:
    """A strict-JSON-safe spelling of ``value`` (non-finite -> string)."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return _NONFINITE_TO_STR[value]
    return value


def decode_float(value: float | str) -> float:
    """Inverse of :func:`encode_float` (also accepts legacy raw floats)."""
    if isinstance(value, str):
        try:
            return _STR_TO_NONFINITE[value]
        except KeyError:
            raise ValueError(f"not a float encoding: {value!r}") from None
    return float(value)


def record_to_dict(record: ExperimentRecord) -> dict:
    """Flatten one experiment record to strict-JSON-safe types.

    Failure diagnoses (``error``/``attempts``) serialize only when the
    record actually is a quarantined failure: success records keep the
    exact byte layout streams had before supervision existed, so
    supervised and unsupervised runs of a healthy campaign stay
    bit-for-bit identical on disk.
    """
    payload = {
        "scenario": record.scenario,
        "injection_tick": record.injection_tick,
        "variable": record.variable,
        "value": encode_float(record.value),
        "duration_ticks": record.duration_ticks,
        "seed": record.seed,
        "hazard": record.hazard.value,
        "landed": record.landed,
        "pre_delta_long": encode_float(record.pre_delta_long),
        "pre_delta_lat": encode_float(record.pre_delta_lat),
        "min_delta_long": encode_float(record.min_delta_long),
        "min_delta_lat": encode_float(record.min_delta_lat),
        "sim_seconds": encode_float(record.sim_seconds),
        "wall_seconds": encode_float(record.wall_seconds),
    }
    if record.error is not None:
        payload["error"] = record.error
        payload["attempts"] = record.attempts
    # Interface-fault and degradation fields, only-when-set (same
    # byte-compatibility contract as error/attempts above): a value
    # fault that never degraded serializes exactly as it did before
    # interface faults existed.
    if record.kind != "value":
        payload["kind"] = record.kind
    if record.channel is not None:
        payload["channel"] = record.channel
    if record.degraded:
        payload["degraded"] = True
    return payload


_RECORD_FLOAT_FIELDS = ("value", "pre_delta_long", "pre_delta_lat",
                        "min_delta_long", "min_delta_lat", "sim_seconds",
                        "wall_seconds")


def record_from_dict(data: dict) -> ExperimentRecord:
    """Inverse of :func:`record_to_dict`."""
    fields = dict(data)
    fields["hazard"] = Hazard(fields["hazard"])
    for name in _RECORD_FLOAT_FIELDS:
        fields[name] = decode_float(fields[name])
    return ExperimentRecord(**fields)


def _open_record_stream(path: Path, mode: str):
    """Open a record stream, transparently gzip for ``*.gz`` paths.

    Shard outputs get large; a ``.jsonl.gz`` path compresses the stream
    on the fly while keeping the line-per-record protocol identical.
    """
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return path.open(mode, encoding="utf-8")


class JsonlRecordSink:
    """Streams experiment records to a JSON-lines file, one per ``add``.

    The out-of-core counterpart of :class:`repro.core.results.ListSink`:
    records flush incrementally as campaign futures complete, so peak
    memory is independent of campaign size.  A path ending in ``.gz``
    is gzip-compressed transparently.  Usable as a context manager;
    :func:`iter_records_jsonl` reads the stream back.
    """

    def __init__(self, path: str | Path, style: str | None = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = _open_record_stream(self.path, "w")
        # A flush on a gzip stream is a zlib sync flush: one deflate
        # block per ~100-byte record bloats the output ~30x and defeats
        # the compression .gz was chosen for.  Compressed streams
        # therefore buffer until close and trade away the plain path's
        # per-record crash durability.
        self._flush_per_record = self.path.suffix != ".gz"
        self.count = 0
        if style is not None:
            # A metadata header line, skipped by every reader; `repro
            # merge` uses it to refuse folding shards of different
            # campaign styles into one summary.
            json.dump({"_meta": {"style": style}}, self._file,
                      separators=(",", ":"))
            self._file.write("\n")

    def add(self, record: ExperimentRecord) -> None:
        """Append one record as a JSON line (plain paths flush to OS)."""
        if self._file is None:
            raise ValueError(f"sink {self.path} is closed")
        json.dump(record_to_dict(record), self._file, allow_nan=False,
                  separators=(",", ":"))
        self._file.write("\n")
        if self._flush_per_record:
            self._file.flush()
        self.count += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlRecordSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_records_jsonl(path: str | Path):
    """Yield :class:`ExperimentRecord` from a JSONL stream, one at a time.

    Paths ending in ``.gz`` are decompressed transparently; ``_meta``
    header lines (stream style tags) are skipped.
    """
    with _open_record_stream(Path(path), "r") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if isinstance(data, dict) and "_meta" in data:
                continue
            yield record_from_dict(data)


def record_stream_style(path: str | Path) -> str | None:
    """The campaign style a record stream was written by, if tagged.

    Reads at most the first line: sinks write their ``_meta`` header
    before any record.  Untagged streams (hand-built sinks, pre-tag
    files) return ``None`` and are merge-compatible with anything.
    """
    with _open_record_stream(Path(path), "r") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if isinstance(data, dict) and "_meta" in data:
                style = data["_meta"].get("style")
                return str(style) if style is not None else None
            return None
    return None


def load_summary_jsonl(path: str | Path,
                       keep_records: bool = True) -> CampaignSummary:
    """Aggregate a JSONL record stream into a :class:`CampaignSummary`.

    With ``keep_records=False`` the load itself is out-of-core: each
    record is folded into the aggregates and dropped.
    """
    summary = CampaignSummary(keep_records=keep_records)
    for record in iter_records_jsonl(path):
        summary.add(record)
    return summary


def merge_record_shards(paths, out_path: str | Path | None = None,
                        keep_records: bool = False) -> CampaignSummary:
    """Fold shard record streams into one summary (the ``repro merge`` op).

    Each path is one shard's JSONL (or ``.jsonl.gz``) record stream from
    a sharded campaign.  Shards partition the experiment set, so folding
    their streams in shard order reproduces the unsharded campaign's
    summary exactly (see :meth:`CampaignSummary.merge`).  With
    ``out_path`` the merged stream is also re-written as one file —
    records concatenated in shard order, gzip-compressed when the path
    ends in ``.gz``.  The merge is out-of-core unless ``keep_records``.

    Streams tagged with different campaign styles (the sinks' ``_meta``
    headers) raise a :class:`ValueError` — averaging a random campaign
    into a Bayesian one produces a number that means nothing — as does
    a file that is not a JSONL record stream at all.  Both surface as
    one-line errors, never tracebacks, at the CLI.
    """
    paths = [Path(path) for path in paths]
    styles: dict[str, str] = {}
    for path in paths:
        try:
            style = record_stream_style(path)
        except (json.JSONDecodeError, UnicodeDecodeError, EOFError,
                zlib.error, OSError) as err:
            raise ValueError(
                f"{path}: not a JSONL record stream ({err})") from None
        if style is not None:
            styles[str(path)] = style
    if len(set(styles.values())) > 1:
        described = ", ".join(f"{path} is {style!r}"
                              for path, style in styles.items())
        raise ValueError(
            f"shard streams mix campaign styles ({described}); "
            f"merge only shards of one campaign")
    style = next(iter(styles.values()), None)
    sink = (JsonlRecordSink(out_path, style=style)
            if out_path is not None else None)
    try:
        shard_summaries = []
        for path in paths:
            summary = CampaignSummary(keep_records=keep_records)
            records = iter_records_jsonl(path)
            while True:
                try:
                    record = next(records)
                except StopIteration:
                    break
                except (json.JSONDecodeError, UnicodeDecodeError,
                        KeyError, TypeError, ValueError, EOFError,
                        zlib.error, OSError) as err:
                    # EOFError covers gzip streams truncated mid-write,
                    # zlib.error mid-stream bit corruption — both the
                    # crashed-shard-writer cases merging exists for.
                    # Sink writes live outside this clause so an
                    # output-side failure (say, a full disk) is never
                    # blamed on a healthy input shard.
                    raise ValueError(
                        f"{path}: not a JSONL record stream ({err})") \
                        from None
                summary.add(record)
                if sink is not None:
                    sink.add(record)
            shard_summaries.append(summary)
    except (ValueError, OSError):
        # A failed merge must not leave a well-formed partial output
        # behind — its existence would read as success downstream.
        if sink is not None:
            sink.close()
            sink.path.unlink(missing_ok=True)
        raise
    finally:
        if sink is not None:
            sink.close()
    return CampaignSummary.merge(shard_summaries)


def candidate_to_dict(candidate: CandidateFault) -> dict:
    """Flatten one mined candidate."""
    return {
        "scenario": candidate.scenario,
        "injection_tick": candidate.injection_tick,
        "variable": candidate.variable,
        "value": candidate.value,
        "predicted_delta_long": candidate.predicted_delta_long,
        "predicted_delta_lat": candidate.predicted_delta_lat,
        "observed_delta_long": candidate.observed_delta_long,
        "observed_delta_lat": candidate.observed_delta_lat,
    }


def candidate_from_dict(data: dict) -> CandidateFault:
    """Inverse of :func:`candidate_to_dict`."""
    return CandidateFault(**data)


def config_fingerprint(ads_config, safety_config, seed: int,
                       scenario_key) -> str:
    """Deterministic digest of everything that shapes a golden trace.

    ``scenario_key`` is an iterable of per-scenario identity tuples
    (name, duration, and — as supplied by the caller — a digest of the
    build parametrization; see ``Campaign._scenario_key``).  The configs
    are frozen dataclasses whose ``repr`` is canonical, so the digest is
    stable across processes; any parameter change invalidates cached
    traces, which is exactly the safe failure mode.
    """
    payload = repr((ads_config, safety_config, int(seed),
                    tuple(scenario_key)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_result_to_dict(run: RunResult, trace_store: TraceStore) -> dict:
    """Flatten one golden run to JSON-safe types.

    Checkpoints are not part of this payload: they embed live RNG and
    filter state that JSON spells poorly.  They persist separately as
    per-scenario pickles via
    :meth:`repro.core.checkpoint.CheckpointStore.save_scenario`.

    The trace columns stay in ``trace_store``'s columnar ``.npy``
    spool (written here if not already spooled) and the payload
    carries only a reference.  ``cut_tick`` keeps a cut run
    (:attr:`RunResult.cut_tick`) from passing for a complete one; a
    payload without it (written before runs were cut) is complete.
    """
    payload = {
        "scenario": run.scenario,
        "seed": run.seed,
        "hazard": run.hazard.value,
        "collided": run.collided,
        "went_off_road": run.went_off_road,
        "min_delta_long": run.min_delta_long,
        "min_delta_lat": run.min_delta_lat,
        "pre_delta_long": run.pre_delta_long,
        "pre_delta_lat": run.pre_delta_lat,
        "landed": run.landed,
        "sim_seconds": run.sim_seconds,
        "wall_seconds": run.wall_seconds,
        "cut_tick": run.cut_tick,
    }
    if not (isinstance(run.trace, StoredTrace)
            and trace_store.has(run.trace_name)):
        trace_store.put(run.trace_name, run.trace)
    payload["trace_ref"] = run.trace_name
    return payload


def run_result_from_dict(data: dict, trace_store: TraceStore) -> RunResult:
    """Inverse of :func:`run_result_to_dict`."""
    fields = dict(data)
    fields["hazard"] = Hazard(fields["hazard"])
    ref = fields.pop("trace_ref")
    fields["trace"] = trace_store.get(ref)
    if fields["trace"] is None:
        raise ValueError(f"golden cache references stored trace {ref!r} "
                         f"but {trace_store.root} does not hold it")
    return RunResult(**fields)


def save_golden_traces(golden: dict[str, RunResult], path: str | Path,
                       fingerprint: str, trace_store: TraceStore) -> None:
    """Write a campaign's golden runs to a gzip-compressed JSON file
    (conventionally ``*.json.gz``).

    Atomic (write + rename) with deterministic bytes (``mtime=0``):
    Bayesian shards sharing a ``cache_dir`` each write the full-set
    file concurrently.  The traces live in ``trace_store``'s spool and
    the JSON holds references (see :func:`run_result_to_dict`).
    """
    payload = {
        "fingerprint": fingerprint,
        "runs": {name: run_result_to_dict(run, trace_store)
                 for name, run in golden.items()},
    }
    write_bytes_atomic(Path(path), gzip.compress(
        json.dumps(payload).encode("utf-8"), mtime=0))


def load_golden_traces(path: str | Path, fingerprint: str,
                       trace_store: TraceStore
                       ) -> dict[str, RunResult] | None:
    """Read golden runs back; ``None`` on a missing file or stale key.

    Any unreadable payload — torn gzip, stale schema, inline trace
    columns (an older cache format), a trace reference whose spool
    files are gone or were written by a different configuration — is a
    cache miss, never an error: the caller re-simulates and self-heals
    the cache.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = json.loads(gzip.decompress(path.read_bytes()))
        if payload.get("fingerprint") != fingerprint:
            return None
        return {name: run_result_from_dict(data, trace_store)
                for name, data in payload["runs"].items()}
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError, EOFError, zlib.error):
        return None


def save_candidates(candidates: list[CandidateFault],
                    path: str | Path) -> None:
    """Write mined candidates to a JSON file (atomically — see above)."""
    payload = {"candidates": [candidate_to_dict(c) for c in candidates]}
    write_text_atomic(Path(path), json.dumps(payload, indent=1))


def load_candidates(path: str | Path) -> list[CandidateFault]:
    """Read mined candidates back."""
    payload = json.loads(Path(path).read_text())
    return [candidate_from_dict(d) for d in payload["candidates"]]


def try_load_candidates(path: str | Path) -> list[CandidateFault] | None:
    """Candidate-cache read: ``None`` on a missing or unreadable file.

    The warm-start path treats any failure as a cache miss and re-mines
    — the safe direction, mirroring :func:`load_golden_traces`.
    """
    try:
        return load_candidates(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError):
        return None
