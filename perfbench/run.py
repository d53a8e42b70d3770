"""Campaign benchmark: host seconds per campaign, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bayesian-paper --seed 1 \\
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  Each repetition is a
cold campaign in a fresh serial interpreter (``child.py``): no
``cache_dir``, no environment settings, the default ``CampaignConfig``
apart from the seed.  Repetitions continue until ``--seconds`` have
passed (at least three), and timings are their medians.  Every
repetition of one workload and seed must emit the same record stream,
checked by digest.

Timings are scaled to a reference host speed.  On a shared host the
speed of one CPU drifts by a fifth or more within a minute, so while a
child runs, this process, pinned to the child's CPU, times a small fixed
probe every 10 ms (about 1% of the CPU).  A repetition's seconds are
multiplied by ``PROBE_REFERENCE_S`` over the median probe time seen
during it; the raw wall seconds are printed beside them.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` adds one traced repetition (``tracer.py`` wraps public
entry points from outside the program) and prints the per-layer
metrics.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The five ADS stages of ``repro.ads.profiling.STAGES``.
STAGES = ("sensing", "perception", "world_model", "planning", "actuation")
MIN_REPS = 3
#: Extra set-up-only interpreters started after each repetition, so
#: ``setup_s`` is a median of several cold starts.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 120
PROBE_INTERVAL_S = 0.01
#: Median probe time of a fast state of a 2-vCPU Xeon VM; scaled
#: seconds are seconds at that speed.
PROBE_REFERENCE_S = 90e-6
_PROBE_ARRAY = np.linspace(0.0, 1.0, 8)


class BenchmarkError(RuntimeError):
    """A repetition's interpreter failed."""


def _probe() -> float:
    """Seconds for a fixed mix of interpreter and small-numpy work,
    the two kinds of work a campaign does."""
    started = time.perf_counter()
    x = 0.0
    for i in range(400):
        x += math.sqrt(i + x * 1e-9)
    a = _PROBE_ARRAY
    for _ in range(40):
        a = np.minimum(a * 1.01, 1.0)
    return time.perf_counter() - started


def _spawn(workload: str, seed: int, tmp: Path, *flags: str) -> dict:
    """One fresh interpreter; returns its JSON plus ``setup_s`` (spawn
    to ``Campaign`` constructed, on the shared monotonic clock) and
    ``scale`` (reference over observed host speed while it ran)."""
    command = [sys.executable, "-E", str(HERE / "child.py"),
               "--root", str(ROOT), "--workload", workload,
               "--seed", str(seed), "--tmp", str(tmp), *flags]
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    probes = []
    with open(tmp / "stdout", "w+") as out, open(tmp / "stderr", "w+") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=out,
                                stderr=err)
        try:
            while proc.poll() is None:
                if time.monotonic() - spawned > CHILD_TIMEOUT_S:
                    raise BenchmarkError(f"{workload} child timed out")
                probes.append(_probe())
                time.sleep(PROBE_INTERVAL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise BenchmarkError(f"{workload} child exited "
                                 f"{proc.returncode}:\n{err.read()[-2000:]}")
        result = json.loads(out.read().splitlines()[-1])
    result["setup_s"] = result["constructed"] - spawned
    result["scale"] = PROBE_REFERENCE_S / statistics.median(probes or [
        PROBE_REFERENCE_S])
    return result


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from
    ``.git`` directly (no subprocess, no search above the root)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _check(reps: list[dict]) -> list[str]:
    """Output checks; returns the failures found."""
    problems = []
    first = reps[0]
    for rep in reps:
        if rep["records"] != rep["jobs"]:
            problems.append(f"{rep['records']} records for "
                            f"{rep['jobs']} jobs")
        if rep["failed"]:
            problems.append(f"{rep['failed']} failed records")
        if (rep["digest"], rep["ranking_digest"]) != \
                (first["digest"], first["ranking_digest"]):
            problems.append("record digest differs between repetitions")
    ranking = first["ranking_head"]
    if ranking and [entry for entry, _ in first["head"]] != ranking:
        problems.append("record stream is not in candidate-ranking order")
    return problems


def _precision(rep: dict, k: int) -> float:
    """Hazardous fraction of the first ``k`` records.  A Bayesian
    stream is emitted in candidate-ranking order (checked above), so
    there this is the precision of the top ``k`` candidates."""
    flags = [hazardous for _, hazardous in rep["head"][:k]]
    return sum(flags) / len(flags) if flags else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def run_metrics(reps: list[dict], setups: list[float]) -> dict:
    """End-to-end timings (scaled medians over repetitions), what the
    campaign found, the program's clock audit, and the work counters.

    Every repetition emits the same stream and makes the same calls, so
    counts come from the first; rates use the median campaign time."""
    first = reps[0]
    campaign_s = statistics.median(r["campaign_s"] * r["scale"]
                                   for r in reps)
    # A stream without a hazard is censored at the campaign's end.
    first_hazard_s = statistics.median(
        (r["campaign_s"] if r["first_hazard_s"] is None
         else r["first_hazard_s"]) * r["scale"] for r in reps)
    stop = first["stop_cache"]
    return {
        "setup_s": statistics.median(setups),
        "campaign_s": campaign_s,
        "campaign_wall_s": statistics.median(r["campaign_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "hazards": first["hazards"],
        "hazards_per_min": first["hazards"] / campaign_s * 60.0,
        "hazard_rate": _share(first["hazards"], first["records"]),
        "first_hazard_s": first_hazard_s,
        "precision_at_6": _precision(first, 6),
        "precision_at_20": _precision(first, 20),
        "failed_frac": _share(first["failed"], first["records"]),
        "core.results.reported_over_measured": statistics.median(
            r["reported_s"] / r["campaign_s"] for r in reps),
        "core.safety.stop_cache.hits": stop["hits"],
        "core.safety.stop_cache.misses": stop["misses"],
        "core.safety.stop_cache.hit_rate": _share(
            stop["hits"], stop["hits"] + stop["misses"]),
        "core.bayesian_fi.mine.n_scored": first["n_scored"],
    }


def layer_metrics(traced: dict, untraced_campaign_s: float) -> dict:
    """Per-layer wall seconds of the traced repetition, unscaled, with
    shares of its own campaign time."""
    campaign_s = traced["campaign_s"]
    metrics = {"trace.campaign_s": campaign_s,
               "trace.coverage": _share(traced["covered_s"], campaign_s),
               "trace.overhead": (campaign_s * traced["scale"]
                                  / untraced_campaign_s)}
    for layer, (self_s, total_s, calls) in traced["layers"].items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = calls
        if layer.startswith("phase."):
            # Phases enclose the other layers: their share is by total.
            metrics[f"{layer}.total_s"] = total_s
            metrics[f"{layer}.share"] = _share(total_s, campaign_s)
        else:
            metrics[f"{layer}.share"] = _share(self_s, campaign_s)
    for stage in STAGES:
        cell = traced["stages"].get(stage, {})
        metrics[f"ads.{stage}.s"] = cell.get("seconds", 0.0)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, usable_cpus: int) -> dict:
    metadata = {"workload": workload, "seed": seed,
                "usable_cpus": usable_cpus,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "git_sha": _git_sha(),
                "loadavg_start": os.getloadavg()}
    # Children inherit the affinity, so the probes share their CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    reps: list[dict] = []
    setups: list[float] = []
    traced = None
    try:
        started = time.monotonic()
        if trace:
            traced = _spawn(workload, seed, tmp, "--trace")
        while len(reps) < MIN_REPS or time.monotonic() - started < seconds:
            rep = _spawn(workload, seed, tmp)
            reps.append(rep)
            setups.append(rep["setup_s"] * rep["scale"])
            print(f"rep {len(reps)}: campaign_s {rep['campaign_s']:.4f} "
                  f"wall x {rep['scale']:.3f}  setup_s "
                  f"{rep['setup_s']:.4f}  records {rep['records']}  "
                  f"hazards {rep['hazards']}  digest {rep['digest'][:16]}",
                  flush=True)
            for _ in range(SETUP_PROBES):
                probe = _spawn(workload, seed, tmp, "--setup-only")
                setups.append(probe["setup_s"] * probe["scale"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metadata["loadavg_end"] = os.getloadavg()
    metadata["repetitions"] = len(reps)
    metadata["digest"] = reps[0]["digest"]
    metadata["ranking_digest"] = reps[0]["ranking_digest"]
    print("host " + json.dumps(metadata), flush=True)

    problems = _check(reps + ([traced] if traced else []))
    values = run_metrics(reps, setups)
    if traced is not None:
        values.update(layer_metrics(traced, values["campaign_s"]))
    print(f"  {'campaign_wall_s':<40} {values['campaign_wall_s']:>14.6g} s"
          f"  (unscaled)")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] in values:
            print(f"  {entry['name']:<40} {values[entry['name']]:>14.6g} "
                  f"{entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", flush=True)
    section = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": not problems,
        "attempted": sum(r["jobs"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {entry["name"]: {"value": values[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in section},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    usable_cpus = len(os.sched_getaffinity(0))    # before pinning
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), spec, usable_cpus)
        except BenchmarkError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
