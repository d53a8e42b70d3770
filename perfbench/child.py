"""One cold campaign in a fresh interpreter: the benchmark's unit of work.

``run.py`` starts this script once per repetition and reads the JSON
object it prints.  The script puts the checkout's ``src`` on
``sys.path`` itself, so the program runs from source with no
environment settings, and it points ``tempfile`` at a directory inside
the checkout.
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import json
import numbers
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Leading records whose hazard flags feed ``precision_at_k``.
HEAD = 20


def _canonical(value):
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return repr(value)


def _digest_line(obj, skip=()) -> bytes:
    """One dataclass as a canonical JSON line (floats in exact repr)."""
    return (json.dumps([_canonical(getattr(obj, f.name))
                        for f in fields(obj) if f.name not in skip])
            + "\n").encode()


def _identity(entry) -> list:
    return [entry.scenario, int(entry.injection_tick), entry.variable,
            float(entry.value)]


class StreamCheck:
    """The benchmark's ``record_sink``: digests, counts and times the
    record stream in emission order.  ``wall_seconds`` is left out of
    the digest, the only field that differs between identical runs."""

    def __init__(self):
        self.start = time.monotonic()
        self.digest = hashlib.sha256()
        self.records = 0
        self.failed = 0
        self.hazards = 0
        self.first_hazard_s = None
        self.head = []

    def add(self, record) -> None:
        if record.hazardous and self.first_hazard_s is None:
            self.first_hazard_s = time.monotonic() - self.start
        self.records += 1
        self.failed += record.failed
        self.hazards += record.hazardous
        if len(self.head) < HEAD:
            self.head.append([_identity(record), record.hazardous])
        self.digest.update(_digest_line(record, skip=("wall_seconds",)))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.root) / "src"), str(HERE)]
    tempfile.tempdir = args.tmp

    import numpy

    from repro.core import Campaign, CampaignConfig, safety
    from tracer import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    # profile_stages only adds the stage_timings block; it sits outside
    # the cache fingerprint and leaves every record unchanged.
    config = CampaignConfig(seed=args.seed, profile_stages=args.trace)
    campaign = Campaign(workload.scenarios(args.seed), config)
    result = {"constructed": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return

    tracer = LayerTracer() if args.trace else None
    with tracer or nullcontext():
        sink = StreamCheck()
        outcome = workload.run(campaign, args.seed, sink)
        campaign_s = time.monotonic() - sink.start
    ranking = hashlib.sha256()
    for candidate in outcome.ranking:
        ranking.update(_digest_line(candidate))
    stop = safety._canonical_stop.cache_info()
    result.update({
        "campaign_s": campaign_s,
        "jobs": outcome.jobs,
        "records": sink.records,
        "failed": sink.failed,
        "hazards": sink.hazards,
        "first_hazard_s": sink.first_hazard_s,
        "head": sink.head,
        "ranking_head": [_identity(c) for c in outcome.ranking[:HEAD]],
        "digest": sink.digest.hexdigest(),
        "ranking_digest": ranking.hexdigest() if outcome.ranking else None,
        "reported_s": outcome.reported_seconds,
        "n_scored": outcome.n_scored,
        "stop_cache": {"hits": stop.hits, "misses": stop.misses},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    })
    if tracer is not None:
        result["layers"] = tracer.stats
        result["covered_s"] = tracer.covered_seconds()
        result["stages"] = outcome.stages
    print(json.dumps(result))


if __name__ == "__main__":
    main()
