"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's campaigns:

* ``golden``    — run the scenario library fault-free and print margins
* ``random``    — random output-corruption campaign (fault model b)
* ``arch``      — random architectural campaign (fault model a)
* ``bayesian``  — Bayesian FI: train, mine, validate
* ``exhaustive``— strided sample of the min/max grid
* ``inject``    — one hand-specified fault
* ``scenes``    — the E4 scene-population delta distribution
* ``merge``     — fold sharded campaign record streams into one summary
* ``serve``     — always-on campaign service: HTTP/JSON job submission,
  durable job lifecycle, crash-safe restart, graceful drain

Campaign commands run on the streaming per-scenario pipeline and shard
across hosts with ``--shard-index/--shard-count``: each shard validates
its partition, streams records to its own ``--record-out`` file, and
``repro merge`` folds the shard streams back together.

Campaigns are supervised: a crashed or stuck worker is respawned and
its job retried, persistent failures are quarantined as structured
failure records (``--strict`` restores fail-fast), a durable completion
journal under ``--cache-dir`` lets ``--resume`` continue a killed
campaign without re-running finished experiments, and ``--lease``
replaces static sharding with dynamic TTL-leased scenario claims.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .ads.runtime import ADSConfig
from .analysis.metrics import delta_distribution, hazard_table
from .analysis.report import ascii_table
from .core.campaign import Campaign, CampaignConfig
from .core.interface_faults import DegradationConfig, interface_fault
from .core.persistence import JsonlRecordSink, save_candidates
from .core.resilience import ResilienceConfig
from .core.safety import bulk_safety_potential, world_safety_inputs
from .core.simulate import FaultSpec
from .sim.scenegen import SceneGenerator


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DriveFI reproduction: Bayesian fault injection")
    sub = parser.add_subparsers(dest="command", required=True)

    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", default=None,
                       help="directory for incremental-campaign caches "
                            "(golden traces, spooled to memory-mapped "
                            "columnar files, checkpoint ladders, mined "
                            "candidates)")
    cache.add_argument("--no-degradation", action="store_true",
                       help="disable the ADS graceful-degradation mode "
                            "(stale-channel detection and safe-stop "
                            "fallback), exposing the brittle oracle "
                            "behavior to interface faults")

    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument("--shard-index", type=int, default=0,
                          help="this host's shard (0-based); shard i "
                               "owns every scenario with index %% "
                               "shard-count == i")
    campaign.add_argument("--shard-count", type=int, default=1,
                          help="total shards the campaign is split "
                               "across (default 1: unsharded)")
    campaign.add_argument("--progress", action="store_true",
                          help="log per-stage progress (golden/mined/"
                               "validated counts) to stderr")
    campaign.add_argument("--strict", action="store_true",
                          help="fail fast on the first experiment error "
                               "instead of retrying and quarantining it "
                               "as a structured failure record")
    campaign.add_argument("--job-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock budget per experiment; a "
                               "worker stuck past it is killed and the "
                               "job retried")
    campaign.add_argument("--max-attempts", type=int, default=3,
                          metavar="N",
                          help="attempts per experiment before it is "
                               "quarantined (default 3)")
    campaign.add_argument("--no-journal", action="store_true",
                          help="skip the durable completion journal "
                               "normally kept under --cache-dir")
    campaign.add_argument("--resume", action="store_true",
                          help="skip experiments the completion journal "
                               "under --cache-dir already records "
                               "(after a crash/SIGKILL, continues where "
                               "the previous run stopped)")
    campaign.add_argument("--lease", action="store_true",
                          help="claim scenarios dynamically via TTL "
                               "leases in the shared --cache-dir "
                               "(multi-host mode without static "
                               "--shard-index partitioning; dead hosts' "
                               "claims expire and are re-run)")
    campaign.add_argument("--lease-ttl", type=float, default=30.0,
                          metavar="SECONDS",
                          help="lease lifetime between heartbeats "
                               "(default 30)")
    campaign.add_argument("--profile-stages", action="store_true",
                          help="collect wall-clock counters per ADS "
                               "stage (sensing/perception/world-model/"
                               "planning/actuation) and for the safety "
                               "monitor, plus stop-table hits/misses/"
                               "bulk batches, and print them with the "
                               "summary; pool workers' counters are "
                               "merged in")

    workers_help = ("processes for golden-run collection and experiment "
                    "validation (default serial)")
    record_out_help = ("stream experiment records to a JSONL file "
                       "(gzip if it ends in .gz) as they complete "
                       "instead of holding them in memory")

    golden_cmd = sub.add_parser("golden", parents=[cache],
                                help="fault-free runs and safety margins")
    golden_cmd.add_argument("--workers", type=int, default=None,
                            help="processes for golden-run collection")

    random_cmd = sub.add_parser("random", parents=[cache, campaign],
                                help="random output corruption")
    random_cmd.add_argument("-n", type=int, default=100,
                            help="number of experiments")
    random_cmd.add_argument("--seed", type=int, default=0)
    random_cmd.add_argument("--workers", type=int, default=None,
                            help=workers_help)
    random_cmd.add_argument("--record-out", default=None,
                            help=record_out_help)
    random_cmd.add_argument("--interface-share", type=float, default=0.0,
                            metavar="FRACTION",
                            help="probability each experiment draws an "
                                 "interface fault (message drop/freeze/"
                                 "delay/jitter/hang at a module boundary) "
                                 "instead of a value corruption "
                                 "(default 0: value faults only)")
    random_cmd.add_argument("--interface-kinds", default=None,
                            metavar="KIND[,KIND...]",
                            help="restrict interface draws to these "
                                 "kinds (default: all five)")
    random_cmd.add_argument("--interface-channels", default=None,
                            metavar="CH[,CH...]",
                            help="restrict interface draws to these "
                                 "channels (default: all)")

    arch_cmd = sub.add_parser("arch", parents=[cache, campaign],
                              help="random architectural faults")
    arch_cmd.add_argument("-n", type=int, default=200,
                          help="number of register flips")
    arch_cmd.add_argument("--seed", type=int, default=0)
    arch_cmd.add_argument("--workers", type=int, default=None,
                          help=workers_help)
    arch_cmd.add_argument("--record-out", default=None,
                          help=record_out_help)
    arch_cmd.add_argument("--interface-hangs", action="store_true",
                          help="drive HANG outcomes into the simulator "
                               "as interface hang faults on the stuck "
                               "kernel's channel instead of counting "
                               "them as recoverable only")

    bayes_cmd = sub.add_parser("bayesian", parents=[cache, campaign],
                               help="mine + validate F_crit")
    bayes_cmd.add_argument("--top-k", type=int, default=None,
                           help="validate only the k most critical")
    bayes_cmd.add_argument("--threshold", type=float, default=0.0,
                           help="predicted-delta mining threshold (m)")
    bayes_cmd.add_argument("--workers", type=int, default=None,
                           help=workers_help)
    bayes_cmd.add_argument("--save", help="write candidates to a JSON file")
    bayes_cmd.add_argument("--record-out", default=None,
                           help=record_out_help)
    bayes_cmd.add_argument("--interface-probe", default=None,
                           metavar="KIND[,KIND...]",
                           help="validate each mined candidate alongside "
                                "these interface-fault kinds on the "
                                "candidate variable's channel at the "
                                "same tick")

    grid_cmd = sub.add_parser("exhaustive", parents=[cache, campaign],
                              help="min/max grid sample")
    grid_cmd.add_argument("--stride", type=int, default=25,
                          help="planner ticks between injections")
    grid_cmd.add_argument("--max", type=int, default=None,
                          help="cap on experiments")
    grid_cmd.add_argument("--workers", type=int, default=None,
                          help=workers_help)
    grid_cmd.add_argument("--record-out", default=None,
                          help=record_out_help)
    grid_cmd.add_argument("--interface-grid", action="store_true",
                          help="append the interface-fault grid (every "
                               "kind x channel x strided tick) to each "
                               "scenario's value grid")

    inject_cmd = sub.add_parser("inject", parents=[cache],
                                help="one specific fault")
    inject_cmd.add_argument("scenario")
    inject_cmd.add_argument("variable",
                            help="ADS variable to corrupt (with --kind: "
                                 "the channel to fault instead)")
    inject_cmd.add_argument("value", type=float,
                            help="corruption value (with --kind: the "
                                 "fault parameter — delay depth or "
                                 "jitter window; 0 uses the default)")
    inject_cmd.add_argument("tick", type=int)
    inject_cmd.add_argument("--duration", type=int, default=4,
                            help="control ticks the corruption persists")
    inject_cmd.add_argument("--kind", default="value",
                            help="fault kind: value (default) or an "
                                 "interface kind (drop, freeze, delay, "
                                 "jitter, hang)")
    inject_cmd.add_argument("--channel", default=None,
                            help="channel for interface kinds "
                                 "(default: the variable positional)")

    scenes_cmd = sub.add_parser("scenes", help="scene delta distribution")
    scenes_cmd.add_argument("-n", type=int, default=7200)
    scenes_cmd.add_argument("--seed", type=int, default=42)

    serve_cmd = sub.add_parser(
        "serve", help="always-on campaign service (HTTP/JSON)")
    serve_cmd.add_argument("--cache-dir", required=True,
                           help="spool root: job journal, completion "
                                "journals, golden caches, record streams "
                                "(the durable state a restarted server "
                                "recovers from)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8732,
                           help="TCP port (0 picks a free one and prints "
                                "it)")
    serve_cmd.add_argument("--max-running", type=int, default=1,
                           help="concurrent campaign runner subprocesses "
                                "(default 1)")
    serve_cmd.add_argument("--max-queue-depth", type=int, default=64,
                           help="global queued-job cap; submissions past "
                                "it get 429 + Retry-After")
    serve_cmd.add_argument("--max-tenant-depth", type=int, default=16,
                           help="per-tenant queued-job cap")
    serve_cmd.add_argument("--min-disk-free-mb", type=int, default=256,
                           help="disk headroom floor under --cache-dir; "
                                "below it the service degrades (running "
                                "jobs finish, new ones get 429, /readyz "
                                "reports 503)")
    serve_cmd.add_argument("--stall-timeout", type=float, default=120.0,
                           metavar="SECONDS",
                           help="seconds without runner progress before "
                                "the watchdog kills and requeues a job")
    serve_cmd.add_argument("--job-max-attempts", type=int, default=3,
                           help="tries per job (crashes and stalls "
                                "included) before it fails")
    serve_cmd.add_argument("--workers", type=int, default=None,
                           help="default per-job validation workers for "
                                "specs that leave workers unset")

    merge_cmd = sub.add_parser(
        "merge", help="fold sharded record streams into one summary")
    merge_cmd.add_argument("shards", nargs="+",
                           help="per-shard --record-out files "
                                "(.jsonl or .jsonl.gz) or shell-glob "
                                "patterns (e.g. 'records-*.jsonl.gz'), "
                                "in shard order")
    merge_cmd.add_argument("--out", default=None,
                           help="also write the merged record stream "
                                "(gzip if it ends in .gz)")
    return parser


def _print_golden(campaign: Campaign) -> None:
    rows = [[name, run.hazard.value, run.min_delta_long, run.min_delta_lat]
            for name, run in campaign.golden_runs().items()]
    print(ascii_table(["scenario", "hazard", "min delta_long",
                       "min delta_lat"], rows))


def _print_summary(summary, label: str) -> None:
    failed = (f", {summary.failures} failed"
              if getattr(summary, "failures", 0) else "")
    print(f"{label}: {summary.hazards}/{summary.total} hazards "
          f"({summary.hazard_rate:.1%}){failed} "
          f"in {summary.wall_seconds:.1f}s")
    if getattr(summary, "degraded", 0):
        print(f"  degradation engaged in {summary.degraded} experiments, "
              f"masked {summary.masked}")
    rows = [[v, n, h, f"{rate:.1%}"]
            for v, n, h, rate in hazard_table(summary)]
    if rows:
        print(ascii_table(["variable", "experiments", "hazards", "rate"],
                          rows))
    timings = getattr(summary, "extra_info", {}).get("stage_timings")
    if timings:
        timed = {stage: cell for stage, cell in timings.items()
                 if cell["calls"]}
        total = sum(cell["seconds"] for cell in timed.values()) or 1.0
        stage_rows = [[stage, f"{cell['seconds']:.3f}",
                       f"{cell['seconds'] / total:.1%}", cell["calls"]]
                      for stage, cell in timed.items()]
        print(ascii_table(["stage", "seconds", "share", "lane-calls"],
                          stage_rows))
        world = timings.get("world_model", {})
        if "tracks" in world:
            updates = max(world["calls"], 1)
            print(f"  world model: {world['calls']} updates, "
                  f"{world['tracks'] / updates:.2f} live tracks and "
                  f"{world['detections'] / updates:.2f} detections "
                  f"per update")
        safety = timings.get("safety", {})
        for table in ("stop", "excursion"):
            if f"{table}_hits" in safety:
                hits, misses, batches = (safety[f"{table}_{event}"] for event
                                         in ("hits", "misses", "batches"))
                capped = (f", {safety[f'{table}_capped']} capped at "
                          f"max_time" if f"{table}_capped" in safety
                          else "")
                print(f"  {table} table: {hits} hits, {misses} misses "
                      f"({hits / max(hits + misses, 1):.1%} hit rate), "
                      f"{batches} bulk batches{capped}")
        collision = timings.get("collision")
        if collision:
            checks = collision["checks"]
            passes = collision["prescreen_passes"]
            print(f"  collision: {checks} checks, {passes} past the "
                  f"prescreen ({passes / max(checks, 1):.1%}), "
                  f"{collision['collisions']} collisions")
        checkpoint = timings.get("checkpoint")
        if checkpoint:
            snapshots, demanded, replayed, restores, gap, spilled = (
                checkpoint.get(event, 0) for event in (
                    "snapshots", "demanded_ticks", "replay_ticks",
                    "restores", "gap_ticks", "spill_bytes"))
            print(f"  checkpoint: {snapshots} snapshots for {demanded} "
                  f"demanded ticks ({replayed} prefix ticks replayed), "
                  f"{restores} restores replaying {gap} gap ticks, "
                  f"{spilled} bytes spilled")
        engine = timings.get("engine")
        if engine:
            (fused, scalar, live, slots, ticks, batches, mixed,
             fallbacks, handoffs, handoff_ticks, built) = (
                 engine.get(event, 0) for event in (
                     "fused_jobs", "scalar_jobs", "lane_ticks",
                     "slot_ticks", "fused_ticks", "fused_batches",
                     "batch_scenarios", "fused_fallbacks", "handoffs",
                     "handoff_ticks", "bundles_built"))
            print(f"  engine: {fused} fused jobs, {scalar} scalar jobs, "
                  f"lane occupancy {live / max(slots, 1):.1%} ({live} of "
                  f"{slots} slot-ticks) in {ticks} fused ticks "
                  f"({live / max(ticks, 1):.1f} lanes per tick), "
                  f"{batches} fused batches "
                  f"({mixed / max(batches, 1):.1f} scenarios per batch), "
                  f"{fallbacks} fused fallbacks, {built} messages built, "
                  f"{handoffs} hand-offs after {handoff_ticks} scalar "
                  f"ticks")
        golden = timings.get("golden")
        if golden:
            print(f"  golden: {golden.get('runs', 0)} runs, "
                  f"{golden.get('ticks', 0)} ticks simulated, "
                  f"{golden.get('cut_ticks', 0)} cut after the last "
                  f"forkable tick")


def _split_list(value: str | None) -> tuple[str, ...] | None:
    """A comma-separated CLI list as a tuple (None passes through)."""
    if value is None:
        return None
    return tuple(token.strip() for token in value.split(",")
                 if token.strip())


def _open_sink(args) -> "JsonlRecordSink | None":
    """The streaming record sink requested by ``--record-out`` (or None).

    Sinks are tagged with the campaign style so ``repro merge`` can
    refuse to fold shards of different campaigns into one summary.
    """
    record_out = getattr(args, "record_out", None)
    if record_out is None:
        return None
    return JsonlRecordSink(record_out, style=args.command)


def _shard_order(path: str):
    """Sort key keeping ``records-10`` after ``records-9``.

    Digit runs compare numerically, so glob expansion preserves shard
    index order past ten shards — the merge contract is "in shard
    order", and record order of a merged ``--out`` stream depends on
    it.
    """
    import re
    return [int(token) if token.isdigit() else token
            for token in re.split(r"(\d+)", path)]


def _expand_shards(patterns: list[str]) -> list[str]:
    """Shard arguments with shell-glob patterns expanded (shard order).

    A pattern that matches nothing — or a literal shard path that does
    not exist — is a clean one-line error naming the argument: silently
    merging fewer shards than the user pointed at would fabricate a
    smaller campaign, and a missing literal path deserves better than a
    stray errno out of the stream parser.
    """
    import glob as globbing
    import os
    paths: list[str] = []
    for pattern in patterns:
        if globbing.has_magic(pattern):
            matches = sorted(globbing.glob(pattern), key=_shard_order)
            if not matches:
                raise SystemExit(
                    f"error: shard pattern {pattern!r} matches no files")
            paths.extend(matches)
        else:
            if not os.path.exists(pattern):
                raise SystemExit(
                    f"error: shard file {pattern!r} does not exist")
            paths.append(pattern)
    return paths


def _close_sink(sink: "JsonlRecordSink | None") -> None:
    if sink is not None:
        sink.close()
        print(f"{sink.count} records streamed to {sink.path}")


def _progress_printer():
    """A PipelineProgress consumer that logs stage counts to stderr.

    Validated-stage events arrive once per record, so they are thinned
    to roughly 20 lines per campaign (the final count always prints).
    """
    def log(event):
        total = event.total
        if event.stage == "validated" and total:
            step = max(1, total // 20)
            if event.done % step and event.done != total:
                return
        shown = "?" if total is None else total
        scenario = f" ({event.scenario})" if event.scenario else ""
        print(f"[{event.stage}] {event.done}/{shown}{scenario}",
              file=sys.stderr)
    return log


def _campaign_kwargs(args) -> dict:
    """The progress keyword shared by the campaign commands."""
    if getattr(args, "progress", False):
        return {"on_progress": _progress_printer()}
    return {}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        from .service import ServiceConfig
        from .service.server import serve as run_service
        return run_service(ServiceConfig(
            cache_dir=args.cache_dir,
            host=args.host,
            port=args.port,
            max_running=args.max_running,
            max_queue_depth=args.max_queue_depth,
            max_tenant_depth=args.max_tenant_depth,
            min_disk_free_bytes=args.min_disk_free_mb * 1024 * 1024,
            stall_timeout=args.stall_timeout,
            max_attempts=args.job_max_attempts,
            default_workers=args.workers))
    if getattr(args, "lease", False):
        if getattr(args, "cache_dir", None) is None:
            raise SystemExit("--lease needs --cache-dir (the directory "
                             "the cooperating hosts share)")
        if getattr(args, "shard_count", 1) > 1:
            raise SystemExit("--lease replaces static --shard-count "
                             "partitioning; pick one multi-host mode")
    if getattr(args, "resume", False):
        if getattr(args, "cache_dir", None) is None:
            raise SystemExit("--resume needs --cache-dir (the completion "
                             "journal lives there)")
        if getattr(args, "no_journal", False):
            raise SystemExit("--resume replays the journal that "
                             "--no-journal disables; pick one")
    try:
        resilience = ResilienceConfig(
            job_timeout=getattr(args, "job_timeout", None),
            max_attempts=getattr(args, "max_attempts", 3),
            strict=getattr(args, "strict", False),
            journal=not getattr(args, "no_journal", False),
            resume=getattr(args, "resume", False),
            lease_mode=getattr(args, "lease", False),
            lease_ttl=getattr(args, "lease_ttl", 30.0))
        ads = ADSConfig()
        if getattr(args, "no_degradation", False):
            ads = dataclasses.replace(
                ads, degradation=DegradationConfig(enabled=False))
        config = CampaignConfig(
            ads=ads,
            shard_index=getattr(args, "shard_index", 0),
            shard_count=getattr(args, "shard_count", 1),
            resilience=resilience,
            profile_stages=getattr(args, "profile_stages", False))
    except ValueError as error:     # e.g. shard_index out of range
        raise SystemExit(f"error: {error}")
    campaign = Campaign(config=config,
                        cache_dir=getattr(args, "cache_dir", None))

    if args.command == "golden":
        campaign.golden_runs(workers=args.workers)
        _print_golden(campaign)
    elif args.command == "random":
        sink = _open_sink(args)
        try:
            summary = campaign.random_campaign(
                args.n, seed=args.seed, workers=args.workers,
                record_sink=sink,
                interface_share=args.interface_share,
                interface_kinds=_split_list(args.interface_kinds),
                interface_channels=_split_list(args.interface_channels),
                **_campaign_kwargs(args))
        except ValueError as error:    # bad --interface-kinds/-channels
            raise SystemExit(f"error: {error}")
        _print_summary(summary, "random campaign")
        _close_sink(sink)
    elif args.command == "arch":
        sink = _open_sink(args)
        summary, outcomes = campaign.architectural_campaign(
            args.n, seed=args.seed, workers=args.workers, record_sink=sink,
            interface_hangs=args.interface_hangs,
            **_campaign_kwargs(args))
        print(ascii_table(["outcome", "count"],
                          sorted(outcomes.items())))
        _print_summary(summary, "driven SDC experiments")
        _close_sink(sink)
    elif args.command == "bayesian":
        sink = _open_sink(args)
        try:
            result = campaign.bayesian_campaign(
                top_k=args.top_k, threshold=args.threshold,
                workers=args.workers,
                interface_probe=_split_list(args.interface_probe) or (),
                record_sink=sink, **_campaign_kwargs(args))
        except ValueError as error:    # bad --interface-probe, --top-k
            raise SystemExit(f"error: {error}")
        print(f"scored {result.mining.n_scored} candidate faults over "
              f"{result.mining.n_scenes} scenes in "
              f"{result.mining.wall_seconds:.1f}s")
        _print_summary(result.summary, "validated mined faults")
        print(f"precision: {result.precision:.1%}; total cost "
              f"{result.total_wall_seconds:.1f}s")
        _close_sink(sink)
        if args.save:
            save_candidates(result.candidates, args.save)
            print(f"candidates written to {args.save}")
    elif args.command == "exhaustive":
        sink = _open_sink(args)
        try:
            summary = campaign.exhaustive_campaign(
                tick_stride=args.stride, max_experiments=args.max,
                workers=args.workers, record_sink=sink,
                interface_grid=args.interface_grid,
                **_campaign_kwargs(args))
        except ValueError as error:    # bad --stride or --max
            raise SystemExit(f"error: {error}")
        _print_summary(summary, "grid sample")
        if config.shard_count == 1:
            # grid_size needs every golden trace; a shard only has its
            # own, so the global count is reported by unsharded runs.
            print(f"full grid would be {campaign.grid_size()} experiments")
        _close_sink(sink)
    elif args.command == "merge":
        from .core.persistence import merge_record_shards
        shards = _expand_shards(args.shards)
        try:
            merged = merge_record_shards(shards, out_path=args.out)
        except (ValueError, OSError) as error:
            raise SystemExit(f"error: {error}")
        print(f"merged {len(shards)} shard stream(s)")
        _print_summary(merged, "merged campaign")
        if args.out:
            print(f"merged records written to {args.out}")
    elif args.command == "inject":
        if args.kind != "value":
            channel = args.channel or args.variable
            try:
                fault = interface_fault(
                    args.kind, channel, args.tick,
                    duration_ticks=args.duration,
                    param=int(args.value) if args.value else None)
            except ValueError as error:
                raise SystemExit(f"error: {error}")
        elif args.channel is not None:
            raise SystemExit("error: --channel needs an interface --kind")
        else:
            fault = FaultSpec(args.variable, args.value, args.tick,
                              args.duration)
        try:
            record = campaign.run_fault(args.scenario, fault)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(ascii_table(["field", "value"], [
            ["outcome", record.hazard.value],
            ["landed", record.landed],
            ["degraded", record.degraded],
            ["min delta_long (m)", record.min_delta_long],
            ["min delta_lat (m)", record.min_delta_lat]]))
    elif args.command == "scenes":
        generator = SceneGenerator(seed=args.seed)
        deltas, _ = bulk_safety_potential([
            world_safety_inputs(scene.to_world(road=generator.road))
            for scene in generator.generate(args.n)])
        import numpy as np
        print(ascii_table(["delta_long bin (m)", "scenes"],
                          delta_distribution(np.array(deltas))))
    return 0


if __name__ == "__main__":   # pragma: no cover - exercised via __main__
    raise SystemExit(main())
