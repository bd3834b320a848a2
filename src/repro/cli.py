"""Command-line interface: ``python -m repro <command>``.

Four workflows a user reaches for before writing any code:

* ``demo``      — simulate a scenario and print the estimates.
* ``record``    — simulate a scenario and save the raw capture to a file.
* ``analyze``   — run the pipeline over a previously saved capture.
* ``regions``   — list the built-in regulatory channel plans.
* ``faults``    — inject delivery faults into a capture and compare the
  degraded estimates (confidence, reasons) against the clean run.
* ``bench``     — run the perf-benchmark suite (capture synthesis,
  pipeline throughput) and write ``BENCH_*.json``.
* ``obs``       — run an *observed* scenario: capture the trace and
  metrics of one end-to-end run and write ``trace.jsonl`` /
  ``metrics.prom`` / ``manifest.json`` (DESIGN.md §10).
* ``serve``     — run the streaming ingest service: a framed TCP server
  that turns live tag-report streams into per-user breathing estimates
  (docs/SERVING.md); Ctrl-C drains gracefully.
* ``replay``    — stream a recorded capture into a running server at
  1x–Nx real time (the load generator).
* ``watch``     — subscribe to a running server's estimate stream and
  print it as JSONL.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Optional, Sequence

from .body import MetronomeBreathing, Subject
from .config import PipelineConfig
from .core.pipeline import TagBreathe
from .errors import ConfigError, DegradedEstimateWarning, FaultInjectionError
from .faults import (
    AntennaOutage,
    BurstyDrop,
    DuplicateReports,
    FaultChain,
    OutOfOrderDelivery,
    PhaseOutliers,
    PhasePiFlips,
    ReportDrop,
    TagDeath,
    TimestampJitter,
)
from .metrics.accuracy import breathing_rate_accuracy
from .rf.regional import REGULATIONS
from .sim.engine import run_scenario
from .sim.scenario import Scenario
from .sim.trace_io import load_trace_csv, save_trace_csv, trace_summary
from .viz.ascii import render_table


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TagBreathe: breath monitoring with commodity RFID "
                    "(ICDCS 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="simulate a scenario and estimate")
    _add_scenario_args(demo)

    record = sub.add_parser("record", help="simulate and save a capture")
    _add_scenario_args(record)
    record.add_argument("--out", required=True, help="CSV output path")

    analyze = sub.add_parser("analyze", help="run the pipeline on a capture")
    analyze.add_argument("trace", help="CSV capture (from 'record' or hardware)")
    analyze.add_argument("--cutoff-hz", type=float, default=0.67,
                         help="low-pass cutoff (default 0.67)")

    faults = sub.add_parser(
        "faults",
        help="inject faults into a simulated capture and show degradation")
    _add_scenario_args(faults)
    _add_fault_args(faults)

    sub.add_parser("regions", help="list regulatory channel plans")

    bench = sub.add_parser(
        "bench",
        help="time capture synthesis and pipeline throughput")
    bench.add_argument("--quick", action="store_true",
                       help="abbreviated grid for CI smoke runs")
    bench.add_argument("--out-dir", default=".",
                       help="directory for BENCH_*.json (default: cwd); "
                            "'-' skips writing")
    bench.add_argument("--seed", type=int, default=0, help="master seed")
    bench.add_argument("--suite", choices=["all", "scenarios",
                                           "fabric_scale"],
                       default="all",
                       help="'scenarios' runs only the scenario packs and "
                            "merges their metrics into an existing "
                            "BENCH_simulation.json; 'fabric_scale' runs "
                            "only the multi-process soak and merges it "
                            "into BENCH_pipeline.json (default: all "
                            "suites)")

    obs_cmd = sub.add_parser(
        "obs",
        help="run an observed scenario and export trace/metrics/manifest")
    _add_scenario_args(obs_cmd)
    obs_cmd.add_argument("--out-dir", default="obs-out",
                         help="directory for trace.jsonl, metrics.prom, "
                              "manifest.json (default: obs-out); '-' prints "
                              "the summary without writing files")
    obs_cmd.add_argument("--detail", choices=["round", "slot"],
                         default="round",
                         help="trace granularity: one event per MAC round "
                              "(default) or additionally per ALOHA slot")
    obs_cmd.add_argument("--wall-clock", action="store_true",
                         help="stamp wall_s durations onto span ends "
                              "(makes the trace non-reproducible)")

    serve = sub.add_parser(
        "serve",
        help="run the streaming ingest service (Ctrl-C drains gracefully)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=7421,
                       help="TCP port (default 7421; 0 = ephemeral)")
    serve.add_argument("--shards", type=int, default=4,
                       help="session worker shards (default 4)")
    serve.add_argument("--window", type=float, default=None,
                       help="trailing analysis window in seconds "
                            "(default: the engine's 25 s)")
    serve.add_argument("--interval", type=float, default=5.0,
                       help="estimate cadence in stream seconds (default 5)")
    serve.add_argument("--warmup", type=float, default=25.0,
                       help="stream seconds before a session's first "
                            "estimate (default 25)")
    serve.add_argument("--queue-capacity", type=int, default=4096,
                       help="per-shard ingest queue bound; overflow sheds "
                            "the oldest queued report (default 4096)")
    serve.add_argument("--checkpoint", default=None,
                       help="checkpoint file: saved periodically and on "
                            "drain, resumed on start when present")
    serve.add_argument("--checkpoint-every", type=float, default=30.0,
                       help="periodic checkpoint cadence in wall seconds "
                            "(default 30; 0 = only on drain)")
    serve.add_argument("--signal", action="store_true",
                       help="embed a downsampled breathing-signal trace "
                            "in estimate messages (for dashboards)")
    serve.add_argument("--max-resident-users", type=int, default=None,
                       help="budget of engine-backed sessions per server "
                            "(per worker with --workers); exceeding it "
                            "hibernates the least-recently-active sessions "
                            "to the compressed cold tier (default: "
                            "unbounded)")
    serve.add_argument("--idle-after", type=float, default=None,
                       help="hibernate a session after this many wall "
                            "seconds without a report; it wakes bit-exactly "
                            "on the next one (default: never)")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes behind a consistent-hash "
                            "router (0 = single-process server; N >= 1 "
                            "runs the supervised fabric; requires "
                            "--state-dir)")
    serve.add_argument("--state-dir", default=None,
                       help="fabric state directory (worker checkpoints "
                            "and registry; restart over the same dir "
                            "resumes every session)")
    serve.add_argument("--standby", action="store_true",
                       help="run a warm-standby router over an existing "
                            "fabric's --state-dir: routes immediately and "
                            "promotes to supervisor if the primary dies")

    serve_worker = sub.add_parser(
        "serve-worker",
        help="run one fabric worker and join a remote supervisor")
    serve_worker.add_argument("--join", required=True,
                              help="supervisor control address host:port "
                                   "(comma-separated candidates allowed)")
    serve_worker.add_argument("--state-dir", required=True,
                              help="local directory for this worker's "
                                   "checkpoint")
    serve_worker.add_argument("--worker-id", type=int, default=None,
                              help="fixed worker id (default: supervisor "
                                   "assigns one at join)")
    serve_worker.add_argument("--host", default="127.0.0.1",
                              help="bind address for the ingest listener")
    serve_worker.add_argument("--advertise", default=None,
                              help="address the router should dial, when "
                                   "it differs from --host (NAT/containers)")

    chaos = sub.add_parser(
        "chaos",
        help="fault-inject a live fabric and verify streamed == batch")
    chaos.add_argument("--users", type=int, default=4,
                       help="simulated subjects (default 4)")
    chaos.add_argument("--duration", type=float, default=60.0,
                       help="capture length in stream seconds (default 60)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed: capture, fault schedule, jitter")
    chaos.add_argument("--workers", type=int, default=2,
                       help="fabric worker processes (default 2)")
    chaos.add_argument("--kills", type=int, default=2,
                       help="SIGKILLs to inject (default 2)")
    chaos.add_argument("--stalls", type=int, default=1,
                       help="SIGSTOP partitions to inject (default 1)")
    chaos.add_argument("--corruptions", type=int, default=1,
                       help="checkpoint corruptions to inject (default 1)")
    chaos.add_argument("--speed", type=float, default=6.0,
                       help="replay acceleration (default 6x)")
    chaos.add_argument("--state-dir", default=None,
                       help="keep fabric state here instead of a temp dir")
    chaos.add_argument("--router-kill", action="store_true",
                       help="SIGKILL the primary router mid-replay and "
                            "require a warm standby to promote while the "
                            "client reconnects (replaces worker faults)")

    replay = sub.add_parser(
        "replay",
        help="stream a recorded capture into a running server")
    replay.add_argument("trace", help="capture file (.csv or .jsonl)")
    replay.add_argument("--host", default="127.0.0.1", help="server address")
    replay.add_argument("--port", type=int, default=7421, help="server port")
    replay.add_argument("--speed", type=float, default=1.0,
                        help="time acceleration: 1 = real time, 4 = 4x, "
                             "0 = as fast as backpressure admits")
    replay.add_argument("--client-id", default=None,
                        help="stable client identity (reconnects under the "
                             "same id are counted by the server)")

    watch = sub.add_parser(
        "watch",
        help="print a running server's estimate stream as JSONL")
    watch.add_argument("user", nargs="?", type=int, default=None,
                       help="user id to watch (default: all users)")
    watch.add_argument("--host", default="127.0.0.1", help="server address")
    watch.add_argument("--port", type=int, default=7421, help="server port")
    return parser


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "faults", "severities in [0, 1]; 0 makes an injector a provable "
                  "no-op. With no flags at all a representative "
                  "default chain is used.")
    group.add_argument("--drop", type=float, default=None,
                       help="i.i.d. report loss fraction")
    group.add_argument("--bursty-drop", type=float, default=None,
                       help="bursty (Gilbert-Elliott) loss fraction")
    group.add_argument("--tag-death", type=float, default=None,
                       help="kill one tag for this trailing fraction of the trial")
    group.add_argument("--antenna-outage", type=float, default=None,
                       help="silence the busiest antenna port for this "
                            "fraction of the trial")
    group.add_argument("--phase-outliers", type=float, default=None,
                       help="fraction of reads given a large phase offset")
    group.add_argument("--pi-flips", type=float, default=None,
                       help="fraction of reads with the pi phase ambiguity")
    group.add_argument("--jitter", type=float, default=None,
                       help="fraction of reads with timestamp jitter")
    group.add_argument("--duplicates", type=float, default=None,
                       help="fraction of reads delivered twice")
    group.add_argument("--reorder", type=float, default=None,
                       help="fraction of reads delivered late / out of order")
    group.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the fault chain (default 0)")


def _build_fault_chain(args: argparse.Namespace) -> FaultChain:
    flag_to_injector = (
        (args.drop, ReportDrop, {}),
        (args.bursty_drop, BurstyDrop, {}),
        (args.tag_death, TagDeath, {}),
        (args.antenna_outage, AntennaOutage, {"align": "end"}),
        (args.phase_outliers, PhaseOutliers, {}),
        (args.pi_flips, PhasePiFlips, {}),
        (args.jitter, TimestampJitter, {}),
        (args.duplicates, DuplicateReports, {}),
        (args.reorder, OutOfOrderDelivery, {}),
    )
    # An explicit ``--flag 0`` is honoured as a zero-severity (no-op)
    # stage; only when *no* fault flag is given at all does the demo
    # fall back to a representative lossy, flaky deployment.
    stages = [cls(severity, **kwargs)
              for severity, cls, kwargs in flag_to_injector
              if severity is not None]
    if not stages:
        stages = [BurstyDrop(0.3), TagDeath(0.4), PhasePiFlips(0.02)]
    return FaultChain(stages, seed=args.fault_seed)


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=1,
                        help="number of users, 1-4 (default 1)")
    parser.add_argument("--distance", type=float, default=3.0,
                        help="antenna distance in metres (default 3)")
    parser.add_argument("--rate", type=float, default=12.0,
                        help="metronome rate of user 1 in bpm (default 12); "
                             "additional users step +3 bpm each")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="capture length in seconds (default 60)")
    parser.add_argument("--contending", type=int, default=0,
                        help="contending item tags (default 0)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def _build_scenario(args: argparse.Namespace) -> Scenario:
    subjects = [
        Subject(
            user_id=uid,
            distance_m=args.distance,
            lateral_offset_m=(uid - (args.users + 1) / 2) * 0.8,
            breathing=MetronomeBreathing(args.rate + 3.0 * (uid - 1)),
            sway_seed=args.seed * 10 + uid,
        )
        for uid in range(1, args.users + 1)
    ]
    scenario = Scenario(subjects)
    if args.contending:
        scenario = scenario.with_contending_tags(args.contending, seed=args.seed)
    return scenario


def _print_estimates(reports, user_ids, truths=None,
                     cutoff_hz: float = 0.67) -> int:
    config = PipelineConfig(cutoff_hz=cutoff_hz) if cutoff_hz != 0.67 \
        else PipelineConfig()
    pipeline = TagBreathe(config=config, user_ids=user_ids)
    estimates, failures = pipeline.process_detailed(reports)
    rows = []
    for uid in sorted(user_ids or estimates):
        if uid in estimates:
            est = estimates[uid]
            row = [uid, f"{est.rate_bpm:.2f} bpm", est.tags_fused,
                   est.read_count]
            if truths and uid in truths:
                row.append(f"{breathing_rate_accuracy(est.rate_bpm, truths[uid]) * 100:.1f}%")
            rows.append(row)
        else:
            rows.append([uid, "no estimate", "-", "-"]
                        + (["-"] if truths else []))
    headers = ["user", "estimate", "tags", "reads"] + (
        ["accuracy"] if truths else [])
    print(render_table(headers, rows))
    return 0 if estimates else 1


def _print_degradation(clean_reports, faulted_reports, user_ids, truths) -> int:
    clean, _ = TagBreathe(user_ids=user_ids).process_detailed(clean_reports)
    faulted, _ = TagBreathe(user_ids=user_ids).process_detailed(faulted_reports)
    rows = []
    for uid in sorted(user_ids):
        f = faulted.get(uid)
        c = clean.get(uid)
        rows.append([
            uid,
            f"{truths[uid]:.1f}" if uid in truths else "-",
            f"{c.rate_bpm:.2f}" if c else "no estimate",
            f"{f.rate_bpm:.2f}" if f else "no estimate",
            f"{f.confidence:.2f}" if f else "-",
            ", ".join(f.degraded_reasons) if f and f.degraded_reasons
            else ("none" if f else "-"),
        ])
    print(render_table(
        ["user", "truth", "clean bpm", "faulted bpm", "conf", "degraded"],
        rows))
    return 0 if faulted else 1


def _run_observed(args: argparse.Namespace) -> int:
    """The ``obs`` command: one fully observed scenario + pipeline run."""
    from . import obs
    from .viz.dashboard import render_obs_summary

    scenario = _build_scenario(args)
    print(f"observing {args.users} user(s) at {args.distance} m for "
          f"{args.duration:.0f} s (detail={args.detail})...")
    with obs.capture(detail=args.detail, wall_clock=args.wall_clock) \
            as (tracer, registry):
        result = run_scenario(scenario, duration_s=args.duration,
                              seed=args.seed)
        pipeline = TagBreathe(user_ids=set(scenario.monitored_user_ids))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            estimates, failures = pipeline.process_detailed(result.reports)
        events = list(tracer.events)
        metrics = registry.snapshot()

    print(render_obs_summary(events, metrics))
    rows = [[uid, f"{est.rate_bpm:.2f} bpm", f"{est.confidence:.2f}"]
            for uid, est in sorted(estimates.items())]
    rows += [[uid, f"failed: {reason}", "-"]
             for uid, reason in sorted(failures.items())]
    print(render_table(["user", "estimate", "confidence"], rows))

    if args.out_dir != "-":
        os.makedirs(args.out_dir, exist_ok=True)
        from .obs import write_events_jsonl, write_manifest, write_prometheus

        trace_path = os.path.join(args.out_dir, "trace.jsonl")
        n_lines = write_events_jsonl(events, trace_path)
        write_prometheus(registry, os.path.join(args.out_dir, "metrics.prom"))
        write_manifest(
            os.path.join(args.out_dir, "manifest.json"),
            config=pipeline.config,
            seeds=[args.seed],
            extra={"scenario": {
                "users": args.users, "distance_m": args.distance,
                "rate_bpm": args.rate, "duration_s": args.duration,
                "contending": args.contending, "detail": args.detail,
            }},
        )
        print(f"wrote trace.jsonl ({n_lines} events), metrics.prom, "
              f"manifest.json to {args.out_dir}")
    return 0 if estimates else 1


def _per_shard_budget(total: Optional[int], shards: int) -> Optional[int]:
    """Split a server-wide resident-session budget across shards.

    Ceil division so the shard budgets sum to at least the requested
    total (a floor of 1 per shard — a shard must be able to hold the
    session it is currently feeding).
    """
    if total is None:
        return None
    return max(1, -(-int(total) // max(1, shards)))


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: run the service until a signal drains it."""
    import asyncio
    import signal

    from .serve import BreathServer, SessionConfig

    if args.workers > 0 or args.standby:
        return _run_fabric(args)

    config = SessionConfig(
        window_s=args.window,
        estimate_interval_s=args.interval,
        warmup_s=args.warmup,
        queue_capacity=args.queue_capacity,
        include_signal=args.signal,
        idle_after_s=args.idle_after,
        max_resident=_per_shard_budget(args.max_resident_users, args.shards),
    )
    server = BreathServer(
        host=args.host, port=args.port, n_shards=args.shards, config=config,
        checkpoint_path=args.checkpoint,
        checkpoint_interval_s=args.checkpoint_every,
    )

    async def _run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix loop: KeyboardInterrupt still drains below
        await server.start()
        print(f"serving on {server.host}:{server.port} "
              f"({args.shards} shards, interval {args.interval:.0f}s"
              + (f", checkpoint {args.checkpoint}" if args.checkpoint else "")
              + ") — Ctrl-C to drain")
        if server.counters["resumed_reports"]:
            print(f"resumed {server.session_count()} session(s), "
                  f"{server.counters['resumed_reports']} buffered reports "
                  f"from {args.checkpoint}")
        try:
            await server.serve_until(stop)
        except KeyboardInterrupt:  # pragma: no cover - signal-handler path
            await server.drain()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    summary = server.summary()
    print("drained: " + ", ".join(
        f"{key}={summary[key]}"
        for key in ("reports_total", "sessions", "shed_total",
                    "reconnects_total", "protocol_errors_total")))
    return 0


def _run_fabric(args: argparse.Namespace) -> int:
    """``serve --workers N``: supervised multi-process fabric."""
    import asyncio
    import signal

    from .serve import BreathFabric, FabricConfig, SessionConfig

    if not args.state_dir:
        flag = "--standby" if args.standby else "--workers"
        print(f"error: {flag} requires --state-dir (worker checkpoints "
              "live there; restarting over the same dir resumes sessions)",
              file=sys.stderr)
        return 2
    session = SessionConfig(
        window_s=args.window,
        estimate_interval_s=args.interval,
        warmup_s=args.warmup,
        queue_capacity=args.queue_capacity,
        include_signal=args.signal,
        idle_after_s=args.idle_after,
        max_resident=_per_shard_budget(args.max_resident_users, args.shards),
    )
    config = FabricConfig(
        workers=max(args.workers, 1),
        host=args.host,
        n_shards=args.shards,
        checkpoint_interval_s=args.checkpoint_every,
        session=session,
    )
    fabric = BreathFabric(args.state_dir, config,
                          host=args.host, port=args.port,
                          standby=args.standby)

    async def _run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await fabric.start()
        if args.standby:
            print(f"standby router on {fabric.host}:{fabric.port} over "
                  f"{len(fabric.supervisor.workers)} worker(s), "
                  f"state {args.state_dir} — promotes if the primary dies")
        else:
            print(f"fabric on {fabric.host}:{fabric.port} "
                  f"({args.workers} workers x {args.shards} shards, "
                  f"state {args.state_dir}) — Ctrl-C to drain")
        try:
            await stop.wait()
        finally:
            await fabric.stop(graceful=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    counters = fabric.counters
    restarts = sum(h.restarts
                   for h in fabric.supervisor.workers.values())
    print("drained: " + ", ".join(
        f"{key}={counters[key]}"
        for key in ("connections_total", "routed_reports_total",
                    "link_failures_total", "rebalances_total"))
        + f", worker_restarts={restarts}")
    return 0


def _run_serve_worker(args: argparse.Namespace) -> int:
    """``serve-worker``: one worker process joining a remote supervisor.

    The supervisor assigns the worker id (unless pinned) and pushes the
    fleet's session knobs in the assign reply, so a hand-started worker
    behaves identically to a locally spawned one.
    """
    from pathlib import Path

    from .serve.worker import parse_addr, worker_main

    join = [spec.strip() for spec in args.join.split(",") if spec.strip()]
    for spec in join:
        try:
            parse_addr(spec)
        except ValueError as exc:
            raise ConfigError(f"--join: {exc}") from None
    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    options = {"host": args.host, "join": join}
    if args.advertise:
        options["advertise_host"] = args.advertise
    label = (f"worker {args.worker_id}" if args.worker_id is not None
             else "worker (id assigned at join)")
    print(f"{label} joining {args.join} "
          f"(state {state_dir}) — Ctrl-C to drain")
    try:
        worker_main(args.worker_id, str(state_dir), options)
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """``chaos``: fault-inject a fabric, verify streamed == batch."""
    from .serve import ChaosConfig, run_chaos

    config = ChaosConfig(
        users=args.users,
        duration_s=args.duration,
        seed=args.seed,
        workers=args.workers,
        kills=args.kills,
        stalls=args.stalls,
        corruptions=args.corruptions,
        speed=args.speed,
        router_kill=args.router_kill,
    )
    if config.router_kill:
        print(f"chaos: {config.users} users / {config.duration_s:.0f} s "
              f"capture on {config.workers} workers; SIGKILLing the "
              f"primary router mid-replay, standby must promote "
              f"(seed {config.seed})...")
    else:
        print(f"chaos: {config.users} users / {config.duration_s:.0f} s "
              f"capture on {config.workers} workers; injecting "
              f"{config.kills} kills, {config.stalls} stalls, "
              f"{config.corruptions} corruptions (seed {config.seed})...")
    report = run_chaos(config, state_dir=args.state_dir)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _run_replay(args: argparse.Namespace) -> int:
    """The ``replay`` command: stream a capture into a running server."""
    from .serve import replay_trace
    from .sim.trace_io import load_trace

    reports = load_trace(args.trace)
    print(trace_summary(reports))
    pace = "max speed" if args.speed <= 0 else f"{args.speed:g}x real time"
    print(f"replaying to {args.host}:{args.port} at {pace}...")
    try:
        stats = replay_trace(reports, args.host, args.port,
                             speed=args.speed, client_id=args.client_id)
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(f"sent {stats.sent} reports in {stats.wall_s:.1f}s "
          f"({stats.sent / max(stats.wall_s, 1e-9):.0f}/s), "
          f"server acked {stats.acked}, shed {stats.shed_total}")
    for error in stats.errors:
        print(f"server error: {error}", file=sys.stderr)
    return 1 if stats.errors else 0


def _run_watch(args: argparse.Namespace) -> int:
    """The ``watch`` command: print the estimate stream as JSONL."""
    import asyncio
    import json

    from .serve import watch_estimates

    async def _run() -> int:
        try:
            async for message in watch_estimates(args.host, args.port,
                                                 args.user):
                print(json.dumps(message, sort_keys=True), flush=True)
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 1
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 0


def _run_bench_scenarios(args: argparse.Namespace, out_dir: Optional[str],
                         grid_name: str) -> int:
    """``bench --suite scenarios``: run the packs, merge into the JSON.

    Only the ``"scenarios"`` key of an existing ``BENCH_simulation.json``
    is replaced — the wall-clock suites keep their published numbers, so
    the packs can be re-scored without re-timing the whole grid.
    """
    import json
    from pathlib import Path

    from .bench import run_scenario_pack_benchmark

    print(f"running {grid_name} scenario-pack suite (seed {args.seed})...")
    scenarios = run_scenario_pack_benchmark(quick=args.quick, seed=args.seed)
    rows = []
    for name, pack in scenarios["packs"].items():
        for case, metrics in pack["cases"].items():
            rows.append([
                name, case, metrics["ticks"],
                f"{metrics['mean_accuracy']:.3f}",
                metrics["confident_wrong_in_motion"],
                f"{metrics['false_alarm_rate']:.3f}",
                f"{metrics['missed_alarm_rate']:.3f}",
            ])
    print(render_table(
        ["pack", "engine", "ticks", "accuracy", "conf-wrong(motion)",
         "false-alarm", "missed-alarm"], rows))
    if out_dir is not None:
        path = Path(out_dir) / "BENCH_simulation.json"
        payload = json.loads(path.read_text()) if path.exists() else {}
        payload["scenarios"] = scenarios
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"merged scenario metrics into {path}")
    return 0


def _fabric_scale_summary(case: dict) -> str:
    """One-line headline for a fabric_scale soak case."""
    return (f"fabric soak: {case['settled_sessions']}/{case['users']} "
            f"sessions settled on {case['workers_initial']}->"
            f"{case['workers_final']} workers "
            f"({case['users_per_machine']:.0f} users/machine), "
            f"{case['migrated_sessions']} migrated in rebalance, "
            f"{case['worker_restarts']} restarts, "
            f"{case['reports_per_s']:.0f} reports/s, "
            f"acked==sent: {case['acked_equal_sent']}")


def _run_bench_fabric(args: argparse.Namespace, out_dir: Optional[str],
                      grid_name: str) -> int:
    """``bench --suite fabric_scale``: soak only, merge into the JSON.

    Only the ``"fabric_scale"`` key of an existing ``BENCH_pipeline.json``
    is replaced — the single-process pipeline suites keep their published
    numbers, so the multi-machine soak can be re-scored alone.
    """
    import json
    from pathlib import Path

    from .bench import run_fabric_soak_benchmark

    print(f"running {grid_name} fabric_scale soak (seed {args.seed})...")
    suite = run_fabric_soak_benchmark(quick=args.quick, seed=args.seed)
    print(_fabric_scale_summary(suite["cases"][0]))
    if out_dir is not None:
        path = Path(out_dir) / "BENCH_pipeline.json"
        payload = json.loads(path.read_text()) if path.exists() else {}
        payload["fabric_scale"] = suite
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"merged fabric_scale metrics into {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "regions":
        rows = [
            (reg.name, f"{reg.band_hz[0] / 1e6:.1f}-{reg.band_hz[1] / 1e6:.1f} MHz",
             reg.num_channels,
             "hopping" if reg.hopping_required else "fixed allowed",
             f"{reg.max_eirp_dbm:.1f} dBm")
            for reg in REGULATIONS.values()
        ]
        print(render_table(
            ["region", "band", "channels", "mode", "max EIRP"], rows))
        return 0

    if args.command == "bench":
        from .bench import run_benchmarks
        out_dir = None if args.out_dir == "-" else args.out_dir
        grid_name = "quick" if args.quick else "full"
        if args.suite == "scenarios":
            return _run_bench_scenarios(args, out_dir, grid_name)
        if args.suite == "fabric_scale":
            return _run_bench_fabric(args, out_dir, grid_name)
        print(f"running {grid_name} perf benchmark grid "
              f"(seed {args.seed})...")
        results = run_benchmarks(quick=args.quick, seed=args.seed,
                                 out_dir=out_dir)
        rows = [
            [c["users"], f"{c['duration_s']:.0f} s", c["reports"],
             f"{c['seconds']:.2f} s"]
            for c in results["simulation"]["cases"]
        ]
        print(render_table(["users", "trial", "reports", "capture"], rows))
        pipe_rows = [
            [c["users"], f"{c['duration_s']:.0f} s", c["reports"],
             f"{c['process_s']:.2f} s", f"{c['reports_per_s']:.0f}/s"]
            for c in results["pipeline"]["cases"]
        ]
        print(render_table(
            ["users", "trial", "reports", "process", "throughput"],
            pipe_rows))
        fabric = results["pipeline"].get("fabric_scale")
        if fabric:
            print(_fabric_scale_summary(fabric["cases"][0]))
        overhead = results["simulation"].get("observability")
        if overhead:
            print(f"observability overhead ({overhead['users']} users, "
                  f"{overhead['duration_s']:.0f} s): "
                  f"{overhead['overhead_fraction'] * 100:.1f}% "
                  f"({overhead['traced_only_s'] * 1e3:.1f} ms traced-only "
                  f"work over {overhead['baseline_s']:.2f} s, "
                  f"{overhead['events']} events)")
        if out_dir is not None:
            print(f"wrote BENCH_simulation.json and BENCH_pipeline.json "
                  f"to {out_dir}")
        return 0

    if args.command == "obs":
        return _run_observed(args)

    if args.command in ("serve", "serve-worker"):
        run = _run_serve if args.command == "serve" else _run_serve_worker
        try:
            return run(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "chaos":
        return _run_chaos(args)

    if args.command == "replay":
        return _run_replay(args)

    if args.command == "watch":
        return _run_watch(args)

    if args.command == "analyze":
        reports = load_trace_csv(args.trace)
        print(trace_summary(reports))
        user_ids = {r.user_id for r in reports if r.user_id < (1 << 32)}
        return _print_estimates(reports, user_ids or None,
                                cutoff_hz=args.cutoff_hz)

    # demo / record / faults share the simulation step.  Validate the
    # fault chain first: a bad severity must fail before the (much more
    # expensive) capture simulation, not after it.
    chain = None
    if args.command == "faults":
        try:
            chain = _build_fault_chain(args)
        except FaultInjectionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    scenario = _build_scenario(args)
    print(f"simulating {args.users} user(s) at {args.distance} m for "
          f"{args.duration:.0f} s ({scenario.total_tag_count()} tags)...")
    result = run_scenario(scenario, duration_s=args.duration, seed=args.seed)
    print(f"captured {len(result.reports)} reads "
          f"({result.aggregate_read_rate_hz():.0f}/s)")

    if args.command == "faults":
        faulted = chain.apply(result.reports)
        print(f"injected faults: {len(result.reports)} reads in, "
              f"{len(faulted)} out")
        print(chain.describe())
        truths = {uid: result.ground_truth.rate_bpm(uid, 0, args.duration)
                  for uid in scenario.monitored_user_ids}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            return _print_degradation(result.reports, faulted,
                                      set(scenario.monitored_user_ids), truths)

    if args.command == "record":
        count = save_trace_csv(result.reports, args.out)
        print(f"wrote {count} reports to {args.out}")
        return 0

    truths = {uid: result.ground_truth.rate_bpm(uid, 0, args.duration)
              for uid in scenario.monitored_user_ids}
    return _print_estimates(result.reports, set(scenario.monitored_user_ids),
                            truths)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
