"""The perf-benchmark harness behind ``repro bench``.

Times the end-to-end reproduction at paper scale — 1/5/15 users for the
25 s characterisation and 120 s accuracy trial lengths — then times the
TagBreathe pipeline over the captured reports.  Results land in two
JSON files at the output directory root:

* ``BENCH_simulation.json`` — per-case wall-clock of one capture, split
  into its MAC and report-synthesis stages.
* ``BENCH_pipeline.json`` — TagBreathe batch-processing throughput over
  each capture (reports/s, users estimated), plus the ``streaming``
  suite: serve-shaped replay of the same captures timing the
  O(new-samples) cadence tick in units of a fixed reference kernel
  timed in the same run, each tick checked against batch processing of
  the same stored rows, with memoized (no-new-data) tick latency and
  the derived per-core serve capacity, and ``feed_batch`` over column
  chunks timed in the same kernel runs with its bit-exactness against
  the cadence-cut replay checked in-run, and the same stream at serve
  shape (256-row frames split per user into sessions, staged
  ``ingest_batch`` against feeding every sub-batch at once); plus the
  ``wire`` suite: binary column frames over a real localhost socket
  (bytes/report and acked ingest throughput); plus the
  ``fabric_scale`` suite: a population-scale soak of the multi-process
  serve fabric (EPC-remapped synthetic users, one mid-run rebalance)
  whose session-accounting invariants — including per-machine capacity
  (``users_per_machine``) and the acked==sent ingest contract — are
  machine-independent.

The streaming suite's tick and chunked-feed costs are ratios to the
reference kernel timed between the ticks, and its staging speedup is a
same-run ratio, so machine speed cancels out of them (which is what
lets CI gate them on any machine; see
``tools/check_bench_regression.py``).
"""

from __future__ import annotations

import json
import os
import platform
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import obs
from .body import MetronomeBreathing, Subject
from .core.pipeline import TagBreathe
from .epc.gen2 import RoundStats, record_round_metrics
from .errors import DegradedEstimateWarning, InsufficientDataError
from .reader.batch import ReportBatch
from .reader.reader import record_read_metrics
from .sim.engine import SimulationResult, run_scenario
from .sim.scenario import Scenario

#: (users, duration_s) grid of the full benchmark — the paper's trial
#: lengths (25 s characterisation, 120 s accuracy) at growing population.
FULL_GRID = [(1, 25.0), (1, 120.0), (5, 25.0), (5, 120.0),
             (15, 25.0), (15, 120.0)]

#: Abbreviated grid for CI smoke runs.  The paper's 25 s characterisation
#: length is the shortest trial that reliably yields estimates for every
#: user (the zero-crossing buffer needs ~3.5 breaths).
QUICK_GRID = [(1, 25.0), (5, 25.0)]

#: Contending item tags present in every benchmark scenario.
CONTENDING_TAGS = 10


def benchmark_scenario(users: int, seed: int = 0) -> Scenario:
    """A deterministic multi-user scenario for benchmarking.

    Users sit side by side at staggered distances with individual
    metronome rates, plus a fixed population of contending item tags —
    the busy-room shape of the paper's Fig. 13/14 experiments.
    """
    subjects = [
        Subject(
            user_id=uid,
            distance_m=2.0 + 0.2 * (uid - 1),
            lateral_offset_m=(uid - (users + 1) / 2) * 0.5,
            breathing=MetronomeBreathing(8.0 + (uid % 5) * 2.0),
            sway_seed=seed * 100 + uid,
        )
        for uid in range(1, users + 1)
    ]
    return Scenario(subjects).with_contending_tags(CONTENDING_TAGS, seed=seed)


def _stage_seconds(registry: obs.MetricsRegistry) -> Dict[str, float]:
    """Total span seconds per stage name recorded in ``registry``."""
    return {labels["stage"]: inst.sum
            for _kind, metric, labels, inst in registry.instruments()
            if metric == obs.STAGE_METRIC}


def _event_counts(registry: obs.MetricsRegistry) -> Dict[str, int]:
    """The ``repro_events_total`` tallies in ``registry``, by name."""
    return {dict(labels)["name"]: int(value) for labels, value
            in sorted(registry.values("repro_events_total").items())}


def run_simulation_benchmark(grid: List, seed: int = 0
                             ) -> "tuple[Dict, Dict[tuple, SimulationResult]]":
    """Time one capture per grid case, with its MAC and synthesis stages.

    Returns:
        (summary dict, captured results keyed by (users, duration_s)) —
        the captures feed :func:`run_pipeline_benchmark` so both suites
        share one simulation pass.
    """
    cases = []
    captures: Dict[tuple, SimulationResult] = {}
    for users, duration_s in grid:
        scenario = benchmark_scenario(users, seed=seed)
        with obs.capture() as (tracer, registry):
            tracer.configure(enabled=False)
            t0 = time.perf_counter()
            result = run_scenario(scenario, duration_s=duration_s, seed=seed)
            elapsed = time.perf_counter() - t0
        stages = _stage_seconds(registry)
        captures[(users, duration_s)] = result
        cases.append({
            "users": users,
            "duration_s": duration_s,
            "tags": scenario.total_tag_count(),
            "reports": len(result.reports),
            "seconds": elapsed,
            "mac_s": stages.get("reader.mac"),
            "synthesize_s": stages.get("reader.synthesize"),
        })
    headline = max(cases, key=lambda c: (c["users"], c["duration_s"]))
    summary = {
        "suite": "simulation",
        "machine": _machine_info(),
        "seed": seed,
        "cases": cases,
        "headline": {
            "users": headline["users"],
            "duration_s": headline["duration_s"],
            "seconds": headline["seconds"],
        },
    }
    return summary, captures


def run_pipeline_benchmark(captures: Dict[tuple, SimulationResult],
                           seed: int = 0) -> Dict:
    """Time TagBreathe batch processing over benchmark captures."""
    cases = []
    for (users, duration_s), result in sorted(captures.items()):
        pipeline = TagBreathe(
            user_ids=set(result.scenario.monitored_user_ids)
        )
        with obs.capture() as (tracer, registry), \
                warnings.catch_warnings():
            tracer.configure(enabled=False)
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            t0 = time.perf_counter()
            estimates = pipeline.process(result.reports)
            elapsed = time.perf_counter() - t0
        counters = _event_counts(registry)
        cases.append({
            "users": users,
            "duration_s": duration_s,
            "reports": len(result.reports),
            "process_s": elapsed,
            "reports_per_s": (len(result.reports) / elapsed
                              if elapsed > 0 else float("inf")),
            "users_estimated": len(estimates),
            "counters": counters,
        })
    return {
        "suite": "pipeline",
        "machine": _machine_info(),
        "seed": seed,
        "cases": cases,
    }


#: Stream time fed before the first streaming-benchmark cadence tick
#: (the analysis window must partially fill before ticks mean anything).
STREAM_WARMUP_S = 12.0

#: Stream-time interval between streaming-benchmark cadence ticks —
#: matches the serve layer's default ``estimate_interval_s``.
STREAM_CADENCE_S = 5.0

#: Analysis window of the streaming-benchmark ticks and of the batch
#: estimate each tick is checked against (the engine's default).
STREAM_WINDOW_S = 25.0

#: Timed reference-kernel runs at every streaming-benchmark cadence
#: point (see :func:`_reference_kernel`).
STREAM_KERNEL_RUNS = 3

#: The reference kernel's fixed input.
_KERNEL_DATA = np.random.default_rng(0).standard_normal(1024)

#: Reports per column chunk on the batched-feed measurement — matches
#: the ingest client's column-frame coalescing scale and is past the
#: knee where per-batch overheads amortize.
STREAM_BATCH_CHUNK = 4096


#: Rows per column frame on the serve-shaped feed measurement — the
#: frame size of the bulk ingest path; the server splits each frame per
#: user, so a session sees only its own few rows of it.
SERVE_FRAME_ROWS = 256


def _serve_shape_feed(batch_all: ReportBatch, repeats: int = 5) -> Dict:
    """Staged ``ingest_batch`` vs eager per-sub-batch feeding at serve shape.

    The stream is cut into ``SERVE_FRAME_ROWS``-row frames and each frame
    is split per user (untimed: that is routing, not ingest); each
    sub-batch goes to its user's :class:`UserSession` through
    ``ingest_batch``.  The staged sessions read each engine every
    ``STREAM_CADENCE_S`` of stream time (and once at the end), which
    feeds its staged rows — the catch-up a cadence estimate pays,
    without the estimate itself.  The eager sessions read their engine
    after every sub-batch, so each few-row sub-batch is its own
    ``feed_batch``: what a session without staging does.  Sessions are
    opened before either timing starts; each side keeps its fastest of
    ``repeats`` runs, and the two must end in equal engine state and
    bookkeeping.
    """
    from .serve.session import SessionConfig, UserSession

    uids = sorted(set(batch_all.user_id.tolist()))
    frames = []
    for lo in range(0, len(batch_all), SERVE_FRAME_ROWS):
        frame = batch_all.select(slice(lo, lo + SERVE_FRAME_ROWS))
        frames.append((float(frame.t.max()), list(frame.split_by_user())))

    def sessions():
        return {uid: UserSession(uid, SessionConfig()) for uid in uids}

    eager_s = staged_s = float("inf")
    for _ in range(repeats):
        eager = sessions()
        t0 = time.perf_counter()
        for _t_max, parts in frames:
            for uid, sub in parts:
                eager[uid].ingest_batch(sub)
                eager[uid].engine
        eager_s = min(eager_s, time.perf_counter() - t0)

        staged = sessions()
        next_tick = float(batch_all.t[0]) + STREAM_WARMUP_S if frames \
            else 0.0
        t0 = time.perf_counter()
        for t_max, parts in frames:
            for uid, sub in parts:
                staged[uid].ingest_batch(sub)
            if t_max >= next_tick:
                next_tick += STREAM_CADENCE_S
                for session in staged.values():
                    session.engine
        for session in staged.values():
            session.engine
        staged_s = min(staged_s, time.perf_counter() - t0)

    state_equal = all(
        (eager[uid].engine._inc.snapshot()
         == staged[uid].engine._inc.snapshot())
        and (eager[uid].engine.feed_drop_counts
             == staged[uid].engine.feed_drop_counts)
        and ((eager[uid].reports_in, eager[uid].first_t,
              eager[uid].latest_t)
             == (staged[uid].reports_in, staged[uid].first_t,
                 staged[uid].latest_t))
        for uid in uids)
    return {
        "serve_frame_rows": SERVE_FRAME_ROWS,
        "serve_sub_batch_rows": (len(batch_all)
                                 / sum(len(parts) for _, parts in frames)
                                 if frames else 0.0),
        "serve_eager_s": eager_s,
        "serve_staged_s": staged_s,
        "serve_staging_speedup": (eager_s / staged_s
                                  if staged_s > 0 else float("inf")),
        "serve_state_equal": state_equal,
    }


def _reference_kernel() -> float:
    """Fixed work whose time tracks the host's speed.

    A mix of small-array numpy calls and dict-and-int bytecode, the two
    kinds of work a tick does, so both slow down together when a shared
    host does.  No change to the program can make it faster or slower,
    so a tick's time divided by the kernel's, both taken in one run,
    cancels the machine and its load (``perfbench/reference.py`` scales
    every workload the same way).
    """
    total = 0.0
    for i in range(6):
        part = np.sort(_KERNEL_DATA[i * 8: i * 8 + 256])
        total += float(np.median(part)) + float(np.cumsum(part)[-1])
    table: Dict[int, int] = {}
    for i in range(600):
        key = i & 63
        table[key] = table.get(key, 0) + i % 7
    return total + len(table)


def _time_reference_kernel(times: List[float],
                           runs: int = STREAM_KERNEL_RUNS) -> None:
    """Append ``runs`` kernel timings, each after an untimed warm run."""
    for _ in range(runs):
        _reference_kernel()
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)


def _cadence_cuts(t: np.ndarray) -> List[int]:
    """Where a serve-shaped replay of stream times ``t`` ticks.

    A tick falls after the first report at or past the next due time,
    which starts ``STREAM_WARMUP_S`` after the first report and
    advances by ``STREAM_CADENCE_S`` per tick.  Returns, per tick, the
    number of reports fed before it.
    """
    cuts: List[int] = []
    if not t.shape[0]:
        return cuts
    next_tick = float(t[0]) + STREAM_WARMUP_S
    for i, ti in enumerate(t.tolist()):
        if ti >= next_tick:
            next_tick += STREAM_CADENCE_S
            cuts.append(i + 1)
    return cuts


def run_streaming_benchmark(captures: Dict[tuple, SimulationResult],
                            seed: int = 0) -> Dict:
    """Serve-shaped replay: the cadence tick's cost and correctness.

    Each capture is cut at its cadence points (:func:`_cadence_cuts`)
    and replayed into a default engine one ``feed_batch`` per cut; at
    every cut each monitored user is ticked (``estimate_user`` over the
    trailing ``STREAM_WINDOW_S``), then re-ticked immediately with no
    new data — the memoized tick a serve deployment pays whenever a
    user's stream was quiet between cadences.  The reference kernel
    (:func:`_reference_kernel`) is timed at every cadence point;
    ``tick_cost_kernels`` is the mean computed tick over the kernel's
    median time in the same run, a tick cost that machine speed cancels
    out of.

    Every tick is cross-checked against batch ``process_detailed`` over
    the engine's stored rows with the same window (untimed);
    ``max_rate_diff_bpm`` is expected to be exactly 0.0 — batch and tick
    run one cascade and one stage 5 (DESIGN.md §12) — so a nonzero value
    in a committed benchmark is a correctness alarm, not noise.  Batch
    keeps no fallback hysteresis memory, so ``fallback_ticks`` counts
    ticks that ran on the RSS fallback, where the two could disagree.

    ``serve_capacity_users`` is the derived headline: how many users one
    core can tick per cadence interval, charging each user its share of
    the replay's feed cost plus one computed tick.

    ``feed_batch_cost_kernels`` times ``feed_batch`` at
    ``STREAM_BATCH_CHUNK``-row chunks, per 1,000 reports in runs of the
    reference kernel; the chunked engine must end bit-equal to the
    replayed one (``batch_state_equal``).  ``serve_staging_speedup``
    times the few-row per-user sub-batches the server actually hands its
    sessions, staged against eager (:func:`_serve_shape_feed`).
    """
    cases = []
    for (users, duration_s), result in sorted(captures.items()):
        user_ids = sorted(result.scenario.monitored_user_ids)
        inc = TagBreathe(user_ids=set(user_ids))
        ref = TagBreathe(user_ids=set(user_ids))
        batch_all = result.reports
        n_reports = len(batch_all)
        cuts = _cadence_cuts(batch_all.t)
        # One slice per tick, then the tail after the last one; slicing
        # is untimed (a columnar reader delivers arrays).
        bounds = [0] + cuts + [n_reports]
        segments = [batch_all.select(slice(lo, hi))
                    for lo, hi in zip(bounds, bounds[1:])]
        feed_s = inc_s = hit_s = 0.0
        ticks = insufficient = fallback = 0
        max_diff = 0.0
        kernel_times: List[float] = []
        _time_reference_kernel(kernel_times)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            for k, segment in enumerate(segments):
                t0 = time.perf_counter()
                inc.feed_batch(segment)
                feed_s += time.perf_counter() - t0
                if k == len(cuts):
                    break
                _time_reference_kernel(kernel_times)
                for uid in user_ids:
                    ticks += 1
                    t0 = time.perf_counter()
                    try:
                        a = inc.estimate_user(uid, window_s=STREAM_WINDOW_S)
                    except InsufficientDataError:
                        a = None
                    inc_s += time.perf_counter() - t0
                    t0 = time.perf_counter()
                    try:
                        inc.estimate_user(uid, window_s=STREAM_WINDOW_S)
                    except InsufficientDataError:
                        pass
                    hit_s += time.perf_counter() - t0
                    b = ref.process_detailed(
                        inc.buffered_batch(uid),
                        window_s=STREAM_WINDOW_S)[0].get(uid)
                    if a is not None and a.estimator != "zero_crossing":
                        fallback += 1
                    if a is None or b is None:
                        insufficient += 1
                        if (a is None) != (b is None):
                            max_diff = float("inf")
                    else:
                        max_diff = max(max_diff,
                                       abs(a.rate_bpm - b.rate_bpm))
        kernel_s = float(np.median(kernel_times))
        # The same stream in STREAM_BATCH_CHUNK-row column chunks
        # (chunking untimed), and the bit-exactness contract *checked*
        # against the cadence-cut replay above, not assumed.
        chunks = [
            batch_all.select(np.arange(
                lo, min(lo + STREAM_BATCH_CHUNK, n_reports)))
            for lo in range(0, n_reports, STREAM_BATCH_CHUNK)
        ]
        bat = TagBreathe(user_ids=set(user_ids))
        t0 = time.perf_counter()
        for chunk in chunks:
            bat.feed_batch(chunk)
        batch_s = time.perf_counter() - t0
        state_equal = (bat.feed_drop_counts == inc.feed_drop_counts
                       and bat._inc.snapshot() == inc._inc.snapshot())
        batch_diff = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            for uid in user_ids:
                try:
                    a = bat.estimate_user(uid)
                except InsufficientDataError:
                    a = None
                try:
                    b = inc.estimate_user(uid)
                except InsufficientDataError:
                    b = None
                if (a is None) != (b is None):
                    batch_diff = float("inf")
                elif a is not None:
                    batch_diff = max(batch_diff,
                                     abs(a.rate_bpm - b.rate_bpm))

        serve = _serve_shape_feed(batch_all)

        inc_tick = inc_s / ticks if ticks else float("nan")
        hit_tick = hit_s / ticks if ticks else float("nan")
        # Per-user feed cost over one cadence interval: this user's
        # share of the stream's reports in STREAM_CADENCE_S of time.
        feed_per_report = feed_s / n_reports if n_reports else 0.0
        reports_per_user_cadence = (n_reports / duration_s / users
                                    * STREAM_CADENCE_S)
        user_cadence_cost = (inc_tick
                             + feed_per_report * reports_per_user_cadence)
        cases.append({
            "users": users,
            "duration_s": duration_s,
            "reports": n_reports,
            "ticks": ticks,
            "insufficient_ticks": insufficient,
            "feed_s": feed_s,
            "feed_reports_per_s": (n_reports / feed_s
                                   if feed_s > 0 else float("inf")),
            "batch_chunk": STREAM_BATCH_CHUNK,
            "feed_batch_s": batch_s,
            "feed_batch_reports_per_s": (n_reports / batch_s
                                         if batch_s > 0 else float("inf")),
            "feed_batch_cost_kernels": (
                batch_s / n_reports * 1000.0 / kernel_s
                if n_reports else float("nan")),
            "batch_state_equal": state_equal,
            "batch_max_rate_diff_bpm": batch_diff,
            **serve,
            "reference_kernel_s": kernel_s,
            "incremental_tick_s": inc_tick,
            "cached_tick_s": hit_tick,
            "tick_cost_kernels": inc_tick / kernel_s,
            "cached_tick_cost_kernels": hit_tick / kernel_s,
            "serve_capacity_users": (STREAM_CADENCE_S / user_cadence_cost
                                     if user_cadence_cost > 0
                                     else float("inf")),
            "max_rate_diff_bpm": max_diff,
            "fallback_ticks": fallback,
        })
    headline = max(cases, key=lambda c: (c["users"], c["duration_s"]))
    return {
        "warmup_s": STREAM_WARMUP_S,
        "cadence_s": STREAM_CADENCE_S,
        "cases": cases,
        "headline": {
            "users": headline["users"],
            "duration_s": headline["duration_s"],
            "tick_cost_kernels": headline["tick_cost_kernels"],
            "cached_tick_cost_kernels": headline["cached_tick_cost_kernels"],
            "serve_capacity_users": headline["serve_capacity_users"],
            "max_rate_diff_bpm": headline["max_rate_diff_bpm"],
            "fallback_ticks": sum(c["fallback_ticks"] for c in cases),
            "feed_batch_cost_kernels": headline["feed_batch_cost_kernels"],
            "batch_state_equal": all(c["batch_state_equal"]
                                     for c in cases),
            "batch_max_rate_diff_bpm": max(c["batch_max_rate_diff_bpm"]
                                           for c in cases),
            "serve_staging_speedup": headline["serve_staging_speedup"],
            "serve_state_equal": all(c["serve_state_equal"]
                                     for c in cases),
        },
    }


def run_wire_benchmark(captures: Dict[tuple, SimulationResult],
                       seed: int = 0) -> Dict:
    """The report wire format over a real socket.

    Replays one capture into a fresh in-process
    :class:`~repro.serve.server.BreathServer` over localhost TCP as
    binary column frames (the client coalesces
    ~:data:`~repro.serve.client._COLUMN_BATCH` reports per frame, the
    server ingests them through ``feed_batch``) and records bytes on the
    wire and acked ingest throughput.

    ``bytes_per_report`` is a property of the wire format, not the
    machine (48 data bytes plus an 8-byte sequence number per report,
    and the frame headers), so the headline is CI-comparable without a
    baseline; ``acked_reports_per_s`` is same-machine wall clock.
    """
    import asyncio

    from .serve.client import IngestClient
    from .serve.server import BreathServer

    key = (5, 25.0) if (5, 25.0) in captures else max(captures)
    reports = captures[key].reports

    async def one() -> Dict:
        server = BreathServer(n_shards=2)
        await server.start()
        client = IngestClient("127.0.0.1", server.port,
                              client_id="wire-bench-column")
        await client.connect()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            t0 = time.perf_counter()
            stats = await client.replay(reports, speed=0.0)
            wall = time.perf_counter() - t0
            await client.close()
            await server.drain()
        return {
            "mode": "column",
            "users": key[0],
            "duration_s": key[1],
            "reports": len(reports),
            "sent": stats.sent,
            "acked": stats.acked,
            "shed_total": stats.shed_total,
            "bytes_sent": stats.bytes_sent,
            "bytes_per_report": (stats.bytes_sent / stats.sent
                                 if stats.sent else float("inf")),
            "wall_s": wall,
            "acked_reports_per_s": (stats.acked / wall
                                    if wall > 0 else float("inf")),
        }

    column = asyncio.run(one())
    return {
        "seed": seed,
        "cases": [column],
        "headline": {
            "users": key[0],
            "duration_s": key[1],
            "column_bytes_per_report": column["bytes_per_report"],
            "acked_reports_per_s": column["acked_reports_per_s"],
            "acked_equal_sent": column["acked"] == column["sent"],
        },
    }


#: Fabric soak population: full runs settle >=50k concurrent sessions
#: (the ward-scale population the multi-machine fabric is sized
#: against; per-machine capacity is published as users/worker);
#: quick runs keep CI within budget at the same code paths.
SOAK_FULL_USERS = 50_000
SOAK_QUICK_USERS = 1_000

#: Fabric soak worker-process count (before the mid-run rebalance).
SOAK_WORKERS = 4

#: Reports cloned per synthetic soak user — enough to create a session,
#: ride through a checkpoint, and survive a migration, without turning
#: the soak into a throughput benchmark of the breathing DSP.
SOAK_REPORTS_PER_USER = 12


def run_fabric_soak_benchmark(quick: bool = False, seed: int = 0) -> Dict:
    """Soak the multi-process serve fabric at population scale.

    Synthesises a large user population by EPC-remapping a small real
    capture — one simulated subject's first ``SOAK_REPORTS_PER_USER``
    reads are cloned under thousands of distinct user ids
    (:meth:`EPC96.from_user_tag` keeps the tag ids), interleaved
    slice-major so every worker ingests continuously.  The stream is
    replayed at full speed into a ``SOAK_WORKERS``-process fabric, with
    one :meth:`BreathFabric.add_worker` rebalance injected mid-run.

    The *invariants* in the result are machine-independent and guarded
    by ``tools/check_bench_regression.py``:

    * ``settled_sessions == users`` — no session was lost to routing,
      checkpointing, or the rebalance;
    * ``acked == sent`` (``acked_equal_sent``) — every report the
      client sent was acknowledged ingested; the fabric never shed or
      silently dropped under soak load;
    * ``migrated_sessions > 0`` — the rebalance actually moved load
      (an add_worker that moves nothing is a broken ring);
    * ``worker_restarts == 0`` — a soak is not a chaos run; any
      restart here is a real crash.

    ``users_per_machine`` (settled sessions / final worker count) is
    the published per-machine capacity figure: with the TCP worker
    transport, each worker process is the stand-in for one machine of
    the multi-machine deployment, so users/worker is users/machine.

    Wall-clock numbers (startup/ingest/rebalance seconds, reports/s)
    are recorded for humans but never compared across machines.
    """
    import asyncio
    import dataclasses
    import tempfile

    from .epc.codec import EPC96
    from .serve.client import IngestClient
    from .serve.fabric import BreathFabric
    from .serve.session import SessionConfig
    from .serve.supervisor import FabricConfig

    users = SOAK_QUICK_USERS if quick else SOAK_FULL_USERS
    capture = run_scenario(benchmark_scenario(1, seed=seed),
                           duration_s=25.0, seed=seed)
    base = [r for r in capture.reports
            if r.user_id == 1][:SOAK_REPORTS_PER_USER]
    reports = [
        dataclasses.replace(r, epc=EPC96.from_user_tag(uid, r.tag_id))
        for r in base
        for uid in range(1, users + 1)
    ]

    async def _soak(state_dir: str) -> Dict:
        fabric = BreathFabric(state_dir, FabricConfig(
            workers=SOAK_WORKERS,
            n_shards=1,
            heartbeat_interval_s=1.0,
            heartbeat_timeout_s=5.0,
            checkpoint_interval_s=30.0,
            session=SessionConfig(estimate_interval_s=5.0),
        ))
        t0 = time.perf_counter()
        await fabric.start()
        startup_s = time.perf_counter() - t0
        try:
            client = IngestClient("127.0.0.1", fabric.port,
                                  connect_timeout_s=30.0,
                                  read_timeout_s=120.0)
            await client.connect()
            half = len(reports) // 2
            t0 = time.perf_counter()
            first = await client.replay(reports[:half], speed=0.0)
            t_reb = time.perf_counter()
            new_id = await fabric.add_worker()
            rebalance_s = time.perf_counter() - t_reb
            migrated = int(
                (await fabric.supervisor.ping_worker(new_id))["sessions"])
            second = await client.replay(reports[half:], speed=0.0)
            ingest_s = time.perf_counter() - t0 - rebalance_s
            final = await fabric.fleet_stats()
            await client.close(polite=True)
        finally:
            restarts = sum(h.restarts
                           for h in fabric.supervisor.workers.values())
            await fabric.stop(graceful=True)
        per_worker = sorted(int(p.get("sessions", 0))
                            for p in final["workers"].values())
        mean = sum(per_worker) / len(per_worker) if per_worker else 0.0
        sent = first.sent + second.sent
        acked = max(first.acked, second.acked)
        settled = int(final["sessions"])
        return {
            "users": users,
            "reports": len(reports),
            "reports_per_user": SOAK_REPORTS_PER_USER,
            "workers_initial": SOAK_WORKERS,
            "workers_final": len(final["workers"]),
            "startup_s": startup_s,
            "ingest_s": ingest_s,
            "rebalance_s": rebalance_s,
            "reports_per_s": (len(reports) / ingest_s
                              if ingest_s > 0 else float("inf")),
            "sent": sent,
            # acks carry the route's cumulative received count, and both
            # replay halves share one connection — the second half's
            # final ack already covers the first.
            "acked": acked,
            "acked_equal_sent": acked == sent,
            "shed_total": int(final["shed_total"]),
            "settled_sessions": settled,
            "users_per_machine": (settled / len(final["workers"])
                                  if final["workers"] else 0.0),
            "migrated_sessions": migrated,
            "worker_restarts": restarts,
            "link_failures": fabric.counters["link_failures_total"],
            "rebalances": fabric.counters["rebalances_total"],
            "session_balance": {
                "min": per_worker[0] if per_worker else 0,
                "max": per_worker[-1] if per_worker else 0,
                "imbalance": (per_worker[-1] / mean if mean else
                              float("inf")),
            },
        }

    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        case = asyncio.run(_soak(tmp))
    return {
        "quick": quick,
        "seed": seed,
        "cases": [case],
        "headline": {
            "users": case["users"],
            "settled_sessions": case["settled_sessions"],
            "users_per_machine": case["users_per_machine"],
            "acked_equal_sent": case["acked_equal_sent"],
            "migrated_sessions": case["migrated_sessions"],
            "worker_restarts": case["worker_restarts"],
            "reports_per_s": case["reports_per_s"],
        },
    }


#: Idle-economics population: registered users parked in the cold tier.
IDLE_FULL_REGISTERED = 1_000_000
IDLE_QUICK_REGISTERED = 20_000

#: Fraction of the registered fleet actively breathing at any instant
#: (the ward-realism assumption the ROADMAP names).
IDLE_ACTIVE_FRACTION = 0.01

#: Reports in an idle user's parked history — a brief monitoring burst
#: before going quiet, the characteristic idle profile of a fleet where
#: most registered users are not currently wearing tags.
IDLE_TEMPLATE_REPORTS = 64

#: Engine-backed sessions actually materialised and fed to steady state
#: to measure bytes-per-active-user (the fleet's active population is
#: this sample's cost times the active head-count).
IDLE_ACTIVE_SAMPLE_FULL = 8
IDLE_ACTIVE_SAMPLE_QUICK = 4

#: Hibernated users woken one by one to measure wake latency.
IDLE_WAKE_SAMPLE_FULL = 1_000
IDLE_WAKE_SAMPLE_QUICK = 200

#: Stream time the compressed soak compresses into back-to-back reps.
IDLE_SOAK_HOURS_FULL = 8.0
IDLE_SOAK_HOURS_QUICK = 1.0

#: Stream seconds of capture replayed per soak rep (time-shifted).
IDLE_SOAK_REP_S = 60.0

#: Stream seconds fed to each active-sample session — past the engine's
#: ~4-window (100 s) pruning horizon, so the measurement sees the
#: steady-state plateau, not a still-growing buffer.
IDLE_STEADY_S = 150.0


def _percentile_ms(samples_s: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples_s), q) * 1e3)


def run_idle_economics_benchmark(quick: bool = False, seed: int = 0) -> Dict:
    """Idle-user economics at registered-fleet scale (1M / 1 % active).

    Real fleets are idle-heavy: of ``registered_users`` only
    ``IDLE_ACTIVE_FRACTION`` are breathing into the system at any
    instant.  This suite measures what the hibernation cold tier buys:

    * **bytes_per_idle_user** — every registered user is parked in a
      :class:`~repro.serve.hibernate.HibernationStore` as a real,
      wakeable session record (a template session's record with the
      frame's user_id column and CRC rewritten per user —
      verified by waking a sample), and the store's resident bytes are
      divided by the population;
    * **bytes_per_active_user** — a sample of engine-backed sessions is
      fed ``IDLE_STEADY_S`` stream seconds (past the pruning horizon)
      and measured with ``tracemalloc``, capturing the *true* python +
      numpy resident cost, with the engine's own ``streaming_nbytes``
      accounting recorded alongside, and the same session parked as a
      parked record (``steady_state.blob_bytes_per_report`` divides its
      size by the rows it holds);
    * **wake latency percentiles** — hibernated users are woken one by
      one through ``SessionShard.session_for`` (inflate, CRC check,
      one bit-exact ``feed_batch``), p50/p95/p99 over the sample, plus
      the worst-case wake of a full steady-state session;
    * **flat-ceiling soak** — one engine is fed an
      ``IDLE_SOAK_HOURS``-equivalent stream as back-to-back time-shifted
      60 s reps with a cadence estimate per rep; the resident-bytes
      ceiling of the last half over the steady quarter must stay ~1
      (``ceiling_ratio``), proving prune-driven compaction actually
      releases memory.

    The machine-independent floors (idle/active ratio >= 10x, wake p99,
    ceiling ratio, blob bytes per report) are guarded by
    ``tools/check_bench_regression.py``.
    """
    import tracemalloc

    from .serve.hibernate import HibernationStore
    from .serve.record import pack_record, read_record, session_state_to_doc
    from .serve.session import SessionConfig, SessionShard, UserSession

    registered = IDLE_QUICK_REGISTERED if quick else IDLE_FULL_REGISTERED
    active_users = int(registered * IDLE_ACTIVE_FRACTION)
    active_sample = (IDLE_ACTIVE_SAMPLE_QUICK if quick
                     else IDLE_ACTIVE_SAMPLE_FULL)
    wake_sample = IDLE_WAKE_SAMPLE_QUICK if quick else IDLE_WAKE_SAMPLE_FULL
    soak_hours = IDLE_SOAK_HOURS_QUICK if quick else IDLE_SOAK_HOURS_FULL
    config = SessionConfig()

    capture = run_scenario(benchmark_scenario(1, seed=seed),
                           duration_s=IDLE_STEADY_S, seed=seed)
    batch = capture.reports.select(
        np.flatnonzero(capture.reports.user_id == 1))

    # ---- bytes per ACTIVE user: tracemalloc over a fed sample --------
    tracemalloc.start()
    before, _peak = tracemalloc.get_traced_memory()
    active_sessions = []
    for _ in range(active_sample):
        session = UserSession(1, config)
        for start in range(0, len(batch), STREAM_BATCH_CHUNK):
            session.ingest_batch(batch.select(
                np.arange(start, min(start + STREAM_BATCH_CHUNK,
                                     len(batch)))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            session.estimate_now()
        active_sessions.append(session)
    after, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    bytes_per_active = (after - before) / active_sample
    steady_engine_nbytes = active_sessions[0].engine.streaming_nbytes(1)
    steady_state = active_sessions[0].state()
    steady_rows = len(steady_state["batch"])
    steady_doc = session_state_to_doc(steady_state)
    steady_doc["hibernated"] = True
    steady_blob = pack_record(steady_doc)
    del active_sessions

    # ---- bytes per IDLE user: park the whole registered fleet -------
    # A template session (the idle profile: a brief burst, then quiet)
    # is captured once; each user's record rewrites the template
    # frame's user_id column (and so its CRC) — byte-identical to
    # hibernating that user for real, and wakeable, at a fraction of
    # the cost of building a million engines.
    template = UserSession(1, config)
    template.ingest_batch(batch.select(slice(0, IDLE_TEMPLATE_REPORTS)))
    template_state = template.state()
    template_state["hibernated"] = True
    rows = template_state["batch"]
    store = HibernationStore()
    t0 = time.perf_counter()
    for uid in range(1, registered + 1):
        user_rows = ReportBatch(
            rows.t, rows.phase, rows.rssi, rows.doppler, rows.channel,
            rows.antenna, np.full(len(rows), uid, dtype=np.uint64),
            rows.tag_id)
        store.put(uid, pack_record(session_state_to_doc(
            dict(template_state, user_id=uid, batch=user_rows))))
    registration_s = time.perf_counter() - t0
    bytes_per_idle = store.resident_bytes() / registered

    # ---- wake latency: inflate + CRC check + one feed_batch per user -
    shard = SessionShard(0, config, publish=lambda message: None)
    wake_ids = list(range(1, wake_sample + 1))
    for uid in wake_ids:
        shard.hibernated.put(uid, store.record(uid))
    wake_times: List[float] = []
    verified = 0
    for uid in wake_ids:
        t0 = time.perf_counter()
        session = shard.session_for(uid)
        wake_times.append(time.perf_counter() - t0)
        if (session.user_id == uid
                and session.reports_in == IDLE_TEMPLATE_REPORTS
                and len(session.engine.buffered_batch(uid))
                == IDLE_TEMPLATE_REPORTS):
            verified += 1
    # Worst case: waking a full steady-state window.
    t0 = time.perf_counter()
    steady_session = UserSession(1, config)
    steady_session.restore(read_record(steady_blob))
    wake_steady_s = time.perf_counter() - t0
    del steady_session

    # ---- compressed soak: flat memory ceiling over stream-hours -----
    reps = max(4, int(round(soak_hours * 3600.0 / IDLE_SOAK_REP_S)))
    rep_mask = np.asarray(batch.t) <= (float(batch.t[0]) + IDLE_SOAK_REP_S)
    rep_batch = batch.select(np.flatnonzero(rep_mask))
    span = float(rep_batch.t[-1] - rep_batch.t[0]) + 0.05
    engine = TagBreathe(user_ids={1})
    nbytes_samples: List[int] = []
    soak_reports = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        for rep in range(reps):
            shifted = ReportBatch(
                rep_batch.t + rep * span, rep_batch.phase, rep_batch.rssi,
                rep_batch.doppler, rep_batch.channel, rep_batch.antenna,
                rep_batch.user_id, rep_batch.tag_id)
            soak_reports += engine.feed_batch(shifted)
            try:
                engine.estimate_user(1)
            except InsufficientDataError:
                pass
            nbytes_samples.append(engine.streaming_nbytes(1))
    quarter, half = len(nbytes_samples) // 4, len(nbytes_samples) // 2
    steady_max = max(nbytes_samples[quarter:half])
    late_max = max(nbytes_samples[half:])
    ceiling_ratio = late_max / steady_max if steady_max else float("inf")

    idle_active_ratio = (bytes_per_active / bytes_per_idle
                         if bytes_per_idle else float("inf"))
    fleet_bytes = (active_users * bytes_per_active
                   + (registered - active_users) * bytes_per_idle)
    result = {
        "quick": quick,
        "seed": seed,
        "registered_users": registered,
        "active_users": active_users,
        "active_sample": active_sample,
        "template_reports": IDLE_TEMPLATE_REPORTS,
        "registration_s": registration_s,
        "registered_per_s": (registered / registration_s
                             if registration_s > 0 else float("inf")),
        "store_bytes": store.resident_bytes(),
        "bytes_per_idle_user": bytes_per_idle,
        "bytes_per_active_user": bytes_per_active,
        "idle_active_ratio": idle_active_ratio,
        "fleet_resident_gb_projection": fleet_bytes / 1e9,
        "steady_state": {
            "stream_s": IDLE_STEADY_S,
            "engine_nbytes": steady_engine_nbytes,
            "blob_bytes": len(steady_blob),
            "blob_bytes_per_report": len(steady_blob) / steady_rows,
            "compression_ratio": (steady_engine_nbytes / len(steady_blob)
                                  if steady_blob else float("inf")),
            "wake_s": wake_steady_s,
        },
        "wake": {
            "sample": wake_sample,
            "verified": verified,
            "p50_ms": _percentile_ms(wake_times, 50),
            "p95_ms": _percentile_ms(wake_times, 95),
            "p99_ms": _percentile_ms(wake_times, 99),
            "max_ms": float(max(wake_times) * 1e3),
        },
        "soak": {
            "hours": soak_hours,
            "reps": reps,
            "rep_stream_s": IDLE_SOAK_REP_S,
            "reports": soak_reports,
            "steady_nbytes_max": steady_max,
            "late_nbytes_max": late_max,
            "ceiling_ratio": ceiling_ratio,
            "nbytes_samples": nbytes_samples[:: max(1, reps // 48)],
        },
    }
    result["headline"] = {
        "registered_users": registered,
        "active_users": active_users,
        "bytes_per_idle_user": bytes_per_idle,
        "bytes_per_active_user": bytes_per_active,
        "idle_active_ratio": idle_active_ratio,
        "wake_p99_ms": result["wake"]["p99_ms"],
        "wake_verified": verified == wake_sample,
        "soak_ceiling_ratio": ceiling_ratio,
    }
    return result


def _replay_traced_work(events: List[dict], rounds: List[RoundStats],
                        reads_by_tag: Dict, ports: np.ndarray,
                        snr: np.ndarray) -> float:
    """Seconds to redo what only a traced capture does, on fresh state.

    That work is recording each trace event and, once per capture, the
    traced-only MAC and reader metrics; here it runs through the same
    functions the capture calls, fed the traced capture's own events,
    rounds and reads.  Every event is re-recorded the way the capture
    records a ``gen2.round``, the event nearly all of them are.  Turning
    recorded rounds into event dicts happens when the events are read,
    with their export, and is not timed here, as the export is not.
    """
    tracer = obs.Tracer(enabled=True)
    registry = obs.MetricsRegistry()
    t0 = time.perf_counter()
    for event in events:
        attrs = event.get("attrs", {})
        tracer.point(event["name"], tuple(attrs), tuple(attrs.values()))
    record_round_metrics(registry, rounds, rounds[-1].q if rounds else 0)
    record_read_metrics(registry, reads_by_tag, ports, snr)
    return time.perf_counter() - t0


def run_obs_overhead_benchmark(users: int, duration_s: float,
                               seed: int = 0, repeats: int = 7) -> Dict:
    """Measure what round-level tracing adds to one capture.

    A traced capture does the untraced capture's work plus a fixed
    extra: it records every trace event, and flushes the traced-only
    MAC and reader metrics once.  Timing traced against untraced runs
    measures that extra as the difference of two wall times, and on a
    shared host one capture's time swings by 20-30% from run to run,
    far above the few percent being measured.  So the extra is timed on
    its own: one traced run gives the event stream (its length is fixed
    by the seed), and :func:`_replay_traced_work` re-records those
    events and re-runs the metric flushes over that run's rounds and
    reads.  Each of ``repeats`` rounds times one untraced capture and
    one replay back to back, so both see the same host speed, and the
    overhead is the median of replay over capture.  The budget is <5%.
    """
    scenario = benchmark_scenario(users, seed=seed)

    def untraced_s() -> float:
        with obs.capture() as (tracer, _registry):
            tracer.configure(enabled=False)
            t0 = time.perf_counter()
            run_scenario(scenario, duration_s=duration_s, seed=seed)
            return time.perf_counter() - t0

    with obs.capture(detail="round") as (tracer, _registry):
        result = run_scenario(scenario, duration_s=duration_s, seed=seed)
        events = list(tracer.events)
    rounds = [RoundStats(**{key: value for key, value in e["attrs"].items()
                            if key != "t"})
              for e in events if e["name"] == "gen2.round"]
    reads_by_tag = result.reports.stream_counts()
    ports = result.reports.antenna
    snr = result.reports.rssi

    untraced_s()  # warm-up: page in code paths and allocator state
    baseline: List[float] = []
    traced_only: List[float] = []
    for _ in range(repeats):
        baseline.append(untraced_s())
        traced_only.append(
            _replay_traced_work(events, rounds, reads_by_tag, ports, snr))
    fractions = [w / b for w, b in zip(traced_only, baseline)]
    return {
        "users": users,
        "duration_s": duration_s,
        "repeats": repeats,
        "events": len(events),
        "baseline_s": float(np.median(baseline)),
        "traced_only_s": float(np.median(traced_only)),
        "overhead_fraction": float(np.median(fractions)),
    }


def run_scenario_pack_benchmark(quick: bool = False, seed: int = 0) -> Dict:
    """Run every scenario pack and collect its accuracy/alarm metrics.

    The ``scenarios`` suite of ``BENCH_simulation.json``: each pack in
    :data:`repro.sim.scenarios.PACKS` is captured once and scored for
    every configured engine (see
    :func:`repro.sim.scenarios.evaluate_pack`).  The numbers are
    workload metrics, not wall-clock — they are machine-independent and
    CI gates them directly (``check_scenario_suite`` in
    ``tools/check_bench_regression.py``).
    """
    from .sim.scenarios import build_pack, pack_names
    from .sim.scenarios.evaluate import evaluate_pack
    t_start = time.perf_counter()
    packs = {name: evaluate_pack(build_pack(name, quick=quick, seed=seed),
                                 seed=seed)
             for name in pack_names()}
    return {
        "suite": "scenarios",
        "quick": quick,
        "seed": seed,
        "elapsed_s": time.perf_counter() - t_start,
        "packs": packs,
    }


def _machine_info() -> Dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def run_benchmarks(quick: bool = False, seed: int = 0,
                   out_dir: Optional[str] = None) -> Dict[str, Dict]:
    """Run both suites; write ``BENCH_*.json`` when ``out_dir`` is given.

    Returns:
        ``{"simulation": ..., "pipeline": ...}`` summaries (also what the
        JSON files contain).
    """
    grid = QUICK_GRID if quick else FULL_GRID
    simulation, captures = run_simulation_benchmark(grid, seed=seed)
    pipeline = run_pipeline_benchmark(captures, seed=seed)
    pipeline["streaming"] = run_streaming_benchmark(captures, seed=seed)
    pipeline["wire"] = run_wire_benchmark(captures, seed=seed)
    pipeline["fabric_scale"] = run_fabric_soak_benchmark(quick=quick,
                                                         seed=seed)
    pipeline["idle"] = run_idle_economics_benchmark(quick=quick, seed=seed)
    obs_users, obs_duration = max(grid)
    simulation["observability"] = run_obs_overhead_benchmark(
        obs_users, obs_duration, seed=seed)
    simulation["scenarios"] = run_scenario_pack_benchmark(
        quick=quick, seed=seed)
    simulation["quick"] = pipeline["quick"] = quick
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in (("BENCH_simulation.json", simulation),
                              ("BENCH_pipeline.json", pipeline)):
            (out / name).write_text(json.dumps(payload, indent=2) + "\n")
    return {"simulation": simulation, "pipeline": pipeline}
