#!/usr/bin/env python3
"""Guard the streaming-tick cost against perf regressions in CI.

Shared CI runners are far too noisy for absolute-time thresholds, but
the streaming benchmark's ``tick_cost_kernels`` is a *ratio*: the mean
computed cadence tick over the median time of a fixed reference kernel
(``repro.bench._reference_kernel``) timed between the ticks of the same
run, so machine speed and load cancel out.  This tool holds that cost
under a per-case ceiling on every case the freshly produced candidate
(the perf-smoke job's ``bench-out/BENCH_pipeline.json``) shares with
the committed reference benchmark (``BENCH_pipeline.json`` at the repo
root) and has a ceiling for: the quick-grid cases CI runs, which is
enough to catch "someone made the tick recompute stage 5 again" while
staying within a smoke job's time budget.  The same cases must report
ticks equal to batch processing of the same stored rows, exactly.

The candidate's ``fabric_scale`` soak suite is additionally checked on
its own: its invariants (sessions settled == users requested, every
sent report acked, per-machine capacity published, rebalance moved
sessions, zero worker restarts) are counts, not timings, so they need
no baseline and hold on any machine.  ``--fabric`` gates just that
suite from a ``BENCH_pipeline.json`` produced by
``repro bench --suite fabric_scale`` — the CI smoke path, which skips
the wall-clock grids.  So are the column ingest path's guarantees, on
the quick-grid cases: ``feed_batch_cost_kernels`` (4096-row-chunk
``feed_batch`` time per 1,000 reports in runs of the same reference
kernel) must stay under a per-case ceiling, with buffered state and
estimates bit-equal to the cadence-cut replay; ``serve_staging_speedup``
(eager per-sub-batch feeding over staged ``ingest_batch`` at serve
shape, a same-run ratio) must clear a floor with bit-equal session
state; and the ``wire`` suite's column-frame bytes per report — a
property of the format, not the machine — must stay under a ceiling.  The ``idle``
economics suite is likewise self-contained: the idle/active bytes
ratio, the soak's flat memory ceiling, and wake verification are
same-run ratios and counts, the active user's bytes and the parked
blob's bytes per report are held to ceilings, and only the wake p99 is
held to a (very generous) absolute timing ceiling.

When ``--simulation`` names a ``BENCH_simulation.json``, its
``scenarios`` suite is gated too, and so is its tracing overhead:
``observability.overhead_fraction`` must stay within the 5% budget
whenever the file carries the capture grid it is measured on.  Scenario-pack numbers are workload
metrics (accuracy fractions, alarm counts over a deterministic seeded
capture), not timings, so they are absolute and machine-independent:
the motion-burst pack must publish **zero** confident-but-wrong
estimates during injected motion, the degraded-phase ward must hold
``auto`` accuracy at or above 0.85 while the phase-only control sits
below 0.60 (proving the RSS fallback both engages and earns its keep),
and every pack's false/missed alarm rates must stay under their
ceilings.

Exit status: 0 when every shared case holds, 1 on regression or when
the files don't both contain a streaming suite.

Usage:
    python tools/check_bench_regression.py \
        --baseline BENCH_pipeline.json \
        --candidate bench-out/BENCH_pipeline.json \
        [--simulation bench-out/BENCH_simulation.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: Ceilings on ``tick_cost_kernels`` per (users, duration_s) case: the
#: mean computed cadence tick in runs of the benchmark's reference
#: kernel.  They were first set below the retired floors on
#: ``tick_speedup`` (recompute tick over incremental tick, at 0.75x the
#: committed ratios), which allowed a tick of 19.43 and 16.72 kernel
#: runs (the recompute tick cost 30.53 and 21.45 over 16 runs on the
#: last commit that had it, 2 vCPUs, CPython 3.11), at 17.0 and 14.5.
#: The leaner tick (one median helper, a closed-form detrend, one
#: binning pass for the motion screen, vectorised staleness and
#: crossings, fewer stage 5 passes) lowered them to its own measurement
#: plus its run-to-run margin.  Twelve alternating pairs of full
#: ``repro bench --quick`` runs (2 vCPUs, CPython 3.11, numpy 2.4), old
#: tick against new:
#:
#: * 1u/25s ticks 3 times, 2 of them insufficient-data refusals, so its
#:   mean rests on 3 ticks and spreads widely: new median 6.15 kernel
#:   runs (quartiles 5.22-6.33, range 4.66-6.71); old median 8.54
#:   (quartiles 8.08-8.77, range 7.56-9.55).  Ceiling 7.5: 22% over
#:   the new median and 12% over the worst new run, under every old run.
#: * 5u/25s ticks 15 times, 8 of them refusals: new median 4.78
#:   (quartiles 4.65-5.03, range 3.99-5.55); old median 7.29
#:   (quartiles 7.02-8.04, range 6.44-9.16).  Ceiling 6.0: 25% over
#:   the new median and 8% over the worst new run, under every old run.
#:
#: A tick that slides back to the old cost fails both.
TICK_COST_CEILINGS = {(1, 25.0): 7.5, (5, 25.0): 6.0}

#: Ceilings on ``feed_batch_cost_kernels`` per (users, duration_s)
#: case: ``feed_batch`` over the stream in 4096-row column chunks, per
#: 1,000 reports, in runs of the benchmark's reference kernel timed in
#: the same replay.  They replace a 4.0x floor on the ratio of per-report
#: ``feed`` to chunked ``feed_batch`` time, which left ``src/`` with the
#: per-report path.  That floor allowed a chunked feed of up to a quarter
#: of the per-report cost, which on the last commit with the per-report
#: path cost 16.4-18.8 kernel runs per 1,000 reports for 1u/25s and
#: 35.0-39.0 for 5u/25s (2 vCPUs, CPython 3.11, two sets of 7 runs),
#: so the floor allowed at most 4.1 and 8.75.  Each ceiling sits at or
#: below that, so a chunked feed slowed enough to break the old floor
#: breaks the ceiling too; a clean one costs about 0.9-1.5 and 2.2-2.8
#: kernel runs.
FEED_BATCH_COST_CEILINGS = {(1, 25.0): 4.0, (5, 25.0): 8.5}

#: Floor on the serve-shaped staging ratio (``serve_staging_speedup``):
#: sessions that feed every few-row sub-batch of 256-row frames split
#: per user at once, against sessions that stage them and feed once per
#: cadence read, both timed in the same run.  Staging scores ~2.1-2.3x
#: on the quick-grid cases CI runs; a session that feeds every
#: sub-batch eagerly does the eager side's work and scores ~1.0x.  The
#: ratio grows with the rows a session reads per tick, so the floor
#: holds only on the quick-grid cases (~75 rows a tick); the full
#: grid's 15-user 120 s case reads each user at ~4 rows/s (~24 a tick)
#: and gains less.
SERVE_STAGING_SPEEDUP_FLOOR = 1.5
SERVE_STAGING_FLOOR_CASES = ((1, 25.0), (5, 25.0))

#: Ceiling on the wire suite's column-frame bytes per report.  Frame
#: size is a property of the format, not the machine: 48 data bytes and
#: an 8-byte sequence number per report, plus the length prefix and
#: 16-byte header of each 256-row frame (~56 bytes a report).
WIRE_BYTES_PER_REPORT_CEILING = 60.0

#: Floor on the idle suite's bytes-per-active over bytes-per-idle ratio.
#: Both sides are measured in the same run on the same interpreter, so
#: the ratio is machine-independent; committed runs sit two orders of
#: magnitude above this floor, and a drop below it means hibernation
#: stopped paying for itself.
IDLE_ACTIVE_RATIO_FLOOR = 10.0

#: Ceiling on the idle suite's ``bytes_per_active_user``: the
#: tracemalloc-measured python + numpy cost of one engine-backed session
#: at the steady-state plateau.  The idle/active ratio floor cannot
#: catch a costlier active user (the ratio only rises), so the active
#: side has its own ceiling, ~1.2x the quick suite's 517,349 B once the
#: window index became the only store of streamed reports (it measured
#: ~1.04 MB while per-stream report buffers duplicated every row).
IDLE_BYTES_PER_ACTIVE_USER_CEILING = 620_000.0

#: Ceiling on the idle suite's wake p99.  Wake latency IS a timing, but
#: the quick-suite wakes (inflate + replay of a brief parked history)
#: commit at ~2 ms — a generous absolute ceiling still catches the
#: qualitative regressions (wake re-running a full from-scratch
#: estimate, or replaying an unpruned history) without tripping on
#: runner noise.
IDLE_WAKE_P99_CEILING_S = 0.25

#: Ceiling on the idle suite's ``steady_state.blob_bytes_per_report``:
#: the deflated cold-tier blob of the 150 s steady-state session over
#: the rows it parks.  Blob size is a property of the format and the
#: seeded capture, not the machine, so park speed cannot be bought
#: with bigger blobs: 1.10x the 24.68 B first measured once the blob
#: held the raw column frame deflated at level 1 (the base64 JSON blob
#: at level 6 measured 25.65 B).
IDLE_BLOB_BYTES_PER_REPORT_CEILING = 27.14

#: Ceiling on the soak's late/steady resident-bytes ratio.  A flat
#: memory profile holds this at ~1.0; anything approaching 1.5 means
#: pruned prefixes stopped releasing memory.
IDLE_SOAK_CEILING_RATIO = 1.5

#: Smallest registered population the idle suite may claim to cover.
IDLE_MIN_REGISTERED = 10_000

#: The scenario packs every BENCH_simulation.json scenarios suite must
#: contain.
SCENARIO_PACKS = ("motion_bursts", "apnea_sigh", "ward", "overnight")

#: Floor on the ward pack's ``auto`` (lattice) accuracy and ceiling on
#: its ``phase_only`` control — the DESIGN.md §16 acceptance pair: the
#: RSS fallback must hold accuracy where pure phase collapses.
#: Committed runs sit at ~0.99 auto / ~0.45 phase-only.
WARD_AUTO_ACCURACY_FLOOR = 0.85
WARD_PHASE_ONLY_ACCURACY_CEILING = 0.60

#: Floor on clean-tick accuracy (ticks whose window overlaps no injected
#: event) for the event packs; committed runs sit at 0.95+.
CLEAN_ACCURACY_FLOOR = 0.90

#: Alarm-rate ceilings.  Committed runs measure 0.0 for both rates on
#: every pack; the ceilings leave room for benign estimator jitter
#: without letting a real alarm regression through.
FALSE_ALARM_RATE_CEILING = 0.05
MISSED_ALARM_RATE_CEILING = 0.20

#: Ceiling on ``observability.overhead_fraction``: the work only a
#: traced capture does (recording its events, the traced-only metric
#: flushes) over the untraced capture's time, on the grid's largest
#: case, each timed back to back so host speed cancels.  The budget is
#: the ROADMAP's 5%.  Five back-to-back quick benches (2 vCPUs, CPython
#: 3.11) read 3.44-3.62% on 5 users x 25 s while the untraced capture
#: itself swung from 69 to 121 ms.
OBS_OVERHEAD_CEILING = 0.05


def load_streaming_cases(path: Path) -> Dict[Tuple[int, float], dict]:
    """``(users, duration_s) -> case`` from a BENCH_pipeline.json file.

    Raises:
        ValueError: when the file has no streaming suite (e.g. a
            benchmark produced before the suite existed).
    """
    doc = json.loads(path.read_text())
    streaming = doc.get("streaming")
    if not isinstance(streaming, dict) or "cases" not in streaming:
        raise ValueError(f"{path} has no streaming benchmark suite")
    return {(case["users"], case["duration_s"]): case
            for case in streaming["cases"]}


def check_fabric_suite(path: Path) -> List[str]:
    """Machine-independent invariants of the fabric_scale soak suite.

    Absolute numbers (sessions, acks, migrations, restarts) are
    *counts*, not timings, so they are checked on the candidate alone —
    no baseline ratio needed.  A missing suite is a failure: the soak
    silently not running is exactly the regression this guard exists
    to catch.
    """
    doc = json.loads(path.read_text())
    fabric = doc.get("fabric_scale")
    if not isinstance(fabric, dict) or not fabric.get("cases"):
        return [f"{path} has no fabric_scale soak suite"]
    problems = []
    for case in fabric["cases"]:
        users = case.get("users", 0)
        tag = f"fabric_scale {users}u"
        if case.get("settled_sessions") != users:
            problems.append(
                f"{tag}: settled {case.get('settled_sessions')} sessions, "
                f"expected exactly {users} — the fabric lost or invented "
                f"sessions across routing/rebalance")
        if case.get("acked_equal_sent") is not True:
            problems.append(
                f"{tag}: acked != sent on a lossless soak replay — the "
                f"fabric dropped or double-counted reports")
        if not case.get("users_per_machine", 0) > 0:
            problems.append(
                f"{tag}: users_per_machine "
                f"{case.get('users_per_machine')} not published — the "
                f"soak no longer reports per-machine capacity")
        if case.get("migrated_sessions", 0) <= 0:
            problems.append(
                f"{tag}: rebalance moved 0 sessions — add_worker did not "
                f"take over any ring arc")
        if case.get("worker_restarts", 0) != 0:
            problems.append(
                f"{tag}: {case.get('worker_restarts')} worker restart(s) "
                f"during a fault-free soak — something crashed")
        if case.get("workers_final", 0) <= case.get("workers_initial", 0):
            problems.append(
                f"{tag}: workers_final {case.get('workers_final')} not "
                f"greater than workers_initial "
                f"{case.get('workers_initial')} — no rebalance happened")
    return problems


def compare(baseline: Dict[Tuple[int, float], dict],
            candidate: Dict[Tuple[int, float], dict]) -> List[str]:
    """Regression complaints over the shared cases (empty = pass)."""
    problems = []
    shared = sorted(set(baseline) & set(candidate))
    if not shared:
        return ["no shared streaming cases between baseline and candidate"]
    for key in shared:
        users, duration_s = key
        ceiling = TICK_COST_CEILINGS.get(key)
        cost = candidate[key].get("tick_cost_kernels")
        if ceiling is not None and cost is None:
            problems.append(
                f"case {users}u/{duration_s:g}s: no tick_cost_kernels — "
                f"the tick-cost measurement did not run")
        elif ceiling is not None and not cost <= ceiling:
            problems.append(
                f"case {users}u/{duration_s:g}s: tick_cost_kernels "
                f"{cost:.2f} > ceiling {ceiling:.2f} reference-kernel "
                f"runs per computed tick")
        diff = candidate[key].get("max_rate_diff_bpm", 0.0)
        if diff != 0.0:
            problems.append(
                f"case {users}u/{duration_s:g}s: streamed ticks and batch "
                f"estimates of the same rows diverged by {diff} bpm "
                f"(must be exactly 0)")
        batch_ceiling = FEED_BATCH_COST_CEILINGS.get(key)
        batch_cost = candidate[key].get("feed_batch_cost_kernels")
        if batch_cost is None:
            problems.append(
                f"case {users}u/{duration_s:g}s: no feed_batch_cost_kernels "
                f"— the chunked-feed measurement did not run")
        elif batch_ceiling is not None and not batch_cost <= batch_ceiling:
            problems.append(
                f"case {users}u/{duration_s:g}s: feed_batch_cost_kernels "
                f"{batch_cost:.2f} > ceiling {batch_ceiling:.2f} "
                f"reference-kernel runs per 1,000 reports — the column "
                f"feed degenerated to per-report work")
        if candidate[key].get("batch_state_equal") is not True:
            problems.append(
                f"case {users}u/{duration_s:g}s: chunked feed left "
                f"different buffered state than the cadence-cut replay "
                f"(batch_state_equal is not true)")
        batch_diff = candidate[key].get("batch_max_rate_diff_bpm", 0.0)
        if batch_diff != 0.0:
            problems.append(
                f"case {users}u/{duration_s:g}s: chunked feed_batch and the "
                f"cadence-cut replay diverged by {batch_diff} bpm (must be "
                f"exactly 0)")
        serve_speedup = candidate[key].get("serve_staging_speedup")
        if serve_speedup is None:
            problems.append(
                f"case {users}u/{duration_s:g}s: no serve_staging_speedup "
                f"— the serve-shaped feed measurement did not run")
        elif (key in SERVE_STAGING_FLOOR_CASES
              and serve_speedup < SERVE_STAGING_SPEEDUP_FLOOR):
            problems.append(
                f"case {users}u/{duration_s:g}s: serve_staging_speedup "
                f"{serve_speedup:.2f}x < floor "
                f"{SERVE_STAGING_SPEEDUP_FLOOR:.1f}x — sessions feed their "
                f"engines per sub-batch again")
        if candidate[key].get("serve_state_equal") is not True:
            problems.append(
                f"case {users}u/{duration_s:g}s: staged and eager "
                f"session ingest left different state "
                f"(serve_state_equal is not true)")
    return problems


def check_wire_suite(path: Path) -> List[str]:
    """Machine-independent invariants of the wire-format suite.

    Bytes-per-report is a property of the wire format; ack completeness
    is a correctness count.  Neither needs a baseline.
    """
    doc = json.loads(path.read_text())
    wire = doc.get("wire")
    if not isinstance(wire, dict) or not wire.get("headline"):
        return [f"{path} has no wire benchmark suite"]
    problems = []
    headline = wire["headline"]
    per_report = headline.get("column_bytes_per_report", float("inf"))
    if not per_report <= WIRE_BYTES_PER_REPORT_CEILING:
        problems.append(
            f"wire: {per_report:.1f} bytes per report > ceiling "
            f"{WIRE_BYTES_PER_REPORT_CEILING:.0f} — the column frame "
            f"grew")
    if headline.get("acked_equal_sent") is not True:
        problems.append(
            "wire: acked != sent on a backpressured lossless replay — "
            "the serve path dropped or double-counted reports")
    return problems


def check_idle_suite(path: Path) -> List[str]:
    """Machine-independent invariants of the idle-economics suite.

    The idle/active bytes ratio and the soak's memory-ceiling ratio are
    same-run ratios; wake verification is a correctness count; the
    active user's bytes are an allocation count and the steady blob's
    bytes per report a format size, not timings.  Only the
    wake p99 is an absolute timing, and its ceiling is two orders of
    magnitude above committed runs.
    """
    doc = json.loads(path.read_text())
    idle = doc.get("idle")
    if not isinstance(idle, dict) or not idle.get("headline"):
        return [f"{path} has no idle economics suite"]
    problems = []
    headline = idle["headline"]
    registered = headline.get("registered_users", 0)
    if registered < IDLE_MIN_REGISTERED:
        problems.append(
            f"idle: only {registered} registered users — the suite must "
            f"cover at least {IDLE_MIN_REGISTERED} to mean anything")
    ratio = headline.get("idle_active_ratio", 0.0)
    if not ratio >= IDLE_ACTIVE_RATIO_FLOOR:
        problems.append(
            f"idle: bytes_per_active/bytes_per_idle ratio {ratio:.1f}x "
            f"< floor {IDLE_ACTIVE_RATIO_FLOOR:.0f}x — hibernation "
            f"stopped shrinking idle sessions")
    active = headline.get("bytes_per_active_user", float("inf"))
    if not active <= IDLE_BYTES_PER_ACTIVE_USER_CEILING:
        problems.append(
            f"idle: bytes_per_active_user {active:,.0f} > ceiling "
            f"{IDLE_BYTES_PER_ACTIVE_USER_CEILING:,.0f} — an active "
            f"session's streaming state grew")
    if headline.get("wake_verified") is not True:
        problems.append(
            "idle: woken sessions did not all verify (wrong user, lost "
            "reports, or failed inflate) — wake is not bit-exact")
    p99_s = headline.get("wake_p99_ms", float("inf")) / 1e3
    if not p99_s <= IDLE_WAKE_P99_CEILING_S:
        problems.append(
            f"idle: wake p99 {p99_s * 1e3:.1f} ms > ceiling "
            f"{IDLE_WAKE_P99_CEILING_S * 1e3:.0f} ms — waking a parked "
            f"session became too slow to hide behind the first report")
    blob_per_report = idle.get("steady_state", {}).get(
        "blob_bytes_per_report", float("inf"))
    if not blob_per_report <= IDLE_BLOB_BYTES_PER_REPORT_CEILING:
        problems.append(
            f"idle: steady-state blob_bytes_per_report "
            f"{blob_per_report:.2f} > ceiling "
            f"{IDLE_BLOB_BYTES_PER_REPORT_CEILING} — parked sessions "
            f"grew")
    ceiling = headline.get("soak_ceiling_ratio", float("inf"))
    if not ceiling <= IDLE_SOAK_CEILING_RATIO:
        problems.append(
            f"idle: soak memory ceiling ratio {ceiling:.2f} > "
            f"{IDLE_SOAK_CEILING_RATIO} — resident bytes kept growing "
            f"over stream-hours; prune-driven compaction is not "
            f"releasing memory")
    return problems


def check_scenario_suite(path: Path) -> List[str]:
    """Absolute gates over the scenario-pack suite (empty = pass).

    Every number here is a workload metric over a deterministic seeded
    capture — fractions and counts, never wall-clock — so quick-grid CI
    runs and the committed full-grid reference are held to the same
    bars.
    """
    doc = json.loads(path.read_text())
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios.get("packs"):
        return [f"{path} has no scenario-pack suite"]
    packs = scenarios["packs"]
    problems = []
    for name in SCENARIO_PACKS:
        if name not in packs:
            problems.append(f"scenarios: pack {name!r} missing")
    for name, pack in packs.items():
        for case_name, case in pack.get("cases", {}).items():
            tag = f"scenarios {name}/{case_name}"
            wrong = case.get("confident_wrong_in_motion")
            if wrong != 0:
                problems.append(
                    f"{tag}: {wrong} confident-but-wrong estimate(s) "
                    f"during injected motion (must be exactly 0 — the "
                    f"motion gate exists to prevent these)")
            if case.get("false_alarm_rate", 1.0) > FALSE_ALARM_RATE_CEILING:
                problems.append(
                    f"{tag}: false_alarm_rate "
                    f"{case.get('false_alarm_rate'):.3f} > ceiling "
                    f"{FALSE_ALARM_RATE_CEILING}")
            if case.get("missed_alarm_rate", 1.0) > MISSED_ALARM_RATE_CEILING:
                problems.append(
                    f"{tag}: missed_alarm_rate "
                    f"{case.get('missed_alarm_rate'):.3f} > ceiling "
                    f"{MISSED_ALARM_RATE_CEILING}")
            clean = case.get("mean_accuracy_clean")
            if (name != "ward" and case_name == "auto"
                    and not (clean or 0.0) >= CLEAN_ACCURACY_FLOOR):
                problems.append(
                    f"{tag}: clean-tick accuracy {clean} < floor "
                    f"{CLEAN_ACCURACY_FLOOR}")
    ward = packs.get("ward", {}).get("cases", {})
    auto_acc = ward.get("auto", {}).get("mean_accuracy", 0.0)
    phase_acc = ward.get("phase_only", {}).get("mean_accuracy", 1.0)
    if "ward" in packs:
        if not auto_acc >= WARD_AUTO_ACCURACY_FLOOR:
            problems.append(
                f"scenarios ward/auto: accuracy {auto_acc:.3f} < floor "
                f"{WARD_AUTO_ACCURACY_FLOOR} — the RSS fallback stopped "
                f"holding accuracy under degraded phase")
        if not phase_acc < WARD_PHASE_ONLY_ACCURACY_CEILING:
            problems.append(
                f"scenarios ward/phase_only: accuracy {phase_acc:.3f} >= "
                f"{WARD_PHASE_ONLY_ACCURACY_CEILING} — the control arm "
                f"no longer degrades, so the ward pack proves nothing "
                f"about the fallback")
        rss_ticks = (ward.get("auto", {}).get("estimator_ticks", {})
                     .get("rss", 0))
        if rss_ticks <= 0:
            problems.append(
                "scenarios ward/auto: the RSS fallback never engaged "
                "(0 rss estimator ticks) — auto mode is not detecting "
                "the degraded phase")
    return problems


def check_obs_overhead(path: Path) -> List[str]:
    """The tracing-overhead budget over a BENCH_simulation.json (empty = pass).

    A file holding only the scenario packs (``repro bench --suite
    scenarios``) has no capture grid and so no overhead figure; a file
    with the grid must carry the figure.
    """
    doc = json.loads(path.read_text())
    if "cases" not in doc:
        return []
    overhead = doc.get("observability", {}).get("overhead_fraction")
    if not isinstance(overhead, (int, float)):
        return [f"{path}: observability overhead_fraction missing"]
    if not overhead <= OBS_OVERHEAD_CEILING:
        return [f"observability: tracing overhead {overhead:.1%} > budget "
                f"{OBS_OVERHEAD_CEILING:.0%}"]
    return []


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed reference BENCH_pipeline.json")
    parser.add_argument("--candidate", type=Path, default=None,
                        help="freshly produced BENCH_pipeline.json")
    parser.add_argument("--simulation", type=Path, default=None,
                        help="optional BENCH_simulation.json whose "
                             "scenario-pack suite should be gated too")
    parser.add_argument("--fabric", type=Path, default=None,
                        help="optional BENCH_pipeline.json whose "
                             "fabric_scale soak suite should be gated "
                             "on its own (CI smoke path without the "
                             "wall-clock grids)")
    args = parser.parse_args(argv)
    if (args.baseline is None) != (args.candidate is None):
        print("error: --baseline and --candidate must be given together",
              file=sys.stderr)
        return 2
    if (args.baseline is None and args.simulation is None
            and args.fabric is None):
        print("error: nothing to check — give --baseline/--candidate, "
              "--simulation, and/or --fabric", file=sys.stderr)
        return 2
    problems = []
    shared: List[Tuple[int, float]] = []
    if args.baseline is not None:
        try:
            baseline = load_streaming_cases(args.baseline)
            candidate = load_streaming_cases(args.candidate)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        problems.extend(compare(baseline, candidate))
        shared = sorted(set(baseline) & set(candidate))
        try:
            problems.extend(check_fabric_suite(args.candidate))
            problems.extend(check_wire_suite(args.candidate))
            problems.extend(check_idle_suite(args.candidate))
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"cannot check fabric/wire/idle suite: {exc}")
    if args.simulation is not None:
        try:
            problems.extend(check_scenario_suite(args.simulation))
            problems.extend(check_obs_overhead(args.simulation))
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"cannot check simulation suites: {exc}")
    if args.fabric is not None:
        try:
            problems.extend(check_fabric_suite(args.fabric))
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"cannot check fabric_scale suite: {exc}")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    notes = []
    if args.baseline is not None:
        notes.append(
            f"{len(shared)} shared case(s) within their tick-cost and "
            f"chunked-feed-cost ceilings, serve_staging_speedup >= "
            f"{SERVE_STAGING_SPEEDUP_FLOOR:.1f}x with bit-equal state; wire, "
            f"fabric_scale, and idle-economics invariants hold")
    if args.simulation is not None:
        notes.append("scenario-pack gates and the tracing-overhead "
                     "budget hold")
    if args.fabric is not None:
        notes.append("fabric_scale soak invariants hold")
    print(f"bench regression check: {'; '.join(notes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
