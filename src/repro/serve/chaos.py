"""Chaos harness: prove the fabric recovers, don't just claim it.

:func:`run_chaos` runs a real multi-process fabric over a seeded
simulated capture while a fault injector attacks it, then checks the
only invariant that matters for a breath monitor: **after arbitrary
worker crashes, partitions, and checkpoint corruption, every user's
final streamed estimate equals the batch pipeline's answer** for the
same capture (within the 0.1 bpm bound the serve tests pin on the
clean path).  Faults injected, seeded per run:

* ``kill``    — SIGKILL a random worker mid-ingest.  The supervisor
  restarts it from its atomic checkpoint; the ingest client's
  idempotent resume resends exactly the window the checkpoint had not
  yet covered.
* ``stall``   — SIGSTOP a worker for longer than the heartbeat
  deadline (the router↔worker partition / link-delay case), then
  SIGCONT.  The supervisor's protocol-level probe sees the silence,
  counts ``repro_fabric_heartbeat_miss_total``, and restarts the
  worker.
* ``corrupt`` — truncate, scribble over or flip one bit of a worker's
  *live* checkpoint file (a torn write or a bad disk at the worst
  moment) and then SIGKILL it, forcing
  recovery through the ``.prev`` generation fallback
  (:mod:`repro.serve.checkpoint`).
* ``router kill`` (``router_kill=True``) — the big one: SIGKILL the
  *active router process itself* mid-replay.  The run stands up the
  primary fabric as a subprocess and a warm-standby
  :class:`~repro.serve.fabric.BreathFabric` in-process over the same
  state dir; the client replays with both endpoints
  (``IngestClient(endpoints=...)``).  When the primary dies, the
  client's reconnect rotates onto the standby, the standby's failover
  monitor promotes it (adopting the orphaned workers through the
  on-disk registry), and the replay resumes from the fleet's sequence
  watermarks.  The verdict additionally requires the failover to be
  *observed* (``failovers >= 1`` and client reconnects > 0).

Recovery must be *visible*: the report fails the run if faults were
injected but no worker restart was observed — silent survival usually
means the fault never landed, and a chaos suite that cannot tell is
worthless.  ``repro chaos`` is the CLI face; ``tests/test_chaos.py``
runs a short seeded configuration in CI.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import obs
from ..core.pipeline import TagBreathe
from ..errors import DegradedEstimateWarning, InsufficientDataError
from ..reader.batch import ReportBatch
from .checkpoint import CHECKPOINT_MAGIC
from .client import IngestClient
from .fabric import BreathFabric
from .record import read_record
from .retry import RetryPolicy
from .session import SessionConfig, UserSession
from .statefiles import read_state_doc, router_addr_path
from .supervisor import FabricConfig
from .worker import checkpoint_path

#: Replay retry policy for chaos runs: patient enough to ride out a
#: worker respawn (~import cost) several times in one replay.
CHAOS_RETRY = RetryPolicy(max_attempts=12, base_delay_s=0.2,
                          multiplier=1.7, max_delay_s=2.5)

#: A checkpoint's magic and version byte, which a bit flip spares.
_VERSIONED_HEAD = len(CHECKPOINT_MAGIC) + 1


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos run's shape (everything seeded and bounded).

    Attributes:
        users: simulated subjects in the capture.
        duration_s: capture length (stream time, not wall time).
        seed: master seed — capture synthesis, fault schedule, and
            retry jitter all derive from it.
        workers: fabric worker-process count.
        kills / stalls / corruptions: how many of each fault to inject
            (spread across the replay; 0 disables that fault).
        router_kill: run the *router failover* experiment instead of
            worker faults: the primary fabric runs as a subprocess, a
            warm standby runs in-process, and the primary is SIGKILLed
            mid-replay; recovery must flow through the standby.
        fault_interval_s: mean wall-clock gap between injected faults.
        speed: replay acceleration (0 = as fast as backpressure
            admits; the default paces the replay so faults land while
            data is in flight).
        tolerance_bpm: allowed |streamed - batch| per user.
    """

    users: int = 4
    duration_s: float = 60.0
    seed: int = 0
    workers: int = 2
    kills: int = 2
    stalls: int = 1
    corruptions: int = 1
    router_kill: bool = False
    fault_interval_s: float = 2.0
    speed: float = 6.0
    tolerance_bpm: float = 0.1


@dataclass
class ChaosReport:
    """What a chaos run did and whether the invariant held."""

    users: int = 0
    reports: int = 0
    sent: int = 0
    retries: int = 0
    resumed_skipped: int = 0
    kills: int = 0
    stalls: int = 0
    corruptions: int = 0
    router_kills: int = 0
    failovers: int = 0
    restarts_observed: int = 0
    heartbeat_misses: int = 0
    compared_users: int = 0
    max_delta_bpm: float = 0.0
    missing_users: List[int] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    ok: bool = False

    def summary_lines(self) -> List[str]:
        """Human-readable outcome for the CLI."""
        lines = [
            f"chaos: {self.users} users, {self.reports} reports, "
            f"{self.kills} kills / {self.stalls} stalls / "
            f"{self.corruptions} corruptions / "
            f"{self.router_kills} router kill(s)",
            f"failover: {self.failovers} standby promotion(s)",
            f"recovery: {self.restarts_observed} worker restart(s), "
            f"{self.heartbeat_misses} heartbeat miss(es), "
            f"{self.retries} client reconnect(s), "
            f"{self.resumed_skipped} report(s) resumed past",
            f"invariant: {self.compared_users}/{self.users} users "
            f"compared, max |streamed-batch| = "
            f"{self.max_delta_bpm:.4f} bpm",
            f"verdict: {'OK' if self.ok else 'FAILED'}",
        ]
        lines.extend(f"note: {n}" for n in self.notes)
        return lines


def _chaos_fabric_config(workers: int) -> FabricConfig:
    """The tight-timing fleet knobs every chaos fabric (primary,
    standby, subprocess) must share, so failover detection and session
    estimates agree across processes."""
    return FabricConfig(
        workers=workers,
        n_shards=1,
        heartbeat_interval_s=0.25,
        heartbeat_timeout_s=1.0,
        max_heartbeat_misses=2,
        orphan_grace_s=15.0,
        checkpoint_interval_s=0.25,
        session=SessionConfig(estimate_interval_s=5.0),
    )


def _batch_rates(reports, user_ids, window_s: Optional[float]
                 ) -> Dict[int, float]:
    """Each user's final streamed rate from one uninterrupted engine.

    The whole capture goes through one ``feed_batch``, then each user is
    ticked once over the trailing ``window_s``: what a fabric that lost
    nothing should end on.
    """
    engine = TagBreathe(user_ids=set(user_ids))
    engine.feed_batch(ReportBatch.from_reports(reports))
    rates: Dict[int, float] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        for uid in user_ids:
            try:
                rates[uid] = engine.estimate_user(
                    uid, window_s=window_s).rate_bpm
            except InsufficientDataError:
                pass
    return rates


def _corrupt_file(path: Path, rng: random.Random) -> Optional[str]:
    """Damage a checkpoint file as a torn write or a bad disk would.

    Returns the mode — ``truncate`` (the second half lost), ``scribble``
    (64 garbage bytes over the head) or ``flip`` (one bit past the magic
    and version byte, which a newer-reading version would make a refusal
    instead of a recovery) — or None when there is no file.
    """
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return None
    mode = rng.choice(("truncate", "scribble", "flip"))
    if mode == "truncate" and len(data) > 2:
        del data[len(data) // 2:]
    elif mode == "flip" and len(data) > _VERSIONED_HEAD:
        data[rng.randrange(_VERSIONED_HEAD, len(data))] ^= \
            1 << rng.randrange(8)
    else:
        mode = "scribble"
        data[:64] = bytes(rng.randrange(256) for _ in range(64))
    path.write_bytes(bytes(data))
    return mode


async def _inject_faults(fabric: BreathFabric, config: ChaosConfig,
                         report: ChaosReport,
                         replay_done: asyncio.Event) -> None:
    rng = random.Random(config.seed * 7919 + 1)
    plan = (["kill"] * config.kills + ["stall"] * config.stalls
            + ["corrupt"] * config.corruptions)
    rng.shuffle(plan)
    for action in plan:
        delay = config.fault_interval_s * rng.uniform(0.5, 1.5)
        try:
            await asyncio.wait_for(replay_done.wait(), timeout=delay)
            return  # replay finished; stop injecting
        except asyncio.TimeoutError:
            pass
        workers = fabric.supervisor.worker_ids()
        if not workers:
            continue
        victim = rng.choice(workers)
        handle = fabric.supervisor.workers.get(victim)
        if handle is None or not handle.alive:
            continue
        pid = handle.process.pid
        if action == "kill":
            os.kill(pid, signal.SIGKILL)
            report.kills += 1
            obs.event("chaos.kill", worker=victim, pid=pid)
        elif action == "stall":
            # Longer than max_misses * interval so the heartbeat
            # deadline genuinely expires (a partition, not a blip).
            hold = (fabric.config.heartbeat_interval_s
                    * (fabric.config.max_heartbeat_misses + 2)
                    + fabric.config.heartbeat_timeout_s)
            os.kill(pid, signal.SIGSTOP)
            report.stalls += 1
            obs.event("chaos.stall", worker=victim, pid=pid,
                      hold_s=round(hold, 3))
            await asyncio.sleep(hold)
            try:  # the supervisor may already have killed+replaced it
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        else:  # corrupt: tear the live checkpoint, then crash the
            # worker so recovery *must* go through the fallback path.
            mode = _corrupt_file(
                checkpoint_path(fabric.supervisor.state_dir, victim), rng)
            if mode is not None:
                report.corruptions += 1
                obs.event("chaos.corrupt", worker=victim, mode=mode)
                os.kill(pid, signal.SIGKILL)
                report.kills += 1


async def _compare_streamed(report: ChaosReport, fabric: BreathFabric,
                            reports, user_ids, session: SessionConfig
                            ) -> None:
    """The invariant: streamed final state == batch pipeline."""
    batch = _batch_rates(reports, user_ids, session.window_s)
    records = await fabric.collect_states()
    streamed: Dict[int, float] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        for record in records:
            state = read_record(record)
            if state["user_id"] not in set(user_ids):
                continue  # contending item tags, not subjects
            local = UserSession(state["user_id"], session)
            local.restore(state)
            message = local.estimate_now()
            if message is not None:
                streamed[state["user_id"]] = message["rate_bpm"]
    report.compared_users = len(set(batch) & set(streamed))
    report.missing_users = sorted(set(batch) - set(streamed))
    for uid in set(batch) & set(streamed):
        delta = abs(batch[uid] - streamed[uid])
        report.max_delta_bpm = max(report.max_delta_bpm, delta)


async def _run_chaos_async(reports, config: ChaosConfig,
                           state_dir: Path) -> ChaosReport:
    report = ChaosReport(users=config.users, reports=len(reports))
    user_ids = sorted({r.user_id for r in reports
                       if 1 <= r.user_id <= config.users})
    fabric_config = _chaos_fabric_config(config.workers)
    session = fabric_config.session
    fabric = BreathFabric(state_dir, fabric_config)
    await fabric.start()
    try:
        client = IngestClient(
            "127.0.0.1", fabric.port, client_id="chaos-replay",
            connect_timeout_s=5.0, read_timeout_s=10.0,
            retry=CHAOS_RETRY, retry_seed=config.seed)
        await client.connect()
        replay_done = asyncio.Event()
        injector = asyncio.ensure_future(
            _inject_faults(fabric, config, report, replay_done))
        try:
            stats = await client.replay(reports, speed=config.speed)
        finally:
            replay_done.set()
            await injector
            await client.close(polite=False)
        report.sent = stats.sent
        report.retries = stats.retries
        report.resumed_skipped = stats.resumed_skipped
        report.restarts_observed = sum(
            h.restarts for h in fabric.supervisor.workers.values())
        report.heartbeat_misses = sum(
            h.total_misses for h in fabric.supervisor.workers.values())
        await _compare_streamed(report, fabric, reports, user_ids, session)
    finally:
        await fabric.stop(graceful=True)
    _verdict(report, config)
    return report


def _verdict(report: ChaosReport, config: ChaosConfig) -> None:
    faults = report.kills + report.stalls + report.corruptions
    report.ok = True
    if report.missing_users:
        report.ok = False
        report.notes.append(
            f"users lost their session entirely: {report.missing_users}")
    if report.max_delta_bpm > config.tolerance_bpm:
        report.ok = False
        report.notes.append(
            f"streamed diverged from batch by {report.max_delta_bpm:.4f} "
            f"bpm (> {config.tolerance_bpm})")
    if faults > 0 and report.restarts_observed == 0:
        report.ok = False
        report.notes.append(
            "faults were injected but no worker restart was observed — "
            "recovery must be visible, not assumed")
    if report.router_kills > 0:
        # Failover must be *observed*, not assumed: the standby has to
        # have promoted itself, and the client has to have actually
        # ridden a reconnect (a kill the replay never felt never
        # exercised the path).
        if report.failovers == 0:
            report.ok = False
            report.notes.append(
                "router was killed but the standby never promoted")
        if report.retries == 0:
            report.ok = False
            report.notes.append(
                "router was killed but the client never reconnected — "
                "the kill landed after the replay finished")


async def _run_failover_async(reports, config: ChaosConfig,
                              state_dir: Path) -> ChaosReport:
    """The router-kill experiment: primary as a subprocess, warm
    standby in-process, SIGKILL the primary mid-replay, recover
    through the standby."""
    report = ChaosReport(users=config.users, reports=len(reports))
    user_ids = sorted({r.user_id for r in reports
                       if 1 <= r.user_id <= config.users})
    fabric_config = _chaos_fabric_config(config.workers)
    session = fabric_config.session
    rng = random.Random(config.seed * 7919 + 3)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in sys.path if p] +
        [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    primary = subprocess.Popen(
        [sys.executable, "-c",
         "from repro.serve.chaos import _fabric_main; _fabric_main()",
         "--state-dir", str(state_dir),
         "--workers", str(config.workers)],
        env=env, stdin=subprocess.DEVNULL, start_new_session=True)
    standby: Optional[BreathFabric] = None
    try:
        deadline = time.monotonic() + 60.0
        while True:  # wait for the primary's router endpoint
            doc = read_state_doc(router_addr_path(state_dir, "primary"))
            if doc is not None and doc.get("pid") == primary.pid:
                primary_addr = (str(doc["host"]), int(doc["port"]))
                break
            if primary.poll() is not None:
                raise RuntimeError(
                    f"primary fabric exited during startup "
                    f"(exitcode {primary.returncode})")
            if time.monotonic() > deadline:
                raise RuntimeError("primary fabric never published "
                                   "its router address")
            await asyncio.sleep(0.05)
        standby = BreathFabric(state_dir, fabric_config, standby=True)
        await standby.start()
        obs.event("chaos.failover.up", primary=primary_addr,
                  standby=(standby.host, standby.port))

        client = IngestClient(
            endpoints=[primary_addr, (standby.host, standby.port)],
            client_id="chaos-replay",
            connect_timeout_s=5.0, read_timeout_s=10.0,
            retry=CHAOS_RETRY, retry_seed=config.seed)
        await client.connect()

        async def _kill_router() -> None:
            await asyncio.sleep(
                config.fault_interval_s * rng.uniform(0.8, 1.2))
            os.kill(primary.pid, signal.SIGKILL)
            primary.wait()
            report.router_kills += 1
            obs.event("chaos.router_kill", pid=primary.pid)

        killer = asyncio.ensure_future(_kill_router())
        try:
            stats = await client.replay(reports, speed=config.speed)
        finally:
            await killer
            await client.close(polite=False)
        report.sent = stats.sent
        report.retries = stats.retries
        report.resumed_skipped = stats.resumed_skipped

        # The standby promotes on its own clock; the replay usually
        # outlives the detection window, but never assume it.
        deadline = time.monotonic() + fabric_config.orphan_grace_s
        while standby.standby and time.monotonic() < deadline:
            await asyncio.sleep(0.1)
        report.failovers = standby.counters["failovers_total"]
        report.restarts_observed = sum(
            h.restarts for h in standby.supervisor.workers.values())
        report.heartbeat_misses = sum(
            h.total_misses for h in standby.supervisor.workers.values())
        await _compare_streamed(report, standby, reports, user_ids,
                                session)
    finally:
        if standby is not None:
            await standby.stop(graceful=True)
        if primary.poll() is None:
            primary.kill()
            primary.wait()
    _verdict(report, config)
    return report


def _fabric_main() -> None:
    """Subprocess entry point: one primary chaos fabric until SIGTERM.

    Launched by the router-kill experiment (and nothing else) so there
    is a real router *process* to SIGKILL; the knobs come from
    :func:`_chaos_fabric_config` in both processes, keeping session
    configuration identical across the failover boundary.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="repro.serve.chaos._fabric_main")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()

    async def _run() -> None:
        fabric = BreathFabric(args.state_dir,
                              _chaos_fabric_config(args.workers))
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await fabric.start()
        await stop.wait()
        await fabric.stop(graceful=True)

    asyncio.run(_run())


def run_chaos(config: Optional[ChaosConfig] = None,
              state_dir: Optional[Union[str, Path]] = None) -> ChaosReport:
    """Run one full chaos experiment; returns the verdict report.

    Args:
        config: run shape (defaults are CI-sized: ~2 workers, a few
            faults, a 4-user minute of breathing).
        state_dir: fabric state directory (default: a fresh temp dir,
            removed afterwards).

    The capture is simulated fresh from ``config.seed`` so the run is
    self-contained; the batch baseline is computed from the *same*
    in-memory reports the replay streams.
    """
    import tempfile

    from ..bench import benchmark_scenario
    from ..sim.engine import run_scenario

    config = config if config is not None else ChaosConfig()
    scenario = benchmark_scenario(config.users, seed=config.seed)
    result = run_scenario(scenario, duration_s=config.duration_s,
                          seed=config.seed)

    def _run(directory: Path) -> ChaosReport:
        runner = (_run_failover_async if config.router_kill
                  else _run_chaos_async)
        return asyncio.run(runner(result.reports, config, directory))

    if state_dir is not None:
        Path(state_dir).mkdir(parents=True, exist_ok=True)
        return _run(Path(state_dir))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        return _run(Path(tmp))
