"""The four workloads: paced ward, bulk ingest, idle churn, offline trials.

Each workload builds its inputs from the seed, sets its system up
``SETUP_REPEATS`` times (keeping the last), measures for the requested
seconds, then checks the outputs against a reference computation.
Untraced, it also runs the reference kernel (``reference.py``) once
after every operation, so that its timings can be scaled to the
nominal host.

The three serving workloads drive a real :class:`BreathServer` over
localhost TCP with binary column frames, with one client watching the
estimate stream through ``repro.serve.watch_estimates``, as a ward
dashboard does (``examples/ward_dashboard.py``).  Sessions run with the
serving tier's default configuration (``SessionConfig()``: an estimate
every 5 s of stream time after a 25 s warm-up):

* ``ward`` — open loop.  A gateway forwards every room's reads in real
  time, one frame per ``WARD_FRAME_S``; an estimate's latency runs from
  the moment the frame holding its newest report was due to be sent to
  the moment the watching client reads the estimate, so a generator
  held up by a busy server is charged to the server.
* ``bulk`` — closed loop.  A backlog is pushed as fast as the server
  takes it: each slab of ``BULK_SLAB_ROWS`` rows is written and
  followed by a ``flush`` barrier; its latency is write to ``flushed``.
* ``churn`` — closed loop.  Short visits by users drawn at random from
  a registered population a hundred times the shards' resident budget,
  so nearly every visit wakes a hibernated session and parks another.

``offline`` is the paper's reproduction loop with no server: simulate
a trial, estimate every user with the batch pipeline, score against the
metronome ground truth.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro import obs
from repro.bench import benchmark_scenario
from repro.core.pipeline import TagBreathe
from repro.errors import DegradedEstimateWarning, InsufficientDataError
from repro.serve.client import IngestClient, watch_estimates
from repro.serve.protocol import encode_column_frame
from repro.serve.server import BreathServer
from repro.serve.session import SessionConfig
from repro.sim import engine

from reference import NOMINAL_S, Reference
from waterfall import Waterfall
from ward import WardStream, write_checkpoint

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Kernel runs before each set-up, to scale that set-up's time.
SETUP_KERNELS = 9

#: Rows per column frame: the ingest client's own coalescing size.
FRAME_ROWS = 256

#: Session knobs of the serving workloads: the serving tier's defaults,
#: as ``repro serve`` runs without flags.
SERVE_CONFIG = SessionConfig()
#: Stream seconds between a user's published estimates (5 s).
CADENCE_S = SERVE_CONFIG.estimate_interval_s
#: Stream seconds already in the starting checkpoint of ward and bulk:
#: the sessions' warm-up, so every user's first estimate falls due
#: within one cadence of the start.
WARM_S = SERVE_CONFIG.warmup_s
#: Session shards per server (the ``repro serve --shards`` default).
SERVE_SHARDS = 4

#: Patients per room, one reader each, as in the ward dashboard example.
WARD_PATIENTS = 4
#: Rooms of the ward: a load choice, one the server keeps up with
#: while giving 160 estimates per 20 s window.
WARD_ROOMS = 10
#: The gateway forwards one frame per this many seconds: about the gap
#: between one room's reads (~120 reads/s per reader), so a read goes
#: out as soon as it is read, as ``IngestClient.replay`` does in real
#: time; the gateway merges the rooms' writes of the same instant.
WARD_FRAME_S = 0.01
#: Paced seconds before the measured window: every user's first, cold
#: estimate falls in it, so the window sees the ward's steady state.
WARD_LEAD_S = CADENCE_S + 0.5

#: Rows per bulk operation (two full frames, give or take rows that
#: share the last row's time).  A fixed row count rather than a fixed
#: stream span, so an operation's size does not depend on how fast the
#: seed's readers read.
BULK_SLAB_ROWS = 2 * FRAME_ROWS
#: Stream seconds fetched to cut one slab from: more rows than a slab
#: even across the quiet second or two where the stream repeats.
BULK_AHEAD_S = 5.0

CHURN_ROOMS = 50
CHURN_SHARDS = 2
#: Resident sessions per shard.  Two of the 200 registered users, the
#: 1% active fraction of ``repro.bench``'s idle-economics suite; the
#: rest of the population hibernates.
CHURN_RESIDENT = 1
#: Stream seconds each registered user has on record at the start.
CHURN_HISTORY_S = 10.0
CHURN_VISIT_S = 2.0

OFFLINE_USERS = 3
#: The paper's characterisation trial length.
OFFLINE_TRIAL_S = 25.0
#: Largest error, in breaths per minute, a trial estimate may have.
OFFLINE_TOLERANCE_BPM = 1.5

#: Published estimates, besides each user's final one, whose rate is
#: recomputed from scratch and compared bit for bit.
CHECKED_ESTIMATES = 32

_clock = time.perf_counter


@dataclass
class Outcome:
    """What one measured window produced.

    ``latencies_s`` are as measured, ``scales`` the reference scale at
    each (``reference.py``; all ones in a traced run), and ``setup_s``
    already scaled.  A ``paced`` workload's throughput is the rate it
    offered over ``wall_s``; a closed loop's is its reports over its
    scaled operation time.
    """

    latencies_s: List[float]
    scales: np.ndarray
    reports: int
    wall_s: float
    setup_s: List[float]
    attempted: int
    failed: int
    paced: bool = False
    #: Stream time up to which every user's rows were sent.
    until_t: float = 0.0
    problems: List[str] = field(default_factory=list)
    detail: Dict[str, float] = field(default_factory=dict)


def _between_ops(reference: Reference,
                 waterfall: Optional[Waterfall]) -> Callable[[], None]:
    """What runs after every operation: the kernel, unless traced."""
    return reference.run if waterfall is None else (lambda: None)


def _setup_scale() -> float:
    """The reference scale just before a set-up."""
    reference = Reference()
    reference.run(SETUP_KERNELS)
    return NOMINAL_S / reference.median_s()


# ----------------------------------------------------------------------
# Serving harness
# ----------------------------------------------------------------------
class Arrival(NamedTuple):
    """One estimate as the watching client read it."""

    received: float
    user_id: int
    t: float
    rate_bpm: float
    final: bool


class Watcher:
    """A dashboard connection: reads the estimate stream, stamps arrivals."""

    def __init__(self, port: int, waterfall: Optional[Waterfall]) -> None:
        self.waterfall = waterfall
        self.arrivals: List[Arrival] = []
        self._task = asyncio.ensure_future(self._read(port))

    async def _read(self, port: int) -> None:
        loop = asyncio.get_running_loop()
        async for message in watch_estimates("127.0.0.1", port):
            arrival = Arrival(loop.time(), int(message["user_id"]),
                              float(message["t"]),
                              float(message["rate_bpm"]),
                              bool(message.get("final")))
            self.arrivals.append(arrival)
            if self.waterfall is not None:
                self.waterfall.received(arrival.user_id, arrival.t)

    async def wait_for(self, count: int, timeout_s: float) -> None:
        deadline = _clock() + timeout_s
        while len(self.arrivals) < count and _clock() < deadline:
            await asyncio.sleep(0.005)

    async def closed(self) -> None:
        """Wait for the stream to end (the server's ``draining``)."""
        await asyncio.wait_for(self._task, timeout=30.0)


class Rig:
    """One server resumed from a checkpoint, plus its two clients."""

    def __init__(self, server: BreathServer, client: IngestClient,
                 watcher: Watcher) -> None:
        self.server = server
        self.client = client
        self.watcher = watcher
        self.estimates_before = self.estimates_published()

    @staticmethod
    def estimates_published() -> int:
        """The serving tier's own count of estimates it has published."""
        return int(sum(obs.get_registry().values(
            "repro_serve_estimates_total").values()))

    async def close(self) -> None:
        """Drain the server; it publishes each resident user's final
        estimate to the watcher before it says ``draining``."""
        self.watcher.waterfall = None
        self.server.checkpoint_path = None  # a disposable copy
        await self.client.close()
        await self.server.drain()
        await self.watcher.closed()


async def _bring_up(checkpoint: Path, work: Path, index: int, shards: int,
                    config: SessionConfig,
                    waterfall: Optional[Waterfall]) -> Rig:
    path = work / f"server-{index}.ckpt"
    shutil.copyfile(checkpoint, path)
    server = BreathServer(n_shards=shards, config=config,
                          checkpoint_path=str(path), checkpoint_interval_s=0)
    await server.start()
    client = IngestClient("127.0.0.1", server.port, frames=("column",))
    await client.connect()
    if waterfall is not None:  # its acks are not the server's decoding
        waterfall.ignore_decoder(client._decoder)
    watcher = Watcher(server.port, waterfall)
    while server.summary()["watchers"] < 1:  # subscribed before any send
        await asyncio.sleep(0.001)
    return Rig(server, client, watcher)


async def _set_up(checkpoint: Path, work: Path, shards: int,
                  config: SessionConfig, waterfall: Optional[Waterfall]
                  ) -> "tuple[Rig, List[float]]":
    """Bring the server up ``SETUP_REPEATS`` times; keep the last one.

    Returns the rig and each set-up's scaled time.
    """
    times = []
    rig = None
    for index in range(SETUP_REPEATS):
        if rig is not None:
            await rig.close()
        gc.collect()  # the previous rig's garbage is not this set-up's
        scale = _setup_scale()
        t0 = _clock()
        rig = await _bring_up(checkpoint, work, index, shards, config,
                              waterfall)
        times.append((_clock() - t0) * scale)
    return rig, times


def _send(client: IngestClient, batch) -> int:
    """Client side of one send: encode column frames and write them."""
    for lo in range(0, len(batch), FRAME_ROWS):
        client.write_frame(encode_column_frame(
            batch.select(slice(lo, lo + FRAME_ROWS))))
    return len(batch)


async def _finish(rig: Rig, sent: int, problems: List[str]) -> int:
    """Barrier, then wait for every published estimate; returns lost."""
    flushed = await rig.client.flush()
    if flushed is None or int(flushed["received"]) != sent:
        problems.append(f"server received {flushed and flushed['received']}"
                        f" of {sent} reports")
    if flushed is not None and int(flushed["shed_total"]):
        problems.append(f"server shed {flushed['shed_total']} reports")
    published = rig.estimates_published() - rig.estimates_before
    await rig.watcher.wait_for(published, timeout_s=10.0)
    lost = published - len(rig.watcher.arrivals)
    if lost:
        problems.append(f"{lost} of {published} estimates never arrived")
    return lost


def _reference_rate(stream: WardStream, user_id: int,
                    until_t: float) -> Optional[float]:
    """The rate a fresh engine fed the user's rows up to ``until_t``
    with one ``feed_batch`` estimates (None when it cannot)."""
    reference = TagBreathe(user_ids={user_id})
    reference.feed_batch(stream.between(-1.0, until_t, user_id=user_id))
    try:
        return reference.estimate_user(
            user_id, window_s=SERVE_CONFIG.window_s).rate_bpm
    except InsufficientDataError:
        return None


def _check_published(arrivals: List[Arrival], stream: WardStream, seed: int,
                     problems: List[str]) -> Dict[int, float]:
    """Published rates equal a from-scratch reference, bit for bit.

    Checks every final estimate and a seeded sample of the others; a
    published estimate's ``t`` is its session's newest report, so the
    reference is fed exactly the rows the session held.  Returns each
    user's final rate.
    """
    finals = [a for a in arrivals if a.final]
    others = [a for a in arrivals if not a.final]
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(others), size=min(CHECKED_ESTIMATES,
                                              len(others)), replace=False)
    wrong = []
    for arrival in finals + [others[int(i)] for i in picked]:
        expected = _reference_rate(stream, arrival.user_id, arrival.t)
        if expected != arrival.rate_bpm:
            wrong.append((arrival.user_id, arrival.t))
    if wrong:
        problems.append(f"{len(wrong)} published estimates differ from the "
                        f"reference, e.g. (user, t) {wrong[:3]}")
    return {a.user_id: a.rate_bpm for a in finals}


def _with_rig(stream_fn: Callable[[], WardStream], shards: int,
              config: SessionConfig, checkpoint_fn, measure,
              check: Callable[[Rig, WardStream, Outcome], None],
              seconds: float, waterfall: Optional[Waterfall]) -> Outcome:
    """Common scaffolding: inputs, checkpoint, set-up, measure, close,
    then ``check`` the drained rig's published estimates."""
    stream = stream_fn()
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        work = Path(tmp)
        checkpoint = work / "start.ckpt"
        checkpoint_fn(stream, checkpoint)

        async def run() -> Outcome:
            rig, setup_s = await _set_up(checkpoint, work, shards, config,
                                         waterfall)
            try:
                outcome = await measure(rig, stream, seconds)
            finally:
                await rig.close()
            outcome.setup_s = setup_s
            check(rig, stream, outcome)
            return outcome

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            return asyncio.run(run())


def _check_ward(seed: int, truth: bool):
    """The checks of ``ward`` and ``bulk`` after the drain.

    Every user, resident throughout, publishes a final estimate unless
    the reference cannot estimate that user either; all are checked
    against the reference, and with ``truth`` their median error
    against the metronome must stay within tolerance.
    """
    def check(rig: Rig, stream: WardStream, outcome: Outcome) -> None:
        finals = _check_published(rig.watcher.arrivals, stream, seed,
                                  outcome.problems)
        missing = [uid for uid in stream.user_ids if uid not in finals
                   and _reference_rate(stream, uid, outcome.until_t)
                   is not None]
        if missing:
            outcome.problems.append(f"no final estimate for users "
                                    f"{missing[:5]}")
        if truth and finals:
            error = statistics.median(abs(rate - stream.truth_bpm[uid])
                                      for uid, rate in finals.items())
            if error > OFFLINE_TOLERANCE_BPM:
                outcome.problems.append(f"median ward error {error:.2f} bpm"
                                        f" exceeds {OFFLINE_TOLERANCE_BPM}")
    return check


# ----------------------------------------------------------------------
# ward
# ----------------------------------------------------------------------
def ward(seed: int, seconds: float,
         waterfall: Optional[Waterfall]) -> Outcome:
    def make() -> WardStream:
        return WardStream(seed, WARD_ROOMS, WARD_PATIENTS,
                          period_s=WARM_S + seconds + 2 * CADENCE_S,
                          stagger_s=CADENCE_S)

    async def measure(rig: Rig, stream: WardStream,
                      seconds: float) -> Outcome:
        loop = asyncio.get_running_loop()
        lead = int(round(WARD_LEAD_S / WARD_FRAME_S))
        frames = lead + int(round(seconds / WARD_FRAME_S))
        send = waterfall.timed("client", _send) if waterfall else _send
        reference = Reference()
        kernel = _between_ops(reference, waterfall)
        begin = loop.time() + 0.05
        start = begin + lead * WARD_FRAME_S
        sent = total = 0
        late = []
        for k in range(frames):
            due = begin + (k + 1) * WARD_FRAME_S
            if k == lead and waterfall is not None:
                waterfall.start()
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(loop.time() - due)
            batch = stream.between(WARM_S + k * WARD_FRAME_S,
                                   WARM_S + (k + 1) * WARD_FRAME_S)
            count = send(rig.client, batch)
            total += count
            if k >= lead:
                sent += count
            await rig.client.drain()
            kernel()
        wall = loop.time() - start
        problems: List[str] = []
        lost = await _finish(rig, total, problems)
        if waterfall is not None:
            waterfall.stop()
        latencies, stamps = [], []
        to_clock = _clock() - loop.time()
        for arrival in rig.watcher.arrivals:
            k = int(np.ceil((arrival.t - WARM_S) / WARD_FRAME_S)) - 1
            if k >= lead:
                latencies.append(arrival.received
                                 - (begin + (k + 1) * WARD_FRAME_S))
                stamps.append(arrival.received + to_clock)
        return Outcome(latencies, reference.scale_at(stamps), sent, wall, [],
                       len(latencies) + lost, lost, paced=True,
                       until_t=WARM_S + frames * WARD_FRAME_S,
                       problems=problems,
                       detail={"users": len(stream.user_ids),
                               "generator_late_p99_ms":
                                   1e3 * float(np.percentile(late, 99))})

    return _with_rig(make, SERVE_SHARDS, SERVE_CONFIG,
                     lambda s, p: write_checkpoint(s, p, SERVE_CONFIG, WARM_S),
                     measure, _check_ward(seed, truth=True), seconds,
                     waterfall)


# ----------------------------------------------------------------------
# bulk
# ----------------------------------------------------------------------
def bulk(seed: int, seconds: float,
         waterfall: Optional[Waterfall]) -> Outcome:
    def make() -> WardStream:
        return WardStream(seed, WARD_ROOMS, WARD_PATIENTS,
                          period_s=WARM_S + 30.0, stagger_s=CADENCE_S)

    async def measure(rig: Rig, stream: WardStream,
                      seconds: float) -> Outcome:
        send = waterfall.timed("client", _send) if waterfall else _send
        reference = Reference()
        kernel = _between_ops(reference, waterfall)
        if waterfall is not None:
            waterfall.start()
        start = _clock()
        t = WARM_S
        sent = 0
        latencies, stamps = [], []
        problems: List[str] = []
        while _clock() - start < seconds:
            ahead = stream.between(t, t + BULK_AHEAD_S)
            # Cut midway to the next later row, so the next slab's lower
            # bound is clear of both rows' (period-shifted) times.
            rows = int(np.searchsorted(
                ahead.t, ahead.t[BULK_SLAB_ROWS - 1], side="right"))
            batch = ahead.select(slice(0, rows))
            t0 = _clock()
            sent += send(rig.client, batch)
            await rig.client.drain()
            await rig.client.flush()
            stamps.append(_clock())
            latencies.append(stamps[-1] - t0)
            t = 0.5 * float(ahead.t[rows - 1] + ahead.t[rows])
            kernel()
        wall = _clock() - start
        lost = await _finish(rig, sent, problems)
        if waterfall is not None:
            waterfall.stop()
        return Outcome(latencies, reference.scale_at(stamps), sent, wall, [],
                       len(latencies), 0, until_t=t, problems=problems,
                       detail={"users": len(stream.user_ids),
                               "stream_s": t - WARM_S,
                               "estimates_lost": lost})

    return _with_rig(make, SERVE_SHARDS, SERVE_CONFIG,
                     lambda s, p: write_checkpoint(s, p, SERVE_CONFIG, WARM_S),
                     measure, _check_ward(seed, truth=False), seconds,
                     waterfall)


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
def churn(seed: int, seconds: float,
          waterfall: Optional[Waterfall]) -> Outcome:
    config = SessionConfig(max_resident=CHURN_RESIDENT)

    def make() -> WardStream:
        return WardStream(seed, CHURN_ROOMS, WARD_PATIENTS,
                          period_s=CHURN_HISTORY_S + 10.0)

    async def measure(rig: Rig, stream: WardStream,
                      seconds: float) -> Outcome:
        send = waterfall.timed("client", _send) if waterfall else _send
        reference = Reference()
        kernel = _between_ops(reference, waterfall)
        rng = np.random.default_rng(seed)
        cursor = dict.fromkeys(stream.user_ids, CHURN_HISTORY_S)
        if waterfall is not None:
            waterfall.start()
        start = _clock()
        sent = 0
        latencies, stamps = [], []
        problems: List[str] = []
        while _clock() - start < seconds:
            uid = int(rng.integers(1, len(stream.user_ids) + 1))
            batch = stream.between(cursor[uid], cursor[uid] + CHURN_VISIT_S,
                                   user_id=uid)
            cursor[uid] += CHURN_VISIT_S
            t0 = _clock()
            sent += send(rig.client, batch)
            await rig.client.drain()
            await rig.client.flush()
            stamps.append(_clock())
            latencies.append(stamps[-1] - t0)
            kernel()
        wall = _clock() - start
        lost = await _finish(rig, sent, problems)
        if waterfall is not None:
            waterfall.stop()
        server = rig.server
        if server.session_count() != len(stream.user_ids):
            problems.append(f"{server.session_count()} sessions for "
                            f"{len(stream.user_ids)} users")
        if server.resident_count() > CHURN_SHARDS * CHURN_RESIDENT:
            problems.append(f"{server.resident_count()} resident sessions "
                            f"over the budget")
        visited = [uid for uid, c in cursor.items() if c > CHURN_HISTORY_S]
        for uid in rng.choice(visited, size=min(16, len(visited)),
                              replace=False):
            uid = int(uid)
            expected = TagBreathe(user_ids={uid})
            expected.feed_batch(stream.between(-1.0, cursor[uid],
                                               user_id=uid))
            session = server.shard_for(uid).session_for(uid)
            if (session.engine.buffered_reports(uid)
                    != expected.buffered_reports(uid)):
                problems.append(f"user {uid} lost state across wake")
        return Outcome(latencies, reference.scale_at(stamps), sent, wall, [],
                       len(latencies), 0, problems=problems,
                       detail={"users": len(stream.user_ids),
                               "visited_users": len(visited),
                               "estimates_lost": lost})

    def check(rig: Rig, stream: WardStream, outcome: Outcome) -> None:
        _check_published(rig.watcher.arrivals, stream, seed,
                         outcome.problems)

    return _with_rig(
        make, CHURN_SHARDS, config,
        lambda s, p: write_checkpoint(s, p, config, CHURN_HISTORY_S,
                                      hibernated=True),
        measure, check, seconds, waterfall)


# ----------------------------------------------------------------------
# offline
# ----------------------------------------------------------------------
def _import_time(src: Path) -> float:
    """Scaled wall time of a fresh interpreter importing the reproduction."""
    scale = _setup_scale()
    t0 = _clock()
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "import repro.sim.engine, repro.core.pipeline", str(src)],
        check=True, timeout=120)
    return (_clock() - t0) * scale


def offline(seed: int, seconds: float,
            waterfall: Optional[Waterfall]) -> Outcome:
    src = Path(__file__).resolve().parent.parent / "src"
    setup_s = [_import_time(src) for _ in range(SETUP_REPEATS)]
    reference = Reference()
    kernel = _between_ops(reference, waterfall)
    rng = np.random.default_rng(seed)
    latencies, stamps = [], []
    reports = failed_trials = 0
    problems: List[str] = []
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        if waterfall is not None:
            waterfall.start()
        start = _clock()
        while _clock() - start < seconds:
            trial_seed = int(rng.integers(1, 2**31))
            t0 = _clock()
            scenario = benchmark_scenario(OFFLINE_USERS, seed=trial_seed)
            result = engine.run_scenario(scenario,
                                         duration_s=OFFLINE_TRIAL_S,
                                         seed=trial_seed)
            pipeline = TagBreathe(user_ids=set(scenario.monitored_user_ids))
            estimates = pipeline.process(result.reports)
            stamps.append(_clock())
            latencies.append(stamps[-1] - t0)
            kernel()
            reports += len(result.reports)
            truth = result.ground_truth.all_rates_bpm(0.0, OFFLINE_TRIAL_S)
            failed = False
            for uid, rate in truth.items():
                error = (abs(estimates[uid].rate_bpm - rate)
                         if uid in estimates else float("inf"))
                worst = max(worst, error)
                if error > OFFLINE_TOLERANCE_BPM:
                    failed = True
                    problems.append(f"trial seed {trial_seed} user {uid} "
                                    f"off by {error:.2f} bpm")
            failed_trials += failed
        wall = _clock() - start
        if waterfall is not None:
            waterfall.stop()
    return Outcome(latencies, reference.scale_at(stamps), reports, wall,
                   setup_s, len(latencies), failed_trials, problems=problems,
                   detail={"worst_error_bpm": worst})


WORKLOADS = {"ward": ward, "bulk": bulk, "churn": churn, "offline": offline}
