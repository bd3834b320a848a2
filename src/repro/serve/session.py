"""Per-user monitoring sessions and the sharded workers that drive them.

One :class:`UserSession` wraps one :class:`~repro.core.pipeline.TagBreathe`
engine restricted to a single user and drives the incremental streaming
path — ``feed_batch()`` per staged run of column batches (which folds
the rows, with their Eq. 3 phase deltas, into the engine's window
index), and
``estimate_user()`` on a stream-time cadence, which slices the
maintained state instead of recomputing from scratch and returns a
memoized estimate when no new reports landed since the last tick — so a
served estimate is *by construction* the same number the batch pipeline
computes over the same trailing window (the property
``tests/test_serve.py`` pins to 0.1 bpm; DESIGN.md §12 explains why the
streamed and batch numbers are in fact bit-identical).

Sessions are grouped into :class:`SessionShard` workers (user_id modulo
shard count), each with its own bounded queue of single-user column
batches.  The shard is the unit of backpressure:

* **shed-oldest** — when the queue is full, the *oldest* queued batch
  is discarded to make room (a monitor wants the freshest breath, not a
  faithful archive), counted in ``repro_serve_shed_total``;
* **watermarks** — connection handlers stop reading their socket while a
  shard's backlog sits above the high watermark and resume below the low
  watermark, pushing backpressure into the kernel's TCP window so a
  well-behaved sender slows down instead of being shed.

Everything here is asyncio-single-threaded: sessions mutate only inside
their shard's worker task, which is what makes the checkpoint snapshot
(:mod:`repro.serve.checkpoint`) consistent without locks.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .. import obs
from ..core.pipeline import TagBreathe
from ..errors import (CheckpointCorruptError, ConfigError,
                      InsufficientDataError)
from ..reader.batch import BatchBuffer, ReportBatch
from .checkpoint import session_state_from_doc, \
    session_state_to_binary_doc
from .hibernate import HibernationStore, blob_to_doc, open_blob
from .protocol import estimate_to_wire

#: Default per-shard ingest queue capacity (reports).
DEFAULT_QUEUE_CAPACITY = 4096

#: Most rows a session stages before it feeds its engine: the engine's
#: prune cadence (``_PRUNE_EVERY``), so staging holds back at most one
#: prune's worth of rows — 32 KiB of columns — per session.
STAGE_ROWS = 512


@dataclass(frozen=True)
class SessionConfig:
    """Tuning knobs for served monitoring sessions.

    Attributes:
        window_s: trailing analysis window passed to ``estimate_user``
            (None = the engine's 25 s paper default).
        estimate_interval_s: stream-time cadence between published
            estimates per user.
        warmup_s: stream time that must elapse after a session's first
            report before its first estimate is attempted (the paper's
            window must fill before Eq. 5 has enough crossings).
        queue_capacity: per-shard ingest queue bound; overflow sheds the
            oldest queued report.
        high_watermark: backlog at which connection handlers pause
            reading (defaults to 3/4 of capacity).
        low_watermark: backlog at which paused handlers resume
            (defaults to 1/4 of capacity).
        include_signal: embed a downsampled breathing-signal trace in
            estimate messages (for dashboard sparklines).
        signal_points: ~how many signal samples to embed when enabled.
        idle_after_s: wall-clock seconds without an ingested report
            after which the idle sweep hibernates a session (None = no
            idle-driven hibernation).
        max_resident: per-shard budget of resident (engine-backed)
            sessions; exceeding it hibernates the least-recently-active
            sessions until the budget holds (None = unbounded).
    """

    window_s: Optional[float] = None
    estimate_interval_s: float = 5.0
    warmup_s: float = 25.0
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    high_watermark: Optional[int] = None
    low_watermark: Optional[int] = None
    include_signal: bool = False
    signal_points: int = 60
    idle_after_s: Optional[float] = None
    max_resident: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window_s is not None and not self.window_s > 0:
            raise ConfigError(
                f"window_s must be None or > 0, got {self.window_s}")

    @property
    def high(self) -> int:
        """The effective high watermark."""
        return (self.high_watermark if self.high_watermark is not None
                else max(1, (3 * self.queue_capacity) // 4))

    @property
    def low(self) -> int:
        """The effective low watermark."""
        return (self.low_watermark if self.low_watermark is not None
                else max(0, self.queue_capacity // 4))


class UserSession:
    """One user's live monitoring state inside a shard.

    Column batches are staged, not fed: :meth:`ingest_batch` keeps the
    session's bookkeeping current and copies the rows into a staging
    buffer, and reading :attr:`engine` first feeds everything staged as
    one ``feed_batch``.  Since ``feed_batch`` leaves the same state
    however a stream is cut into batches (DESIGN.md §14), every reader
    of engine state — estimates, :meth:`state`, drop counts — sees
    exactly what eager feeding would have left, while the engine runs
    once per estimate instead of once per few-row sub-batch.

    Args:
        user_id: the monitored user.
        config: serving knobs (cadence, window, signal embedding).
        engine_factory: builds the per-user TagBreathe engine; the
            default constructs one with ``user_ids={user_id}`` so stray
            reports can never pollute the session.
    """

    def __init__(self, user_id: int, config: SessionConfig,
                 engine_factory: Optional[Callable[[int], TagBreathe]] = None,
                 ) -> None:
        self.user_id = user_id
        self.config = config
        factory = engine_factory or (lambda uid: TagBreathe(user_ids={uid}))
        self._engine = factory(user_id)
        self._stage: Optional[BatchBuffer] = None
        self.first_t: Optional[float] = None
        self.latest_t: Optional[float] = None
        self.next_due_t: Optional[float] = None
        self.reports_in = 0
        self.estimates_out = 0
        #: Wall-clock (monotonic) instant of the last ingested report —
        #: what the idle detector and the resident-budget eviction order
        #: key on.  Deliberately NOT stream time: a replayed historical
        #: trace is still *activity* even though its timestamps are old.
        self.last_active = time.monotonic()

    # ------------------------------------------------------------------
    @property
    def engine(self) -> TagBreathe:
        """The session's engine, caught up with every staged batch."""
        if self._stage is not None:
            self._feed_staged()
        return self._engine

    def _feed_staged(self) -> None:
        stage, self._stage = self._stage, None
        self._engine.feed_batch(stage.batch())

    def ingest_batch(self, batch: ReportBatch) -> int:
        """Stage one column batch; returns its row count.

        The session bookkeeping counts every row (``reports_in``), takes
        ``first_t`` from the first row in arrival order and keeps
        ``latest_t`` as the running max, so the estimate cadence, idle
        sweep and eviction order do not depend on how the stream was
        cut into batches.  The rows reach the engine on the next read
        of :attr:`engine`, or here when they would take the stage past
        :data:`STAGE_ROWS` (a batch that large on its own is fed at
        once, after whatever was staged).
        """
        n = len(batch)
        if not n:
            return 0
        self.reports_in += n
        self.last_active = time.monotonic()
        if self.first_t is None:
            self.first_t = float(batch.t[0])
            self.next_due_t = self.first_t + self.config.warmup_s
        t_max = float(batch.t.max())
        self.latest_t = (t_max if self.latest_t is None
                         else max(self.latest_t, t_max))
        stage = self._stage
        if stage is not None and stage.rows + n > STAGE_ROWS:
            self._feed_staged()
            stage = None
        if n >= STAGE_ROWS:
            self._engine.feed_batch(batch)
        else:
            if stage is None:
                stage = self._stage = BatchBuffer(STAGE_ROWS)
            stage.append(batch)
        return n

    def estimate_due(self) -> bool:
        """True when stream time has advanced past the next cadence tick."""
        return (self.next_due_t is not None and self.latest_t is not None
                and self.latest_t >= self.next_due_t)

    def maybe_estimate(self) -> Optional[Dict[str, Any]]:
        """Publish-worthy estimate message if one is due, else None.

        Advances the cadence clock even when the window holds too little
        signal (the user walked away mid-session): the session keeps
        quietly retrying every interval rather than spinning on every
        report.
        """
        if not self.estimate_due():
            return None
        self.next_due_t += self.config.estimate_interval_s
        # A stalled stream could leave the due time many intervals in the
        # past; re-anchor so recovery does not burst-publish stale ticks.
        if self.next_due_t <= self.latest_t:
            self.next_due_t = self.latest_t + self.config.estimate_interval_s
        return self.estimate_now()

    def estimate_now(self, final: bool = False) -> Optional[Dict[str, Any]]:
        """Compute an estimate message right now (None if not possible)."""
        with obs.span("serve.session.estimate", user_id=self.user_id):
            try:
                estimate = self.engine.estimate_user(
                    self.user_id, window_s=self.config.window_s)
            except InsufficientDataError:
                return None
        self.estimates_out += 1
        signal = None
        if self.config.include_signal:
            series = estimate.estimate.signal
            stride = max(1, len(series) // max(1, self.config.signal_points))
            signal = (series.times[::stride].tolist(),
                      series.values[::stride].tolist())
        return estimate_to_wire(
            self.user_id, self.latest_t if self.latest_t is not None else 0.0,
            estimate, drop_counts=self.engine.feed_drop_counts,
            signal=signal, final=final)

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The session's checkpointable state (JSON-ready except ``batch``).

        ``batch`` is the engine's buffered rows as one
        :class:`~repro.reader.batch.ReportBatch`
        (``TagBreathe.buffered_batch``); ``session_state_to_doc`` packs
        it into the document's column frame.
        """
        return {
            "user_id": self.user_id,
            "first_t": self.first_t,
            "latest_t": self.latest_t,
            "next_due_t": self.next_due_t,
            "reports_in": self.reports_in,
            "estimates_out": self.estimates_out,
            "drop_counts": self.engine.feed_drop_counts,
            "batch": self.engine.buffered_batch(self.user_id),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Load a checkpointed state (inverse of :meth:`state`).

        One ``feed_batch`` of the checkpointed rows (``state["batch"]``)
        rebuilds the engine's incremental state (the window index and
        its Eq. 3 columns) deterministically; the engine keeps restore-time
        drops separate from the restored production counters, and any
        such drops — normally zero, since the checkpoint holds an
        already-deduplicated buffer — are surfaced on
        ``repro_serve_restore_replay_drops_total`` rather than silently
        folded into the session's drop statistics.
        """
        self.first_t = state.get("first_t")
        self.latest_t = state.get("latest_t")
        self.next_due_t = state.get("next_due_t")
        self.reports_in = int(state.get("reports_in", 0))
        self.estimates_out = int(state.get("estimates_out", 0))
        self.engine.restore_streaming(state["batch"],
                                      state.get("drop_counts"))
        replayed = sum(self.engine.last_restore_drop_counts.values())
        if replayed:
            obs.counter("repro_serve_restore_replay_drops_total",
                        user_id=str(self.user_id)).inc(replayed)


class SessionShard:
    """One ingest worker: a bounded queue feeding its users' sessions.

    Args:
        index: shard number (labels the shard's metrics).
        config: serving knobs shared by every session in the shard.
        publish: called with each estimate message to fan out.
        engine_factory: forwarded to :class:`UserSession`.
    """

    def __init__(self, index: int, config: SessionConfig,
                 publish: Callable[[Dict[str, Any]], None],
                 engine_factory: Optional[Callable[[int], TagBreathe]] = None,
                 ) -> None:
        self.index = index
        self.config = config
        self.sessions: Dict[int, UserSession] = {}
        #: Cold tier: idle sessions parked as compressed checkpoint
        #: documents, woken lazily (and bit-exactly) by the next report.
        self.hibernated = HibernationStore()
        self.shed_count = 0
        self.frames_in = 0
        self._publish = publish
        self._engine_factory = engine_factory
        # The queue itself is unbounded; capacity, shedding, and the
        # watermarks are accounted in REPORTS via ``_pending``, so one
        # queued column batch weighs its row count, not one slot.
        self._queue: asyncio.Queue = asyncio.Queue()
        self._pending = 0
        self._below_low = asyncio.Event()
        self._below_low.set()
        self._task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Producer side (connection handlers)
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Reports queued but not yet ingested."""
        return self._pending

    def _shed_to_capacity(self) -> None:
        """Drop oldest queued batches until the backlog fits the bound.

        Never drops the newest entry: a single batch larger than the
        whole queue capacity is admitted intact (the engine handles any
        size; the bound is an overload valve, not a frame limit).
        """
        capacity = max(1, self.config.queue_capacity)
        while self._pending > capacity and self._queue.qsize() > 1:
            oldest = self._queue.get_nowait()
            self._queue.task_done()
            dropped = len(oldest)
            self._pending -= dropped
            self.shed_count += dropped
            obs.counter("repro_serve_shed_total",
                        shard=str(self.index)).inc(dropped)

    def submit_batch(self, batch: ReportBatch) -> None:
        """Enqueue one single-user column batch, shedding on overflow.

        Never blocks and never raises: the batch occupies ``len(batch)``
        reports of queue capacity, and under sustained overload the
        oldest queued batches are shed so the freshest data wins,
        counted in ``repro_serve_shed_total`` (the tolerate-and-count
        contract of ``TagBreathe.feed_batch``).  The worker stages each batch
        with one :meth:`UserSession.ingest_batch`.
        """
        if not len(batch):
            return
        self.frames_in += 1
        self._queue.put_nowait(batch)
        self._pending += len(batch)
        self._shed_to_capacity()
        if self._pending >= self.config.high:
            self._below_low.clear()

    async def wait_below_low(self) -> None:
        """Block while the backlog is above the low watermark.

        Connection handlers await this after submitting whenever the
        backlog crossed the high watermark; not reading the socket is
        what turns shard congestion into TCP backpressure.
        """
        await self._below_low.wait()

    @property
    def over_high(self) -> bool:
        """True when the backlog is at or above the high watermark."""
        return self._pending >= self.config.high

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the shard worker task on the running loop."""
        if self._task is None or self._task.done():
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Cancel the worker task (drain first for a graceful stop)."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def drain(self) -> None:
        """Wait until every queued report has been ingested."""
        await self._queue.join()

    def session_for(self, user_id: int) -> UserSession:
        """Get, wake, or lazily create the session for ``user_id``.

        A hibernated user's next touch inflates their parked checkpoint
        document back into a live session whose state is bit-identical
        to never having hibernated (``restore_streaming`` rebuilds it
        from the document's column frame with one ``feed_batch``); a
        brand-new user gets a fresh session.  A parked document that
        fails its checks (frame CRC, layout) cannot be woken: the loss
        is counted on ``repro_serve_wake_corrupt_total`` and the user
        starts a fresh session, so one bad blob never stops the shard
        (nor a checkpoint or a migration: :meth:`parked_docs` and
        :meth:`pop_parked` drop and count a corrupt blob the same way).
        Either way the resident budget is enforced afterwards,
        hibernating the least-recently-active sessions — never the one
        just touched — when the shard is over budget.
        """
        session = self.sessions.get(user_id)
        if session is None:
            session = self._wake(user_id)
            if session is None:
                session = UserSession(user_id, self.config,
                                      engine_factory=self._engine_factory)
                obs.event("serve.session.open", user_id=user_id,
                          shard=self.index)
            self.sessions[user_id] = session
            obs.gauge("repro_serve_active_sessions").inc()
            self._enforce_budget(exclude=user_id)
        return session

    def _wake(self, user_id: int) -> Optional[UserSession]:
        """Rebuild a live session from its parked blob, if any.

        The blob inflates straight to a document whose frame is the raw
        payload bytes, and :func:`session_state_from_doc` validates it.
        None when the user is not parked, or when the parked document
        fails validation (a frame CRC mismatch included) — that loss is
        counted and the caller opens a fresh session.
        """
        blob = self._unpark(user_id)
        if blob is None:
            return None
        t0 = time.perf_counter()
        try:
            state = session_state_from_doc(open_blob(blob))
        except CheckpointCorruptError as exc:
            self._count_corrupt(user_id, exc)
            return None
        session = UserSession(user_id, self.config,
                              engine_factory=self._engine_factory)
        session.restore(state)
        elapsed = time.perf_counter() - t0
        obs.counter("repro_serve_woken_total",
                    shard=str(self.index)).inc()
        obs.histogram("repro_serve_wake_latency_seconds").observe(elapsed)
        obs.event("serve.session.wake", user_id=user_id, shard=self.index,
                  seconds=elapsed)
        return session

    def _unpark(self, user_id: int) -> Optional[bytes]:
        """Remove one parked blob from the cold tier; None when absent."""
        blob = self.hibernated.pop_blob(user_id)
        if blob is not None:
            obs.gauge("repro_serve_hibernated_sessions").inc(-1)
        return blob

    def _count_corrupt(self, user_id: int, exc: Exception) -> None:
        """Count one parked session lost to a blob that failed its checks."""
        obs.counter("repro_serve_wake_corrupt_total",
                    shard=str(self.index)).inc()
        obs.event("serve.session.wake_corrupt", user_id=user_id,
                  shard=self.index, error=str(exc))

    def pop_parked(self, user_id: int) -> Optional[Dict[str, Any]]:
        """Detach one parked user as their JSON-ready document (migration).

        None when the user is not parked, or when their blob is corrupt —
        then it is dropped and counted like a failed wake, and the
        migration carries on without it.
        """
        blob = self._unpark(user_id)
        if blob is None:
            return None
        try:
            return blob_to_doc(blob)
        except CheckpointCorruptError as exc:
            self._count_corrupt(user_id, exc)
            return None

    def parked_docs(self) -> List[Dict[str, Any]]:
        """Every parked user's JSON-ready document, in user order.

        The checkpoint's view of the cold tier.  A corrupt blob is
        dropped and counted like a failed wake, so it can neither fail
        the checkpoint nor be written into it.
        """
        docs = []
        for user_id in self.hibernated.user_ids():
            try:
                docs.append(blob_to_doc(self.hibernated.blob(user_id)))
            except CheckpointCorruptError as exc:
                self._unpark(user_id)
                self._count_corrupt(user_id, exc)
        return docs

    def hibernate_session(self, user_id: int) -> bool:
        """Park one resident session in the cold tier; False when absent.

        The session's checkpoint state becomes a compressed document and
        the engine-backed ``UserSession`` is dropped — its window index
        and phase chains become garbage immediately.
        Safe at any instant between queue entries (hibernation is
        synchronous inside the shard's single-threaded context); a
        report already queued for the user simply wakes them when the
        worker dequeues it, preserving order.
        """
        session = self.sessions.pop(user_id, None)
        if session is None:
            return False
        doc = session_state_to_binary_doc(session.state())
        doc["hibernated"] = True
        blob_bytes = self.hibernated.put(user_id, doc)
        obs.counter("repro_serve_hibernated_total",
                    shard=str(self.index)).inc()
        obs.gauge("repro_serve_active_sessions").inc(-1)
        obs.gauge("repro_serve_hibernated_sessions").inc()
        obs.event("serve.session.hibernate", user_id=user_id,
                  shard=self.index, blob_bytes=blob_bytes)
        return True

    def hibernate_idle(self, now: Optional[float] = None) -> int:
        """Hibernate every session idle past ``config.idle_after_s``.

        Called by the server's idle sweep; returns how many sessions
        were parked.  No-op when the knob is unset.
        """
        idle_after = self.config.idle_after_s
        if idle_after is None:
            return 0
        now = time.monotonic() if now is None else now
        idle = [user_id for user_id, session in self.sessions.items()
                if now - session.last_active >= idle_after]
        for user_id in idle:
            self.hibernate_session(user_id)
        return len(idle)

    def _enforce_budget(self, exclude: int) -> None:
        """Hibernate LRA sessions until ``config.max_resident`` holds."""
        budget = self.config.max_resident
        if budget is None:
            return
        while len(self.sessions) > max(1, budget):
            victims = sorted(
                (session.last_active, user_id)
                for user_id, session in self.sessions.items()
                if user_id != exclude)
            if not victims:
                return
            self.hibernate_session(victims[0][1])

    def adopt_hibernated(self, user_id: int, doc: Dict[str, Any]) -> None:
        """Park an already-hibernated document without waking it.

        The checkpoint-resume and migration paths use this so idle users
        move between workers as their (already validated) document — a
        few KB once deflated — instead of a materialised engine.
        """
        self.hibernated.put(user_id, doc)
        obs.gauge("repro_serve_hibernated_sessions").inc()

    @property
    def session_count(self) -> int:
        """Sessions this shard owns: resident plus hibernated."""
        return len(self.sessions) + len(self.hibernated)

    def user_ids(self) -> List[int]:
        """Every owned user (resident and hibernated), sorted."""
        return sorted(set(self.sessions) | set(self.hibernated.user_ids()))

    def remove_session(self, user_id: int) -> Optional[UserSession]:
        """Detach and return one session (migration); None when absent.

        Callers must have drained the shard first — a queued report for
        a removed user would otherwise lazily re-create an empty
        session and fork the user's state across workers.
        """
        session = self.sessions.pop(user_id, None)
        if session is not None:
            obs.event("serve.session.migrate_out", user_id=user_id,
                      shard=self.index)
            obs.gauge("repro_serve_active_sessions").inc(-1)
        return session

    async def _run(self) -> None:
        while True:
            entry = await self._queue.get()
            count = len(entry)
            try:
                session = self.session_for(int(entry.user_id[0]))
                session.ingest_batch(entry)
                message = session.maybe_estimate()
                if message is not None:
                    self._publish(message)
            finally:
                self._pending -= count
                self._queue.task_done()
            if self._pending <= self.config.low:
                self._below_low.set()

    def final_estimates(self) -> List[Dict[str, Any]]:
        """One last estimate per live session (the drain farewell)."""
        messages = []
        for user_id in sorted(self.sessions):
            message = self.sessions[user_id].estimate_now(final=True)
            if message is not None:
                messages.append(message)
        return messages
