"""The asyncio streaming ingest server: TagBreathe as a live service.

:class:`BreathServer` accepts framed TCP connections
(:mod:`repro.serve.protocol`), splits each column frame of tag reports
by user, routes each user's rows to the shard that owns them (:mod:`repro.serve.session`), and fans per-user breathing
estimates out to subscribed *watch* connections as a JSONL stream — the
paper's "realtime" prototype (Section V) turned into a long-running
monitor the ROADMAP's heavy-traffic north star asks for.

Service behaviours, in the order they matter at 3 a.m.:

* **backpressure** — per-connection: while the owning shard's backlog
  is above its high watermark the handler stops reading the socket
  (TCP pushes back on the sender) and resumes below the low watermark;
* **load shedding** — under overload the shard queue sheds its *oldest*
  reports first, counted in ``repro_serve_shed_total`` (a breath monitor
  wants the freshest window, not an archive);
* **checkpoint/resume** — session state is periodically written via
  :mod:`repro.serve.checkpoint`; a restarted server reloads it and
  continues mid-breath;
* **graceful drain** — :meth:`BreathServer.drain` stops accepting,
  ingests everything queued, publishes one final estimate per session,
  checkpoints, and tells watchers the stream is over.

Observability: every connection and session emits trace events, frame /
report / shed / reconnect counters and the active-session and
active-connection gauges live in :mod:`repro.obs`.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Dict, List, Optional, Set

from .. import obs
from ..core.pipeline import TagBreathe
from ..errors import CheckpointCorruptError, ProtocolError, ServeError
from .checkpoint import (
    current_session_doc,
    load_checkpoint,
    save_checkpoint,
    session_state_from_doc,
    session_state_to_doc,
)
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    negotiate_frames,
)
from .session import SessionConfig, SessionShard, UserSession

#: Socket read chunk size.
_READ_CHUNK = 1 << 16

#: An ack frame is sent to ingest connections every this many reports.
ACK_EVERY = 256

#: Per-watcher estimate queue bound; a slower consumer loses the oldest.
_WATCH_QUEUE = 256


class _Watcher:
    """One subscribed watch connection: an estimate queue + user filter."""

    __slots__ = ("queue", "user_ids", "dropped")

    def __init__(self) -> None:
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=_WATCH_QUEUE)
        self.user_ids: Optional[Set[int]] = None  # None = all users
        self.dropped = 0

    def wants(self, user_id: int) -> bool:
        return self.user_ids is None or user_id in self.user_ids

    def offer(self, message: Dict[str, Any]) -> None:
        while True:
            try:
                self.queue.put_nowait(message)
                return
            except asyncio.QueueFull:
                try:
                    self.queue.get_nowait()
                    self.dropped += 1
                    obs.counter("repro_serve_watch_dropped_total").inc()
                except asyncio.QueueEmpty:  # pragma: no cover
                    continue


class BreathServer:
    """A long-running TagBreathe monitoring service.

    Args:
        host: interface to bind.
        port: TCP port (0 = ephemeral; read :attr:`port` after start).
        n_shards: session worker count; users map to shards by
            ``user_id % n_shards``.
        config: serving knobs (cadence, watermarks, signal embedding).
        checkpoint_path: when given, session state is saved here every
            ``checkpoint_interval_s`` and on drain, and reloaded on
            :meth:`start` if the file exists.
        checkpoint_interval_s: periodic checkpoint cadence (wall clock);
            0 disables the periodic task (drain still checkpoints).
        engine_factory: builds each session's TagBreathe engine
            (hook for custom PipelineConfig/RobustnessConfig).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 n_shards: int = 4,
                 config: Optional[SessionConfig] = None,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_interval_s: float = 30.0,
                 engine_factory: Optional[Callable[[int], TagBreathe]] = None,
                 ) -> None:
        if n_shards < 1:
            raise ServeError(f"n_shards must be >= 1, got {n_shards}")
        self.host = host
        self.port = port
        self.config = config if config is not None else SessionConfig()
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval_s = checkpoint_interval_s
        self._engine_factory = engine_factory
        self._shards = [
            SessionShard(i, self.config, self._publish,
                         engine_factory=engine_factory)
            for i in range(n_shards)
        ]
        self._watchers: Set[_Watcher] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._checkpoint_task: Optional[asyncio.Task] = None
        self._idle_task: Optional[asyncio.Task] = None
        self._seen_clients: Set[str] = set()
        self._client_seq: Dict[str, int] = {}
        self._draining = False
        self._drained = asyncio.Event()
        #: monotonic time of the last heartbeat ping; the worker's
        #: rejoin watchdog reads this to notice a dead supervisor.
        self.last_ping_monotonic: float = time.monotonic()
        #: How long drain waits for connection handlers to wind down on
        #: their own before cancelling stragglers.
        self.drain_grace_s = 1.0
        self.counters: Dict[str, int] = {
            "frames_total": 0,
            "reports_total": 0,
            "connections_total": 0,
            "reconnects_total": 0,
            "protocol_errors_total": 0,
            "resumed_reports": 0,
            "seq_filtered_total": 0,
            "drain_stuck_total": 0,
            "migrated_out_total": 0,
            "migrated_in_total": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind, resume any checkpoint, and begin accepting connections."""
        if self._server is not None:
            raise ServeError("server already started")
        self._maybe_resume()
        for shard in self._shards:
            shard.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        obs.event("serve.start", host=self.host, port=self.port,
                  shards=len(self._shards))
        if self.checkpoint_path and self.checkpoint_interval_s > 0:
            self._checkpoint_task = asyncio.ensure_future(
                self._checkpoint_loop())
        if self.config.idle_after_s is not None:
            self._idle_task = asyncio.ensure_future(self._idle_sweep_loop())

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then drain gracefully."""
        await stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: flush, final estimates, checkpoint, close."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        with obs.span("serve.drain"):
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            for shard in self._shards:
                await shard.drain()
            for shard in self._shards:
                for message in shard.final_estimates():
                    self._publish(message)
            if self.checkpoint_path:
                self.checkpoint_now()
            for watcher in list(self._watchers):
                watcher.offer({"type": "draining"})
                watcher.offer(None)  # type: ignore[arg-type]  # sentinel
            if self._checkpoint_task is not None:
                self._checkpoint_task.cancel()
            if self._idle_task is not None:
                self._idle_task.cancel()
            for shard in self._shards:
                await shard.stop()
            # Give connection handlers a beat to see EOF/sentinels, then
            # cancel stragglers so no task outlives the server.  A stuck
            # handler is never *silently* abandoned: it is cancelled,
            # awaited, logged, and counted — a handler that repeatedly
            # shows up here is a bug, and the counter is how it surfaces.
            pending = [t for t in self._conn_tasks
                       if t is not asyncio.current_task() and not t.done()]
            if pending:
                _done, stuck = await asyncio.wait(
                    pending, timeout=self.drain_grace_s)
                for task in stuck:
                    task.cancel()
                if stuck:
                    await asyncio.gather(*stuck, return_exceptions=True)
                    self.counters["drain_stuck_total"] += len(stuck)
                    obs.counter("repro_serve_drain_stuck_total").inc(
                        len(stuck))
                    obs.event("serve.drain.stuck", count=len(stuck),
                              grace_s=self.drain_grace_s,
                              tasks=sorted(t.get_name() for t in stuck))
            obs.gauge("repro_serve_active_sessions").set(0)
            obs.gauge("repro_serve_hibernated_sessions").set(0)
            obs.event("serve.drain.done", sessions=self.session_count(),
                      reports=self.counters["reports_total"],
                      shed=self.shed_total())
        self._drained.set()

    async def stop(self) -> None:
        """Alias for :meth:`drain` (there is no un-graceful stop API)."""
        await self.drain()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_for(self, user_id: int) -> SessionShard:
        """The shard that owns ``user_id``."""
        return self._shards[user_id % len(self._shards)]

    def sessions(self) -> List[UserSession]:
        """Every resident (engine-backed) session, user-id ordered."""
        out = [s for shard in self._shards
               for s in shard.sessions.values()]
        return sorted(out, key=lambda s: s.user_id)

    def session_count(self) -> int:
        """How many user sessions this server owns (resident + hibernated).

        Hibernated sessions count: the user is still registered, their
        state still rides checkpoints and migration — only the resident
        engine is gone.  The fabric's session-conservation invariant
        (settled == requested users) sums this across workers.
        """
        return sum(shard.session_count for shard in self._shards)

    def resident_count(self) -> int:
        """Sessions currently backed by a live engine."""
        return sum(len(shard.sessions) for shard in self._shards)

    def hibernated_count(self) -> int:
        """Sessions parked in the compressed cold tier."""
        return sum(len(shard.hibernated) for shard in self._shards)

    def shed_total(self) -> int:
        """Reports shed across all shards since start/resume."""
        return sum(shard.shed_count for shard in self._shards)

    def summary(self) -> Dict[str, int]:
        """Counter snapshot for operator output (CLI exit summary)."""
        out = dict(self.counters)
        out["shed_total"] = self.shed_total()
        out["sessions"] = self.session_count()
        out["resident"] = self.resident_count()
        out["hibernated"] = self.hibernated_count()
        out["watchers"] = len(self._watchers)
        return out

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_now(self) -> int:
        """Write a checkpoint synchronously; returns reports captured.

        Raises:
            ServeError: when no checkpoint path was configured.
        """
        if not self.checkpoint_path:
            raise ServeError("no checkpoint_path configured")
        with obs.span("serve.checkpoint"):
            counters = dict(self.counters)
            counters["shed_total"] = self.shed_total()
            n = save_checkpoint(
                self.checkpoint_path,
                [s.state() for s in self.sessions()],
                counters,
                client_seqs=self._client_seq,
                hibernated_docs=[doc for shard in self._shards
                                 for doc in shard.parked_docs()],
            )
        obs.counter("repro_serve_checkpoints_total").inc()
        return n

    def _maybe_resume(self) -> None:
        if not self.checkpoint_path:
            return
        try:
            saved = load_checkpoint(self.checkpoint_path)
        except CheckpointCorruptError as exc:
            # Both generations torn/garbage: cold start, but *visibly* —
            # a clinical monitor must never lose state in silence.
            obs.counter("repro_serve_checkpoint_corrupt_total").inc()
            obs.event("serve.checkpoint.corrupt",
                      path=str(self.checkpoint_path), error=str(exc))
            return
        except ServeError:
            return  # no checkpoint at all: genuine cold start
        if saved.get("fallback"):
            # The live file was torn mid-write; the previous good
            # generation carried the restore.  Count the corruption.
            obs.counter("repro_serve_checkpoint_corrupt_total").inc()
            obs.event("serve.checkpoint.fallback",
                      path=str(self.checkpoint_path),
                      reason=saved.get("fallback_reason", ""))
        resumed = 0
        for state, doc in zip(saved["sessions"], saved["documents"]):
            user_id = state["user_id"]
            shard = self.shard_for(user_id)
            if state.get("hibernated"):
                # A hibernated session stays cold across the restart: its
                # validated document goes straight back to the shard's
                # compressed store, as is — no engine is materialised
                # until the user's next report.
                shard.adopt_hibernated(user_id, doc)
            else:
                shard.session_for(user_id).restore(state)
            resumed += len(state["batch"])
        for key in ("frames_total", "reports_total", "reconnects_total",
                    "seq_filtered_total"):
            self.counters[key] = int(saved["counters"].get(key, 0))
        self.counters["resumed_reports"] = resumed
        # The duplicate-filter watermarks rewind exactly as far as the
        # session state does (same document), so a client resending from
        # its last acked position reconstructs the stream exactly once.
        self._client_seq = dict(saved.get("client_seqs", {}))
        self._seen_clients.update(self._client_seq)
        obs.event("serve.resume", sessions=len(saved["sessions"]),
                  reports=resumed, clients=len(self._client_seq))

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval_s)
            self.checkpoint_now()

    # ------------------------------------------------------------------
    # Idle hibernation
    # ------------------------------------------------------------------
    def hibernate_idle_now(self) -> int:
        """One idle sweep across every shard; returns sessions parked."""
        parked = sum(shard.hibernate_idle() for shard in self._shards)
        if parked:
            obs.event("serve.idle_sweep", hibernated=parked,
                      resident=self.resident_count(),
                      cold=self.hibernated_count())
        return parked

    async def _idle_sweep_loop(self) -> None:
        # Sweeping at half the idle threshold bounds hibernation lag to
        # 1.5x idle_after_s while keeping the sweep off the hot path.
        interval = max(0.05, self.config.idle_after_s / 2.0)
        while True:
            await asyncio.sleep(interval)
            self.hibernate_idle_now()

    # ------------------------------------------------------------------
    # Fabric control: heartbeat and shard migration
    # ------------------------------------------------------------------
    def _pong(self, ping: Dict[str, Any]) -> Dict[str, Any]:
        """The heartbeat reply (echoes the ping's nonce + health stats)."""
        self.last_ping_monotonic = time.monotonic()
        reply: Dict[str, Any] = {
            "type": "pong",
            "nonce": ping.get("nonce"),
            "sessions": self.session_count(),
            "reports_total": self.counters["reports_total"],
            "shed_total": self.shed_total(),
            "draining": self._draining,
        }
        if ping.get("detail"):
            reply["user_ids"] = sorted(
                uid for shard in self._shards for uid in shard.user_ids())
        return reply

    async def migrate_out(self, user_ids: List[int]) -> List[Dict[str, Any]]:
        """Drain and detach the named users' sessions; returns their state.

        The owning shards' queues are drained first so the snapshot is
        consistent (every accepted report is inside the state), then the
        sessions are removed — subsequent reports for these users would
        open *fresh* sessions, so the router must have stopped sending
        them here before asking.  The returned documents are exactly the
        checkpoint session schema (``session_state_to_doc``): migration
        is a targeted checkpoint whose storage is the wire.
        """
        owning = {self.shard_for(uid).index for uid in user_ids}
        for index in sorted(owning):
            await self._shards[index].drain()
        docs = []
        for uid in sorted(set(user_ids)):
            shard = self.shard_for(uid)
            session = shard.remove_session(uid)
            if session is not None:
                docs.append(session_state_to_doc(session.state()))
                continue
            # A hibernated user migrates as their parked document — a
            # few KB of compressed state, never inflated into an engine.
            doc = shard.pop_parked(uid)
            if doc is not None:
                docs.append(doc)
        self.counters["migrated_out_total"] += len(docs)
        obs.counter("repro_serve_migrated_sessions_total",
                    direction="out").inc(len(docs))
        return docs

    def migrate_in(self, docs: List[Dict[str, Any]]) -> int:
        """Restore migrated session documents into this server.

        Raises:
            CheckpointCorruptError: when a document is malformed (the
                connection handler answers a protocol error; nothing is
                partially restored from the bad document).
        """
        count = 0
        for doc in docs:
            state = session_state_from_doc(doc)  # validates either kind
            uid = state["user_id"]
            if state.get("hibernated"):
                self.shard_for(uid).adopt_hibernated(
                    uid, current_session_doc(doc, state))
            else:
                self.shard_for(uid).session_for(uid).restore(state)
            count += 1
        self.counters["migrated_in_total"] += count
        obs.counter("repro_serve_migrated_sessions_total",
                    direction="in").inc(count)
        return count

    # ------------------------------------------------------------------
    # Estimate fan-out
    # ------------------------------------------------------------------
    def _publish(self, message: Dict[str, Any]) -> None:
        obs.counter("repro_serve_estimates_total").inc()
        user_id = int(message.get("user_id", -1))
        for watcher in self._watchers:
            if watcher.wants(user_id):
                watcher.offer(message)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.counters["connections_total"] += 1
        obs.counter("repro_serve_connections_total").inc()
        gauge = obs.gauge("repro_serve_active_connections")
        gauge.inc()
        peer = writer.get_extra_info("peername")
        obs.event("serve.connection.open", peer=str(peer))
        decoder = FrameDecoder()
        role = "ingest"
        watcher: Optional[_Watcher] = None
        write_task: Optional[asyncio.Task] = None
        received = 0
        try:
            hello = await self._read_one(reader, decoder)
            if hello is None or hello.get("type") != "hello":
                raise ProtocolError("first frame must be 'hello'")
            role = hello.get("role", "ingest")
            if role not in ("ingest", "watch"):
                raise ProtocolError(f"unknown role {hello.get('role')!r}")
            frames = negotiate_frames(hello.get("frames"))
            client_id = hello.get("client_id")
            if not isinstance(client_id, str):
                client_id = None
            else:
                if client_id in self._seen_clients:
                    self.counters["reconnects_total"] += 1
                    obs.counter("repro_serve_reconnects_total").inc()
                self._seen_clients.add(client_id)
            writer.write(encode_frame({
                "type": "welcome", "version": PROTOCOL_VERSION,
                "role": role,
                "frames": list(frames),
                "draining": self._draining,
                # Idempotent resume: the highest report sequence this
                # client_id got through before (0 = nothing / unknown),
                # so a reconnecting sender knows where to resend from.
                "last_seq": self._client_seq.get(client_id, 0)
                if client_id else 0,
            }))
            await writer.drain()
            if self._draining:
                return
            if role == "watch":
                watcher = _Watcher()
                self._watchers.add(watcher)
                write_task = asyncio.ensure_future(
                    self._watch_writer(writer, watcher))
            received = await self._read_loop(
                reader, writer, decoder, watcher, client_id)
        except ProtocolError as exc:
            self.counters["protocol_errors_total"] += 1
            obs.counter("repro_serve_protocol_errors_total").inc()
            try:
                writer.write(encode_frame(
                    {"type": "error", "message": str(exc)}))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished; session state survives for a reconnect
        except asyncio.CancelledError:
            pass  # server shutting down under us; fall through to cleanup
        finally:
            self._conn_tasks.discard(task)
            if watcher is not None:
                self._watchers.discard(watcher)
                watcher.offer(None)  # type: ignore[arg-type]
            if write_task is not None:
                try:
                    await write_task
                except (ConnectionError, asyncio.CancelledError):
                    pass
            gauge.inc(-1)
            obs.event("serve.connection.close", peer=str(peer),
                      role=role, reports=received)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _read_one(self, reader: asyncio.StreamReader,
                        decoder: FrameDecoder) -> Optional[Dict[str, Any]]:
        """Read exactly one message (None on clean EOF before a frame)."""
        while True:
            messages = decoder.feed(b"")
            if messages:
                return messages[0]
            data = await reader.read(_READ_CHUNK)
            if not data:
                return None
            messages = decoder.feed(data)
            if messages:
                # At the handshake stage more than one frame in flight is
                # a client racing ahead of negotiation; push extras back.
                if len(messages) > 1:
                    raise ProtocolError(
                        "client must wait for 'welcome' before streaming")
                return messages[0]

    async def _read_loop(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         decoder: FrameDecoder,
                         watcher: Optional[_Watcher],
                         client_id: Optional[str] = None) -> int:
        received = 0
        touched: Set[int] = set()
        while True:
            data = await reader.read(_READ_CHUNK)
            if not data:
                return received
            for message in decoder.feed(data):
                self.counters["frames_total"] += 1
                obs.counter("repro_serve_frames_total").inc()
                mtype = message.get("type")
                if mtype == "report_batch":
                    batch = message["batch"]
                    n = len(batch)
                    if n == 0:
                        continue
                    received += n
                    seqs = message.get("seqs")
                    if seqs is not None and client_id is not None:
                        last = self._client_seq.get(client_id, 0)
                        keep = seqs > last
                        dropped = int(n - int(keep.sum()))
                        if dropped:
                            self.counters["seq_filtered_total"] += dropped
                            obs.counter(
                                "repro_serve_seq_filtered_total").inc(dropped)
                        self._client_seq[client_id] = max(
                            last, int(seqs.max()))
                        if dropped == n:
                            continue
                        if dropped:
                            batch = batch.select(keep)
                    shard = None
                    for _uid, sub in batch.split_by_user():
                        shard = self.shard_for(_uid)
                        shard.submit_batch(sub)
                        touched.add(shard.index)
                    self.counters["reports_total"] += len(batch)
                    if received // ACK_EVERY > (received - n) // ACK_EVERY:
                        writer.write(encode_frame({
                            "type": "ack", "received": received,
                            "shed_total": self.shed_total(),
                            "backlog": shard.backlog if shard else 0,
                        }))
                        await writer.drain()
                    for index in sorted(touched):
                        if self._shards[index].over_high:
                            await self._shards[index].wait_below_low()
                elif mtype == "ping":
                    writer.write(encode_frame(
                        self._pong(message)))
                    await writer.drain()
                elif mtype == "migrate_out":
                    docs = await self.migrate_out(
                        [int(u) for u in message.get("user_ids", [])])
                    writer.write(encode_frame({
                        "type": "migrated", "direction": "out",
                        "sessions": docs,
                    }))
                    await writer.drain()
                elif mtype == "migrate_in":
                    try:
                        count = self.migrate_in(
                            message.get("sessions", []))
                    except CheckpointCorruptError as exc:
                        raise ProtocolError(
                            f"bad migrate_in payload: {exc}") from exc
                    writer.write(encode_frame({
                        "type": "migrated", "direction": "in",
                        "count": count,
                    }))
                    await writer.drain()
                elif mtype == "watch":
                    if watcher is None:
                        raise ProtocolError(
                            "'watch' requires role=watch in hello")
                    user_id = message.get("user_id")
                    if user_id is None:
                        watcher.user_ids = None
                    else:
                        if watcher.user_ids is None:
                            watcher.user_ids = set()
                        watcher.user_ids.add(int(user_id))
                elif mtype == "unwatch":
                    if watcher is not None and watcher.user_ids is not None:
                        watcher.user_ids.discard(
                            int(message.get("user_id", -1)))
                elif mtype == "flush":
                    for index in sorted(touched) or range(len(self._shards)):
                        await self._shards[index].drain()
                    writer.write(encode_frame({
                        "type": "flushed", "received": received,
                        "shed_total": self.shed_total(),
                    }))
                    await writer.drain()
                elif mtype == "bye":
                    return received
                elif mtype == "hello":
                    raise ProtocolError("duplicate hello")
                else:
                    raise ProtocolError(f"unknown message type {mtype!r}")

    async def _watch_writer(self, writer: asyncio.StreamWriter,
                            watcher: _Watcher) -> None:
        """Stream estimate messages to a watcher as JSONL text lines."""
        while True:
            message = await watcher.queue.get()
            if message is None:
                return
            line = json.dumps(message, separators=(",", ":"),
                              sort_keys=True) + "\n"
            try:
                writer.write(line.encode("utf-8"))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                return
