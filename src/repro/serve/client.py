"""Clients for the streaming ingest service: replay (load) and watch.

:class:`IngestClient` speaks the framed side of the protocol and doubles
as the **load generator**: :meth:`IngestClient.replay` streams a recorded
capture — simulated via :func:`repro.sim.trace_io.save_trace_csv` or
recorded from hardware — at 1x wall-clock real time, Nx accelerated, or
``speed=0`` (as fast as the server's backpressure admits).  Inter-report
gaps are honoured relative to the capture's own timestamps, so a 5-user
60 s capture at ``speed=4`` takes ~15 s and arrives with realistic
burst structure instead of a single blast.

Failure behaviour is part of the contract (the fabric's chaos suite
exercises every clause):

* **deadlines** — connects and reads carry timeouts; a dead or
  partitioned server raises :class:`~repro.errors.ServeTimeoutError`
  instead of blocking the caller forever;
* **bounded retry** — with a ``client_id``, :meth:`IngestClient.replay`
  rides through server restarts: each disconnect triggers a
  reconnect loop with exponential backoff and jitter
  (:class:`~repro.serve.retry.RetryPolicy`), bounded so an unreachable
  server becomes an error, not a hang;
* **idempotent resume** — reports are stamped with per-client sequence
  numbers; on reconnect the server's ``welcome`` answers ``last_seq``
  (the highest sequence it has accepted, surviving its own
  checkpoint/restore) and the client resends exactly from there, so a
  worker restart duplicates nothing and loses nothing the checkpoint
  covered.

:func:`watch_estimates` is the subscription side: an async iterator over
the server's JSONL estimate stream for one user (or all users).

Synchronous convenience wrappers (:func:`replay_trace`,
:func:`collect_estimates`) run the event loop internally for scripts,
examples, and the ``repro replay`` / ``repro watch`` CLI commands.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import (
    AsyncIterator,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import ProtocolError, ServeError, ServeTimeoutError
from ..reader.batch import ReportBatch
from ..reader.tagreport import TagReport
from .protocol import FrameDecoder, encode_column_frame, encode_frame
from .retry import DEFAULT_RETRY, RetryPolicy

#: How many reports to coalesce into one column frame.
_COLUMN_BATCH = 256

#: Default deadline for opening a connection + handshake reads.
DEFAULT_CONNECT_TIMEOUT_S = 10.0

#: Default deadline for any single awaited reply (ack/flush/pong).  A
#: healthy server answers a flush as fast as it can ingest the backlog,
#: so a minute of silence means dead, not slow.
DEFAULT_READ_TIMEOUT_S = 60.0


@dataclass
class ReplayStats:
    """What one replay run delivered.

    Attributes:
        sent: reports written to the wire (this call; resends included).
        acked: reports the server acknowledged (from its last ack).
        shed_total: server-side shed counter at the last ack/flush.
        wall_s: wall-clock seconds the replay took.
        retries: reconnect attempts the replay survived.
        resumed_skipped: reports skipped up front because the server's
            ``last_seq`` said a previous incarnation already delivered
            them (idempotent resume).
        bytes_sent: report payload bytes written (framed; excludes
            control messages) — the wire-efficiency numerator.
    """

    sent: int = 0
    acked: int = 0
    shed_total: int = 0
    wall_s: float = 0.0
    retries: int = 0
    resumed_skipped: int = 0
    bytes_sent: int = 0
    errors: List[str] = field(default_factory=list)


class IngestClient:
    """A framed ingest connection to a :class:`~repro.serve.server.BreathServer`.

    Args:
        host / port: server address.
        frames: binary frame kinds to request in the handshake; must
            include ``"column"``, the only report format, and
            :meth:`connect` fails when the server does not grant it.
            :meth:`replay` coalesces reports into column frames.
        client_id: stable identity string; enables idempotent resume
            (sequence numbering + ``last_seq``) and makes reconnects
            under the same id tick ``repro_serve_reconnects_total``.
        connect_timeout_s: deadline for TCP connect + handshake
            (None = wait forever, the pre-timeout behaviour).
        read_timeout_s: deadline for any single awaited reply
            (None = wait forever).
        retry: reconnect backoff schedule for :meth:`replay`'s
            ride-through behaviour.
        retry_seed: seeds the backoff jitter (tests/chaos determinism).
        endpoints: alternative servers for the same fabric (e.g. the
            primary and standby routers, from
            :func:`~repro.serve.statefiles.fabric_endpoints`).  Each
            failed stretch of a resumable replay rotates to the next
            endpoint before reconnecting, so a router death rides onto
            its peer without operator action; sequence watermarks make
            the handoff idempotent.  When given, ``host``/``port`` may
            be omitted (the first endpoint is the starting point).
    """

    def __init__(self, host: Optional[str] = None,
                 port: Optional[int] = None,
                 frames: Sequence[str] = ("column",),
                 client_id: Optional[str] = None,
                 connect_timeout_s: Optional[float]
                 = DEFAULT_CONNECT_TIMEOUT_S,
                 read_timeout_s: Optional[float] = DEFAULT_READ_TIMEOUT_S,
                 retry: RetryPolicy = DEFAULT_RETRY,
                 retry_seed: Optional[int] = None,
                 endpoints: Optional[Sequence[Tuple[str, int]]] = None
                 ) -> None:
        if endpoints:
            self._endpoints: List[Tuple[str, int]] = [
                (str(h), int(p)) for h, p in endpoints]
        elif host is not None and port is not None:
            self._endpoints = [(host, int(port))]
        else:
            raise ValueError("IngestClient needs host+port or endpoints")
        if "column" not in frames:
            raise ValueError(
                f"frames must include 'column', the only report format "
                f"(got {tuple(frames)!r})")
        self._endpoint_index = 0
        self.host, self.port = self._endpoints[0]
        self.requested_frames = tuple(frames)
        #: Frame kinds the server granted (from welcome; empty pre-connect).
        self.frames: tuple = ()
        self.client_id = client_id
        self.connect_timeout_s = connect_timeout_s
        self.read_timeout_s = read_timeout_s
        self.retry = retry
        self.retry_seed = retry_seed
        #: Highest sequence the server reported accepted (from welcome).
        self.last_seq = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._decoder = FrameDecoder()
        self._inbox: List[Dict] = []
        self._nonce = 0

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> Dict:
        """Open the connection and complete the hello/welcome handshake.

        Returns:
            The server's ``welcome`` message (``last_seq`` is also kept
            on :attr:`last_seq`).

        Raises:
            ServeError: when the server rejects the handshake or does
                not accept column frames.
            ServeTimeoutError: when connect or the handshake reply
                exceeds ``connect_timeout_s``.
        """
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.connect_timeout_s)
        except asyncio.TimeoutError:
            raise ServeTimeoutError(
                f"connect to {self.host}:{self.port} timed out after "
                f"{self.connect_timeout_s}s") from None
        self._decoder = FrameDecoder()
        self._inbox = []
        try:
            hello = {"type": "hello", "role": "ingest",
                     "frames": list(self.requested_frames)}
            if self.client_id is not None:
                hello["client_id"] = self.client_id
            self._writer.write(encode_frame(hello))
            await self._writer.drain()
            welcome = await self._read_message(
                timeout=self.connect_timeout_s)
            if welcome is None or welcome.get("type") != "welcome":
                raise ServeError(f"handshake failed: {welcome!r}")
            if "column" not in (welcome.get("frames") or ()):
                raise ServeError(
                    f"server at {self.host}:{self.port} does not accept "
                    f"column frames: {welcome!r}")
        except BaseException:
            # A failed handshake must not leave a half-open connection
            # behind: `connected` stays False and retry loops reconnect
            # from a clean slate.
            await self._teardown()
            raise
        self.frames = tuple(welcome["frames"])
        self.last_seq = int(welcome.get("last_seq", 0))
        return welcome

    @property
    def connected(self) -> bool:
        """True while a connection is open."""
        return self._writer is not None

    @property
    def endpoints(self) -> Tuple[Tuple[str, int], ...]:
        """Every endpoint this client rotates across."""
        return tuple(self._endpoints)

    def rotate_endpoint(self) -> Tuple[str, int]:
        """Advance to the next endpoint (round-robin); returns it.

        A no-op with a single endpoint.  Resumable replays call this
        after every failed stretch so a dead router's clients converge
        on its standby within one retry delay.
        """
        self._endpoint_index = ((self._endpoint_index + 1)
                                % len(self._endpoints))
        self.host, self.port = self._endpoints[self._endpoint_index]
        return self.host, self.port

    async def _read_message(self, timeout: Optional[float] = "unset"
                            ) -> Optional[Dict]:
        if timeout == "unset":
            timeout = self.read_timeout_s
        if self._inbox:
            return self._inbox.pop(0)
        while True:
            try:
                data = await asyncio.wait_for(
                    self._reader.read(1 << 16), timeout=timeout)
            except asyncio.TimeoutError:
                raise ServeTimeoutError(
                    f"no reply from {self.host}:{self.port} within "
                    f"{timeout}s") from None
            if not data:
                return None
            messages = self._decoder.feed(data)
            if messages:
                self._inbox.extend(messages[1:])
                return messages[0]

    def _drain_inbox_nowait(self) -> List[Dict]:
        """Decode any already-received frames without blocking."""
        messages = list(self._inbox)
        self._inbox.clear()
        return messages

    async def _teardown(self) -> None:
        """Drop the connection state without a polite bye (it's dead)."""
        writer, self._writer, self._reader = self._writer, None, None
        self._inbox = []
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    async def send_message(self, message: Dict) -> None:
        """Send one raw protocol message (fabric control plumbing)."""
        self._writer.write(encode_frame(message))
        await self._writer.drain()

    def write_frame(self, data: bytes) -> None:
        """Buffer one pre-encoded frame (column-frame fan-out path).

        The bytes must already carry their length prefix — the output of
        :func:`~repro.serve.protocol.encode_frame` or
        :func:`~repro.serve.protocol.encode_column_frame`.

        Raises:
            ConnectionResetError: the transport is already closing —
                surfaced here so a dead link fails fast instead of
                buffering into a closed socket.
        """
        if self._writer is None or self._writer.is_closing():
            raise ConnectionResetError("link transport is closed")
        self._writer.write(data)

    def _flush_column(self, batch: ReportBatch, lo: int, hi: int,
                      stats: ReplayStats) -> None:
        """Send ``batch[lo:hi]`` as one column frame (no-op when empty).

        With a ``client_id`` the rows carry their sequence numbers
        ``lo + 1 .. hi``.
        """
        if hi <= lo:
            return
        seqs = None
        if self.client_id is not None:
            seqs = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        data = encode_column_frame(batch[lo:hi], seqs)
        self._writer.write(data)
        stats.bytes_sent += len(data)
        stats.sent += hi - lo

    async def drain(self) -> None:
        """Flush buffered writes; blocks under transport backpressure."""
        await self._writer.drain()

    async def _await_type(self, wanted: str,
                          stats: Optional[ReplayStats] = None) -> Dict:
        """Read until a message of ``wanted`` type arrives.

        Acks (and other interleaved traffic) are absorbed into ``stats``
        when given; an ``error`` message raises ProtocolError; EOF
        raises ServeError.
        """
        while True:
            message = await self._read_message()
            if message is None:
                raise ServeError(
                    f"connection closed awaiting {wanted!r}")
            mtype = message.get("type")
            if mtype == wanted:
                return message
            if mtype == "error":
                raise ProtocolError(str(message.get("message")))
            if stats is not None:
                self._absorb(message, stats)

    # ------------------------------------------------------------------
    # Control verbs (heartbeats, migration) — the fabric's plumbing
    # ------------------------------------------------------------------
    async def ping(self, detail: bool = False) -> Dict:
        """Health probe: returns the server's ``pong`` (session counts).

        Raises:
            ServeTimeoutError: no pong within ``read_timeout_s`` — the
                heartbeat miss signal the supervisor acts on.
        """
        self._nonce += 1
        await self.send_message({"type": "ping", "nonce": self._nonce,
                                 "detail": bool(detail)})
        while True:
            pong = await self._await_type("pong")
            if pong.get("nonce") == self._nonce:
                return pong

    async def migrate_out(self, user_ids: Sequence[int]) -> List[Dict]:
        """Ask the server to drain+detach these users; returns state docs."""
        await self.send_message({"type": "migrate_out",
                                 "user_ids": [int(u) for u in user_ids]})
        reply = await self._await_type("migrated")
        return list(reply.get("sessions", []))

    async def migrate_in(self, sessions: List[Dict]) -> int:
        """Restore migrated session documents onto the server."""
        await self.send_message({"type": "migrate_in",
                                 "sessions": list(sessions)})
        reply = await self._await_type("migrated")
        return int(reply.get("count", 0))

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    async def replay(self, reports: Iterable[TagReport],
                     speed: float = 1.0,
                     progress: Optional[Callable[[int], None]] = None,
                     ) -> ReplayStats:
        """Stream a capture, pacing inter-report gaps by ``speed``.

        With a ``client_id`` the replay is **restart-proof**: every
        report carries a sequence number, and a dropped connection is
        retried with backoff; on reconnect the server's ``last_seq``
        says exactly where to resume, so a server/worker restart in the
        middle of a replay neither duplicates nor silently loses
        reports (only data the server's checkpoint never covered is
        re-sent).  Without a ``client_id`` the pre-fabric behaviour is
        kept: a connection error propagates to the caller.

        Args:
            reports: timestamp-ordered reports (a recorded capture).
            speed: time acceleration; 1.0 = real time, 4.0 = 4x, 0 = no
                pacing (as fast as backpressure admits).
            progress: optional callback invoked with the running sent
                count after every write batch.

        Returns:
            ReplayStats (the server's shed counter is read back from the
            terminating ``flushed`` barrier, so `shed_total` is exact).

        Raises:
            ServeError: when the connection was never opened, or the
                reconnect budget was exhausted mid-replay.
            ServeTimeoutError: a reply deadline expired with no retry
                budget left.
        """
        if self._writer is None:
            raise ServeError("connect() before replay()")
        loop = asyncio.get_event_loop()
        t_start = loop.time()
        stats = ReplayStats()
        await self._replay(ReportBatch.from_reports(reports), speed,
                           progress, stats)
        stats.wall_s = loop.time() - t_start
        return stats

    async def _replay(self, batch: ReportBatch, speed: float,
                      progress: Optional[Callable[[int], None]],
                      stats: ReplayStats) -> None:
        """Stream ``batch`` as column frames of up to ``_COLUMN_BATCH`` rows.

        With a ``client_id``, row ``i`` carries ``seq = i + 1`` and
        a dropped connection is retried; the resume index always comes
        from the server's ``last_seq``, so the loop converges no matter
        how far a restarted server's checkpoint rewound.  Without one,
        the rows carry no seqs and a connection error propagates.
        """
        times = batch.t.tolist()
        index = min(self.last_seq, len(times))
        stats.resumed_skipped = index
        delays = None  # reset after any progress; built lazily on failure
        progressed_at = index
        while True:
            try:
                if not self.connected:
                    await self.connect()
                    index = min(self.last_seq, len(times))
                prev_t: Optional[float] = None
                pending = 0
                first = index  # first row not yet sent
                while index < len(times):
                    t = times[index]
                    if speed > 0 and prev_t is not None:
                        gap = (t - prev_t) / speed
                        if gap > 0:
                            self._flush_column(batch, first, index, stats)
                            first = index
                            await asyncio.sleep(gap)
                    prev_t = t
                    if self._writer.is_closing():
                        raise ConnectionResetError(
                            "server closed the connection")
                    index += 1
                    pending += 1
                    if pending >= _COLUMN_BATCH:
                        self._flush_column(batch, first, index, stats)
                        first = index
                        await self._writer.drain()
                        pending = 0
                        if progress is not None:
                            progress(stats.sent)
                        for message in self._drain_inbox_nowait():
                            self._absorb(message, stats)
                self._flush_column(batch, first, index, stats)
                await self._writer.drain()
                flushed = await self.flush()
                if flushed is not None:
                    self._absorb(flushed, stats)
                return
            except (ConnectionError, ServeTimeoutError, OSError,
                    asyncio.IncompleteReadError) as exc:
                if self.client_id is None:
                    raise
                await self._teardown()
                if len(self._endpoints) > 1:
                    self.rotate_endpoint()
                if index > progressed_at:
                    delays = None  # made progress: fresh retry budget
                    progressed_at = index
                if delays is None:
                    delays = self.retry.delays(seed=self.retry_seed)
                try:
                    delay = next(delays)
                except StopIteration:
                    raise ServeError(
                        f"replay retry budget exhausted "
                        f"({self.retry.max_attempts} attempts) talking "
                        f"to {self.host}:{self.port}: {exc}") from exc
                stats.retries += 1
                stats.errors.append(f"reconnect after: {exc}")
                await asyncio.sleep(delay)

    def _absorb(self, message: Dict, stats: ReplayStats) -> None:
        mtype = message.get("type")
        if mtype in ("ack", "flushed"):
            stats.acked = max(stats.acked, int(message.get("received", 0)))
            stats.shed_total = int(message.get("shed_total", 0))
        elif mtype == "error":
            stats.errors.append(str(message.get("message")))

    async def flush(self) -> Optional[Dict]:
        """Barrier: wait until the server has ingested everything sent.

        Returns:
            The server's ``flushed`` message (None on connection loss).

        Raises:
            ServeTimeoutError: no ``flushed`` within ``read_timeout_s``.
        """
        self._writer.write(encode_frame({"type": "flush"}))
        await self._writer.drain()
        while True:
            message = await self._read_message()
            if message is None:
                return None
            if message.get("type") == "flushed":
                return message
            if message.get("type") == "error":
                raise ProtocolError(str(message.get("message")))
            # acks racing the flush barrier are absorbed silently

    async def close(self, polite: bool = True) -> None:
        """Close the connection (``polite`` sends ``bye`` first)."""
        if self._writer is None:
            return
        if polite:
            try:
                self._writer.write(encode_frame({"type": "bye"}))
                await self._writer.drain()
            except (ConnectionError, OSError):
                pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        self._writer = None
        self._reader = None


async def watch_estimates(host: str, port: int,
                          user_id: Optional[int] = None,
                          connect_timeout_s: Optional[float]
                          = DEFAULT_CONNECT_TIMEOUT_S,
                          read_timeout_s: Optional[float] = None,
                          ) -> AsyncIterator[Dict]:
    """Subscribe to a server's estimate stream; yields estimate dicts.

    The iterator ends when the server drains (a ``draining`` message) or
    the connection closes.  ``user_id=None`` subscribes to every user.

    Args:
        connect_timeout_s: deadline for connect + handshake; a dead
            server raises :class:`~repro.errors.ServeTimeoutError`
            instead of blocking forever.
        read_timeout_s: optional per-estimate idle deadline (None =
            wait indefinitely between estimates, the default — estimate
            cadence is workload-defined).
    """
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=connect_timeout_s)
    except asyncio.TimeoutError:
        raise ServeTimeoutError(
            f"connect to {host}:{port} timed out after "
            f"{connect_timeout_s}s") from None
    decoder = FrameDecoder()

    async def _read(n: int, timeout: Optional[float]) -> bytes:
        try:
            return await asyncio.wait_for(reader.read(n), timeout=timeout)
        except asyncio.TimeoutError:
            raise ServeTimeoutError(
                f"no data from {host}:{port} within {timeout}s") from None

    async def _readline(timeout: Optional[float]) -> bytes:
        try:
            return await asyncio.wait_for(reader.readline(),
                                          timeout=timeout)
        except asyncio.TimeoutError:
            raise ServeTimeoutError(
                f"no estimate from {host}:{port} within {timeout}s"
            ) from None

    try:
        writer.write(encode_frame({"type": "hello", "role": "watch"}))
        watch: Dict = {"type": "watch"}
        if user_id is not None:
            watch["user_id"] = int(user_id)
        # Wait for welcome (framed), then subscribe; everything after
        # arrives as JSONL text lines.
        welcome = None
        while welcome is None:
            data = await _read(1 << 16, connect_timeout_s)
            if not data:
                return
            messages = decoder.feed(data)
            if messages:
                welcome = messages[0]
        if welcome.get("type") != "welcome":
            raise ServeError(f"handshake failed: {welcome!r}")
        writer.write(encode_frame(watch))
        await writer.drain()
        while True:
            line = await _readline(read_timeout_s)
            if not line:
                return
            message = json.loads(line)
            if message.get("type") == "draining":
                return
            if message.get("type") == "estimate":
                yield message
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError, OSError):
            pass


# ----------------------------------------------------------------------
# Synchronous conveniences (scripts, examples, CLI)
# ----------------------------------------------------------------------
def replay_trace(source: Union[str, Sequence[TagReport]],
                 host: str, port: int, speed: float = 1.0,
                 client_id: Optional[str] = None) -> ReplayStats:
    """Replay a capture file (CSV/JSONL) or report list synchronously.

    The blocking face of :meth:`IngestClient.replay` for scripts and the
    ``repro replay`` CLI command.
    """
    if isinstance(source, str):
        from ..sim.trace_io import load_trace

        reports: Sequence[TagReport] = load_trace(source)
    else:
        reports = source

    async def _run() -> ReplayStats:
        client = IngestClient(host, port, client_id=client_id)
        await client.connect()
        try:
            return await client.replay(reports, speed=speed)
        finally:
            await client.close()

    return asyncio.run(_run())


def collect_estimates(host: str, port: int, user_id: Optional[int] = None,
                      limit: Optional[int] = None,
                      timeout_s: Optional[float] = None) -> List[Dict]:
    """Gather estimate messages synchronously (testing/scripting aid).

    Stops after ``limit`` estimates, at server drain, or after
    ``timeout_s`` of total wall time, whichever comes first.
    """

    async def _run() -> List[Dict]:
        collected: List[Dict] = []

        async def _consume() -> None:
            async for message in watch_estimates(host, port, user_id):
                collected.append(message)
                if limit is not None and len(collected) >= limit:
                    return

        try:
            if timeout_s is not None:
                await asyncio.wait_for(_consume(), timeout=timeout_s)
            else:
                await _consume()
        except asyncio.TimeoutError:
            pass
        return collected

    return asyncio.run(_run())
