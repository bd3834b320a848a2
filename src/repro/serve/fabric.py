"""The multi-process serving fabric: router + supervised worker fleet.

:class:`BreathFabric` scales the single-process
:class:`~repro.serve.server.BreathServer` out to N supervised worker
*processes* behind one TCP front door.  The router speaks the same
framed protocol as a plain server — an :class:`IngestClient` cannot
tell the difference — splits each column frame of reports by owning
worker, consistent-hashing every ``user_id``
(:mod:`repro.serve.hashring`) onto the worker that owns that user's
session.  Each worker is a full BreathServer shard with its own atomic
checkpoint; the :class:`~repro.serve.supervisor.Supervisor` heartbeats
the fleet and restarts any worker that crashes or wedges, and the
restarted incarnation resumes its sessions from checkpoint, bit-exact.

**The recovery contract is end-to-end and client-driven.**  The router
keeps no report state: when a worker link dies mid-stream, the router
*drops the downstream connection on purpose*.  The ingest client's
bounded retry reconnects, the new handshake's ``last_seq`` answers the
*minimum* accepted sequence across workers — i.e. how far the most
rewound worker (the one restarted from checkpoint) actually got — and
the client resends from there.  Workers that never crashed silently
drop the already-accepted resends via the per-client sequence filter,
so the stream is reconstructed exactly once everywhere.  The engine's
duplicate/late drop accounting remains the backstop for the paths the
sequence filter cannot see (a router restart under a *new* client id),
so even then loss is bounded and *counted*, never silent.

**Rebalancing** (:meth:`BreathFabric.add_worker` /
:meth:`BreathFabric.remove_worker`) is checkpoint-based shard
migration: routing pauses (a barrier every in-flight connection
respects), per-route links flush so the workers' queues are quiescent,
the minimal set of users whose ring arc moved is ``migrate_out`` /
``migrate_in``-ed between live workers, then routing resumes against
the new ring.  Consistent hashing keeps that moved set ~1/N of users.

Operational metrics (router process):
``repro_fabric_routed_reports_total``, ``repro_fabric_worker_restarts_total``,
``repro_fabric_heartbeat_miss_total``, ``repro_fabric_migration_seconds``,
``repro_fabric_link_failures_total``, ``repro_fabric_rebalances_total``.
See docs/SERVING.md's failure-modes matrix for what each failure looks
like and recovers as.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

import numpy as np

from .. import obs
from ..errors import (
    FabricError,
    ProtocolError,
    ServeError,
    ServeTimeoutError,
)
from .client import IngestClient, watch_estimates
from .hashring import HashRing
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_column_frame,
    encode_frame,
    negotiate_frames,
)
from .retry import RESPAWN_RETRY
from .server import ACK_EVERY
from .statefiles import (read_state_doc, remove_state_doc,
                         router_addr_path, supervisor_addr_path,
                         write_state_doc)
from .supervisor import FabricConfig, Supervisor
from .worker import control_rpc

#: Socket read chunk size (same as the single-process server).
_READ_CHUNK = 1 << 16

#: Exceptions that mean "this worker link is gone" — the handler drops
#: the downstream connection and lets client-side resume take over.
_LINK_ERRORS = (ConnectionError, ServeTimeoutError, OSError,
                asyncio.IncompleteReadError, FabricError, ServeError)


class _Route:
    """One downstream ingest connection's routing state.

    ``lock`` serialises link use between the connection handler and a
    rebalance (which must flush every route's links while routing is
    paused); handlers only hold it while actually forwarding.
    """

    __slots__ = ("client_id", "links", "lock", "received", "shed_total",
                 "unsent")

    def __init__(self, client_id: Optional[str]) -> None:
        self.client_id = client_id
        self.links: Dict[int, IngestClient] = {}
        self.lock = asyncio.Lock()
        self.received = 0
        self.shed_total = 0
        self.unsent: Set[int] = set()  # workers with undrained writes


class BreathFabric:
    """A router + supervised worker fleet behind one ingest port.

    Args:
        state_dir: directory for worker checkpoints and the fabric's
            coordination files; restarting the whole fabric over the
            same directory resumes every worker's sessions.
        config: fleet knobs (:class:`FabricConfig`).
        host / port: the router's listen address (0 = ephemeral; read
            :attr:`port` after :meth:`start`).
        standby: warm-standby mode.  The fabric does not spawn or
            supervise anything; it mirrors the active fabric's worker
            registry from the state dir (so it routes identically — the
            ring is a pure function of the worker-id set), serves
            ingest immediately, and probes the active supervisor's
            control socket.  When the active side goes silent it
            *promotes*: takes over supervision of the fleet (adopting
            the workers through the registry), bumps the supervisor
            epoch, and carries on.  Clients ride across via endpoint
            rotation (:class:`IngestClient` ``endpoints=``) and resume
            from their sequence watermarks.
    """

    def __init__(self, state_dir: Union[str, Path],
                 config: Optional[FabricConfig] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 standby: bool = False) -> None:
        self.config = config if config is not None else FabricConfig()
        self.state_dir = Path(state_dir)
        self.host = host
        self.port = port
        self.standby = standby
        self.role = "standby" if standby else "primary"
        self.supervisor = Supervisor(state_dir, self.config)
        self.ring: Optional[HashRing] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._routes: Set[_Route] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._routing = asyncio.Event()
        self._rebalance_lock = asyncio.Lock()
        self._failover_task: Optional[asyncio.Task] = None
        self._draining = False
        self.counters: Dict[str, int] = {
            "connections_total": 0,
            "routed_reports_total": 0,
            "link_failures_total": 0,
            "rebalances_total": 0,
            "failovers_total": 0,
            "absorbed_workers_total": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn (or mirror) the fleet, build the ring, open the door."""
        if self._server is not None:
            raise FabricError("fabric already started")
        if self.standby:
            await self.supervisor.attach()
            if not self.supervisor.workers:
                raise FabricError(
                    "standby found no worker registry in "
                    f"{self.state_dir}; start the primary fabric first")
            self.supervisor.on_registry_change = self._on_registry_change
        else:
            self.supervisor.on_worker_joined = self._on_worker_joined
            await self.supervisor.start()
        self.ring = HashRing(self.supervisor.worker_ids())
        self._routing.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        write_state_doc(router_addr_path(self.state_dir, self.role), {
            "host": self.host, "port": self.port, "pid": os.getpid()})
        if self.standby:
            self._failover_task = asyncio.ensure_future(
                self._failover_monitor())
        obs.event("fabric.start", host=self.host, port=self.port,
                  role=self.role, workers=len(self.ring.workers))

    async def stop(self, graceful: bool = True) -> None:
        """Close the front door and stop the fleet.

        ``graceful`` lets workers drain and checkpoint (SIGTERM); the
        state directory then holds a complete, resumable snapshot.  A
        never-promoted standby stops only itself — the active fabric's
        fleet is not ours to kill.
        """
        self._draining = True
        self._routing.set()  # unblock handlers parked on the barrier
        if self._failover_task is not None:
            self._failover_task.cancel()
            try:
                await self._failover_task
            except asyncio.CancelledError:
                pass
            self._failover_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        remove_state_doc(router_addr_path(self.state_dir, self.role))
        pending = [t for t in self._conn_tasks if not t.done()]
        if pending:
            _done, stuck = await asyncio.wait(pending, timeout=1.0)
            for task in stuck:
                task.cancel()
            if stuck:
                await asyncio.gather(*stuck, return_exceptions=True)
        await self.supervisor.stop(graceful=graceful)
        obs.event("fabric.stop", graceful=graceful)

    # ------------------------------------------------------------------
    # Introspection / fleet-wide queries
    # ------------------------------------------------------------------
    def owner(self, user_id: int) -> int:
        """The worker id currently owning ``user_id``."""
        if self.ring is None:
            raise FabricError("fabric not started")
        return self.ring.owner(user_id)

    async def fleet_stats(self) -> Dict[str, Any]:
        """Aggregated pong across the fleet (sessions, reports, sheds)."""
        totals = {"sessions": 0, "reports_total": 0, "shed_total": 0,
                  "workers": {}}
        for worker_id in self.supervisor.worker_ids():
            pong = await self.supervisor.ping_worker(worker_id)
            totals["sessions"] += int(pong.get("sessions", 0))
            totals["reports_total"] += int(pong.get("reports_total", 0))
            totals["shed_total"] += int(pong.get("shed_total", 0))
            totals["workers"][worker_id] = pong
        return totals

    async def collect_states(self) -> List[bytes]:
        """Pull every session's record off the fleet (destructive).

        Uses ``migrate_out`` worker by worker — the sessions are
        *removed* from the workers — so this is an end-of-run harvest
        (the chaos harness's streamed-vs-batch comparison), not a probe.
        """
        records: List[bytes] = []
        for worker_id in self.supervisor.worker_ids():
            records.extend(await self.supervisor.harvest(worker_id))
        return records

    # ------------------------------------------------------------------
    # Rebalancing (membership changes)
    # ------------------------------------------------------------------
    async def add_worker(self) -> int:
        """Grow the fleet by one worker and migrate its ring arc to it.

        Returns the new worker id.  Users whose owner did not change
        are untouched (consistent hashing moves ~1/(N+1) of them).
        """
        async with self._rebalance_lock:
            new_id = await self.supervisor.add_worker()
            new_ring = self.ring.with_workers(
                self.supervisor.worker_ids())
            moved = 0
            async with self._pause_routing():
                for src in self.supervisor.worker_ids():
                    if src == new_id:
                        continue
                    users = await self.supervisor.sessions_of(src)
                    to_move = [u for u in users
                               if new_ring.owner(u) == new_id]
                    moved += await self.supervisor.migrate(
                        src, new_id, to_move)
                self.ring = new_ring
            self.counters["rebalances_total"] += 1
            obs.counter("repro_fabric_rebalances_total").inc()
            obs.event("fabric.rebalance", kind="add", worker=new_id,
                      moved=moved, workers=len(new_ring.workers))
            return new_id

    async def remove_worker(self, worker_id: int) -> int:
        """Shrink the fleet: migrate the worker's sessions away, stop it.

        Returns how many sessions moved.  The worker is only terminated
        after every one of its sessions has landed on its new owner.
        """
        async with self._rebalance_lock:
            remaining = [w for w in self.supervisor.worker_ids()
                         if w != worker_id]
            if not remaining:
                raise FabricError("cannot remove the last worker")
            new_ring = self.ring.with_workers(remaining)
            moved = 0
            async with self._pause_routing():
                users = await self.supervisor.sessions_of(worker_id)
                by_dst: Dict[int, List[int]] = {}
                for uid in users:
                    by_dst.setdefault(new_ring.owner(uid), []).append(uid)
                for dst, uids in sorted(by_dst.items()):
                    moved += await self.supervisor.migrate(
                        worker_id, dst, uids)
                self.ring = new_ring
                await self.supervisor.remove_worker(worker_id)
            self.counters["rebalances_total"] += 1
            obs.counter("repro_fabric_rebalances_total").inc()
            obs.event("fabric.rebalance", kind="remove", worker=worker_id,
                      moved=moved, workers=len(new_ring.workers))
            return moved

    # ------------------------------------------------------------------
    # Failover (standby role) and late worker joins
    # ------------------------------------------------------------------
    async def _failover_monitor(self) -> None:
        """Probe the active supervisor's control socket; promote after
        ``max_heartbeat_misses`` consecutive silent intervals.

        The address is re-read from ``supervisor.addr`` every probe, so
        the monitor follows a supervisor that restarts on a new port —
        and a *retracted* address (graceful shutdown removes the file)
        counts as a miss, because a fleet with checkpoints on disk and
        no supervisor is exactly what a warm standby exists to revive.
        """
        misses = 0
        while True:
            await asyncio.sleep(self.config.heartbeat_interval_s)
            addr = read_state_doc(supervisor_addr_path(self.state_dir))
            if (addr is not None and addr.get("port") is not None
                    and int(addr.get("pid", -1)) != os.getpid()):
                try:
                    pong = await control_rpc(
                        (str(addr.get("host", self.config.host)),
                         int(addr["port"])),
                        {"type": "ping"},
                        timeout_s=self.config.heartbeat_timeout_s)
                    if pong.get("type") == "pong":
                        misses = 0
                        continue
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    pass
            misses += 1
            obs.event("fabric.failover.miss", misses=misses)
            if misses >= self.config.max_heartbeat_misses:
                await self.promote()
                return

    async def promote(self) -> None:
        """Take over the fabric: become the supervisor of record.

        Idempotent; safe to call directly (operator-driven failover)
        or from the monitor.  After promotion this fabric heartbeats,
        restarts, and rebalances exactly like a primary — the ingest
        address does not change, so connected clients never notice.
        """
        if not self.standby:
            return
        self.standby = False
        self.counters["failovers_total"] += 1
        obs.counter("repro_fabric_failovers_total").inc()
        with obs.span("fabric.failover", role=self.role):
            self.supervisor.on_registry_change = None
            self.supervisor.on_worker_joined = self._on_worker_joined
            await self.supervisor.takeover()
            self.ring = HashRing(self.supervisor.worker_ids())
        obs.event("fabric.failover.promoted", role=self.role,
                  epoch=self.supervisor.epoch,
                  workers=len(self.ring.workers))

    def _on_registry_change(self) -> None:
        """Standby: mirror the active fabric's membership.  The ring is
        a pure function of the worker-id set, so both routers always
        agree on ownership without talking to each other."""
        ids = self.supervisor.worker_ids()
        if ids and (self.ring is None
                    or tuple(sorted(ids)) != self.ring.workers):
            self.ring = HashRing(ids)
            obs.event("fabric.ring.refresh", workers=len(ids))

    def _on_worker_joined(self, worker_id: int) -> None:
        """An unsolicited registration (remote ``--join`` or a
        rediscovered orphan): fold the newcomer into the ring."""
        asyncio.ensure_future(self._absorb_worker(worker_id))

    async def _absorb_worker(self, worker_id: int) -> None:
        """Migrate the joining worker's ring arc onto it (same dance as
        :meth:`add_worker`, minus the spawn)."""
        try:
            async with self._rebalance_lock:
                if (self.ring is not None
                        and worker_id in self.ring.workers):
                    return  # re-registration, not a membership change
                if worker_id not in self.supervisor.workers:
                    return  # removed before we got the lock
                new_ring = (self.ring.with_workers(
                    self.supervisor.worker_ids()) if self.ring is not None
                    else HashRing(self.supervisor.worker_ids()))
                moved = 0
                async with self._pause_routing():
                    for src in self.supervisor.worker_ids():
                        if src == worker_id:
                            continue
                        users = await self.supervisor.sessions_of(src)
                        to_move = [u for u in users
                                   if new_ring.owner(u) == worker_id]
                        moved += await self.supervisor.migrate(
                            src, worker_id, to_move)
                    self.ring = new_ring
                self.counters["rebalances_total"] += 1
                self.counters["absorbed_workers_total"] += 1
                obs.counter("repro_fabric_rebalances_total").inc()
                obs.event("fabric.rebalance", kind="absorb",
                          worker=worker_id, moved=moved,
                          workers=len(new_ring.workers))
        except _LINK_ERRORS as exc:
            obs.event("fabric.absorb.failed", worker=worker_id,
                      error=str(exc))

    def _pause_routing(self):
        """Context manager: barrier new forwards, quiesce in-flight ones.

        On entry routing is paused (handlers park at the barrier before
        touching links), every route's lock is taken (no forward is
        mid-write), and every route's links are flushed so the workers'
        shard queues are empty — the preconditions ``migrate_out``
        needs for a consistent snapshot.  On exit routing resumes.
        """
        fabric = self

        class _Pause:
            def __init__(self) -> None:
                self.held: List[_Route] = []

            async def __aenter__(self) -> None:
                fabric._routing.clear()
                for route in list(fabric._routes):
                    await route.lock.acquire()
                    self.held.append(route)
                for route in self.held:
                    for worker_id, link in list(route.links.items()):
                        if not link.connected:
                            continue
                        try:
                            await link.drain()
                            await link.flush()
                            route.unsent.discard(worker_id)
                        except _LINK_ERRORS:
                            # A dying link here is the worker-crash path;
                            # the handler will notice and drop downstream.
                            pass

            async def __aexit__(self, *exc) -> None:
                for route in self.held:
                    route.lock.release()
                fabric._routing.set()

        return _Pause()

    # ------------------------------------------------------------------
    # Connection handling (the router data plane)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.counters["connections_total"] += 1
        obs.counter("repro_fabric_connections_total").inc()
        peer = writer.get_extra_info("peername")
        decoder = FrameDecoder()
        route: Optional[_Route] = None
        try:
            hello = await self._read_one(reader, decoder)
            if hello is None or hello.get("type") != "hello":
                raise ProtocolError("first frame must be 'hello'")
            role = hello.get("role", "ingest")
            client_id = hello.get("client_id")
            if not isinstance(client_id, str):
                client_id = None
            if role == "watch":
                await self._serve_watch(reader, writer, decoder)
                return
            if role != "ingest":
                raise ProtocolError(f"unknown role {hello.get('role')!r}")
            frames = negotiate_frames(hello.get("frames"))
            route = _Route(client_id)
            # Eager links when resuming matters: the welcome's last_seq
            # must answer the most-rewound worker's watermark, which
            # requires asking all of them before streaming starts.
            last_seq = 0
            if client_id is not None:
                seqs = []
                for worker_id in self.supervisor.worker_ids():
                    link = await self._link(route, worker_id)
                    seqs.append(link.last_seq)
                last_seq = min(seqs) if seqs else 0
            self._routes.add(route)
            writer.write(encode_frame({
                "type": "welcome", "version": PROTOCOL_VERSION,
                "role": "ingest",
                "frames": list(frames),
                "draining": self._draining,
                "last_seq": last_seq,
            }))
            await writer.drain()
            if self._draining:
                return
            await self._route_loop(reader, writer, decoder, route)
        except ProtocolError as exc:
            obs.counter("repro_fabric_protocol_errors_total").inc()
            try:
                writer.write(encode_frame(
                    {"type": "error", "message": str(exc)}))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except _LINK_ERRORS as exc:
            # A worker link died mid-stream.  Dropping the downstream
            # connection is the *recovery mechanism*, not a bug: the
            # client's bounded retry reconnects and resumes from the
            # fleet's last_seq once the supervisor has the worker back.
            self.counters["link_failures_total"] += 1
            obs.counter("repro_fabric_link_failures_total").inc()
            obs.event("fabric.link.failed", peer=str(peer),
                      error=str(exc))
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            if route is not None:
                self._routes.discard(route)
                for link in route.links.values():
                    await link.close(polite=False)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _read_one(self, reader: asyncio.StreamReader,
                        decoder: FrameDecoder) -> Optional[Dict[str, Any]]:
        while True:
            data = await reader.read(_READ_CHUNK)
            if not data:
                return None
            messages = decoder.feed(data)
            if messages:
                if len(messages) > 1:
                    raise ProtocolError(
                        "client must wait for 'welcome' before streaming")
                return messages[0]

    async def _route_loop(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          decoder: FrameDecoder, route: _Route) -> None:
        while True:
            data = await reader.read(_READ_CHUNK)
            if not data:
                return
            messages = decoder.feed(data)
            if not messages:
                continue
            await self._routing.wait()  # rebalance barrier (lock-free path)
            async with route.lock:
                for message in messages:
                    mtype = message.get("type")
                    if mtype == "report_batch":
                        n = await self._forward_batch(route, message)
                        if n and (route.received // ACK_EVERY
                                  > (route.received - n) // ACK_EVERY):
                            await self._drain_links(route)
                            writer.write(encode_frame({
                                "type": "ack",
                                "received": route.received,
                                "shed_total": route.shed_total,
                            }))
                            await writer.drain()
                    elif mtype == "flush":
                        await self._drain_links(route)
                        for link in route.links.values():
                            if link.connected:
                                flushed = await link.flush()
                                if flushed is None:
                                    raise FabricError(
                                        "worker closed during flush")
                                route.shed_total = max(
                                    route.shed_total,
                                    int(flushed.get("shed_total", 0)))
                        writer.write(encode_frame({
                            "type": "flushed",
                            "received": route.received,
                            "shed_total": route.shed_total,
                        }))
                        await writer.drain()
                    elif mtype == "ping":
                        stats = await self.fleet_stats()
                        writer.write(encode_frame({
                            "type": "pong",
                            "nonce": message.get("nonce"),
                            "sessions": stats["sessions"],
                            "reports_total": stats["reports_total"],
                            "shed_total": stats["shed_total"],
                            "draining": self._draining,
                        }))
                        await writer.drain()
                    elif mtype == "bye":
                        await self._drain_links(route)
                        return
                    elif mtype == "hello":
                        raise ProtocolError("duplicate hello")
                    else:
                        raise ProtocolError(
                            f"unsupported message type {mtype!r} "
                            "on a fabric connection")

    async def _forward_batch(self, route: _Route,
                             message: Dict[str, Any]) -> int:
        """Route one column frame, split per owning worker.

        Sub-batches keep their per-row sequence numbers, so each
        worker's duplicate filter sees exactly the rows it owns with the
        sequence numbers the client gave them.
        """
        batch = message["batch"]
        seqs = message.get("seqs")
        n = len(batch)
        if not n:
            return 0
        user = batch.user_id
        by_worker: Dict[int, List[int]] = {}
        for uid in np.unique(user).tolist():
            by_worker.setdefault(self.ring.owner(int(uid)), []).append(uid)
        for worker_id, uids in sorted(by_worker.items()):
            if len(by_worker) == 1:
                sub, seq_sub = batch, seqs
            else:
                mask = np.isin(user, np.asarray(uids, dtype=np.uint64))
                sub = batch.select(mask)
                seq_sub = seqs[mask] if seqs is not None else None
            link = await self._link(route, worker_id)
            link.write_frame(encode_column_frame(sub, seq_sub))
            route.unsent.add(worker_id)
            obs.counter("repro_fabric_routed_reports_total",
                        worker=str(worker_id)).inc(len(sub))
        route.received += n
        self.counters["routed_reports_total"] += n
        return n

    async def _drain_links(self, route: _Route) -> None:
        """Push buffered writes to the workers (their backpressure
        propagates to the downstream sender through this await)."""
        for worker_id in sorted(route.unsent):
            link = route.links.get(worker_id)
            if link is not None and link.connected:
                await link.drain()
        route.unsent.clear()

    async def _link(self, route: _Route, worker_id: int) -> IngestClient:
        """The route's link to one worker, (re)connected with patience.

        A worker mid-restart is retried on the supervisor's respawn
        schedule — re-resolving the port each attempt, since restarts
        land on fresh ephemeral ports — before the link is declared
        dead (which tears down the downstream connection).
        """
        link = route.links.get(worker_id)
        if link is not None and link.connected:
            return link
        delays = RESPAWN_RETRY.delays()
        while True:
            try:
                host, port = self.supervisor.address_of(worker_id)
                link = IngestClient(
                    host, port,
                    client_id=route.client_id,
                    connect_timeout_s=self.config.heartbeat_timeout_s,
                    read_timeout_s=max(
                        30.0, self.config.heartbeat_timeout_s))
                await link.connect()
                route.links[worker_id] = link
                return link
            except _LINK_ERRORS as exc:
                try:
                    delay = next(delays)
                except StopIteration:
                    raise FabricError(
                        f"no link to worker {worker_id}: {exc}") from exc
                await asyncio.sleep(delay)

    # ------------------------------------------------------------------
    # Watch fan-in
    # ------------------------------------------------------------------
    async def _serve_watch(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           decoder: FrameDecoder) -> None:
        """Multiplex every worker's estimate stream onto one watcher.

        The subscription set is read from the client's first ``watch``
        frame; estimates from all *current* workers are merged as JSONL
        (workers added by a later rebalance join on the watcher's next
        connection — documented in SERVING.md).
        """
        writer.write(encode_frame({
            "type": "welcome", "version": PROTOCOL_VERSION,
            "role": "watch",
            "draining": self._draining, "last_seq": 0,
        }))
        await writer.drain()
        watch = await self._read_one(reader, decoder)
        if watch is None:
            return
        if watch.get("type") != "watch":
            raise ProtocolError("watch connections must subscribe first")
        user_id = watch.get("user_id")
        wanted = None if user_id is None else int(user_id)
        queue: asyncio.Queue = asyncio.Queue()

        async def _pump(worker_id: int) -> None:
            try:
                host, port = self.supervisor.address_of(worker_id)
                async for message in watch_estimates(
                        host, port, user_id=wanted):
                    await queue.put(message)
            except _LINK_ERRORS:
                pass  # that worker's stream ends; others keep flowing

        pumps = [asyncio.ensure_future(_pump(w))
                 for w in self.supervisor.worker_ids()]
        eof = asyncio.ensure_future(reader.read(_READ_CHUNK))
        try:
            while True:
                getter = asyncio.ensure_future(queue.get())
                done, _pending = await asyncio.wait(
                    {getter, eof}, return_when=asyncio.FIRST_COMPLETED)
                if eof in done:  # watcher hung up (or sent unwatch/bye)
                    getter.cancel()
                    return
                message = getter.result()
                line = json.dumps(message, separators=(",", ":"),
                                  sort_keys=True) + "\n"
                writer.write(line.encode("utf-8"))
                await writer.drain()
        finally:
            eof.cancel()
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
