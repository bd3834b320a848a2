"""Worker-process supervision: spawn, register, heartbeat, restart, migrate.

The :class:`Supervisor` owns the fabric's worker fleet.  Workers reach
it over a TCP *control socket* with a two-phase registration handshake
(``join`` → id assignment → ``register`` with host/port/pid), which is
the single attachment path for every kind of worker:

* **spawned** — launched locally as subprocesses (the default); they
  register over loopback exactly like a remote worker would;
* **remote** — started on another host via ``repro serve-worker --join
  <supervisor-addr>``; the supervisor cannot kill or respawn these, so
  their supervision is heartbeat-only and "restart" means *wait for the
  worker to re-register*;
* **adopted** — inherited from a dead predecessor through the on-disk
  registry (``fabric.json``) when a warm standby takes over
  (:meth:`attach` → :meth:`takeover`); local pids it can kill and
  respawn even though it never spawned them.

The supervisor publishes its control address to ``supervisor.addr`` and
the fleet to ``fabric.json`` (both atomic, see
:mod:`repro.serve.statefiles`), which is how orphaned workers find the
new supervisor after a failover and how the standby mirrors the ring.

Liveness is probed with protocol-level heartbeats (``ping``/``pong`` —
a worker whose event loop is wedged fails the probe even while its
process is technically alive), **concurrently** across the fleet so one
wedged worker cannot delay detection for the others.  Restart is
*recovery*, not reset: the new incarnation keeps the worker id, so it
reloads its predecessor's atomic checkpoint and resumes every session
mid-breath (:mod:`repro.serve.checkpoint`).

Shard migration between live workers is also driven from here
(:meth:`Supervisor.migrate`): a ``migrate_out``/``migrate_in`` exchange
over the workers' own control links, timed into the
``repro_fabric_migration_seconds`` histogram.  The documents on the
wire are exactly the checkpoint session schema, so migration inherits
the checkpoint's correctness argument wholesale.

Health metrics (supervisor side — worker processes have their own
registries): ``repro_fabric_worker_restarts_total``,
``repro_fabric_heartbeat_miss_total``, ``repro_fabric_workers`` gauge.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..errors import FabricError, ProtocolError, ServeError, ServeTimeoutError
from .client import IngestClient
from .protocol import FrameDecoder, encode_frame
from .retry import RESPAWN_RETRY, RetryPolicy
from .session import SessionConfig
from .statefiles import (read_state_doc, registry_path, remove_state_doc,
                         supervisor_addr_path, write_state_doc)

#: How many session records ride in one migrate frame.  A record is
#: dominated by its buffered window: measured on 125 s of ward reads, a
#: session buffers ~3,600 rows (~4,000 at the prune horizon) and its
#: level-1 record travels as ~34 bytes of base64 a row, ~120 KB, so 4
#: per frame take about half of MAX_FRAME_BYTES (1 MiB).  A reply that
#: would still overflow is refused and its sessions stay on the source.
MIGRATE_CHUNK = 4


@dataclass(frozen=True)
class FabricConfig:
    """Knobs for the worker fabric (supervisor + router).

    Attributes:
        workers: initial worker-process count.
        host: interface workers (and the router) bind.
        n_shards: asyncio session shards *inside* each worker.
        heartbeat_interval_s: wall-clock period between liveness probes.
        heartbeat_timeout_s: per-probe deadline; a miss is counted and
            ``max_heartbeat_misses`` consecutive misses trigger restart.
        max_heartbeat_misses: consecutive probe failures tolerated
            before a worker is declared dead (a dead *process* is
            restarted immediately, without waiting out the misses).
        spawn_deadline_s: how long a freshly spawned worker gets to
            register over the control socket (covers the package import
            cost); also the re-registration deadline when "restarting"
            a remote worker.
        orphan_grace_s: how long an orphaned worker (its supervisor
            died) keeps serving while it hunts for a successor via
            ``supervisor.addr`` before draining itself.  Must comfortably
            exceed the standby's takeover detection time.
        checkpoint_interval_s: workers' periodic checkpoint cadence;
            also the upper bound on ingest a crash can force the
            clients to resend (never on what it can *lose* — resend
            from ``last_seq`` covers the gap).
        session: per-user session knobs forwarded to every worker.
        respawn_retry: backoff between failed respawn attempts.
    """

    workers: int = 4
    host: str = "127.0.0.1"
    n_shards: int = 2
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: float = 2.0
    max_heartbeat_misses: int = 3
    spawn_deadline_s: float = 60.0
    orphan_grace_s: float = 10.0
    checkpoint_interval_s: float = 1.0
    session: SessionConfig = field(default_factory=SessionConfig)
    respawn_retry: RetryPolicy = RESPAWN_RETRY

    def worker_options(self) -> Dict[str, Any]:
        """The flat options dict :func:`worker_main` expects.

        Joining workers receive this dict in the ``assign`` reply, so
        session knobs stay fleet-consistent no matter where a worker
        runs.
        """
        options: Dict[str, Any] = {
            "host": self.host,
            "n_shards": self.n_shards,
            "checkpoint_interval_s": self.checkpoint_interval_s,
            "orphan_grace_s": self.orphan_grace_s,
            "orphan_poll_s": min(2.0, max(0.1, self.heartbeat_interval_s)),
            "rejoin_after_s": max(3.0 * self.heartbeat_timeout_s,
                                  10.0 * self.heartbeat_interval_s),
        }
        for key in ("window_s", "estimate_interval_s", "warmup_s",
                    "queue_capacity", "high_watermark", "low_watermark",
                    "include_signal", "signal_points",
                    "idle_after_s", "max_resident"):
            options[key] = getattr(self.session, key)
        return options


class WorkerHandle:
    """One supervised worker: its process (if local), registered
    address, and health.

    ``spawned`` records whether the worker is a subprocess of this
    state dir's machine: True for locally launched *and* adopted
    workers (killable/respawnable by pid), False for remote joiners
    (heartbeat-only supervision).
    """

    def __init__(self, worker_id: int, spawned: bool = True) -> None:
        self.worker_id = worker_id
        self.process: Optional[subprocess.Popen] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self.spawned = spawned
        self.misses = 0
        self.total_misses = 0
        self.restarts = 0

    @property
    def remote(self) -> bool:
        """True for workers the supervisor cannot kill or respawn."""
        return not self.spawned

    @property
    def alive(self) -> bool:
        """Best local knowledge of process liveness.

        With a ``Popen`` in hand this is authoritative; for an adopted
        pid it is a signal-0 probe; for a remote worker there is no
        process to ask, so liveness is governed by heartbeats and this
        stays True.
        """
        if self.process is not None:
            return self.process.poll() is None
        if not self.spawned or self.pid is None:
            return True
        try:
            os.kill(self.pid, 0)
            return True
        except OSError:
            return False

    def kill(self, graceful: bool, join_s: float) -> None:
        """Terminate the worker (SIGTERM first when graceful), wait up
        to ``join_s`` for it to exit, then SIGKILL what remains.

        Adopted workers (pid but no ``Popen``) get the same treatment
        via raw signals; remote workers cannot be killed from here and
        this is a no-op for them.
        """
        if self.process is not None:
            if graceful and self.alive:
                self.process.terminate()
            if join_s > 0:
                try:
                    self.process.wait(join_s)
                except subprocess.TimeoutExpired:
                    pass
            if self.alive:
                self.process.kill()
                try:
                    self.process.wait(5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
            return
        if not self.spawned or self.pid is None:
            return
        self._kill_pid(graceful=graceful, join_s=join_s)

    def _kill_pid(self, graceful: bool, join_s: float) -> None:
        """Signal-based kill for adopted workers (reparented to init,
        so there is never a zombie for us to reap)."""
        try:
            os.kill(self.pid, signal.SIGTERM if graceful else signal.SIGKILL)
        except OSError:
            return
        deadline = time.monotonic() + max(join_s, 0.0)
        while time.monotonic() < deadline and self.alive:
            time.sleep(0.05)
        if self.alive:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except OSError:
                pass
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and self.alive:
                time.sleep(0.05)


class Supervisor:
    """Owns the fabric's worker fleet: registration, health, recovery.

    Args:
        state_dir: directory holding every worker's checkpoint plus the
            fabric's coordination files (created if missing).  Shared
            state *on disk* is the whole recovery story: a restarted
            supervisor — or a warm standby taking over — finds
            everything it needs here.
        config: fleet knobs (:class:`FabricConfig`).

    Hooks (set by the router):
        on_worker_joined: called with a worker id when a worker the
            supervisor did not ask for registers (a remote ``--join``
            or a rediscovered orphan); the router rebalances the ring.
        on_registry_change: called (attached/standby mode only) when
            the on-disk registry changes under us.
    """

    def __init__(self, state_dir: Union[str, Path],
                 config: Optional[FabricConfig] = None) -> None:
        self.state_dir = Path(state_dir)
        self.config = config if config is not None else FabricConfig()
        self.workers: Dict[int, WorkerHandle] = {}
        self.epoch = 0
        self.control_port: Optional[int] = None
        self.attached = False
        self.on_worker_joined: Optional[Callable[[int], None]] = None
        self.on_registry_change: Optional[Callable[[], None]] = None
        self._controls: Dict[int, IngestClient] = {}
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._registry_task: Optional[asyncio.Task] = None
        self._restart_locks: Dict[int, asyncio.Lock] = {}
        # One lock per worker's control link: heartbeats, migrations,
        # and harvests share the link, and a framed stream tolerates
        # exactly one reader at a time.
        self._control_locks: Dict[int, asyncio.Lock] = {}
        self._registered: Dict[int, asyncio.Event] = {}
        self._next_worker_id = 0
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the control socket, spawn the initial fleet, heartbeat."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        await self._open_control()
        self._publish_addr()
        await asyncio.gather(*(
            self._spawn(worker_id)
            for worker_id in range(self.config.workers)))
        self._publish_registry()
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        obs.event("fabric.supervisor.start", workers=len(self.workers),
                  epoch=self.epoch, control_port=self.control_port,
                  state_dir=str(self.state_dir))

    async def attach(self) -> None:
        """Mirror a running fabric *without* supervising it (standby).

        Loads the worker registry from disk and keeps it fresh by
        polling; no control socket, no heartbeats, no spawning.  A
        later :meth:`takeover` promotes this supervisor to active duty.
        """
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.attached = True
        self._load_registry()
        self._registry_task = asyncio.ensure_future(self._registry_watch())
        obs.event("fabric.supervisor.attach", workers=len(self.workers),
                  state_dir=str(self.state_dir))

    async def takeover(self) -> None:
        """Promote an attached supervisor: adopt the registered fleet,
        open a control socket, publish a bumped epoch, heartbeat.

        Orphaned workers re-register through ``supervisor.addr``;
        genuinely dead local ones are restarted from their checkpoints
        by the heartbeat loop.
        """
        if self._registry_task is not None:
            self._registry_task.cancel()
            try:
                await self._registry_task
            except asyncio.CancelledError:
                pass
            self._registry_task = None
        self._load_registry()
        self.attached = False
        await self._open_control()
        addr = read_state_doc(supervisor_addr_path(self.state_dir))
        if addr is not None:
            self.epoch = max(self.epoch, int(addr.get("epoch", 0)))
        self.epoch += 1
        self._publish_addr()
        self._publish_registry()
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        obs.event("fabric.supervisor.takeover", workers=len(self.workers),
                  epoch=self.epoch, control_port=self.control_port)

    async def stop(self, graceful: bool = True) -> None:
        """Stop heartbeating and terminate the fleet.

        ``graceful`` sends SIGTERM (workers drain + checkpoint);
        stragglers — and everything when ``graceful=False`` — get
        SIGKILL.  Remote workers cannot be signalled from here: they
        notice the silence and drain themselves after their orphan
        grace (spawned) or keep retrying registration (operator-run).
        """
        self._stopping = True
        for task_attr in ("_heartbeat_task", "_registry_task"):
            task = getattr(self, task_attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                except Exception as exc:  # a crashed loop must not block stop
                    obs.event("fabric.heartbeat.crashed", error=str(exc))
                setattr(self, task_attr, None)
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
            self._control_server = None
            # Retract the address so orphan hunts fail fast instead of
            # hammering a dead socket.
            remove_state_doc(supervisor_addr_path(self.state_dir))
        await self._close_controls()
        if self.attached:
            # A never-promoted standby mirrors someone else's fleet;
            # those workers are not ours to signal.
            obs.event("fabric.supervisor.stop", graceful=graceful,
                      attached=True)
            return
        for handle in self.workers.values():
            if graceful and handle.process is not None and handle.alive:
                handle.process.terminate()  # SIGTERM: drain + checkpoint
        deadline = time.monotonic() + (10.0 if graceful else 0.0)
        for handle in self.workers.values():
            handle.kill(graceful=graceful and handle.process is None,
                        join_s=max(0.0, deadline - time.monotonic()))
        obs.gauge("repro_fabric_workers").set(0)
        obs.event("fabric.supervisor.stop", graceful=graceful)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_ids(self) -> List[int]:
        """The current fleet's worker ids, sorted."""
        return sorted(self.workers)

    def port_of(self, worker_id: int) -> int:
        """The worker's current ingest port.

        Raises:
            FabricError: unknown worker or port not (yet) published.
        """
        handle = self.workers.get(worker_id)
        if handle is None or handle.port is None:
            raise FabricError(f"worker {worker_id} has no published port")
        return handle.port

    def address_of(self, worker_id: int) -> Tuple[str, int]:
        """The worker's registered ingest endpoint ``(host, port)``.

        Raises:
            FabricError: unknown worker or endpoint not (yet) registered.
        """
        handle = self.workers.get(worker_id)
        if handle is None or handle.port is None:
            raise FabricError(f"worker {worker_id} has no published port")
        return (handle.host or self.config.host, handle.port)

    # ------------------------------------------------------------------
    # Control socket: registration + standby probes
    # ------------------------------------------------------------------
    async def _open_control(self) -> None:
        self._control_server = await asyncio.start_server(
            self._handle_control, self.config.host, 0)
        self.control_port = self._control_server.sockets[0].getsockname()[1]

    def control_address(self) -> Tuple[str, int]:
        """The live control socket's ``(host, port)``.

        Raises:
            FabricError: the control socket is not open (attached or
                stopped supervisor).
        """
        if self.control_port is None:
            raise FabricError("supervisor control socket is not open")
        return (self.config.host, self.control_port)

    async def _handle_control(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for message in decoder.feed(data):
                    reply = self._control_message(message)
                    writer.write(encode_frame(reply))
                    await writer.drain()
        except (ConnectionError, OSError, ProtocolError,
                asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _control_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        mtype = message.get("type")
        if mtype == "join":
            return self._handle_join(message)
        if mtype == "register":
            return self._handle_register(message)
        if mtype == "ping":
            return {"type": "pong", "epoch": self.epoch,
                    "pid": os.getpid(), "workers": self._registry_doc()}
        return {"type": "error", "error": f"unknown control type {mtype!r}"}

    def _handle_join(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = message.get("worker_id")
        if worker_id is None:
            worker_id = self._assign_id()
        else:
            worker_id = int(worker_id)
            self._next_worker_id = max(self._next_worker_id, worker_id + 1)
        obs.event("fabric.worker.join", worker=worker_id,
                  pid=message.get("pid"))
        return {"type": "assign", "worker_id": worker_id,
                "epoch": self.epoch, "options": self.config.worker_options()}

    def _handle_register(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            worker_id = int(message["worker_id"])
            host = str(message["host"])
            port = int(message["port"])
            pid = int(message["pid"])
        except (KeyError, TypeError, ValueError):
            return {"type": "error", "error": "malformed register"}
        handle = self.workers.get(worker_id)
        unsolicited = handle is None
        if handle is None:
            # A worker we did not ask for: a remote `serve-worker
            # --join` or an orphan whose id we had already forgotten.
            handle = WorkerHandle(worker_id, spawned=False)
            self.workers[worker_id] = handle
            self._next_worker_id = max(self._next_worker_id, worker_id + 1)
        elif handle.process is not None and handle.process.pid != pid:
            # A late registration from a previous incarnation we
            # already killed; accepting it would poison the port map.
            return {"type": "error",
                    "error": f"stale registration for worker {worker_id} "
                             f"(pid {pid})"}
        handle.host = host
        handle.port = port
        handle.pid = pid
        handle.misses = 0
        # Re-registration usually means a new socket; retire the old
        # cached control link rather than waiting for it to error.
        stale = self._controls.pop(worker_id, None)
        if stale is not None:
            asyncio.ensure_future(stale.close(polite=False))
        self._registered.setdefault(worker_id, asyncio.Event()).set()
        self._publish_registry()
        obs.gauge("repro_fabric_workers").set(len(self.workers))
        obs.event("fabric.worker.registered", worker=worker_id,
                  host=host, port=port, pid=pid, unsolicited=unsolicited)
        if unsolicited and self.on_worker_joined is not None:
            self.on_worker_joined(worker_id)
        return {"type": "registered", "worker_id": worker_id,
                "epoch": self.epoch}

    def _assign_id(self) -> int:
        next_id = max([self._next_worker_id] +
                      [wid + 1 for wid in self.workers])
        self._next_worker_id = next_id + 1
        return next_id

    # ------------------------------------------------------------------
    # On-disk coordination plane
    # ------------------------------------------------------------------
    def _publish_addr(self) -> None:
        write_state_doc(supervisor_addr_path(self.state_dir), {
            "host": self.config.host, "port": self.control_port,
            "pid": os.getpid(), "epoch": self.epoch})

    def _registry_doc(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "workers": {
                str(wid): {"host": handle.host or self.config.host,
                           "port": handle.port, "pid": handle.pid,
                           "spawned": handle.spawned}
                for wid, handle in self.workers.items()
                if handle.port is not None
            },
        }

    def _publish_registry(self) -> None:
        write_state_doc(registry_path(self.state_dir), self._registry_doc())

    def _load_registry(self) -> None:
        doc = read_state_doc(registry_path(self.state_dir))
        if doc is None:
            return
        self.epoch = max(self.epoch, int(doc.get("epoch", 0)))
        seen = set()
        for key, entry in dict(doc.get("workers", {})).items():
            try:
                worker_id = int(key)
                port = int(entry["port"])
                pid = int(entry["pid"])
                host = str(entry.get("host", self.config.host))
                spawned = bool(entry.get("spawned", False))
            except (KeyError, TypeError, ValueError):
                continue
            seen.add(worker_id)
            handle = self.workers.get(worker_id)
            if handle is None:
                handle = WorkerHandle(worker_id, spawned=spawned)
                self.workers[worker_id] = handle
            # Never inherit a Popen through the registry: an adopted
            # worker is someone else's child; pid-signal it instead.
            handle.spawned = spawned
            handle.host = host
            handle.port = port
            handle.pid = pid
            self._next_worker_id = max(self._next_worker_id, worker_id + 1)
        for worker_id in [w for w in self.workers if w not in seen]:
            if self.workers[worker_id].process is None:
                del self.workers[worker_id]
                self._restart_locks.pop(worker_id, None)
                self._control_locks.pop(worker_id, None)
                self._registered.pop(worker_id, None)

    async def _registry_watch(self) -> None:
        last: Optional[Dict[str, Any]] = None
        while True:
            await asyncio.sleep(self.config.heartbeat_interval_s)
            doc = read_state_doc(registry_path(self.state_dir))
            if doc is None or doc == last:
                continue
            last = doc
            self._load_registry()
            obs.event("fabric.registry.refresh", workers=len(self.workers))
            if self.on_registry_change is not None:
                self.on_registry_change()

    # ------------------------------------------------------------------
    # Spawning and restart
    # ------------------------------------------------------------------
    async def _spawn(self, worker_id: int) -> WorkerHandle:
        if self.control_port is None:
            raise FabricError("cannot spawn workers without an open "
                              "control socket")
        handle = self.workers.setdefault(worker_id, WorkerHandle(worker_id))
        handle.spawned = True
        event = self._registered.setdefault(worker_id, asyncio.Event())
        event.clear()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in sys.path if p] +
            [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        # -c instead of -m: runpy would re-import repro.serve.worker on
        # top of the package import and warn about the shadowed module.
        process = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.serve.worker import _cli; _cli()",
             "--worker-id", str(worker_id),
             "--state-dir", str(self.state_dir),
             "--join", f"{self.config.host}:{self.control_port}",
             "--supervised",
             "--options", json.dumps(self.config.worker_options())],
            env=env,
            stdin=subprocess.DEVNULL,
            # Own session: a terminal Ctrl-C must reach only the
            # supervisor, which then drains workers deliberately — a
            # group-delivered SIGINT mid-import would kill them before
            # their signal handlers exist.
            start_new_session=True,
        )
        handle.process = process
        handle.port = None
        handle.misses = 0
        deadline = time.monotonic() + self.config.spawn_deadline_s
        while True:
            if (event.is_set() and handle.pid == process.pid
                    and handle.port is not None):
                break
            if process.poll() is not None:
                raise FabricError(
                    f"worker {worker_id} exited during startup "
                    f"(exitcode {process.returncode})")
            if time.monotonic() > deadline:
                process.kill()
                raise FabricError(
                    f"worker {worker_id} did not register within "
                    f"{self.config.spawn_deadline_s}s")
            try:
                await asyncio.wait_for(event.wait(), 0.05)
            except asyncio.TimeoutError:
                pass
        obs.gauge("repro_fabric_workers").set(len(self.workers))
        obs.event("fabric.worker.up", worker=worker_id,
                  port=handle.port, pid=handle.pid,
                  restarts=handle.restarts)
        return handle

    async def restart(self, worker_id: int, reason: str = "unknown"
                      ) -> WorkerHandle:
        """Kill (if needed) and respawn one worker; it resumes from its
        checkpoint.  Concurrent callers for the same worker coalesce
        onto one restart.  A *remote* worker cannot be respawned from
        here, so "restart" waits for it to re-register instead.

        Raises:
            FabricError: the respawn retry budget was exhausted, the
                re-registration deadline passed, or the worker was
                removed from the fleet while we waited for the lock.
        """
        lock = self._restart_locks.setdefault(worker_id, asyncio.Lock())
        if lock.locked():  # someone is already restarting it: wait, reuse
            async with lock:
                handle = self.workers.get(worker_id)
                if handle is None:
                    raise FabricError(
                        f"worker {worker_id} was removed during restart")
                return handle
        async with lock:
            # Membership can change while we queued on the lock; a
            # removed worker must surface as FabricError, not KeyError.
            handle = self.workers.get(worker_id)
            if handle is None:
                raise FabricError(
                    f"worker {worker_id} was removed during restart")
            with obs.span("fabric.worker.restart", worker=worker_id,
                          reason=reason):
                handle.kill(graceful=False, join_s=0.0)
                await self._drop_control(worker_id)
                handle.restarts += 1
                obs.counter("repro_fabric_worker_restarts_total",
                            worker=str(worker_id)).inc()
                obs.event("fabric.worker.restart", worker=worker_id,
                          reason=reason, restarts=handle.restarts)
                if handle.remote:
                    return await self._await_reregistration(worker_id)
                delays = self.config.respawn_retry.delays()
                while True:
                    try:
                        return await self._spawn(worker_id)
                    except FabricError as exc:
                        try:
                            delay = next(delays)
                        except StopIteration:
                            raise FabricError(
                                f"worker {worker_id} would not come back "
                                f"after {self.config.respawn_retry.max_attempts} "
                                f"attempts: {exc}") from exc
                        obs.event("fabric.worker.respawn_retry",
                                  worker=worker_id, error=str(exc))
                        await asyncio.sleep(delay)

    async def _await_reregistration(self, worker_id: int) -> WorkerHandle:
        """Remote "restart": the worker's own rejoin logic must bring
        it back; we can only hold the door open."""
        handle = self.workers[worker_id]
        event = self._registered.setdefault(worker_id, asyncio.Event())
        event.clear()
        handle.port = None  # port_of() fails closed until it re-registers
        try:
            await asyncio.wait_for(event.wait(),
                                   self.config.spawn_deadline_s)
        except asyncio.TimeoutError:
            raise FabricError(
                f"remote worker {worker_id} did not re-register within "
                f"{self.config.spawn_deadline_s}s") from None
        obs.event("fabric.worker.up", worker=worker_id,
                  port=handle.port, pid=handle.pid,
                  restarts=handle.restarts)
        return handle

    async def add_worker(self) -> int:
        """Grow the fleet by one; returns the new worker id."""
        worker_id = self._assign_id()
        await self._spawn(worker_id)
        self._publish_registry()
        return worker_id

    async def remove_worker(self, worker_id: int,
                            graceful: bool = True) -> None:
        """Shrink the fleet: drain (SIGTERM) and forget one worker.

        Callers migrate the worker's sessions away *first*
        (:meth:`migrate`); whatever remains is drained into the
        worker's final checkpoint, not lost — but no future worker
        reads that checkpoint, so do not skip the migration.
        """
        handle = self.workers.pop(worker_id, None)
        # Every per-worker map must shrink with the fleet, or a
        # long-lived elastic fabric accumulates dead locks.
        self._restart_locks.pop(worker_id, None)
        self._control_locks.pop(worker_id, None)
        self._registered.pop(worker_id, None)
        if handle is None:
            return
        await self._drop_control(worker_id)
        handle.kill(graceful=graceful, join_s=10.0 if graceful else 0.0)
        self._publish_registry()
        obs.gauge("repro_fabric_workers").set(len(self.workers))
        obs.event("fabric.worker.removed", worker=worker_id)

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.heartbeat_interval_s)
            if self._stopping:
                return
            # Concurrent probes: one wedged worker costs one timeout,
            # not O(fleet) of them — detection latency stays flat as
            # the fleet grows.  Per-worker control-link locks keep the
            # framed streams single-reader.
            await asyncio.gather(
                *(self._probe(worker_id)
                  for worker_id in list(self.workers)))

    async def _probe(self, worker_id: int) -> None:
        handle = self.workers.get(worker_id)
        if handle is None or self._stopping:
            return
        if handle.port is None:
            return  # still starting up; _spawn enforces its own deadline
        if not handle.alive:
            await self._restart_quietly(worker_id, "process-exit")
            return
        try:
            pong = await self.ping_worker(worker_id)
            handle.misses = 0
            obs.gauge("repro_fabric_worker_sessions",
                      worker=str(worker_id)).set(
                          int(pong.get("sessions", 0)))
        except (ServeError, ServeTimeoutError, ConnectionError,
                OSError, asyncio.IncompleteReadError):
            handle.misses += 1
            handle.total_misses += 1
            obs.counter("repro_fabric_heartbeat_miss_total",
                        worker=str(worker_id)).inc()
            obs.event("fabric.heartbeat.miss", worker=worker_id,
                      misses=handle.misses)
            await self._drop_control(worker_id)
            if handle.misses >= self.config.max_heartbeat_misses:
                await self._restart_quietly(worker_id, "heartbeat")

    async def _restart_quietly(self, worker_id: int, reason: str) -> None:
        """Restart from the heartbeat loop; failure is logged, not fatal
        (the next probe tries again rather than killing the loop)."""
        try:
            await self.restart(worker_id, reason=reason)
        except FabricError as exc:
            obs.event("fabric.worker.restart_failed", worker=worker_id,
                      error=str(exc))

    # ------------------------------------------------------------------
    # Control links
    # ------------------------------------------------------------------
    def _control_lock(self, worker_id: int) -> asyncio.Lock:
        return self._control_locks.setdefault(worker_id, asyncio.Lock())

    async def ping_worker(self, worker_id: int,
                          detail: bool = False) -> Dict[str, Any]:
        """Health-probe one worker over its control link (serialised)."""
        async with self._control_lock(worker_id):
            control = await self._control(worker_id)
            return await control.ping(detail=detail)

    async def harvest(self, worker_id: int) -> List[bytes]:
        """Pull every session record off one worker (destructive).

        End-of-run collection for the chaos harness and tests: the
        sessions are ``migrate_out``-ed in chunks and *removed* from
        the worker.
        """
        records: List[bytes] = []
        async with self._control_lock(worker_id):
            control = await self._control(worker_id)
            pong = await control.ping(detail=True)
            users = [int(u) for u in pong.get("user_ids", [])]
            for start in range(0, len(users), MIGRATE_CHUNK):
                records.extend(await control.migrate_out(
                    users[start:start + MIGRATE_CHUNK]))
        return records

    async def _control(self, worker_id: int) -> IngestClient:
        """A connected control client to one worker (cached)."""
        client = self._controls.get(worker_id)
        if client is not None and client.connected:
            return client
        host, port = self.address_of(worker_id)
        client = IngestClient(
            host, port,
            connect_timeout_s=self.config.heartbeat_timeout_s,
            read_timeout_s=self.config.heartbeat_timeout_s)
        await client.connect()
        self._controls[worker_id] = client
        return client

    async def _drop_control(self, worker_id: int) -> None:
        client = self._controls.pop(worker_id, None)
        if client is not None:
            await client.close(polite=False)

    async def _close_controls(self) -> None:
        for worker_id in list(self._controls):
            await self._drop_control(worker_id)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    async def sessions_of(self, worker_id: int) -> List[int]:
        """The user ids currently live on one worker (detail ping)."""
        pong = await self.ping_worker(worker_id, detail=True)
        return [int(u) for u in pong.get("user_ids", [])]

    async def migrate(self, src: int, dst: int,
                      user_ids: Sequence[int]) -> int:
        """Move users' sessions from worker ``src`` to ``dst``.

        The exchange is chunked (``MIGRATE_CHUNK`` sessions per frame)
        so dense windows never overflow a protocol frame, and *ordered
        for safety*: a chunk is pulled out of ``src`` only after the
        previous chunk landed in ``dst``, so a crash mid-migration
        strands at most one chunk in flight — and that chunk's sessions
        are still inside ``src``'s checkpoint lineage until the
        ``migrate_out`` reply, so nothing is ever in *zero* places.

        Returns the number of sessions that actually moved (users with
        no live session on ``src`` move nothing).

        Raises:
            FabricError / ServeError: a control link failed; the caller
                (router) re-resolves ownership before retrying.
        """
        user_ids = sorted(set(int(u) for u in user_ids))
        if not user_ids or src == dst:
            return 0
        moved = 0
        t0 = time.monotonic()
        with obs.span("fabric.migrate", src=src, dst=dst,
                      users=len(user_ids)):
            # Both control links locked for the whole exchange, in id
            # order so concurrent migrations can never deadlock.
            first, second = sorted((src, dst))
            async with self._control_lock(first):
                async with self._control_lock(second):
                    src_control = await self._control(src)
                    dst_control = await self._control(dst)
                    for start in range(0, len(user_ids), MIGRATE_CHUNK):
                        chunk = user_ids[start:start + MIGRATE_CHUNK]
                        # Records pass through unopened.
                        records = await src_control.migrate_out(chunk)
                        if records:
                            moved += await dst_control.migrate_in(records)
        elapsed = time.monotonic() - t0
        obs.histogram("repro_fabric_migration_seconds").observe(elapsed)
        obs.event("fabric.migrate.done", src=src, dst=dst,
                  moved=moved, seconds=round(elapsed, 4))
        return moved
