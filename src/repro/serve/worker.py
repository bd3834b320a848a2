"""One fabric worker process: a supervised BreathServer shard.

A worker is an ordinary :class:`~repro.serve.server.BreathServer` (same
protocol, same sessions, same checkpoints) wrapped in the small amount
of ceremony a supervised *process* needs:

* **subprocess entry point** — local workers are launched as
  ``python -c "from repro.serve.worker import _cli; _cli()"``
  subprocesses (never ``fork``, which is unsafe under a running asyncio
  loop, and never multiprocessing ``spawn``, which re-imports the
  *parent's* ``__main__`` and breaks under stdin/REPL/pytest
  launchers); the supervisor forwards its own ``sys.path`` through
  ``PYTHONPATH`` so ``src``-layout checkouts work unchanged;
* **TCP registration** — workers bind port 0 (no port races across
  restarts) and announce the bound port + pid to the supervisor's
  control socket with a two-phase ``join``/``register`` handshake.
  The same handshake serves a worker on *another machine*
  (``repro serve-worker --join host:port``): the ``assign`` reply
  carries the fleet's session knobs, so remote workers are
  configuration-consistent by construction;
* **signal contract** — SIGTERM/SIGINT means *drain*: ingest the
  backlog, publish final estimates, checkpoint, exit 0.  SIGKILL is the
  crash the fabric is built to survive: the next incarnation of the
  worker resumes from the last atomic checkpoint
  (:mod:`repro.serve.checkpoint`), bit-exact mid-breath;
* **orphan handling** — a supervised worker that loses its parent does
  not die immediately: it hunts for a successor supervisor through
  ``supervisor.addr`` (the warm standby rewrites it on takeover) for
  ``orphan_grace_s``, re-registers if one appears, and only drains
  itself when the grace expires.  Operator-run ``--join`` workers never
  self-drain; they watch heartbeat staleness and keep re-registering.

State layout inside the fabric's ``state_dir``::

    worker-003.ckpt        # live checkpoint (atomic, fsynced)
    worker-003.ckpt.prev   # previous good generation
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Basename pattern for per-worker files inside the fabric state dir.
_WORKER_STEM = "worker-{worker_id:03d}"

#: Per-message deadline on the registration handshake.
CONTROL_RPC_TIMEOUT_S = 5.0


def checkpoint_path(state_dir: Union[str, Path], worker_id: int) -> Path:
    """Where worker ``worker_id`` keeps its live checkpoint."""
    return Path(state_dir) / (_WORKER_STEM.format(worker_id=worker_id)
                              + ".ckpt")


# ----------------------------------------------------------------------
# Control-socket client side (registration / supervisor probing)
# ----------------------------------------------------------------------
def parse_addr(spec: str) -> Tuple[str, int]:
    """``host:port`` → ``(host, port)``.

    Raises:
        ValueError: not in host:port form.
    """
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address {spec!r} is not host:port")
    return host, int(port)


async def control_rpc(addr: Tuple[str, int], message: Dict[str, Any],
                      timeout_s: float = CONTROL_RPC_TIMEOUT_S
                      ) -> Dict[str, Any]:
    """One framed request/reply against a supervisor control socket.

    Raises:
        ConnectionError / OSError / asyncio.TimeoutError: the socket
            is unreachable or silent — callers treat all three as "no
            supervisor there" and move on to the next candidate.
    """
    from .protocol import FrameDecoder, encode_frame

    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(*addr), timeout_s)
    try:
        writer.write(encode_frame(message))
        await writer.drain()
        decoder = FrameDecoder()
        while True:
            data = await asyncio.wait_for(reader.read(65536), timeout_s)
            if not data:
                raise ConnectionError("control socket closed mid-reply")
            messages = decoder.feed(data)
            if messages:
                return messages[0]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def register_with(addrs: Sequence[Tuple[str, int]],
                        worker_id: Optional[int], host: str, port: int,
                        ) -> Optional[Dict[str, Any]]:
    """Two-phase join/register against the first reachable supervisor.

    Returns the ``assign`` reply (worker_id, epoch, fleet options) on
    success — the caller must adopt its ``worker_id`` — or ``None``
    when every candidate address failed.
    """
    for addr in addrs:
        try:
            assign = await control_rpc(
                addr, {"type": "join", "worker_id": worker_id,
                       "pid": os.getpid()})
            if assign.get("type") != "assign":
                continue
            assigned = int(assign["worker_id"])
            registered = await control_rpc(
                addr, {"type": "register", "worker_id": assigned,
                       "host": host, "port": port, "pid": os.getpid()})
            if registered.get("type") != "registered":
                continue
            assign["supervisor"] = list(addr)
            return assign
        except (ConnectionError, OSError, asyncio.TimeoutError,
                ValueError, KeyError):
            continue
    return None


def _supervisor_candidates(state_dir: Path,
                           join_addrs: Sequence[Tuple[str, int]]
                           ) -> List[Tuple[str, int]]:
    """Where a supervisor might be listening right now: the freshest
    ``supervisor.addr`` first (a standby rewrites it on takeover), then
    the original ``--join`` addresses."""
    from .statefiles import read_state_doc, supervisor_addr_path

    candidates: List[Tuple[str, int]] = []
    doc = read_state_doc(supervisor_addr_path(state_dir))
    if doc is not None and doc.get("port") is not None:
        candidates.append((str(doc.get("host", "127.0.0.1")),
                           int(doc["port"])))
    for addr in join_addrs:
        if addr not in candidates:
            candidates.append(addr)
    return candidates


async def _run_worker(worker_id: Optional[int], state_dir: Path,
                      options: Dict[str, Any]) -> Dict[str, int]:
    import warnings

    from ..errors import DegradedEstimateWarning
    from .server import BreathServer
    from .session import SessionConfig

    # Degradation is surfaced structurally (degraded_reasons on every
    # estimate message); the Python warning would only spam the
    # supervisor's inherited stderr from N processes at once.
    warnings.simplefilter("ignore", DegradedEstimateWarning)

    join_addrs = [parse_addr(spec)
                  for spec in options.get("join", []) if spec]
    supervised = bool(options.get("supervised"))
    if worker_id is None:
        # Operator-run worker: ask the supervisor for an identity and
        # the fleet's knobs *before* building the server, so every
        # machine in the fabric runs the same session configuration.
        if not join_addrs:
            raise ValueError("--worker-id or --join is required")
        assign = None
        for addr in _supervisor_candidates(state_dir, join_addrs):
            try:
                assign = await control_rpc(
                    addr, {"type": "join", "worker_id": None,
                           "pid": os.getpid()})
                if assign.get("type") == "assign":
                    break
                assign = None
            except (ConnectionError, OSError, asyncio.TimeoutError):
                assign = None
        if assign is None:
            raise ConnectionError(
                f"no supervisor reachable at {join_addrs}")
        worker_id = int(assign["worker_id"])
        fleet = dict(assign.get("options", {}))
        fleet.pop("host", None)  # bind interface stays a local decision
        fleet.update(options)
        options = fleet

    session_keys = {f.name for f in dataclasses.fields(SessionConfig)}
    config = SessionConfig(**{k: v for k, v in options.items()
                              if k in session_keys})
    server = BreathServer(
        host=options.get("host", "127.0.0.1"),
        port=0,
        n_shards=int(options.get("n_shards", 2)),
        config=config,
        checkpoint_path=str(checkpoint_path(state_dir, worker_id)),
        checkpoint_interval_s=float(
            options.get("checkpoint_interval_s", 1.0)),
    )
    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)

    advertise = options.get("advertise_host") or options.get(
        "host", "127.0.0.1")
    orphan_grace_s = float(options.get("orphan_grace_s", 10.0))
    orphan_poll_s = float(options.get("orphan_poll_s", 2.0))
    rejoin_after_s = float(options.get("rejoin_after_s", 6.0))

    async def _rejoin(deadline: Optional[float]) -> bool:
        """Hunt for a (possibly new) supervisor and re-register; True
        on success.  ``deadline=None`` means one sweep, no waiting."""
        while True:
            reply = await register_with(
                _supervisor_candidates(state_dir, join_addrs),
                worker_id, advertise, server.port)
            if reply is not None:
                server.last_ping_monotonic = time.monotonic()
                return True
            if deadline is None or time.monotonic() >= deadline:
                return False
            await asyncio.sleep(min(orphan_poll_s, 0.5))

    async def _watchdog(parent_pid: Optional[int]) -> None:
        # Two regimes.  A *supervised* worker runs in its own session
        # (so a terminal Ctrl-C only reaches the supervisor): getting
        # re-parented (to init/subreaper) is the parent's death
        # certificate — but no longer an immediate drain.  The worker
        # holds its sessions for orphan_grace_s while a warm standby
        # takes over and rewrites supervisor.addr; only if nobody
        # claims it does it drain, checkpoint, and exit.  After a
        # successful re-adoption (and for operator-run --join workers
        # from the start) there is no parent to watch, so the death
        # signal becomes heartbeat *staleness*.
        while parent_pid is not None:
            if os.getppid() != parent_pid:
                if not await _rejoin(time.monotonic() + orphan_grace_s):
                    stop.set()
                    return
                parent_pid = None  # adopted: switch to staleness watch
                break
            await asyncio.sleep(orphan_poll_s)
        if not join_addrs:
            return  # standalone invocation (tests): nothing to watch
        while True:
            await asyncio.sleep(orphan_poll_s)
            stale = time.monotonic() - server.last_ping_monotonic
            if stale < rejoin_after_s:
                continue
            if not await _rejoin(
                    time.monotonic() + orphan_grace_s
                    if supervised else None):
                if supervised:
                    stop.set()  # grace expired with no supervisor
                    return
                # Operator-run workers are the operator's to stop:
                # keep serving and keep looking.

    watchdog = asyncio.ensure_future(
        _watchdog(os.getppid() if supervised else None))
    try:
        await server.start()
        if join_addrs:
            registered = await _rejoin(
                time.monotonic() + orphan_grace_s)
            if not registered and supervised:
                raise ConnectionError(
                    f"worker {worker_id} could not register with "
                    f"{join_addrs}")
        await server.serve_until(stop)
    finally:
        watchdog.cancel()
    return server.summary()


def worker_main(worker_id: Optional[int], state_dir: str,
                options: Dict[str, Any]) -> None:
    """Process entry point for one fabric worker.

    Args:
        worker_id: this worker's stable identity in the fabric; names
            its checkpoint, so a restarted incarnation
            resumes its predecessor's sessions automatically.  ``None``
            asks the supervisor (``options["join"]`` required) to
            assign one.
        state_dir: the fabric's shared state directory (must exist).
        options: flat knob dict — any :class:`SessionConfig` field,
            plus ``host``, ``n_shards``, ``checkpoint_interval_s``,
            ``join`` (list of ``host:port`` supervisor addresses),
            ``supervised`` (launched by a local supervisor),
            ``advertise_host``, ``orphan_grace_s``, ``orphan_poll_s``
            and ``rejoin_after_s``.

    Runs until SIGTERM/SIGINT (graceful drain) and exits 0; any other
    exit is a crash the supervisor restarts from checkpoint.
    """
    asyncio.run(_run_worker(worker_id, Path(state_dir), options))


def _cli() -> None:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.serve.worker",
        description="one fabric worker process (launched by the "
                    "supervisor, or by hand with --join to attach a "
                    "remote machine to a fabric)")
    parser.add_argument("--worker-id", type=int, default=None,
                        help="stable worker identity; omit to have the "
                             "supervisor assign one")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--join", default=None,
                        help="comma-separated supervisor control "
                             "addresses (host:port) to register with")
    parser.add_argument("--supervised", action="store_true",
                        help="launched by a local supervisor (drain on "
                             "orphan-grace expiry)")
    parser.add_argument("--advertise", default=None,
                        help="hostname/IP the supervisor should dial "
                             "back (defaults to the bind host)")
    parser.add_argument("--options", default="{}",
                        help="flat JSON knob dict (SessionConfig fields "
                             "+ host/n_shards/checkpoint_interval_s)")
    args = parser.parse_args()
    options = json.loads(args.options)
    if args.join:
        options["join"] = [spec.strip()
                           for spec in args.join.split(",") if spec.strip()]
    if args.supervised:
        options["supervised"] = True
    if args.advertise:
        options["advertise_host"] = args.advertise
    worker_main(args.worker_id, args.state_dir, options)


if __name__ == "__main__":
    _cli()
