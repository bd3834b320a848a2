"""``repro.serve`` — the streaming ingest service.

Turns the reproduction from a batch library into a long-running monitor:
a framed TCP server ingests LLRP-shaped tag reports as binary column
frames, sharded per-user sessions drive the incremental pipeline
(``TagBreathe.feed_batch`` / ``estimate_user``), and per-user breathing estimates fan out to
subscribers as a JSONL stream — with service-grade backpressure,
load shedding, checkpoint/resume, and graceful drain.

Layout:

* :mod:`repro.serve.protocol` — length-prefixed framing: binary column
  frames for reports, JSON for control and estimate messages;
* :mod:`repro.serve.session` — per-user sessions, sharded workers,
  watermark backpressure and shed-oldest queues;
* :mod:`repro.serve.checkpoint` — atomic, fsynced, generational
  session-state save/load;
* :mod:`repro.serve.hibernate` — compressed cold storage for idle
  sessions (per-user budgets, idle sweep, lazy bit-exact wake);
* :mod:`repro.serve.server` — the asyncio TCP server;
* :mod:`repro.serve.client` — replay (load generator) and watch clients
  with deadlines, bounded retry, and idempotent resume;
* :mod:`repro.serve.retry` — the shared backoff policy;
* :mod:`repro.serve.hashring` — consistent hashing of users onto
  workers;
* :mod:`repro.serve.worker` / :mod:`repro.serve.supervisor` /
  :mod:`repro.serve.fabric` — the multi-machine scale-out fabric:
  supervised worker processes behind a consistent-hash router, joined
  over a TCP control socket (``repro serve-worker --join``), with
  heartbeat-driven restart from checkpoint, live shard migration, and
  a warm-standby router (``repro serve --standby``) that promotes
  itself when the primary dies;
* :mod:`repro.serve.statefiles` — the on-disk coordination plane
  (supervisor address, worker registry, router endpoints; all atomic);
* :mod:`repro.serve.chaos` — the fault-injection harness that proves
  the recovery story, worker kills and router failover alike
  (``repro chaos [--router-kill]``).

See docs/SERVING.md for the wire grammar and operational semantics, and
``repro serve`` / ``repro replay`` / ``repro watch`` for the CLI faces.
"""

from .chaos import ChaosConfig, ChaosReport, run_chaos
from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    load_checkpoint,
    previous_path,
    save_checkpoint,
    session_state_from_doc,
    session_state_to_doc,
)
from .client import (
    IngestClient,
    ReplayStats,
    collect_estimates,
    replay_trace,
    watch_estimates,
)
from .fabric import BreathFabric
from .hashring import DEFAULT_VNODES, HashRing
from .retry import DEFAULT_RETRY, RESPAWN_RETRY, RetryPolicy
from .protocol import (
    COLUMN_FRAME_VERSION,
    FRAME_KINDS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    decode_column_frame,
    encode_column_frame,
    encode_column_payload,
    encode_frame,
    estimate_to_wire,
    negotiate_frames,
)
from .hibernate import HibernationStore, blob_to_doc, doc_to_blob
from .server import ACK_EVERY, BreathServer
from .session import SessionConfig, SessionShard, UserSession
from .statefiles import (
    fabric_endpoints,
    read_state_doc,
    registry_path,
    router_addr_path,
    supervisor_addr_path,
    write_state_doc,
)
from .supervisor import FabricConfig, Supervisor, WorkerHandle
from .worker import control_rpc, parse_addr, register_with, worker_main

__all__ = [
    "BreathServer", "ACK_EVERY",
    "SessionConfig", "SessionShard", "UserSession",
    "HibernationStore", "doc_to_blob", "blob_to_doc",
    "IngestClient", "ReplayStats", "replay_trace", "watch_estimates",
    "collect_estimates",
    "FrameDecoder", "encode_frame", "estimate_to_wire", "negotiate_frames",
    "encode_column_frame", "encode_column_payload", "decode_column_frame",
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES", "FRAME_KINDS", "COLUMN_FRAME_VERSION",
    "save_checkpoint", "load_checkpoint", "previous_path",
    "session_state_to_doc", "session_state_from_doc",
    "CHECKPOINT_FORMAT", "CHECKPOINT_VERSION",
    "RetryPolicy", "DEFAULT_RETRY", "RESPAWN_RETRY",
    "HashRing", "DEFAULT_VNODES",
    "BreathFabric", "FabricConfig", "Supervisor", "WorkerHandle",
    "control_rpc", "parse_addr", "register_with", "worker_main",
    "read_state_doc", "write_state_doc", "supervisor_addr_path",
    "registry_path", "router_addr_path", "fabric_endpoints",
    "ChaosConfig", "ChaosReport", "run_chaos",
]
