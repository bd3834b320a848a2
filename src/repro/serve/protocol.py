"""Wire protocol for the streaming ingest service.

Framing is length-prefixed: every message is a 4-byte big-endian payload
length followed by the payload.  Tag reads travel in exactly one form,
the binary **column frame** (``report_batch``): a
:class:`repro.reader.batch.ReportBatch` packed as numpy columns
(:func:`encode_column_frame`), ~56 bytes a report with its sequence
column, decoded back to columns without any per-row parsing.  Every
other message is a JSON object.  The column frame's leading magic byte
0x00 can never open a JSON payload, so the decoder dispatches per frame.

Message types (client → server): ``hello``, ``report_batch``,
``watch``, ``unwatch``, ``flush``, ``bye``, plus the fabric control
verbs ``ping`` (liveness/heartbeat probe), ``migrate_out`` (drain named
users' session state off this server) and ``migrate_in`` (restore
session state migrated from another server).  Server → client:
``welcome``, ``ack``, ``estimate``, ``flushed``, ``draining``,
``error``, ``pong``, ``migrated``.  A column frame may carry a per-row
``seq`` column, monotonically increasing per ``client_id``: the server
remembers the highest sequence accepted per client — snapshotted into
its checkpoint — and silently drops replays at or below it, which is
what lets a client resend after a reconnect without duplicating data
(idempotent resume; the ``welcome`` answers ``last_seq``).

Estimates on *watch* connections are plain JSONL text (one JSON object
per line) so ``nc`` / ``tail``-style tooling can consume them; see
docs/SERVING.md for the full grammar.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ProtocolError, ReproError
from ..reader.batch import ReportBatch

#: Protocol version spoken by this module.  v2 added the fabric control
#: verbs (``ping``/``pong``, ``migrate_out``/``migrate_in``/``migrated``)
#: and idempotent-resume sequence numbers; v3 added the binary column
#: frame (``report_batch`` on the wire) and its ``frames`` negotiation;
#: v4 made the column frame the only report format and JSON the only
#: encoding of every other message; v5 migrates sessions as session
#: records (:mod:`repro.serve.record`), base64 text in the JSON
#: ``migrate_in`` / ``migrated`` messages.
PROTOCOL_VERSION = 5

#: Hard ceiling on one frame's payload size.  Anything near this limit
#: is a corrupt length prefix, not data (a column frame is split well
#: below it).
MAX_FRAME_BYTES = 1 << 20

#: The 4-byte big-endian unsigned length prefix.
_HEADER = struct.Struct("!I")

#: Binary frame kinds a connection may negotiate (hello ``frames`` →
#: welcome ``frames``).  Frames are self-describing on the wire, so the
#: grant only tells a client what the server accepts.
FRAME_KINDS = ("column",)

#: Column-frame layout: a fixed struct header followed by the packed
#: little-endian columns, one contiguous block per column in this order.
#: Header: magic (2s, first byte 0x00), frame version (B), flags (B,
#: bit 0 = trailing per-row seq column), row count (I, big-endian like
#: the length prefix), 8 reserved zero bytes.
COLUMN_FRAME_MAGIC = b"\x00C"
COLUMN_FRAME_VERSION = 1
_COLUMN_HEADER = struct.Struct("!2sBBI8s")
_FLAG_SEQ = 0x01

#: (ReportBatch attribute, wire dtype) per packed column — 48 bytes per
#: row, plus 8 for the optional seq column.
COLUMN_WIRE_DTYPES = (
    ("t", "<f8"),
    ("phase", "<f8"),
    ("rssi", "<f8"),
    ("doppler", "<f8"),
    ("channel", "<i2"),
    ("antenna", "<i2"),
    ("user_id", "<u8"),
    ("tag_id", "<u4"),
)
_SEQ_WIRE_DTYPE = "<u8"
_ROW_BYTES = sum(np.dtype(dt).itemsize for _, dt in COLUMN_WIRE_DTYPES)

#: Message types accepted from clients / emitted by the server.
#: ``flush`` is the ingest barrier: the server answers ``flushed`` only
#: after every queued report has been ingested, giving replay clients a
#: happens-before edge between "bytes sent" and "estimates reflect them".
CLIENT_TYPES = ("hello", "report_batch", "watch", "unwatch", "flush",
                "bye", "ping", "migrate_out", "migrate_in")
SERVER_TYPES = ("welcome", "ack", "estimate", "flushed", "draining",
                "error", "pong", "migrated")


def negotiate_frames(requested: Optional[List[str]]) -> Tuple[str, ...]:
    """The binary frame kinds granted from a hello's ``frames`` list.

    Unknown kinds are dropped, order and duplicates normalised away; an
    absent or empty request grants nothing.
    """
    if not requested:
        return ()
    return tuple(kind for kind in FRAME_KINDS if kind in requested)


def _decode_payload(payload: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack.
        raise ProtocolError(f"undecodable json payload: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(
            "frame payload must be an object with a 'type', got "
            f"{message!r:.200}")
    if message["type"] in ("report", "report_batch"):
        # Protocol v4: tag reads travel only as binary column frames.
        raise ProtocolError(
            f"{message['type']!r} travels only as a column frame")
    return message


def records_to_wire(records: List[bytes]) -> List[str]:
    """Session records as the migrate messages carry them: base64 text."""
    return [base64.b64encode(record).decode("ascii") for record in records]


def records_from_wire(items: Any) -> List[bytes]:
    """Inverse of :func:`records_to_wire`; ProtocolError on bad text."""
    try:
        return [base64.b64decode(item, validate=True) for item in items]
    except (TypeError, ValueError) as exc:  # binascii.Error included
        raise ProtocolError(f"bad session record text: {exc}") from exc


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One JSON message as a length-prefixed wire frame.

    Raises:
        ProtocolError: on an oversized payload.
    """
    payload = json.dumps(message, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(payload)) + payload


def encode_column_payload(batch: ReportBatch,
                          seqs: Optional[np.ndarray] = None) -> bytes:
    """A ``ReportBatch`` as one column-frame payload (no length prefix).

    The payload is the fixed column-frame header followed by each column
    packed contiguously in :data:`COLUMN_WIRE_DTYPES` order (48 bytes a
    report), plus a
    trailing per-row ``seq`` column when ``seqs`` is given — per-row
    rather than a single base because a fabric router splits one frame
    into per-worker sub-batches whose rows are not contiguous in the
    original sequence space.  No size limit applies here: session
    documents (:mod:`repro.serve.checkpoint`) store a whole session's
    rows as one payload; only the wire caps a frame.

    Raises:
        ProtocolError: when a value overflows its wire dtype or ``seqs``
            has the wrong length.
    """
    n = len(batch)
    if np.any(batch.channel > 0x7FFF) or np.any(batch.antenna > 0x7FFF):
        raise ProtocolError(
            "channel/antenna overflow the column frame's int16 range")
    flags = 0 if seqs is None else _FLAG_SEQ
    parts = [_COLUMN_HEADER.pack(COLUMN_FRAME_MAGIC, COLUMN_FRAME_VERSION,
                                 flags, n, b"\x00" * 8)]
    for name, dt in COLUMN_WIRE_DTYPES:
        parts.append(np.ascontiguousarray(
            getattr(batch, name), dtype=dt).tobytes())
    if seqs is not None:
        seqs = np.ascontiguousarray(seqs, dtype=_SEQ_WIRE_DTYPE)
        if seqs.shape != (n,):
            raise ProtocolError(
                f"seqs must be one per row ({n}), got shape {seqs.shape}")
        parts.append(seqs.tobytes())
    return b"".join(parts)


def encode_column_frame(batch: ReportBatch,
                        seqs: Optional[np.ndarray] = None) -> bytes:
    """A ``ReportBatch`` as one length-prefixed binary column frame.

    :func:`encode_column_payload` behind the wire's length prefix.

    Raises:
        ProtocolError: as :func:`encode_column_payload`, or when the
            frame would exceed ``MAX_FRAME_BYTES``.
    """
    payload = encode_column_payload(batch, seqs)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"column frame payload {len(payload)} bytes exceeds "
            f"{MAX_FRAME_BYTES}; split the batch")
    return _HEADER.pack(len(payload)) + payload


def _unpack_column_header(payload: bytes) -> Tuple[int, int, int]:
    """``(version, flags, count)`` of a column-frame payload's header."""
    if len(payload) < _COLUMN_HEADER.size:
        raise ProtocolError(
            f"column frame payload {len(payload)} bytes is shorter than "
            f"the {_COLUMN_HEADER.size}-byte header")
    magic, version, flags, count, _ = _COLUMN_HEADER.unpack_from(payload)
    if magic != COLUMN_FRAME_MAGIC:
        raise ProtocolError(f"bad column frame magic {magic!r}")
    return version, flags, count


def column_payload_rows(payload: bytes) -> int:
    """The row count a column-frame payload's header advertises.

    Only the header is read (a prefix of the payload is enough), so a
    caller can size a stored frame without decoding its columns.

    Raises:
        ProtocolError: on a short header or a bad magic.
    """
    return _unpack_column_header(payload)[2]


def decode_column_frame(payload: bytes) -> Dict[str, Any]:
    """Decode one column-frame payload into a ``report_batch`` message.

    Returns ``{"type": "report_batch", "batch": ReportBatch,
    "seqs": Optional[ndarray]}``.

    Raises:
        ProtocolError: on a bad magic/version/flags, a payload whose
            length does not exactly match the advertised row count
            (truncated or oversized), or column values ``ReportBatch``
            rejects.
    """
    version, flags, count = _unpack_column_header(payload)
    if version != COLUMN_FRAME_VERSION:
        raise ProtocolError(f"unsupported column frame version {version}")
    if flags & ~_FLAG_SEQ:
        raise ProtocolError(f"unknown column frame flags 0x{flags:02x}")
    has_seq = bool(flags & _FLAG_SEQ)
    expected = (_COLUMN_HEADER.size + count * _ROW_BYTES
                + (count * 8 if has_seq else 0))
    if len(payload) != expected:
        raise ProtocolError(
            f"column frame length {len(payload)} != expected {expected} "
            f"for {count} rows (truncated or trailing garbage)")
    offset = _COLUMN_HEADER.size
    columns: Dict[str, np.ndarray] = {}
    for name, dt in COLUMN_WIRE_DTYPES:
        columns[name] = np.frombuffer(payload, dtype=dt, count=count,
                                      offset=offset)
        offset += count * np.dtype(dt).itemsize
    seqs = None
    if has_seq:
        seqs = np.frombuffer(payload, dtype=_SEQ_WIRE_DTYPE, count=count,
                             offset=offset)
    try:
        batch = ReportBatch(**columns)
    except ReproError as exc:
        raise ProtocolError(f"bad column frame contents: {exc}") from exc
    return {"type": "report_batch", "batch": batch, "seqs": seqs}


class FrameDecoder:
    """Incremental decoder: feed raw socket bytes, get complete messages.

    Tolerates arbitrary fragmentation — a frame may arrive one byte at a
    time or many frames in one read.

    Raises:
        ProtocolError: on an oversized length prefix or a payload that
            is neither a column frame nor a JSON object.  The decoder is
            unusable after — framing has lost sync, the connection must
            be dropped.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume bytes; return every complete message they finish."""
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds {MAX_FRAME_BYTES} "
                    "(corrupt stream?)")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            # Column frames are self-describing: the magic's leading
            # 0x00 can never open a JSON payload.
            if payload[:2] == COLUMN_FRAME_MAGIC:
                messages.append(decode_column_frame(payload))
            else:
                messages.append(_decode_payload(payload))


def estimate_to_wire(user_id: int, stream_t: float, estimate: Any,
                     drop_counts: Optional[Dict[str, int]] = None,
                     signal: Optional[Tuple[List[float], List[float]]] = None,
                     final: bool = False) -> Dict[str, Any]:
    """An ``estimate`` message from a pipeline UserEstimate.

    Args:
        user_id: the monitored user.
        stream_t: stream time the estimate was computed at.
        estimate: a :class:`repro.core.pipeline.UserEstimate`.
        drop_counts: the session engine's feed drop counters (stable keys,
            see ``TagBreathe.feed_drop_counts``), surfaced so dashboards
            can tell a clean stream from a lossy one.
        signal: optional ``(times, values)`` downsample of the extracted
            breathing signal for UI sparklines.
        final: True on the last estimate before a drain completes.
    """
    message: Dict[str, Any] = {
        "type": "estimate",
        "user_id": user_id,
        "t": stream_t,
        "rate_bpm": estimate.rate_bpm,
        "confidence": estimate.confidence,
        "degraded_reasons": list(estimate.degraded_reasons),
        "estimator": estimate.estimator,
        "motion_gated": estimate.motion_gated,
        "tags_fused": estimate.tags_fused,
        "read_count": estimate.read_count,
        "antenna_port": estimate.antenna_port,
    }
    if drop_counts:
        message["drop_counts"] = dict(drop_counts)
    if signal is not None:
        message["signal"] = {"times": list(signal[0]),
                             "values": list(signal[1])}
    if final:
        message["final"] = True
    return message
