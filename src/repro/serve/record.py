"""The session record: the one serialised form of a monitoring session.

A session's whole state is its buffered rows plus a few clocks and
counters (``UserSession.state()``): the engine's incremental state is
a pure function of the rows, rebuilt by one ``feed_batch``, so
restoring the rows restores every later estimate bit for bit (DESIGN.md
§12).  That state is serialised one way, as a *session record*::

    zlib( u32 LE header length | header | frame )

``frame`` is the rows as one column-frame payload, the wire's
``report_batch`` payload (48 bytes a row); ``header`` is the rest of
the session document as canonical compact JSON (sorted keys): user,
clocks, counters, ``drop_counts``, ``hibernated`` when parked, and
``frame_crc32``, the CRC-32 of the frame bytes.  Equal states give
byte-equal records.

The cold tier parks records, a checkpoint file lists them and shard
migration carries them; only the deflate level differs
(:data:`PARKED_LEVEL`, :data:`LIVE_LEVEL`), and a parked record moves
between them as the same bytes.  :func:`read_record` checks everything
a record claims: the deflate stream, the header's fields, the frame's
CRC-32 and layout (a binary frame would otherwise decode a scribbled
byte into a different float without any error), and that every row
belongs to the record's user.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict

import numpy as np

from ..core.pipeline import FEED_DROP_KEYS
from ..errors import CheckpointCorruptError, ReproError
from .protocol import (
    column_payload_rows,
    decode_column_frame,
    encode_column_payload,
)

#: Deflate level of a parked record.  On a 617-row session (20 s of
#: ward reads: 29.9 KB before deflate, Python 3.11 on a 2-vCPU Xeon),
#: level 1 deflates it in 0.33 ms to 16.6 KB and level 6 in 0.60 ms to
#: 15.8 KB — 5 % smaller for 1.8x the time, on the wake-and-park path.
PARKED_LEVEL = 1

#: Deflate level of a live session packed for a checkpoint: stored
#: blocks, still adler32-checked.  For the 40-user ward checkpoint of
#: ``perfbench`` (2 vCPUs, medians of 15) packing the 40 records took
#: 1.4 ms at level 0 and 23.6 ms at level 1, for 1.32 MB of records
#: instead of 0.73 MB.  Live state is written on every checkpoint tick
#: and read back at most once.  (A migrated live session is packed at
#: :data:`PARKED_LEVEL`: its reply must fit in one wire frame.)
LIVE_LEVEL = 0

#: Session-document keys of the frame bytes and their CRC-32.
FRAME_KEY = "frame"
FRAME_CRC_KEY = "frame_crc32"

#: The record's header-length prefix.
_HEADER_LEN = struct.Struct("<I")

#: Inflated bytes that hold a column frame's fixed header.
_FRAME_HEAD_BYTES = 16

#: Session-state fields that are stream times (float or None).
_TIME_FIELDS = ("first_t", "latest_t", "next_due_t")
#: Session-state fields that are integer counts.
_COUNT_FIELDS = ("reports_in", "estimates_out")


def session_state_to_doc(state: Dict[str, Any]) -> Dict[str, Any]:
    """One session's ``UserSession.state()`` as a session document.

    The state's ``batch`` becomes ``frame`` — the column-frame payload
    bytes — plus its ``frame_crc32``; every other field is copied as
    is.  :func:`pack_record` serialises the document.
    """
    doc = dict(state)
    payload = encode_column_payload(doc.pop("batch"))
    doc[FRAME_KEY] = payload
    doc[FRAME_CRC_KEY] = zlib.crc32(payload)
    return doc


def pack_record(doc: Dict[str, Any], level: int = PARKED_LEVEL) -> bytes:
    """A session document (:func:`session_state_to_doc`) as a record."""
    header = dict(doc)
    frame = header.pop(FRAME_KEY)
    text = json.dumps(header, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    return zlib.compress(b"".join((_HEADER_LEN.pack(len(text)), text,
                                   frame)), level)


def unpack_record(record: bytes) -> Dict[str, Any]:
    """Inflate a record to its session document, frame as raw bytes.

    Only the envelope is checked here (deflate stream, header length,
    a UTF-8 JSON object); :func:`session_state_from_doc` validates the
    document.

    Raises:
        CheckpointCorruptError: when the envelope is broken.
    """
    try:
        raw = zlib.decompress(record)
        (size,) = _HEADER_LEN.unpack_from(raw)
        end = _HEADER_LEN.size + size
        if end > len(raw):
            raise ValueError(f"header length {size} runs past the "
                             f"{len(raw)}-byte record")
        doc = json.loads(raw[_HEADER_LEN.size:end].decode("utf-8"))
    except (zlib.error, struct.error, UnicodeDecodeError, ValueError,
            RecursionError) as exc:
        raise CheckpointCorruptError(f"corrupt session record: {exc}") \
            from exc
    if not isinstance(doc, dict):
        raise CheckpointCorruptError(
            f"session record holds a {type(doc).__name__}, not a "
            f"session document")
    doc[FRAME_KEY] = raw[end:]
    return doc


def record_rows(record: bytes) -> int:
    """Rows a well-formed record holds, read by inflating its header only."""
    inflater = zlib.decompressobj()
    (size,) = _HEADER_LEN.unpack(
        inflater.decompress(record, _HEADER_LEN.size))
    head = inflater.decompress(inflater.unconsumed_tail,
                               size + _FRAME_HEAD_BYTES)
    return column_payload_rows(head[size:])


def _int(value: Any) -> int:
    """A JSON integer, refusing bools and every other type."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def session_state_from_doc(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`session_state_to_doc` (the frame becomes a batch).

    Validates the whole document: field types, the frame's CRC-32 and
    layout, and that every row belongs to the document's user.

    Raises:
        CheckpointCorruptError: when the document is malformed.
    """
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"session document must be an object, "
                            f"got {type(doc).__name__}")
        state = dict(doc)
        user_id = _int(state["user_id"])
        if not 0 <= user_id < 2 ** 64:
            raise ValueError(f"user_id {user_id} outside the EPC's 64 bits")
        payload = state.pop(FRAME_KEY)
        if not isinstance(payload, bytes):
            raise TypeError(f"frame must be bytes, got {type(payload)}")
        crc = _int(state.pop(FRAME_CRC_KEY))
        if zlib.crc32(payload) != crc:
            raise CheckpointCorruptError(
                f"session frame CRC-32 {zlib.crc32(payload):#010x} != "
                f"stored {crc & 0xFFFFFFFF:#010x} (frame bytes altered)")
        message = decode_column_frame(payload)
        if message["seqs"] is not None:
            raise ValueError("session frames carry no seq column")
        batch = message["batch"]
        if np.any(batch.user_id != np.uint64(user_id)):
            raise ValueError(f"frame holds rows of a user other than "
                             f"{user_id}")
        for name in _TIME_FIELDS:
            value = state.get(name)
            if value is not None:
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    raise TypeError(f"{name} must be a number or null")
                state[name] = float(value)
        for name in _COUNT_FIELDS:
            state[name] = _int(state.get(name, 0))
        drops = state.get("drop_counts")
        if drops is not None:
            if not isinstance(drops, dict):
                raise TypeError("drop_counts must be an object")
            state["drop_counts"] = {key: _int(drops.get(key, 0))
                                    for key in FEED_DROP_KEYS}
        if not isinstance(state.get("hibernated", False), bool):
            raise TypeError("hibernated must be a boolean")
        state["user_id"] = user_id
        state["batch"] = batch
        return state
    except CheckpointCorruptError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError,
            ReproError) as exc:
        raise CheckpointCorruptError(
            f"malformed session document: {exc}") from exc


def read_record(record: bytes) -> Dict[str, Any]:
    """A record's validated session state, ready for ``UserSession.restore``.

    Raises:
        CheckpointCorruptError: when the record fails any check.
    """
    return session_state_from_doc(unpack_record(record))
