"""Compressed cold storage for idle monitoring sessions.

Real fleets are idle-heavy: of a million registered users, only a few
percent are breathing into the system at any instant, yet every
registered session would otherwise keep its window index of stored
reports, with their Eq. 3 phase deltas, resident forever.  The
:class:`HibernationStore` is the cold tier that fixes the economics: an
idle session's checkpoint document — the shape
:func:`repro.serve.checkpoint.session_state_to_doc` produces, whose
buffered rows are one CRC-checked binary column frame (the wire's
``report_batch`` payload) — is parked as one deflated ``bytes`` blob
per user, laid out as::

    u32 LE header length | header | frame payload

The header is the document without ``frame``, as canonical compact
JSON (sorted keys, no whitespace), so it keeps ``user_id``, the
clocks, the counters, ``drop_counts``, ``hibernated`` and the frame's
``frame_crc32``; the payload is the raw frame.  The frame is never
base64-encoded in the cold tier: the park path hands the store the
bytes :func:`~repro.serve.protocol.encode_column_payload` produced
(:func:`~repro.serve.checkpoint.session_state_to_binary_doc`), and
:func:`open_blob` gives the wake path those bytes back.  Blobs never
leave the process; checkpoints and migration carry the base64 JSON
document (:func:`blob_to_doc`).

The blob *is* the session: hibernated users ride checkpoints and shard
migration as their documents without ever materialising a
``TagBreathe`` engine, and the next report for a hibernated user
inflates the blob, checks the frame's CRC and rebuilds a live
:class:`~repro.serve.session.UserSession` with one ``feed_batch`` call;
its subsequent estimates are bit-identical to an uninterrupted
session's (``tests/test_lifecycle.py`` pins the property).

A breathing session's blob is a few KB (~27 B a buffered row) — two to
three orders of magnitude below the resident numpy/object state it
replaces — which is what makes the 1M-registered / 1%-active scenario
of ``run_idle_economics_benchmark`` fit on one machine.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, Optional

from ..errors import CheckpointCorruptError
from .checkpoint import FRAME_KEY, frame_payload, with_text_frame

#: zlib level.  On a 617-row session (20 s of ward reads: a 29.9 KB
#: blob before deflate, Python 3.11 on a 2-vCPU Xeon), level 1 deflates
#: it in 0.33 ms to 16.6 KB and level 6 in 0.60 ms to 15.8 KB — 5 %
#: smaller for 1.8x the time, on the wake-and-park hot path.  (The
#: retired base64 JSON blob took 0.74 ms at level 6 for 16.8 KB.)
_COMPRESS_LEVEL = 1

#: The blob's header-length prefix.
_HEADER_LEN = struct.Struct("<I")

#: Estimated per-entry bookkeeping bytes beyond the blob payload: the
#: bytes-object header (~33 B), the boxed int key (~28 B), and the
#: amortised dict slot (~100 B).  Folded into :meth:`resident_bytes` so
#: the idle-economics numbers reflect what the process actually holds.
ENTRY_OVERHEAD_BYTES = 160


def doc_to_blob(doc: Dict[str, Any]) -> bytes:
    """Deflate one checkpoint-shaped session document to a cold blob.

    The frame may be raw bytes (the park path) or base64 text (an
    adopted checkpoint or migration document).  Equal states produce
    byte-equal blobs.

    Raises:
        CheckpointCorruptError: the document carries no frame (a v2
            document, which nothing parks) or an unreadable one.
    """
    header = dict(doc)
    try:
        payload = frame_payload(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(
            f"cannot park a session document without a column frame: "
            f"{exc!r}") from exc
    del header[FRAME_KEY]
    text = json.dumps(header, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    return zlib.compress(b"".join((_HEADER_LEN.pack(len(text)), text,
                                   payload)), _COMPRESS_LEVEL)


def open_blob(blob: bytes) -> Dict[str, Any]:
    """Inflate a cold blob to its session document, frame as raw bytes.

    Only the envelope is checked here (deflate stream, header length,
    a UTF-8 JSON object); the document's fields and frame CRC are
    validated by :func:`repro.serve.checkpoint.session_state_from_doc`,
    which takes the frame as bytes.

    Raises:
        CheckpointCorruptError: when the blob's envelope is broken.
    """
    try:
        raw = zlib.decompress(blob)
        (size,) = _HEADER_LEN.unpack_from(raw)
        end = _HEADER_LEN.size + size
        if end > len(raw):
            raise ValueError(f"header length {size} runs past the "
                             f"{len(raw)}-byte blob")
        doc = json.loads(raw[_HEADER_LEN.size:end].decode("utf-8"))
    except (zlib.error, struct.error, UnicodeDecodeError, ValueError,
            RecursionError) as exc:
        raise CheckpointCorruptError(f"corrupt hibernation blob: {exc}") \
            from exc
    if not isinstance(doc, dict):
        raise CheckpointCorruptError(
            f"hibernation blob holds a {type(doc).__name__}, not a "
            f"session document")
    doc[FRAME_KEY] = raw[end:]
    return doc


def blob_to_doc(blob: bytes) -> Dict[str, Any]:
    """Inflate a cold blob to its JSON-ready document (base64 frame).

    The shape checkpoints and migration carry; the inverse of
    :func:`doc_to_blob` on such documents.

    Raises:
        CheckpointCorruptError: when the blob's envelope is broken.
    """
    return with_text_frame(open_blob(blob))


class HibernationStore:
    """Per-shard map of ``user_id -> compressed session document``.

    Mutated only from the owning shard's asyncio worker context, like
    the live session dict it shadows — no locking.
    """

    def __init__(self) -> None:
        self._blobs: Dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self._blobs)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._blobs

    def put(self, user_id: int, doc: Dict[str, Any]) -> int:
        """Park one session document; returns the blob's size in bytes."""
        blob = doc_to_blob(doc)
        self._blobs[user_id] = blob
        return len(blob)

    def put_blob(self, user_id: int, blob: bytes) -> None:
        """Park an already-compressed document (e.g. another store's)."""
        self._blobs[user_id] = blob

    def blob(self, user_id: int) -> bytes:
        """The raw compressed blob for one parked user (no inflate)."""
        return self._blobs[user_id]

    def pop_blob(self, user_id: int) -> Optional[bytes]:
        """Remove one parked blob and return it, not inflated."""
        return self._blobs.pop(user_id, None)

    def discard(self, user_id: int) -> bool:
        """Drop one parked document without inflating it."""
        return self._blobs.pop(user_id, None) is not None

    def user_ids(self) -> List[int]:
        """Parked users, sorted."""
        return sorted(self._blobs)

    def resident_bytes(self) -> int:
        """Approximate bytes this store keeps resident (blobs + entries)."""
        return sum(len(blob) + ENTRY_OVERHEAD_BYTES
                   for blob in self._blobs.values())

    def clear(self) -> None:
        self._blobs.clear()
