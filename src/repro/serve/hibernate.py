"""Compressed cold storage for idle monitoring sessions.

Real fleets are idle-heavy: of a million registered users, only a few
percent are breathing into the system at any instant, yet every
registered session would otherwise keep its window index of stored
reports, with their Eq. 3 phase deltas, resident forever.  The
:class:`HibernationStore` is the cold tier that fixes the economics: an
idle session's checkpoint document — the exact shape
:func:`repro.serve.checkpoint.session_state_to_doc` produces, whose
buffered rows are one CRC-checked binary column frame (the wire's
``report_batch`` payload, base64 in the document) — is serialised to
canonical compact JSON, deflated, and parked as one ``bytes`` blob per
user.

The blob *is* the session: hibernated users ride checkpoints and shard
migration as their documents without ever materialising a
``TagBreathe`` engine, and the next report for a hibernated user
inflates the blob, checks the frame's CRC and rebuilds a live
:class:`~repro.serve.session.UserSession` with one ``feed_batch`` call;
its subsequent estimates are bit-identical to an uninterrupted
session's (``tests/test_lifecycle.py`` pins the property).

A breathing session's document compresses to a few KB — two to three
orders of magnitude below the resident numpy/object state it replaces —
which is what makes the 1M-registered / 1%-active scenario of
``run_idle_economics_benchmark`` fit on one machine.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import CheckpointCorruptError

#: zlib level: 6 is the speed/size knee for these documents (level 9
#: buys ~2 % at ~2x the CPU).
_COMPRESS_LEVEL = 6

#: Estimated per-entry bookkeeping bytes beyond the blob payload: the
#: bytes-object header (~33 B), the boxed int key (~28 B), and the
#: amortised dict slot (~100 B).  Folded into :meth:`resident_bytes` so
#: the idle-economics numbers reflect what the process actually holds.
ENTRY_OVERHEAD_BYTES = 160


def doc_to_blob(doc: Dict[str, Any]) -> bytes:
    """Serialise one checkpoint-shaped session document to a cold blob.

    Canonical compact JSON (sorted keys, no whitespace) before deflate,
    so equal states produce byte-equal blobs.
    """
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return zlib.compress(text.encode("utf-8"), _COMPRESS_LEVEL)


def blob_to_doc(blob: bytes) -> Dict[str, Any]:
    """Inflate a cold blob back to its session document.

    Only the envelope is checked here (deflate stream, UTF-8, a JSON
    object); the document's fields and frame CRC are validated by
    :func:`repro.serve.checkpoint.session_state_from_doc`.

    Raises:
        CheckpointCorruptError: when the blob is not a deflated JSON
            object.
    """
    try:
        doc = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, ValueError) as exc:
        raise CheckpointCorruptError(f"corrupt hibernation blob: {exc}") \
            from exc
    if not isinstance(doc, dict):
        raise CheckpointCorruptError(
            f"hibernation blob holds a {type(doc).__name__}, not a "
            f"session document")
    return doc


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

    def get(self, user_id: int) -> Optional[Dict[str, Any]]:
        """Inflate one parked document without removing it."""
        blob = self._blobs.get(user_id)
        return None if blob is None else blob_to_doc(blob)

    def pop(self, user_id: int) -> Optional[Dict[str, Any]]:
        """Remove and inflate one parked document (the wake path)."""
        blob = self._blobs.pop(user_id, None)
        return None if blob is None else blob_to_doc(blob)

    def discard(self, user_id: int) -> bool:
        """Drop one parked document without inflating it."""
        return self._blobs.pop(user_id, None) is not None

    def user_ids(self) -> List[int]:
        """Parked users, sorted."""
        return sorted(self._blobs)

    def docs(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Iterate ``(user_id, document)`` in user order (checkpointing)."""
        for user_id in sorted(self._blobs):
            yield user_id, blob_to_doc(self._blobs[user_id])

    def resident_bytes(self) -> int:
        """Approximate bytes this store keeps resident (blobs + entries)."""
        return sum(len(blob) + ENTRY_OVERHEAD_BYTES
                   for blob in self._blobs.values())

    def clear(self) -> None:
        self._blobs.clear()
