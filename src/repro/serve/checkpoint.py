"""Checkpoint/resume of live monitoring sessions.

A serving checkpoint is one JSON document holding, per user, the rows
still inside the engine's bounded streaming window plus the session's
cadence clock and drop counters.  Raw rows — not derived signal state —
remain the checkpointed representation even now that the engine
maintains incremental state (the per-user window index with its Eq. 3
phase-delta columns, the tick memo): that state is a *pure function* of the
buffered rows, so ``restore_streaming`` rebuilds it deterministically
with one ``feed_batch`` call, and restoring the window restores every
subsequent estimate bit for bit (``tests/test_serve.py`` asserts resume
continuity against an uninterrupted run; DESIGN.md §12 covers the
rebuild contract).  Serialising cursor/cache internals would only buy a
faster restore at the price of a schema coupled to pipeline internals.
The window is bounded (~4 analysis windows per tag stream), so a
checkpoint is O(users), not O(session lifetime).

**Session documents.**  One session is one JSON object (v3) whose
buffered rows are a single binary column frame — the very payload of
the wire's ``report_batch`` frame
(:func:`~repro.serve.protocol.encode_column_payload`), ~48 bytes a row —
carried base64-encoded in ``frame``, with the ``zlib.crc32`` of the
frame bytes in ``frame_crc32``.  The same document is a checkpoint
entry and a fabric migration record; a hibernation blob
(:mod:`repro.serve.hibernate`) holds it too, deflated, as the document
without ``frame`` followed by the raw frame bytes — in memory the cold
tier carries the frame as ``bytes``
(:func:`session_state_to_binary_doc`), never as base64.  So the wire
and every form of stored state share one binary format.  The CRC is
checked wherever a document is decoded (checkpoint load,
``migrate_in``, wake), whichever way it carries its frame: a binary
frame would otherwise decode a scribbled byte into a different float
without any error.  v2 documents (one JSON dict per report under
``reports``, the retired protocol's ``report`` message shape) still
load, converted to a batch once by :func:`wire_to_report`; nothing
writes them, and the cold tier refuses to park one.

Since v2 the checkpoint also carries ``client_seqs`` — the highest
report sequence number accepted per ``client_id`` — snapshotted in the
*same* document as the session windows, so a restored server's
duplicate filter rewinds exactly as far as its session state does (the
idempotent resume contract of :class:`~repro.serve.client.IngestClient`).
Since v4 ``meta_crc32`` guards ``counters`` and ``client_seqs``: a
scribbled watermark digit would otherwise load cleanly and make the
restored server drop a reconnecting client's valid reports as already
seen.

Durability is defended in depth (the fabric's chaos harness corrupts
these files mid-write on purpose):

* **atomic** — written to a temp file and ``os.replace``d into place,
  so a crash mid-checkpoint never leaves a torn live file;
* **fsynced** — the temp file is flushed and ``os.fsync``ed *before*
  the rename (and the directory after it, best effort), so the rename
  cannot be reordered ahead of the data hitting disk;
* **verified** — a file that fails to parse, validate or pass a frame
  or metadata CRC raises a typed :class:`~repro.errors.CheckpointCorruptError`,
  never a raw decode exception;
* **generational** — the previous good checkpoint survives as
  ``<path>.prev``; :func:`load_checkpoint` falls back to it when the
  live file is corrupt or missing mid-rotation.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..core.pipeline import FEED_DROP_KEYS
from ..epc.codec import EPC96
from ..errors import CheckpointCorruptError, ReproError, ServeError
from ..reader.batch import ReportBatch
from ..reader.tagreport import TagReport
from .protocol import (
    column_payload_rows,
    decode_column_frame,
    encode_column_payload,
)

#: Checkpoint document magic / schema version.
CHECKPOINT_FORMAT = "repro-serve-checkpoint"
#: v2 added ``client_seqs`` (idempotent-resume watermarks); v3 stores
#: each session's rows as one CRC-checked column frame instead of a
#: list of per-report dicts; v4 adds ``meta_crc32`` over ``counters``
#: and ``client_seqs``.  v1, v2 and v3 files load fine.
CHECKPOINT_VERSION = 4

#: Checkpoint key of the CRC-32 over the document-level metadata.
META_CRC_KEY = "meta_crc32"

#: Session-document keys of the frame (base64 text, or raw bytes in the
#: cold tier) and its CRC-32.
FRAME_KEY = "frame"
FRAME_CRC_KEY = "frame_crc32"

#: Base64 characters that cover a column frame's 16-byte header.
_HEADER_B64_CHARS = 24

#: Session-state fields that are stream times (float or None).
_TIME_FIELDS = ("first_t", "latest_t", "next_due_t")
#: Session-state fields that are integer counts.
_COUNT_FIELDS = ("reports_in", "estimates_out")


def previous_path(path: Union[str, Path]) -> Path:
    """Where :func:`save_checkpoint` keeps the previous good generation."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


def wire_to_report(message: Dict[str, Any]) -> TagReport:
    """One v2 session document's per-report dict as a validated TagReport.

    Raises:
        CheckpointCorruptError: on missing fields or values TagReport
            rejects.
    """
    try:
        return TagReport(
            epc=EPC96.from_hex(message["epc"]),
            timestamp_s=float(message["timestamp_s"]),
            phase_rad=float(message["phase_rad"]),
            rssi_dbm=float(message["rssi_dbm"]),
            doppler_hz=float(message["doppler_hz"]),
            channel_index=int(message["channel_index"]),
            antenna_port=int(message["antenna_port"]),
        )
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise CheckpointCorruptError(f"bad v2 report entry: {exc}") from exc


def _meta_crc(counters: Any, client_seqs: Any) -> int:
    """CRC-32 over the canonical JSON of the document-level metadata."""
    text = json.dumps({"client_seqs": client_seqs, "counters": counters},
                      separators=(",", ":"), sort_keys=True)
    return zlib.crc32(text.encode("utf-8"))


def session_state_to_binary_doc(state: Dict[str, Any]) -> Dict[str, Any]:
    """One session's ``UserSession.state()`` with its frame as raw bytes.

    The state's ``batch`` becomes ``frame`` — the column-frame payload
    bytes — plus its ``frame_crc32``; every other field is copied as
    is.  This is what the hibernation cold tier parks; it is not
    JSON-ready (:func:`session_state_to_doc` is).
    """
    doc = dict(state)
    payload = encode_column_payload(doc.pop("batch"))
    doc[FRAME_KEY] = payload
    doc[FRAME_CRC_KEY] = zlib.crc32(payload)
    return doc


def with_text_frame(doc: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a raw-frame session document, its frame base64 text."""
    doc = dict(doc)
    doc[FRAME_KEY] = base64.b64encode(doc[FRAME_KEY]).decode("ascii")
    return doc


def session_state_to_doc(state: Dict[str, Any]) -> Dict[str, Any]:
    """One session's ``UserSession.state()`` as a JSON-ready document.

    :func:`session_state_to_binary_doc` with the frame base64-encoded.
    The wire shape of fabric shard migration (``migrate_out`` /
    ``migrate_in`` carry lists of exactly these documents) and of a
    checkpoint entry.
    """
    return with_text_frame(session_state_to_binary_doc(state))


def _int(value: Any) -> int:
    """A JSON integer, refusing bools and every other type."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def frame_payload(doc: Dict[str, Any]) -> bytes:
    """The raw column-frame bytes of a document, either way it carries them.

    Raises:
        KeyError: the document has no frame (a v2 document).
        TypeError: the frame is neither bytes nor text.
        binascii.Error: the text is not base64 (a ``ValueError``).
    """
    frame = doc[FRAME_KEY]
    if isinstance(frame, bytes):
        return frame
    if not isinstance(frame, str):
        raise TypeError(f"frame must be bytes or base64 text, "
                        f"got {type(frame)}")
    return base64.b64decode(frame, validate=True)


def _frame_batch(doc: Dict[str, Any]) -> ReportBatch:
    """Decode and CRC-check a v3 document's frame."""
    payload = frame_payload(doc)
    crc = _int(doc[FRAME_CRC_KEY])
    if zlib.crc32(payload) != crc:
        raise CheckpointCorruptError(
            f"session frame CRC-32 {zlib.crc32(payload):#010x} != stored "
            f"{crc & 0xFFFFFFFF:#010x} (frame bytes altered)")
    message = decode_column_frame(payload)
    if message["seqs"] is not None:
        raise ValueError("session frames carry no seq column")
    return message["batch"]


def session_state_from_doc(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`session_state_to_doc` (the frame becomes a batch).

    Validates the whole document: field types, the frame's CRC-32 and
    layout, and that every row belongs to the document's user.  The
    frame may be base64 text (checkpoints, migration) or raw bytes (a
    woken hibernation blob).  A v2 document's ``reports`` list is
    converted to a batch here, once.

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
        if FRAME_KEY in state:
            batch = _frame_batch(state)
            del state[FRAME_KEY], state[FRAME_CRC_KEY]
        else:  # v2: one JSON dict per report
            reports = state.pop("reports")
            if not isinstance(reports, list):
                raise TypeError("reports must be a list")
            batch = ReportBatch.from_reports(
                [wire_to_report(m) for m in reports])
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
            ReproError) as exc:  # binascii.Error is a ValueError
        raise CheckpointCorruptError(
            f"malformed session document: {exc}") from exc


def current_session_doc(doc: Dict[str, Any],
                        state: Dict[str, Any]) -> Dict[str, Any]:
    """A validated session document in the current (frame) shape.

    ``doc`` itself when it already carries a frame — adopted as is,
    never decoded and re-encoded — else (a v2 document) re-encoded from
    ``state``, its :func:`session_state_from_doc` result.
    """
    return doc if FRAME_KEY in doc else session_state_to_doc(state)


def _doc_rows(doc: Dict[str, Any]) -> int:
    """Rows a session document holds, read from its frame header."""
    if FRAME_KEY not in doc:
        return len(doc["reports"])
    return column_payload_rows(
        base64.b64decode(doc[FRAME_KEY][:_HEADER_B64_CHARS]))


def save_checkpoint(path: Union[str, Path],
                    sessions: List[Dict[str, Any]],
                    counters: Dict[str, int],
                    client_seqs: Optional[Dict[str, int]] = None,
                    hibernated_docs: Optional[List[Dict[str, Any]]] = None,
                    ) -> int:
    """Write a checkpoint atomically and durably; returns reports captured.

    Args:
        path: destination file (parent directory must exist).
        sessions: per-session state dicts from ``UserSession.state()``.
        counters: server-level totals (frames, sheds, connections) so a
            restarted server's metrics keep counting instead of lying
            back to zero.
        client_seqs: highest accepted report sequence per ``client_id``
            (the duplicate-filter watermarks; omitted = empty).
        hibernated_docs: session documents from the hibernation cold
            tier (flagged ``"hibernated": true``).  They land in the
            same ``sessions`` list as live sessions — one uniform
            schema — without ever inflating an engine.

    The previous live checkpoint, if any, is rotated to ``<path>.prev``
    before the new one lands, so there is always at most one torn
    generation and at least one good one on disk.
    """
    path = Path(path)
    session_docs = [session_state_to_doc(s) for s in sessions]
    session_docs.extend(dict(d) for d in (hibernated_docs or []))
    session_docs.sort(key=lambda d: d["user_id"])
    counts = {k: int(v) for k, v in sorted(counters.items())}
    seqs = {str(k): int(v) for k, v in sorted((client_seqs or {}).items())}
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "counters": counts,
        "client_seqs": seqs,
        META_CRC_KEY: _meta_crc(counts, seqs),
        "sessions": session_docs,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(doc, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    if path.exists():
        os.replace(path, previous_path(path))
    os.replace(tmp, path)
    try:  # directory fsync makes the rename itself durable (best effort)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    return sum(_doc_rows(d) for d in session_docs)


def _load_document(path: Path) -> Dict[str, Any]:
    """Parse and validate one checkpoint file (no fallback).

    Raises:
        ServeError: when the file cannot be read at all (missing, EPERM).
        CheckpointCorruptError: when it exists but cannot be trusted.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ServeError(f"cannot read checkpoint {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # Torn write, truncation, or garbage — typed so callers can fall
        # back to the previous generation instead of cold-starting.
        raise CheckpointCorruptError(
            f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointCorruptError(
            f"{path} is not a repro-serve checkpoint")
    version = doc.get("version", 0)
    if isinstance(version, bool) or not isinstance(version, int):
        raise CheckpointCorruptError(
            f"{path} has a non-integer version {version!r}")
    if version > CHECKPOINT_VERSION:
        raise ServeError(
            f"checkpoint {path} is version {doc.get('version')}, "
            f"newer than supported version {CHECKPOINT_VERSION}")
    if version >= 4:
        crc = _meta_crc(doc.get("counters"), doc.get("client_seqs"))
        if doc.get(META_CRC_KEY) != crc:
            raise CheckpointCorruptError(
                f"{path}: counters/client_seqs CRC-32 {crc:#010x} != "
                f"stored {doc.get(META_CRC_KEY)!r} (metadata altered)")
    try:
        docs = doc.get("sessions", [])
        if not isinstance(docs, list):
            raise TypeError("sessions must be a list")
        sessions = [session_state_from_doc(state) for state in docs]
        counters = {k: int(v)
                    for k, v in doc.get("counters", {}).items()}
        client_seqs = {str(k): int(v)
                       for k, v in doc.get("client_seqs", {}).items()}
    except CheckpointCorruptError as exc:
        raise CheckpointCorruptError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise CheckpointCorruptError(
            f"malformed checkpoint {path}: {exc}") from exc
    return {"counters": counters, "sessions": sessions,
            "documents": [current_session_doc(d, s)
                          for d, s in zip(docs, sessions)],
            "client_seqs": client_seqs, "fallback": False}


def load_checkpoint(path: Union[str, Path],
                    allow_fallback: bool = True) -> Dict[str, Any]:
    """Read a checkpoint back; every session's frame is decoded and checked.

    Args:
        path: the live checkpoint file.
        allow_fallback: when True (default) a corrupt or mid-rotation
            missing live file falls back to ``<path>.prev``; the result
            then carries ``"fallback": True``.

    Returns:
        ``{"counters": {...}, "client_seqs": {...}, "sessions": [...],
        "documents": [...], "fallback": bool}`` where each session state
        carries a ``batch`` (a :class:`~repro.reader.batch.ReportBatch`),
        ready for ``UserSession.restore``, and ``documents[i]`` is the
        validated frame document of ``sessions[i]`` (what a resumed server
        parks, as is, for a hibernated session).

    Raises:
        CheckpointCorruptError: the live file is corrupt and no good
            previous generation exists either.
        ServeError: the file is missing (cold start) or a newer schema
            version than this code understands.
    """
    path = Path(path)
    try:
        return _load_document(path)
    except (CheckpointCorruptError, ServeError) as exc:
        prev = previous_path(path)
        if not allow_fallback or not prev.exists():
            raise
        # A missing live file only falls back when a rotation could
        # have been interrupted (a .prev exists); corruption always
        # tries the previous generation.
        doc = _load_document(prev)
        doc["fallback"] = True
        doc["fallback_reason"] = str(exc)
        return doc
