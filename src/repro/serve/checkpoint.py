"""Checkpoint/resume of live monitoring sessions.

A checkpoint file (v5) is a list of session records
(:mod:`repro.serve.record`) under one CRC-32, little-endian::

    magic "RSRVCKPT" | u8 version | u32 meta length | meta
    | (u32 record length | record) * count | u32 CRC-32

``meta`` is canonical compact JSON: ``counters`` (server totals, so a
restarted server's metrics keep counting), ``client_seqs`` (the
duplicate filter's per-client watermarks, snapshotted with the session
windows so both rewind exactly as far) and ``records`` (the count).
The trailer is the ``zlib.crc32`` of every byte before it, so no
flipped bit — a clock, a counter, a watermark digit, a record — loads
silently.  Live sessions are packed at
:data:`~repro.serve.record.LIVE_LEVEL`; parked sessions are written as
the cold tier's bytes and go back into it, on resume, as those bytes.
The v1–v4 JSON checkpoints no longer load: they read as corrupt.

Durability is defended in depth (the chaos harness corrupts these
files on purpose):

* **atomic and fsynced** — written to a temp file, fsynced, then
  ``os.replace``d into place (the directory fsynced after, best
  effort), so a crash mid-checkpoint never leaves a torn live file;
* **verified** — a file that fails its trailer CRC, its parse or any
  record's checks raises :class:`~repro.errors.CheckpointCorruptError`;
* **generational** — the previous good file survives as
  ``<path>.prev``, and :func:`load_checkpoint` falls back to it when
  the live file is corrupt or missing mid-rotation;
* **refusing** — a file this code cannot read (a newer version, an I/O
  error) raises :class:`~repro.errors.ServeError` without the fallback,
  so a server refuses to start rather than overwrite it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import CheckpointCorruptError, ServeError
from .record import (
    LIVE_LEVEL,
    _int,
    pack_record,
    read_record,
    record_rows,
    session_state_to_doc,
)

#: The file's leading bytes.
CHECKPOINT_MAGIC = b"RSRVCKPT"
#: v2 added ``client_seqs``; v3 stored each session's rows as one
#: column frame; v4 added a CRC over the metadata; v5 is the binary
#: file of session records under one trailer CRC.  Only v5 loads.
CHECKPOINT_VERSION = 5

#: Magic and version byte.
_HEAD_BYTES = len(CHECKPOINT_MAGIC) + 1
#: Length prefixes and the CRC trailer.
_U32 = struct.Struct("<I")


def previous_path(path: Union[str, Path]) -> Path:
    """Where :func:`save_checkpoint` keeps the previous good generation."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


def save_checkpoint(path: Union[str, Path],
                    sessions: List[Dict[str, Any]],
                    counters: Dict[str, int],
                    client_seqs: Optional[Dict[str, int]] = None,
                    hibernated_docs: Optional[List[Any]] = None,
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
        hibernated_docs: parked sessions: records as the cold tier
            holds them (written as is) or session documents flagged
            ``"hibernated": true``.

    The previous live checkpoint, if any, is rotated to ``<path>.prev``
    before the new one lands, so there is always at most one torn
    generation and at least one good one on disk.
    """
    path = Path(path)
    records = [pack_record(session_state_to_doc(s), LIVE_LEVEL)
               for s in sessions]
    rows = sum(len(s["batch"]) for s in sessions)
    for parked in hibernated_docs or ():
        if isinstance(parked, dict):
            parked = pack_record(parked)
        records.append(parked)
        rows += record_rows(parked)
    meta = json.dumps({
        "counters": {k: int(v) for k, v in counters.items()},
        "client_seqs": {str(k): int(v)
                        for k, v in (client_seqs or {}).items()},
        "records": len(records),
    }, separators=(",", ":"), sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, bytes((CHECKPOINT_VERSION,)),
             _U32.pack(len(meta)), meta]
    for record in records:
        parts += (_U32.pack(len(record)), record)
    body = b"".join(parts)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(body)
        handle.write(_U32.pack(zlib.crc32(body)))
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
    return rows


def _read(path: Path) -> Optional[bytes]:
    """A file's bytes; None when it does not exist, ServeError when
    it exists but cannot be read (EPERM, EIO, a directory)."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ServeError(f"cannot read checkpoint {path}: {exc}") from exc


def _parse(path: Path, data: bytes) -> Dict[str, Any]:
    """Validate one checkpoint file's bytes (no fallback).

    Raises:
        ServeError: the file is a checkpoint of a newer version.
        CheckpointCorruptError: it cannot be trusted.
    """
    if len(data) < _HEAD_BYTES or not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointCorruptError(
            f"{path} is not a repro-serve checkpoint")
    version = data[_HEAD_BYTES - 1]
    if version > CHECKPOINT_VERSION:
        raise ServeError(
            f"checkpoint {path} is version {version}, newer than "
            f"supported version {CHECKPOINT_VERSION}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointCorruptError(f"{path}: no version {version} files")
    body = data[:-_U32.size]
    if (len(body) < _HEAD_BYTES
            or _U32.unpack(data[-_U32.size:])[0] != zlib.crc32(body)):
        raise CheckpointCorruptError(
            f"{path}: CRC-32 trailer mismatch (file torn or altered)")
    offset = _HEAD_BYTES

    def take() -> bytes:
        nonlocal offset
        (size,) = _U32.unpack_from(body, offset)
        start, offset = offset + _U32.size, offset + _U32.size + size
        if offset > len(body):
            raise ValueError(f"a {size}-byte field runs past the file")
        return body[start:offset]

    try:
        meta = json.loads(take().decode("utf-8"))
        records = [take() for _ in range(_int(meta["records"]))]
        if offset != len(body):
            raise ValueError(f"{len(body) - offset} bytes follow the "
                             f"last record")
        counters = {str(k): _int(v) for k, v in meta["counters"].items()}
        client_seqs = {str(k): _int(v)
                       for k, v in meta["client_seqs"].items()}
        sessions = [read_record(record) for record in records]
    except CheckpointCorruptError as exc:
        raise CheckpointCorruptError(f"{path}: {exc}") from exc
    except (struct.error, KeyError, TypeError, ValueError, AttributeError,
            RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise CheckpointCorruptError(
            f"malformed checkpoint {path}: {exc!r}") from exc
    return {"counters": counters, "client_seqs": client_seqs,
            "sessions": sessions, "records": records, "fallback": False}


def load_checkpoint(path: Union[str, Path],
                    allow_fallback: bool = True) -> Dict[str, Any]:
    """Read a checkpoint back; every record is read and checked.

    Args:
        path: the live checkpoint file.
        allow_fallback: when True (default) a corrupt live file, or a
            missing one beside a ``<path>.prev`` (an interrupted
            rotation), falls back to ``<path>.prev``; the result then
            carries ``"fallback": True`` and a ``"fallback_reason"``.

    Returns:
        ``{"counters": {...}, "client_seqs": {...}, "sessions": [...],
        "records": [...], "fallback": bool}`` where each session state
        carries a ``batch`` (a :class:`~repro.reader.batch.ReportBatch`),
        ready for ``UserSession.restore``, and ``records[i]`` is the
        record ``sessions[i]`` was read from (what a resumed server
        parks, as is, for a hibernated session).

    Raises:
        CheckpointCorruptError: the live file is corrupt and no good
            previous generation exists either.
        ServeError: there is no checkpoint at all, or one that cannot
            be read — a newer version or an I/O error, in the live file
            or in the ``.prev`` it fell back to.  Neither falls back.
    """
    path = Path(path)
    data = _read(path)
    if data is None:
        reason: ServeError = ServeError(f"no checkpoint at {path}")
    else:
        try:
            return _parse(path, data)
        except CheckpointCorruptError as exc:
            reason = exc
    prev = previous_path(path)
    data = _read(prev) if allow_fallback else None
    if data is None:
        raise reason
    saved = _parse(prev, data)
    saved["fallback"] = True
    saved["fallback_reason"] = str(reason)
    return saved
