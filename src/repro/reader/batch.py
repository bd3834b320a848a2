"""Structure-of-arrays report batches for the columnar hot path.

A :class:`ReportBatch` carries the same seven LLRP fields as a list of
:class:`~repro.reader.tagreport.TagReport` objects — timestamp, phase,
RSSI, Doppler, channel, antenna, EPC — but as parallel numpy columns,
so screening, phase-chain differencing, and wire encoding can run as
array operations instead of per-object attribute chasing.  The EPC is
carried pre-split into its ``user_id``/``tag_id`` halves (the only form
the pipeline ever consumes; ``EPC96.from_user_tag`` reconstructs the
full 96-bit code losslessly).

Batches are validated once on construction with the exact same bounds
``TagReport.__post_init__`` enforces per report, so a batch round-trips
to a report list and back bit-for-bit.  Batches cut from or gathered
out of already-validated batches (slices, :meth:`ReportBatch.select`,
:meth:`ReportBatch.split_by_user`, :meth:`BatchBuffer.batch`) skip that
check: their rows passed it once.

A batch is also a read-only ``Sequence[TagReport]``: indexing with an
int gives a report, slicing gives a batch, and iterating gives the
reports :meth:`ReportBatch.to_reports` builds (once per batch; later
passes reuse them).  So ``Reader.run`` and ``SimulationResult.reports``
hand out one batch that report-at-a-time code reads as before.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..epc.codec import EPC96
from ..errors import ReaderError
from ..units import TWO_PI
from .tagreport import TagReport

#: (name, numpy dtype) of every batch column, in canonical order.
COLUMNS = (
    ("t", np.float64),
    ("phase", np.float64),
    ("rssi", np.float64),
    ("doppler", np.float64),
    ("channel", np.int64),
    ("antenna", np.int64),
    ("user_id", np.uint64),
    ("tag_id", np.uint64),
)

#: Slack TagReport allows past 2*pi for float round-off, mirrored here.
_PHASE_SLACK = 1e-12


class ReportBatch(SequenceABC):
    """A column-oriented batch of tag reports.

    Args:
        t: report timestamps in seconds (float64).
        phase: raw wrapped phase in ``[0, 2*pi)`` radians (float64).
        rssi: received signal strength in dBm (float64).
        doppler: raw Doppler shift in Hz (float64).
        channel: hop channel indices, >= 0 (int).
        antenna: antenna ports, >= 1 (int).
        user_id: upper-64-bit EPC halves (uint64).
        tag_id: lower-32-bit EPC halves (uint64, < 2**32).

    Equality is by value: a batch equals another batch with the same
    columns, and any other sequence holding the same reports in the
    same order (so ``batch == []`` holds for an empty batch).

    Raises:
        ReaderError: when column lengths disagree or any value is out
            of the range ``TagReport`` itself would reject.
    """

    __slots__ = ("t", "phase", "rssi", "doppler", "channel", "antenna",
                 "user_id", "tag_id", "_reports")

    def __init__(self, t, phase, rssi, doppler, channel, antenna,
                 user_id, tag_id) -> None:
        cols = (t, phase, rssi, doppler, channel, antenna, user_id, tag_id)
        for (name, dtype), raw in zip(COLUMNS, cols):
            arr = np.ascontiguousarray(raw, dtype=dtype)
            if arr.ndim != 1:
                raise ReaderError(f"batch column {name!r} must be 1-D")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_reports", None)
        n = self.t.shape[0]
        for name, _ in COLUMNS:
            if getattr(self, name).shape[0] != n:
                raise ReaderError(
                    f"batch column {name!r} has "
                    f"{getattr(self, name).shape[0]} rows, expected {n}")
        if n:
            self._validate()

    @classmethod
    def _trusted(cls, columns) -> "ReportBatch":
        """A batch of already-validated 1-D columns, in COLUMNS order."""
        batch = object.__new__(cls)
        for (name, _), column in zip(COLUMNS, columns):
            object.__setattr__(batch, name, column)
        object.__setattr__(batch, "_reports", None)
        return batch

    def _columns(self) -> List[np.ndarray]:
        return [getattr(self, name) for name, _ in COLUMNS]

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ReportBatch is immutable")

    def __reduce__(self):
        return ReportBatch, tuple(self._columns())

    def _validate(self) -> None:
        if not np.all(np.isfinite(self.t)):
            raise ReaderError("timestamps must be finite")
        phase = self.phase
        if np.any(~np.isfinite(phase)) or np.any(phase < 0.0) \
                or np.any(phase >= TWO_PI + _PHASE_SLACK):
            raise ReaderError("phase must be a finite value in [0, 2*pi)")
        if np.any(self.channel < 0):
            raise ReaderError("channel index must be >= 0")
        if np.any(self.antenna < 1):
            raise ReaderError("antenna ports are 1-based")
        if np.any(self.tag_id > np.uint64(0xFFFFFFFF)):
            raise ReaderError("tag_id exceeds the 32-bit EPC serial field")

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def _report_list(self) -> List[TagReport]:
        if self._reports is None:
            object.__setattr__(self, "_reports", self.to_reports())
        return self._reports

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ReportBatch._trusted(
                [np.ascontiguousarray(c[index]) for c in self._columns()])
        return self._report_list()[operator.index(index)]

    def __iter__(self) -> Iterator[TagReport]:
        return iter(self._report_list())

    def __eq__(self, other) -> bool:
        if isinstance(other, ReportBatch):
            return all(np.array_equal(a, b) for a, b in
                       zip(self._columns(), other._columns()))
        if not isinstance(other, SequenceABC) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ReportBatch({len(self)} rows)"

    @classmethod
    def from_reports(cls, reports: Iterable[TagReport]) -> "ReportBatch":
        """Pack reports into columns (order preserved).

        A batch is returned as it is.
        """
        if isinstance(reports, ReportBatch):
            return reports
        if not isinstance(reports, SequenceABC):
            reports = list(reports)
        n = len(reports)
        t = np.empty(n)
        phase = np.empty(n)
        rssi = np.empty(n)
        doppler = np.empty(n)
        channel = np.empty(n, dtype=np.int64)
        antenna = np.empty(n, dtype=np.int64)
        user = np.empty(n, dtype=np.uint64)
        tag = np.empty(n, dtype=np.uint64)
        for i, r in enumerate(reports):
            t[i] = r.timestamp_s
            phase[i] = r.phase_rad
            rssi[i] = r.rssi_dbm
            doppler[i] = r.doppler_hz
            channel[i] = r.channel_index
            antenna[i] = r.antenna_port
            user[i] = r.user_id
            tag[i] = r.tag_id
        return cls(t, phase, rssi, doppler, channel, antenna, user, tag)

    def to_reports(self) -> List[TagReport]:
        """Materialize the batch as TagReport objects (order preserved)."""
        return [
            TagReport(epc=EPC96.from_user_tag(int(u), int(g)),
                      timestamp_s=ts, phase_rad=ph, rssi_dbm=rs,
                      doppler_hz=dp, channel_index=int(ch),
                      antenna_port=int(an))
            for ts, ph, rs, dp, ch, an, u, g in zip(
                self.t.tolist(), self.phase.tolist(), self.rssi.tolist(),
                self.doppler.tolist(), self.channel.tolist(),
                self.antenna.tolist(), self.user_id.tolist(),
                self.tag_id.tolist())
        ]

    def stream_counts(self) -> Dict[Tuple[int, int], int]:
        """Rows per ``(user_id, tag_id)`` stream, streams in sorted order."""
        streams, counts = np.unique(np.stack((self.user_id, self.tag_id)),
                                    axis=1, return_counts=True)
        return dict(zip(zip(*streams.tolist()), counts.tolist()))

    def with_columns(self, **columns) -> "ReportBatch":
        """A new, validated batch with the named columns replaced.

        The other columns are shared with this batch, not copied.

        Raises:
            ReaderError: when a new column is out of range or the wrong
                length.
        """
        current = {name: getattr(self, name) for name, _ in COLUMNS}
        return ReportBatch(**{**current, **columns})

    def select(self, rows) -> "ReportBatch":
        """A new batch of the given rows (boolean mask or index array)."""
        return ReportBatch._trusted(
            [np.ascontiguousarray(c[rows]) for c in self._columns()])

    @classmethod
    def concat(cls, batches: Sequence["ReportBatch"]) -> "ReportBatch":
        """The rows of ``batches`` back to back (not validated again)."""
        return cls._trusted([
            np.concatenate([getattr(b, name) for b in batches]
                           + [np.empty(0, dtype=dtype)])
            for name, dtype in COLUMNS])

    def split_by_user(self) -> Iterator[Tuple[int, "ReportBatch"]]:
        """Yield ``(user_id, sub_batch)`` per user, rows in batch order.

        Users are yielded in order of first appearance, and each
        sub-batch keeps its rows in original batch order, so feeding the
        sub-batches sequentially is equivalent to feeding the batch.

        One stable argsort groups the rows and one gather per column
        lays the groups out back to back; each sub-batch is a read-only
        slice of those gathered columns, so together they pin one copy
        of this batch's rows and are not validated again.
        """
        user = self.user_id
        n = user.shape[0]
        if not n:
            return
        order = np.argsort(user, kind="stable")
        gathered = {name: getattr(self, name)[order] for name, _ in COLUMNS}
        for column in gathered.values():
            column.setflags(write=False)
        sorted_user = gathered["user_id"]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_user[1:] != sorted_user[:-1])))
        bounds = np.append(starts, n).tolist()
        # The stable sort leaves each group's first row at its start, so
        # ordering groups by that row yields users by first appearance.
        for gi in np.argsort(order[starts], kind="stable").tolist():
            lo, hi = bounds[gi], bounds[gi + 1]
            yield (int(sorted_user[lo]),
                   ReportBatch._trusted(
                       [c[lo:hi] for c in gathered.values()]))


class BatchBuffer:
    """Fixed-capacity columns that validated batches are appended to.

    Rows are copied in, so a buffered batch pins none of its source
    arrays; :meth:`batch` views the filled rows as one batch without
    validating them again.

    Args:
        capacity: most rows the buffer holds.
    """

    __slots__ = ("_columns", "rows")

    def __init__(self, capacity: int) -> None:
        self._columns = [np.empty(capacity, dtype=dtype)
                         for _, dtype in COLUMNS]
        self.rows = 0

    def append(self, batch: ReportBatch) -> None:
        """Copy ``batch``'s rows in after the rows already held.

        Raises:
            ReaderError: when the rows would not fit.
        """
        lo = self.rows
        hi = lo + len(batch)
        if hi > self._columns[0].shape[0]:
            raise ReaderError(
                f"{hi} rows exceed the buffer's {self._columns[0].shape[0]}")
        for column, (name, _) in zip(self._columns, COLUMNS):
            column[lo:hi] = getattr(batch, name)
        self.rows = hi

    def batch(self) -> ReportBatch:
        """The rows held so far, in append order (views, not copies)."""
        return ReportBatch._trusted([c[:self.rows] for c in self._columns])
