"""A timestamp-ordered column store for incremental window queries.

The streaming pipeline answers the same question on every cadence tick:
"give me everything this user streamed in the trailing ``window_s``
seconds".  The naive answer — gather every per-stream list, filter,
sort — is O(stored) per tick.  :class:`WindowIndex` keeps the per-user
report attributes in flat, timestamp-ordered numpy columns instead, so a
trailing window is two ``searchsorted`` calls and a contiguous slice:
O(log n) to locate, zero-copy to read.

Mechanics:

* columns live in growable arrays (amortised O(1) append, doubling
  capacity) that act as a ring over the engine's bounded-memory horizon:
  the front is compacted away as the horizon advances, the back grows;
* appends are fast-pathed for in-order arrival (the overwhelmingly
  common case — readers emit in time order); a cross-stream straggler is
  placed by binary search with an O(n) shift, rare enough not to matter;
* equal timestamps keep arrival order, so the row order is a pure
  function of what was fed, and re-feeding the rows in index order
  rebuilds the same index.

The streaming engine keeps every column of a report here (time, phase,
RSSI, Doppler, channel, antenna port, stream id) plus two columns derived
once at ingest (the Eq. 3 wrapped phase delta and the segment-start
flag): the index is its only per-row store, and checkpoints are its
report columns read back out.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import StreamError

#: Initial capacity of a growable column (on first write).
_MIN_CAPACITY = 64


class GrowableArray:
    """An append-mostly numpy array with amortised O(1) growth.

    Supports the three mutations the window index needs: append at the
    back, insert at an arbitrary position (rare straggler path), and
    drop-by-mask compaction (horizon pruning).  ``view()`` exposes the
    live prefix without copying.

    Args:
        dtype: element dtype.
    """

    __slots__ = ("_arr", "_n")

    def __init__(self, dtype=np.float64) -> None:
        self._arr = np.empty(0, dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        """Allocated slots (rows) in the backing array."""
        return int(self._arr.shape[0])

    @property
    def nbytes(self) -> int:
        """Resident bytes of the backing array (allocated, not live)."""
        return int(self._arr.nbytes)

    def view(self) -> np.ndarray:
        """The live samples (a view — do not hold across mutations)."""
        return self._arr[: self._n]

    def _grow_to(self, need: int) -> None:
        if need <= self._arr.shape[0]:
            return
        cap = max(self._arr.shape[0], _MIN_CAPACITY)
        while cap < need:
            cap *= 2
        new = np.empty(cap, dtype=self._arr.dtype)
        new[: self._n] = self._arr[: self._n]
        self._arr = new

    def append(self, value) -> None:
        """Append one value at the back."""
        self._grow_to(self._n + 1)
        self._arr[self._n] = value
        self._n += 1

    def extend(self, values: np.ndarray) -> None:
        """Append many values at the back in one copy."""
        m = len(values)
        if not m:
            return
        n = self._n
        if n + m > self._arr.shape[0]:
            self._grow_to(n + m)
        self._arr[n: n + m] = values
        self._n = n + m

    def insert(self, position: int, value) -> None:
        """Insert ``value`` at ``position``, shifting the tail right."""
        self._grow_to(self._n + 1)
        self._arr[position + 1: self._n + 1] = self._arr[position: self._n]
        self._arr[position] = value
        self._n += 1

    def drop_front(self, count: int) -> None:
        """Discard the oldest ``count`` values."""
        if count <= 0:
            return
        keep = self._n - count
        self._arr[:keep] = self._arr[count: self._n]
        self._n = max(0, keep)
        self._maybe_shrink()

    def compact(self, keep_mask: np.ndarray) -> None:
        """Keep only the values where ``keep_mask`` is True."""
        kept = self._arr[: self._n][keep_mask]
        self._n = int(kept.shape[0])
        self._arr[: self._n] = kept
        self._maybe_shrink()

    def _maybe_shrink(self) -> None:
        """Release backing memory once the live prefix falls far enough.

        Doubling growth never shrinks on its own, so a column that once
        held a long history would pin its high-water allocation forever.
        Halve the capacity while the live count fits in a quarter of it
        (i.e. shrink only past 2x slack — hysteresis against grow/shrink
        thrash on a buffer oscillating around a power of two), landing
        the new capacity in ``[2n, 4n)`` with a floor of
        ``_MIN_CAPACITY``.
        """
        cap = self._arr.shape[0]
        if cap <= _MIN_CAPACITY:
            return
        target = cap
        while target > _MIN_CAPACITY and self._n * 4 <= target:
            target //= 2
        if target >= cap:
            return
        new = np.empty(target, dtype=self._arr.dtype)
        new[: self._n] = self._arr[: self._n]
        self._arr = new


class WindowIndex:
    """Timestamp-ordered parallel columns with trailing-window slicing.

    Args:
        columns: name -> numpy dtype of each side column (the ``time``
            column is implicit and always float64).

    Raises:
        StreamError: when a column is named ``time`` (reserved).
    """

    def __init__(self, columns: Dict[str, type]) -> None:
        if "time" in columns:
            raise StreamError("'time' is the implicit primary column")
        self._times = GrowableArray(np.float64)
        self._columns: Dict[str, GrowableArray] = {
            name: GrowableArray(dtype) for name, dtype in columns.items()
        }

    def __len__(self) -> int:
        return len(self._times)

    @property
    def nbytes(self) -> int:
        """Resident bytes across the time column and all side columns."""
        total = self._times.nbytes
        for arr in self._columns.values():
            total += arr.nbytes
        return total

    @property
    def times(self) -> np.ndarray:
        """The live timestamps, oldest first (a view)."""
        return self._times.view()

    def column(self, name: str) -> np.ndarray:
        """One side column's live values, time-ordered (a view)."""
        return self._columns[name].view()

    def last_time(self) -> Optional[float]:
        """Newest timestamp, or None when empty."""
        if not len(self):
            return None
        return float(self._times.view()[-1])

    def add(self, time: float, **values) -> None:
        """Add one row, keeping time order (stable for equal times).

        In-order arrival appends in O(1); a straggler older than the
        newest row is placed by binary search.
        """
        t = self._times.view()
        n = t.shape[0]
        if n == 0 or time >= t[-1]:
            self._times.append(time)
            for name, arr in self._columns.items():
                arr.append(values[name])
            return
        position = int(np.searchsorted(t, time, side="right"))
        self._times.insert(position, time)
        for name, arr in self._columns.items():
            arr.insert(position, values[name])

    def extend(self, times: np.ndarray, **values) -> None:
        """Bulk-append rows already in time order at or after the tail.

        The batched ingest fast path: equivalent to calling :meth:`add`
        row by row when every new time is >= the current newest time and
        ``times`` itself is non-decreasing (ties keep the given order,
        matching ``add``'s stable side="right" placement).

        Raises:
            StreamError: when the rows are not in order or would land
                before the current tail — callers must fall back to
                row-wise :meth:`add` in that case.
        """
        times = np.asarray(times, dtype=np.float64)
        m = times.shape[0]
        if not m:
            return
        tail = self.last_time()
        if tail is not None and times[0] < tail:
            raise StreamError(
                "bulk extend would land before the index tail; "
                "use row-wise add for stragglers")
        if m > 1 and np.any(times[1:] < times[:-1]):
            raise StreamError("bulk extend requires non-decreasing times")
        self._times.extend(times)
        for name, arr in self._columns.items():
            arr.extend(values[name])

    def window_bounds(self, t_low: float, t_high: float) -> Tuple[int, int]:
        """Index range ``[a, b)`` of rows with ``t_low < time <= t_high``.

        The half-open-below convention is the pinned trailing-window
        semantics shared by batch and streaming (see
        :func:`repro.streams.windows.trailing_window_bounds`).
        """
        t = self._times.view()
        a = int(np.searchsorted(t, t_low, side="right"))
        b = int(np.searchsorted(t, t_high, side="right"))
        return a, b

    def prune_before(self, t_cut: float,
                     where: Optional[np.ndarray] = None) -> int:
        """Drop rows with ``time < t_cut``; returns how many were dropped.

        Args:
            t_cut: the horizon — strictly older rows go.
            where: optional boolean mask (over the live rows) restricting
                the prune to a subset, e.g. one stream's rows; rows
                outside the mask are kept regardless of age.
        """
        t = self._times.view()
        if not t.shape[0] or t[0] >= t_cut:
            return 0
        old = t < t_cut
        if where is not None:
            old = old & where
        dropped = int(old.sum())
        if not dropped:
            return 0
        keep = ~old
        self._times.compact(keep)
        for arr in self._columns.values():
            arr.compact(keep)
        return dropped
