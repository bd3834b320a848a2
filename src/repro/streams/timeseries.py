"""An immutable timestamped value sequence.

``TimeSeries`` is the lingua franca between the reader model (which emits
irregular tag reads), the preprocessing stage (displacement tracks), and the
extraction stage (filtered breathing signals).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple, Union

import numpy as np

from ..errors import EmptyStreamError, NonMonotonicTimeError, StreamError


class TimeSeries:
    """A pair of aligned arrays ``(times, values)`` with strictly increasing time.

    The class is deliberately small: it stores, validates, slices, and does
    simple arithmetic.  Signal processing lives in :mod:`repro.core`.

    Args:
        times: sample timestamps in seconds, strictly increasing.
        values: sample values, same length as ``times``.

    Raises:
        StreamError: if lengths differ or inputs are not 1-D.
        NonMonotonicTimeError: if timestamps are not strictly increasing.
    """

    __slots__ = ("_times", "_values")

    def __init__(self, times: Iterable[float], values: Iterable[float]) -> None:
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or v.ndim != 1:
            raise StreamError("times and values must be 1-D")
        if t.shape[0] != v.shape[0]:
            raise StreamError(
                f"length mismatch: {t.shape[0]} times vs {v.shape[0]} values"
            )
        if t.shape[0] > 1 and not np.all(np.diff(t) > 0):
            raise NonMonotonicTimeError("timestamps must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        self._times = t
        self._values = v

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_trusted(cls, times: np.ndarray, values: np.ndarray) -> "TimeSeries":
        """Wrap arrays the caller *guarantees* already satisfy the invariants.

        The validating constructor pays an ``np.diff`` + ``np.all`` pass
        per instance, which dominates the per-tick cost of the streaming
        hot path where thousands of short segments are built from slices
        of arrays that are strictly increasing by construction.  This
        fast path skips validation entirely; the caller owns the
        contract: both arguments must be 1-D float64 ``np.ndarray`` of
        equal length with strictly increasing times.  Anything arriving
        from outside the library must go through ``TimeSeries(...)``.
        """
        ts = object.__new__(cls)
        times.setflags(write=False)
        values.setflags(write=False)
        ts._times = times
        ts._values = values
        return ts

    @classmethod
    def empty(cls) -> "TimeSeries":
        """A series with no samples."""
        return cls(np.empty(0), np.empty(0))

    @classmethod
    def regular(cls, values: Iterable[float], rate_hz: float, t0: float = 0.0) -> "TimeSeries":
        """Build a regularly sampled series at ``rate_hz`` starting at ``t0``.

        Raises:
            StreamError: if ``rate_hz`` is not strictly positive.
        """
        if rate_hz <= 0:
            raise StreamError(f"rate_hz must be > 0, got {rate_hz}")
        v = np.asarray(list(values), dtype=float)
        t = t0 + np.arange(v.shape[0]) / rate_hz
        return cls(t, v)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Read-only timestamp array [s]."""
        return self._times

    @property
    def values(self) -> np.ndarray:
        """Read-only value array."""
        return self._values

    def __len__(self) -> int:
        return int(self._times.shape[0])

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return zip(self._times.tolist(), self._values.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return bool(
            np.array_equal(self._times, other._times)
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        if not self:
            return "TimeSeries(empty)"
        return (
            f"TimeSeries(n={len(self)}, span=[{self.start:.3f}, {self.end:.3f}]s, "
            f"mean_rate={self.mean_rate_hz():.1f}Hz)"
        )

    # ------------------------------------------------------------------
    # Properties of the time axis
    # ------------------------------------------------------------------
    @property
    def start(self) -> float:
        """First timestamp.

        Raises:
            EmptyStreamError: on an empty series.
        """
        self._require_nonempty("start")
        return float(self._times[0])

    @property
    def end(self) -> float:
        """Last timestamp.

        Raises:
            EmptyStreamError: on an empty series.
        """
        self._require_nonempty("end")
        return float(self._times[-1])

    @property
    def duration(self) -> float:
        """``end - start`` (0 for series with fewer than 2 samples)."""
        if len(self) < 2:
            return 0.0
        return self.end - self.start

    def mean_rate_hz(self) -> float:
        """Average sampling rate over the whole span (0 if < 2 samples)."""
        if len(self) < 2 or self.duration == 0.0:
            return 0.0
        return (len(self) - 1) / self.duration

    # ------------------------------------------------------------------
    # Transformations (each returns a new TimeSeries)
    # ------------------------------------------------------------------
    def slice_time(self, t_start: float, t_end: float) -> "TimeSeries":
        """Samples with ``t_start <= t < t_end``."""
        mask = (self._times >= t_start) & (self._times < t_end)
        return TimeSeries(self._times[mask], self._values[mask])

    def shift_time(self, offset: float) -> "TimeSeries":
        """Add ``offset`` to every timestamp."""
        return TimeSeries(self._times + offset, self._values)

    def map_values(self, func) -> "TimeSeries":
        """Apply a vectorised function to the values."""
        return TimeSeries(self._times, func(self._values))

    def demean(self) -> "TimeSeries":
        """Subtract the mean value (no-op on an empty series)."""
        if not self:
            return self
        return TimeSeries.from_trusted(
            self._times, self._values - self._values.mean())

    def normalize(self) -> "TimeSeries":
        """Scale to zero mean and unit peak amplitude.

        The paper normalises displacement tracks before plotting (Fig. 6).
        A constant series maps to all zeros.
        """
        if not self:
            return self
        centered = self._values - self._values.mean()
        peak = np.abs(centered).max()
        if peak == 0.0:
            return TimeSeries(self._times, centered)
        return TimeSeries(self._times, centered / peak)

    def cumsum(self) -> "TimeSeries":
        """Cumulative sum of values (Eq. 4 / Eq. 7 accumulation)."""
        return TimeSeries.from_trusted(self._times, np.cumsum(self._values))

    def diff(self) -> "TimeSeries":
        """First difference of values, timestamped at the later sample."""
        if len(self) < 2:
            return TimeSeries.empty()
        return TimeSeries.from_trusted(self._times[1:], np.diff(self._values))

    def concat(self, other: "TimeSeries") -> "TimeSeries":
        """Append ``other`` (which must start strictly after this series ends)."""
        if not self:
            return other
        if not other:
            return self
        if other.start <= self.end:
            raise NonMonotonicTimeError(
                f"cannot concat: other starts at {other.start} <= end {self.end}"
            )
        return TimeSeries(
            np.concatenate([self._times, other._times]),
            np.concatenate([self._values, other._values]),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_nonempty(self, what: str) -> None:
        if not self:
            raise EmptyStreamError(f"cannot take {what} of an empty series")


Number = Union[int, float]
