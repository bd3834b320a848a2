"""Zero-crossing detection and the instantaneous rate estimator (Eq. 5).

    "To monitor breathing rates, we detect the zero crossings ... We record
    the time stamps of the zero crossing events as t_i and calculate the
    instant breathing rate as f_BR(t_i) = (M - 1) / (2 (t_i - t_{i-M})).
    ... we buffer 7 zero crossings which correspond to 3 breaths"
    (Section IV-B)

Indexing note: with a buffer of M crossings ``t_{i-M+1} .. t_i`` there are
``M - 1`` crossing intervals = ``(M - 1) / 2`` breaths between the oldest
and newest buffered crossing, giving rate ``(M - 1) / (2 * span)``.  The
paper writes the span as ``t_i - t_{i-M}`` but its own calibration (7
crossings = 3 breaths = 6 half-cycles) matches the M-crossing buffer, so
that is what we implement.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import InsufficientDataError, StreamError
from ..streams.timeseries import TimeSeries
from ..units import BPM_PER_HZ

#: The paper's buffer size: 7 crossings = 3 breaths.
PAPER_BUFFER_M = 7


def zero_crossing_times(series: TimeSeries, hysteresis: float = 0.0) -> List[float]:
    """Timestamps where the signal crosses zero, linearly interpolated.

    Args:
        series: the filtered breathing signal (zero-mean).
        hysteresis: ignore crossings whose neighbouring extremum stays
            within ``hysteresis`` of zero — suppresses chatter from residual
            noise riding on the filtered signal.  0 disables.

    Returns:
        Crossing times in order (possibly empty).

    Raises:
        StreamError: on negative hysteresis.
    """
    if hysteresis < 0:
        raise StreamError("hysteresis must be >= 0")
    if len(series) < 2:
        return []
    v = series.values
    t = series.times
    sign = np.sign(v)
    # Exact zeros carry no side information: an interior zero belongs to
    # the *previous* sign (so a sample landing exactly on zero is not
    # double-counted), and a run of leading zeros belongs to the *first*
    # nonzero sign (so the flat lead-in never manufactures a crossing).
    # An identically-zero signal has no crossings at all.  Propagation is
    # a vectorized forward-fill of last-nonzero indices — this sits on
    # the per-tick streaming hot path.
    nonzero = np.flatnonzero(sign)
    if nonzero.size == 0:
        return []
    carry = np.where(sign != 0, np.arange(sign.size), -1)
    np.maximum.accumulate(carry, out=carry)
    carry[carry < 0] = nonzero[0]
    sign = sign[carry]

    # Linear interpolation between samples i and i+1 of every sign
    # change.  Neighbours of a sign change always differ (a zero takes
    # its predecessor's sign), so the division is never by zero.
    idx = np.flatnonzero(sign[1:] != sign[:-1])
    t0, v0 = t[idx], v[idx]
    at = t0 + (t[idx + 1] - t0) * (-v0) / (v[idx + 1] - v0)
    crossings: List[float] = at.tolist()

    if hysteresis <= 0.0 or len(crossings) < 2:
        return crossings
    # Hysteresis: between two kept crossings, the excursion must exceed
    # the threshold; merge chattery crossing pairs that it doesn't.  The
    # samples with lo <= t <= hi, for crossings lo and hi, are the rows
    # from lo's left bisection to hi's right one (t is sorted).
    lefts = t.searchsorted(at, side="left").tolist()
    rights = t.searchsorted(at, side="right").tolist()
    abs_v = np.abs(v)
    kept: List[int] = [0]
    for i in range(1, len(crossings)):
        i0, i1 = lefts[kept[-1]], rights[i]
        excursion = float(abs_v[i0:i1].max()) if i1 > i0 else 0.0
        if excursion >= hysteresis:
            kept.append(i)
        else:
            kept.pop()  # the pair cancels: signal never really left zero
            if not kept:
                kept.append(i)
    return [crossings[i] for i in kept]


def instant_rates_bpm(crossing_times: List[float],
                      buffer_m: int = PAPER_BUFFER_M) -> TimeSeries:
    """Eq. (5): instantaneous breathing rate at each crossing [bpm].

    Args:
        crossing_times: ordered zero-crossing timestamps.
        buffer_m: crossings buffered per estimate (paper: 7).

    Returns:
        TimeSeries of rates, timestamped at the newest buffered crossing.

    Raises:
        InsufficientDataError: with fewer crossings than the buffer holds.
        StreamError: on a buffer size below 2.
    """
    if buffer_m < 2:
        raise StreamError("buffer_m must be >= 2")
    if len(crossing_times) < buffer_m:
        raise InsufficientDataError(
            f"need at least {buffer_m} zero crossings, got {len(crossing_times)}"
        )
    times: List[float] = []
    rates: List[float] = []
    for i in range(buffer_m - 1, len(crossing_times)):
        newest = crossing_times[i]
        oldest = crossing_times[i - (buffer_m - 1)]
        span = newest - oldest
        if span <= 0:
            continue
        rate_hz = (buffer_m - 1) / (2.0 * span)
        times.append(newest)
        rates.append(rate_hz * BPM_PER_HZ)
    if not times:
        raise InsufficientDataError("no positive-span crossing windows")
    return TimeSeries(times, rates)


def rate_series_bpm(series: TimeSeries, buffer_m: int = PAPER_BUFFER_M,
                    hysteresis: float = 0.0) -> TimeSeries:
    """Convenience: zero crossings + Eq. (5) in one call.

    Raises:
        InsufficientDataError: when the signal yields too few crossings.
    """
    crossings = zero_crossing_times(series, hysteresis=hysteresis)
    return instant_rates_bpm(crossings, buffer_m=buffer_m)
