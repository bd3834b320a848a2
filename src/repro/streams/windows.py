"""Sliding-window iteration over time series.

The paper's realtime monitor recomputes the breathing estimate over a moving
window; the evaluation averages per-window estimates across a two-minute
trial (Section VI-B-1).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


from ..errors import StreamError
from .timeseries import TimeSeries


def trailing_window_bounds(t_latest: float,
                           window_s: float) -> Tuple[float, float]:
    """The pinned trailing analysis window ``(t_latest - window_s, t_latest]``.

    This is THE definition of "the last ``window_s`` seconds" everywhere
    in the pipeline — batch windowing (``TagBreathe.process(window_s=...)``)
    and the streaming tick's window index share it so their report sets
    are identical by construction:

    * the newest report (``t == t_latest``) is **included** — it anchors
      the window;
    * a report exactly ``window_s`` old (``t == t_latest - window_s``) is
      **excluded** — the window is half-open below, so its span never
      exceeds ``window_s``.

    Returns:
        ``(t_low, t_high)`` — keep reports with ``t_low < t <= t_high``.

    Raises:
        StreamError: on a non-positive or NaN window.
    """
    if not window_s > 0:
        raise StreamError(f"window_s must be > 0, got {window_s}")
    return t_latest - window_s, t_latest


def window_slices(t_start: float, t_end: float, window_s: float,
                  step_s: float) -> List[Tuple[float, float]]:
    """Window boundaries ``[(w_start, w_end), ...]`` covering a span.

    The final window is anchored so it ends exactly at ``t_end`` (partial
    trailing data is never dropped); degenerate spans shorter than one
    window yield the single full span.

    Raises:
        StreamError: on non-positive window or step.
    """
    if window_s <= 0 or step_s <= 0:
        raise StreamError("window_s and step_s must be > 0")
    if t_end <= t_start:
        raise StreamError(f"empty span [{t_start}, {t_end}]")
    if t_end - t_start <= window_s:
        return [(t_start, t_end)]
    slices: List[Tuple[float, float]] = []
    w0 = t_start
    while w0 + window_s < t_end - 1e-12:
        slices.append((w0, w0 + window_s))
        w0 += step_s
    slices.append((t_end - window_s, t_end))
    return slices


def sliding_windows(series: TimeSeries, window_s: float,
                    step_s: float) -> Iterator[TimeSeries]:
    """Yield sub-series for each sliding window over ``series``.

    Windows with no samples are skipped.
    """
    if not series:
        return
    for w0, w1 in window_slices(series.start, series.end, window_s, step_s):
        sub = series.slice_time(w0, w1 + 1e-12)
        if sub:
            yield sub
