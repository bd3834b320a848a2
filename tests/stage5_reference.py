"""Test helper: the per-stream stage 5 reference.

The engine runs stage 5 — displacement samples, Hampel rejection and
Eq. (6)/(7) fusion — as one segmented pass over Eq. (3) columns
(``repro.core.incremental.window_track``), in batch and in the
streaming tick alike.  This module keeps the per-stream form it
replaced, stream by stream over ``TagReport`` lists:

* :func:`group_reports_by_stream` — a capture split into per-(user,
  tag) report lists;
* :func:`series_from_pairs` and :func:`merge_series` — ``TimeSeries``
  built from ``(time, value)`` pairs and interleaved by time;
* :func:`phase_segments` — Eq. (3)/(4) unwrapped segments per
  (channel, antenna) group of one tag;
* :func:`displacement_samples` — those segments demeaned (the Fig. 6
  normalisation) and merged into one sample stream;
* :func:`hampel_filter` — the 1-D Hampel/MAD outlier filter;
* :func:`fused_track_counting` — all three per stream, then
  ``fuse_sample_streams``;
* :func:`estimate_user_recompute` — the engine's cascade over a
  streamed window with this stage 5, the from-scratch tick reference.

Tests compare the kernel against this code, never against itself.
"""

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fusion import fuse_sample_streams
from repro.core.incremental import WindowRows
from repro.core.pipeline import TagBreathe, UserEstimate
from repro.core.preprocess import (
    DEFAULT_MIN_SEGMENT_LEN,
    DEFAULT_SEGMENT_GAP_S,
    StreamKey,
)
from repro.errors import StreamError
from repro.reader.tagreport import TagReport
from repro.streams.timeseries import TimeSeries
from repro.units import SPEED_OF_LIGHT, wrap_phase_delta

#: A differencing group key: (channel_index, antenna_port).
GroupKey = Tuple[int, int]


def group_reports_by_stream(
        reports: Iterable[TagReport]) -> Dict[StreamKey, List[TagReport]]:
    """Split a capture into per-(user, tag) streams via the EPC ID fields.

    Reports within each stream preserve their relative order.
    """
    streams: Dict[StreamKey, List[TagReport]] = defaultdict(list)
    for report in reports:
        streams[report.stream_key].append(report)
    return dict(streams)


def series_from_pairs(pairs: Iterable[Tuple[float, float]]) -> TimeSeries:
    """Build a series from an iterable of ``(time, value)`` pairs."""
    pair_list = list(pairs)
    if not pair_list:
        return TimeSeries.empty()
    t, v = zip(*pair_list)
    return TimeSeries(t, v)


def merge_series(series: Sequence[TimeSeries]) -> TimeSeries:
    """Interleave several series by time.

    Of equal timestamps across the inputs only the first (in input
    order) is kept, so the result stays strictly increasing.
    """
    nonempty = [s for s in series if s]
    if not nonempty:
        return TimeSeries.empty()
    if len(nonempty) == 1:
        return nonempty[0]
    t = np.concatenate([s.times for s in nonempty])
    v = np.concatenate([s.values for s in nonempty])
    order = np.argsort(t, kind="stable")
    t, v = t[order], v[order]
    keep = np.concatenate([[True], np.diff(t) > 0])
    return TimeSeries.from_trusted(t[keep], v[keep])


def phase_segments(
    reports: Sequence[TagReport],
    frequencies_hz: Sequence[float],
    max_gap_s: float = DEFAULT_SEGMENT_GAP_S,
) -> Dict[GroupKey, List[TimeSeries]]:
    """Unwrapped displacement segments per (channel, antenna) group.

    For each group, consecutive phase readings are chained with Eq. (3)'s
    wrapped differencing and accumulated (Eq. 4) into a continuous
    *absolute* displacement trace ``lambda/(4*pi) * unwrapped_phase``.
    A gap longer than ``max_gap_s``, or a time that does not advance,
    starts a new segment.  Each segment keeps an arbitrary offset (the
    channel/circuit constant ``c``).

    Raises:
        StreamError: on unknown channel indices, mixed tags, or a
            non-positive gap limit.
    """
    if max_gap_s <= 0:
        raise StreamError("max_gap_s must be > 0")
    ordered = sorted(reports, key=lambda r: r.timestamp_s)
    if not ordered:
        return {}
    keys = {r.stream_key for r in ordered}
    if len(keys) > 1:
        raise StreamError(
            f"phase_segments expects one tag's reports, got streams {sorted(keys)}"
        )
    chains: Dict[GroupKey, List[List[Tuple[float, float]]]] = defaultdict(list)
    state: Dict[GroupKey, Tuple[float, float, float]] = {}  # t, phase, unwrapped
    for report in ordered:
        if report.channel_index >= len(frequencies_hz):
            raise StreamError(
                f"channel index {report.channel_index} outside frequency map "
                f"of {len(frequencies_hz)} channels"
            )
        group: GroupKey = (report.channel_index, report.antenna_port)
        lam = SPEED_OF_LIGHT / frequencies_hz[report.channel_index]
        prev = state.get(group)
        if prev is None or report.timestamp_s - prev[0] > max_gap_s \
                or report.timestamp_s <= prev[0]:
            unwrapped = report.phase_rad
            chains[group].append([])
        else:
            unwrapped = prev[2] + wrap_phase_delta(report.phase_rad - prev[1])
        state[group] = (report.timestamp_s, report.phase_rad, unwrapped)
        chains[group][-1].append(
            (report.timestamp_s, lam / (4.0 * np.pi) * unwrapped)
        )
    return {
        group: [series_from_pairs(seg) for seg in segments]
        for group, segments in chains.items()
    }


def displacement_samples(
    reports: Sequence[TagReport],
    frequencies_hz: Sequence[float],
    max_gap_s: float = DEFAULT_SEGMENT_GAP_S,
    min_segment_len: int = DEFAULT_MIN_SEGMENT_LEN,
) -> TimeSeries:
    """Absolute (offset-normalised) displacement samples for ONE tag.

    Demeans each :func:`phase_segments` segment of at least
    ``min_segment_len`` reads and merges them into one time-ordered
    stream; :func:`merge_series` keeps the first of equal times, i.e.
    the sample of the group that appeared first.

    Raises:
        StreamError: propagated from :func:`phase_segments`, or a
            ``min_segment_len`` below 1.
    """
    if min_segment_len < 1:
        raise StreamError("min_segment_len must be >= 1")
    segments = phase_segments(reports, frequencies_hz, max_gap_s=max_gap_s)
    kept: List[TimeSeries] = []
    for group_segments in segments.values():
        for segment in group_segments:
            if len(segment) >= min_segment_len:
                kept.append(segment.demean())
    if not kept:
        return TimeSeries.empty()
    return merge_series(kept)


def hampel_filter(series: TimeSeries, window: int = 3,
                  n_sigmas: float = 6.0) -> Tuple[TimeSeries, int]:
    """Hampel/MAD outlier rejection over one displacement stream.

    A sample is removed when it deviates from the median of its
    ``2 * window + 1`` edge-padded neighbourhood by more than
    ``n_sigmas`` robust sigmas (1.4826 x the neighbourhood MAD).
    Series shorter than one neighbourhood pass unchanged, and a zero
    MAD never flags.

    Returns:
        ``(filtered, n_rejected)``.

    Raises:
        StreamError: on a non-positive window or threshold.
    """
    if window < 1:
        raise StreamError("hampel window must be >= 1")
    if n_sigmas <= 0:
        raise StreamError("hampel n_sigmas must be > 0")
    n = len(series)
    k = 2 * int(window) + 1
    if n < k:
        return series, 0
    values = series.values
    w = int(window)
    padded = np.concatenate(
        [np.full(w, values[0]), values, np.full(w, values[-1])])
    neighbourhoods = np.lib.stride_tricks.sliding_window_view(padded, k)
    med = np.median(neighbourhoods, axis=1)
    sigma = 1.4826 * np.median(np.abs(neighbourhoods - med[:, None]), axis=1)
    residual = np.abs(values - med)
    flagged = (sigma > 0) & (residual > n_sigmas * sigma)
    if not flagged.any():
        return series, 0
    keep = ~flagged
    return (TimeSeries.from_trusted(series.times[keep], values[keep]),
            int(flagged.sum()))


def fused_track_counting(
    engine: TagBreathe, user_id: int, user_reports: Sequence[TagReport],
) -> Tuple[TimeSeries, int, int]:
    """Stage 5 stream by stream: ``(track, n_rejected, n_samples)``."""
    rb = engine.robustness
    n_rejected = 0
    per_tag: Dict[StreamKey, TimeSeries] = {}
    for key, tag_reports in group_reports_by_stream(user_reports).items():
        stream = displacement_samples(tag_reports, engine._frequencies)
        if rb.outlier_rejection and stream:
            stream, rejected = hampel_filter(
                stream, window=rb.hampel_window, n_sigmas=rb.hampel_n_sigmas)
            n_rejected += rejected
        per_tag[key] = stream
    n_samples = sum(len(s) for s in per_tag.values()) + n_rejected
    fused = fuse_sample_streams(user_id, per_tag,
                                bin_s=engine.config.fusion_bin_s)
    return fused.track, n_rejected, n_samples


def estimate_user_recompute(engine: TagBreathe, user_id: int,
                            window_s: Optional[float] = None,
                            estimator: Optional[str] = None
                            ) -> UserEstimate:
    """The from-scratch reference tick over an engine's streaming store.

    Slices the user's stored rows inside the pinned trailing window and
    runs the engine's cascade over them with :func:`fused_track_counting`
    as stage 5.  It reads and updates the fallback hysteresis memory as
    ``estimate_user`` does, so interleaving the two cannot diverge.
    """
    window = window_s if window_s is not None else engine._window_s()
    _state, _lo, _hi, a, b = engine._inc.window(user_id, window)
    batch = engine._inc.batch(user_id, a, b)
    rows = WindowRows(batch.t, batch.antenna, batch.rssi, batch.doppler,
                      batch.channel, batch.tag_id.astype(np.int64))

    def track_of(keep: np.ndarray) -> Tuple[TimeSeries, int, int]:
        return fused_track_counting(engine, user_id,
                                    batch.select(keep).to_reports())

    previous = engine._active_estimator.get(user_id)
    result = engine._cascade(user_id, rows, track_of, warn_stacklevel=3,
                             previous_estimator=previous,
                             estimator_override=estimator)
    if estimator is None:
        engine._note_estimator(user_id, previous, result.estimator)
    return result
