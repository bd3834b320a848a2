"""Raw-data fusion of multiple tag streams — Eq. (6)–(7), Section IV-C.

    "we carry out low level data fusion by fusing the raw data before
    extracting breath signals. That is because we can effectively improve
    signal strength by fusing raw data, which substantially enhances
    signal extraction especially when the signals are weak."

Mechanics: the paper sums each tag's Eq. (3) displacement increments
within time bins of width ``delta_t``, adds the per-bin sums of all
``n`` tags (Eq. 6) and accumulates them (Eq. 7).  The engine fuses the
per-tag *displacement samples* of
:func:`repro.core.incremental.window_samples` instead: each tag's
samples are averaged within each bin and the binned tracks are summed
across tags, which is Eq. (7)'s accumulated track without its
dwell-boundary random walk (DESIGN.md §6 item 1).

Because all of a user's tags move in phase during breathing ("the three
tags' relative displacement to reader's antenna simultaneously decrease
and increase"), the signals add coherently while measurement noise adds
incoherently — the SNR gain that rescues weak-signal scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import EmptyStreamError, StreamError
from ..streams.resample import bin_mean
from ..streams.timeseries import TimeSeries
from .preprocess import StreamKey

#: The paper's fusion bin width Delta-t; 50 ms keeps the fused stream at
#: 20 Hz, far above any breathing frequency yet coarse enough that every
#: bin usually contains reads from several tags.
DEFAULT_BIN_S = 0.05


@dataclass(frozen=True)
class FusedStream:
    """The output of raw-data fusion for one user.

    Attributes:
        user_id: whose tags were fused.
        increments: the fused track's per-bin first difference.
        track: fused displacement on the bin grid (Eq. 7's track).
        tags_fused: how many tag streams contributed.
        bin_s: the fusion bin width used.
    """

    user_id: int
    increments: TimeSeries
    track: TimeSeries
    tags_fused: int
    bin_s: float


def fuse_sample_streams(
    user_id: int,
    sample_streams: Dict[StreamKey, TimeSeries],
    bin_s: float = DEFAULT_BIN_S,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
) -> FusedStream:
    """Fuse per-tag *absolute* displacement samples, stream by stream.

    Eq. (6)/(7) for the segment-normalised representation of
    :func:`repro.core.incremental.window_samples`
    (whose ``fused_track`` is the same arithmetic over all streams at
    once): each tag's samples are averaged within each Delta-t bin (empty bins
    interpolated) and the per-tag binned tracks are summed across tags.
    All of a user's tags move in phase during breathing (Section IV-D-1),
    so the sum is constructive exactly as Eq. (6) intends, while the
    per-sample noise of the tags averages down.

    Args:
        user_id: the user the streams belong to.
        sample_streams: per-tag displacement sample series.
        bin_s: fusion bin width Delta-t.
        t_start / t_end: common grid bounds (default: union span).

    Returns:
        FusedStream whose ``track`` is the summed binned displacement and
        whose ``increments`` is its first difference.

    Raises:
        EmptyStreamError: if every stream is empty.
        StreamError: on a non-positive bin width.
    """
    if bin_s <= 0:
        raise StreamError("bin_s must be > 0")
    nonempty = [s for s in sample_streams.values() if len(s) >= 2]
    if not nonempty:
        raise EmptyStreamError(f"user {user_id}: no displacement data to fuse")
    lo = min(s.start for s in nonempty) if t_start is None else t_start
    hi = max(s.end for s in nonempty) + 1e-9 if t_end is None else t_end

    fused: Optional[TimeSeries] = None
    for stream in nonempty:
        binned = bin_mean(stream, bin_s, t_start=lo, t_end=hi)
        if fused is None:
            fused = binned
        else:
            fused = TimeSeries.from_trusted(
                fused.times, fused.values + binned.values)
    assert fused is not None
    return FusedStream(
        user_id=user_id,
        increments=fused.diff(),
        track=fused,
        tags_fused=len(nonempty),
        bin_s=bin_s,
    )
