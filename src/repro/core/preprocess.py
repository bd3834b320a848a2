"""Phase measurement preprocessing — Section IV-A-3 of the paper.

    "To continuously track body movements without being interrupted by
    channel hopping, we first group the phase values according to channel
    indexes. Then, we calculate the displacement during two consecutive
    phase readings in each channel according to Eq.(1)."

Three practical refinements the paper's text implies but does not spell
out:

* Readings must also be grouped by **antenna port**: each antenna has its
  own cabling/geometry and hence its own constant offset ``c`` in Eq. (1),
  so cross-antenna phase differences are meaningless.
* Differences must stay **within one channel dwell**.  A channel *recurs*
  only every ``num_channels * dwell`` seconds (~2 s here), and a 2 s
  per-channel sampling interval aliases breathing above ~15 bpm.  Within-
  dwell differences avoid the alias, and because exactly one channel is
  active at a time the merged increment stream still covers the whole
  trajectory nearly continuously.
* Phase readings are **smoothed along each dwell chain** (short moving
  average on the unwrapped phase) before differencing.  Interior noise
  telescopes out of Eq. (4)'s running sum anyway; what survives is the
  noise of each dwell segment's *endpoints*, which the moving average
  cuts by sqrt(k).  This matters because those endpoint errors accumulate
  across dwell boundaries into a slow random walk under the breathing
  band.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import StreamError
from ..rf.constants import fcc_channel_frequencies
from ..reader.tagreport import TagReport
from ..streams.timeseries import TimeSeries
from ..units import SPEED_OF_LIGHT, wrap_phase_delta

#: Reject same-group differences across gaps longer than this by default.
#: Must sit below the channel dwell (0.2 s) so only within-dwell pairs
#: qualify — see the module docstring for the aliasing rationale — while
#: tolerating sparse reads when many tags contend for airtime.
DEFAULT_MAX_GAP_S = 0.15

#: Default phase-smoothing window (reads) along a dwell chain.
DEFAULT_SMOOTH_K = 3

#: A per-tag data stream key: (user_id, tag_id).
StreamKey = Tuple[int, int]

#: A differencing group key: (channel_index, antenna_port).
GroupKey = Tuple[int, int]


def default_frequencies(num_channels: int = 10) -> List[float]:
    """Channel-index -> frequency map for the regulatory default plan.

    The application side of TagBreathe knows the reader's hop table (it
    configures the reader over LLRP); this helper returns the same
    10-channel FCC plan the reader model uses by default.
    """
    return fcc_channel_frequencies(num_channels)


def group_reports_by_stream(reports: Iterable[TagReport]) -> Dict[StreamKey, List[TagReport]]:
    """Split a capture into per-(user, tag) streams via the EPC ID fields.

    Reports within each stream preserve their relative order.
    """
    streams: Dict[StreamKey, List[TagReport]] = defaultdict(list)
    for report in reports:
        streams[report.stream_key].append(report)
    return dict(streams)


class DeltaChain:
    """Stateful Eq. (3) differencing for ONE (channel, antenna) group.

    Feeds on successive phase readings of one tag in one group, unwraps
    them into a continuous phase chain, smooths the chain with a k-read
    moving average, and emits the displacement increment between
    successive smoothed values.  A gap longer than ``max_gap_s`` resets
    the chain (the readings belong to different dwells).

    Args:
        wavelength_m: the group's carrier wavelength.
        max_gap_s: dwell-chain gap limit.
        smooth_k: moving-average window (1 disables smoothing).

    Raises:
        StreamError: on non-positive wavelength/gap/window.
    """

    def __init__(self, wavelength_m: float, max_gap_s: float = DEFAULT_MAX_GAP_S,
                 smooth_k: int = DEFAULT_SMOOTH_K) -> None:
        if wavelength_m <= 0:
            raise StreamError("wavelength must be > 0")
        if max_gap_s <= 0:
            raise StreamError("max_gap_s must be > 0")
        if smooth_k < 1:
            raise StreamError("smooth_k must be >= 1")
        self._lam = float(wavelength_m)
        self._max_gap = float(max_gap_s)
        self._k = int(smooth_k)
        self._last_time: Optional[float] = None
        self._last_phase: Optional[float] = None
        self._unwrapped: float = 0.0
        self._window: Deque[float] = deque(maxlen=self._k)
        self._last_smoothed: Optional[float] = None

    def reset(self) -> None:
        """Forget the current dwell chain."""
        self._last_time = None
        self._last_phase = None
        self._unwrapped = 0.0
        self._window.clear()
        self._last_smoothed = None

    def push(self, timestamp_s: float, phase_rad: float) -> Optional[float]:
        """Feed one reading; return the displacement increment [m] or None.

        None is returned for the first reading of a chain and after a
        chain reset (gap exceeded / time went backwards).
        """
        if self._last_time is not None:
            gap = timestamp_s - self._last_time
            if gap <= 0 or gap > self._max_gap:
                self.reset()
        if self._last_time is None:
            self._last_time = timestamp_s
            self._last_phase = phase_rad
            self._unwrapped = phase_rad
            self._window.append(self._unwrapped)
            self._last_smoothed = self._unwrapped
            return None
        self._unwrapped += wrap_phase_delta(phase_rad - self._last_phase)
        self._last_time = timestamp_s
        self._last_phase = phase_rad
        self._window.append(self._unwrapped)
        smoothed = sum(self._window) / len(self._window)
        delta_phase = smoothed - (self._last_smoothed if self._last_smoothed is not None else smoothed)
        self._last_smoothed = smoothed
        return self._lam / (4.0 * np.pi) * delta_phase


def displacement_deltas(
    reports: Sequence[TagReport],
    frequencies_hz: Sequence[float],
    max_gap_s: float = DEFAULT_MAX_GAP_S,
    smooth_k: int = DEFAULT_SMOOTH_K,
) -> TimeSeries:
    """Eq. (3): per-read displacement increments for ONE tag's reports.

    Groups the readings by (channel, antenna), differences consecutive
    same-group smoothed phases, converts each phase difference to metres,
    and merges every group's increments back into one time-ordered stream.

    Args:
        reports: reads of a single tag (any antenna/channel mix), in any
            order; they are sorted by timestamp internally.
        frequencies_hz: channel-index -> carrier frequency map.
        max_gap_s: reject differences across longer same-group gaps.
        smooth_k: phase moving-average window along each dwell chain.

    Returns:
        TimeSeries of displacement increments [m], timestamped at the later
        reading of each pair (empty when no pair qualifies).

    Raises:
        StreamError: if a report's channel index has no frequency, or the
            reports span multiple tags.
    """
    ordered = sorted(reports, key=lambda r: r.timestamp_s)
    if not ordered:
        return TimeSeries.empty()
    keys = {r.stream_key for r in ordered}
    if len(keys) > 1:
        raise StreamError(
            f"displacement_deltas expects one tag's reports, got streams {sorted(keys)}"
        )

    chains: Dict[GroupKey, DeltaChain] = {}
    times: List[float] = []
    deltas: List[float] = []
    for report in ordered:
        if report.channel_index >= len(frequencies_hz):
            raise StreamError(
                f"channel index {report.channel_index} outside frequency map "
                f"of {len(frequencies_hz)} channels"
            )
        group: GroupKey = (report.channel_index, report.antenna_port)
        chain = chains.get(group)
        if chain is None:
            lam = SPEED_OF_LIGHT / frequencies_hz[report.channel_index]
            chain = DeltaChain(lam, max_gap_s=max_gap_s, smooth_k=smooth_k)
            chains[group] = chain
        delta = chain.push(report.timestamp_s, report.phase_rad)
        if delta is not None:
            times.append(report.timestamp_s)
            deltas.append(delta)

    if not times:
        return TimeSeries.empty()
    order = np.argsort(times, kind="stable")
    t_arr = np.asarray(times)[order]
    d_arr = np.asarray(deltas)[order]
    keep = np.concatenate([[True], np.diff(t_arr) > 0])
    return TimeSeries(t_arr[keep], d_arr[keep])


#: Gap limit for *unwrapped segment* construction.  Between two reads of
#: the same (channel, antenna) group the body moves well under lambda/4
#: (~8 cm) for any gap of a few seconds, so unwrapping across channel
#: recurrences (~2 s apart) is unambiguous.
DEFAULT_SEGMENT_GAP_S = 5.0

#: Segments shorter than this many reads are dropped: their demeaned
#: offset is too noisy to contribute usefully.
DEFAULT_MIN_SEGMENT_LEN = 3


def chain_order(sids: np.ndarray, chans: np.ndarray,
                ports: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Lay rows out as contiguous (stream, channel, antenna) chains.

    Returns ``(order, start)``: a stable permutation, so each chain keeps
    its rows in their given order, and a mask over the permuted rows
    marking each chain's first row.
    """
    order = np.lexsort((ports, chans, sids))
    s, c, p = sids[order], chans[order], ports[order]
    start = np.ones(order.shape[0], dtype=bool)
    start[1:] = (s[1:] != s[:-1]) | (c[1:] != c[:-1]) | (p[1:] != p[:-1])
    return order, start


def padded_rows(values: np.ndarray, lengths: np.ndarray,
                row: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay runs of ``values`` out as the rows of a zero-padded 2-D array.

    ``values`` holds the runs end to end; run *i* is ``lengths[i]`` long
    and becomes row ``row[i]`` (default *i*), left-aligned.  Returns
    ``(rows, row_of, col)`` where ``rows[row_of, col]`` gathers ``values``
    back, in order.  Row prefixes are what 1-D operations on each run
    see: ``np.cumsum(rows, axis=1)[row[i], :lengths[i]]`` equals
    ``np.cumsum`` of run *i* bit for bit (a strict left-to-right
    accumulation the padding never reaches).
    """
    runs = np.arange(lengths.shape[0]) if row is None else row
    row_of = np.repeat(runs, lengths)
    col = np.arange(values.shape[0]) - np.repeat(
        np.cumsum(lengths) - lengths, lengths)
    rows = np.zeros((lengths.shape[0], int(lengths.max())))
    rows[row_of, col] = values
    return rows, row_of, col


def row_sums(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``rows[i, :lengths[i]].sum()`` for every row, bit for bit.

    numpy sums a contiguous run pairwise in blocks of 8 and 128, so a
    padded row's sum regroups the additions and can round differently.
    Rows of one length are summed together as a ``(k, length)`` block
    instead: each block row reduces exactly like the 1-D run.  ``lengths``
    must be non-decreasing, so each block is a slice of ``rows``.
    """
    sums = np.empty(lengths.shape[0])
    cuts = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(),
            lengths.shape[0]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        rows[lo:hi, :int(lengths[lo])].sum(axis=1, out=sums[lo:hi])
    return sums


def demeaned_segments(acc: np.ndarray, lengths: np.ndarray,
                      coef: np.ndarray) -> np.ndarray:
    """Eq. (4) accumulation plus the Fig. 6 demeaning, per segment.

    ``acc`` holds the segments end to end, each as its anchor phase
    followed by its stored Eq. (3) deltas; segment *i* is ``lengths[i]``
    long with displacement coefficient ``coef[i]`` (lambda / 4 pi).  The
    result equals, segment by segment and bit for bit, ``v = coef *
    np.cumsum(seg); v - v.sum() / len(seg)`` — a sequential Eq. (4)
    chain walk followed by :meth:`TimeSeries.demean`.
    """
    # Rows ordered by segment length, so row_sums reads slices.
    by_length = np.argsort(lengths, kind="stable")
    row = np.empty_like(by_length)
    row[by_length] = np.arange(by_length.shape[0])
    rows, row_of, col = padded_rows(acc, lengths, row)
    lengths = lengths[by_length]
    values = coef[by_length, None] * np.cumsum(rows, axis=1)
    means = row_sums(values, lengths) / lengths
    return values[row_of, col] - means[row_of]


def hampel_streams(values: np.ndarray, lengths: np.ndarray,
                   window: int = 3, n_sigmas: float = 6.0) -> np.ndarray:
    """Hampel/MAD outlier flags for many streams at once.

    Each sample is compared against the median of its ``2 * window +
    1`` neighbourhood within its own stream and flagged when it deviates
    by more than ``n_sigmas`` robust sigmas (1.4826 x the neighbourhood
    MAD).  Breathing displacement is smooth and millimetre-scale, so
    genuine samples sit far inside the default 6-sigma gate while a
    glitched read — a pi-ambiguity flip lands a lambda/4 (~8 cm) jump —
    is rejected without dragging the median along.  Callers *remove*
    flagged samples rather than replace them: the fusion grid tolerates
    irregular sampling, and interpolating inside a glitch would launder
    the fault.

    ``values`` holds the streams end to end, stream *i* ``lengths[i]``
    samples long.  Each stream long enough for one neighbourhood is
    edge-padded on its own, the padded streams are laid end to end, and
    one sliding window plus two ``np.partition`` calls rank every
    neighbourhood (``k = 2 * window + 1`` is odd, so the median is the
    one order statistic at rank ``window``); windows that straddle two
    streams are never read.  Streams shorter than one neighbourhood, and
    neighbourhoods with zero MAD, never flag.

    Returns:
        A boolean mask over ``values``: True where the sample is rejected.
    """
    w = int(window)
    k = 2 * w + 1
    flagged = np.zeros(values.shape[0], dtype=bool)
    run = lengths >= k
    if not run.any():
        return flagged
    starts = (np.cumsum(lengths) - lengths)[run]
    size = lengths[run]
    padded_size = size + 2 * w
    local = np.arange(int(padded_size.sum())) - np.repeat(
        np.cumsum(padded_size) - padded_size + w, padded_size)
    last = np.repeat(size - 1, padded_size)
    source = np.repeat(starts, padded_size) + np.clip(local, 0, last)
    padded = values[source]
    centre = np.flatnonzero((local >= 0) & (local <= last))
    neighbourhoods = np.lib.stride_tricks.sliding_window_view(
        padded, k)[centre - w]
    med = np.partition(neighbourhoods, w, axis=1)[:, w]
    sigma = 1.4826 * np.partition(
        np.abs(neighbourhoods - med[:, None]), w, axis=1)[:, w]
    residual = np.abs(padded[centre] - med)
    flagged[source[centre]] = (sigma > 0) & (residual > n_sigmas * sigma)
    return flagged


def displacement_track(deltas: TimeSeries) -> TimeSeries:
    """Eq. (4): accumulate displacement increments into a movement track.

    ``D_j = sum_{i=1..N} delta_d_{i+j}`` — the paper's running total that
    Fig. 6 plots (normalised).  Within one dwell chain the sum telescopes
    to true displacement plus bounded endpoint noise; across chains the
    stitching noise is what the smoothing and fusion stages average down.
    """
    return deltas.cumsum()
