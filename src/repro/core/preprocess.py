"""Phase measurement preprocessing — Section IV-A-3 of the paper.

    "To continuously track body movements without being interrupted by
    channel hopping, we first group the phase values according to channel
    indexes. Then, we calculate the displacement during two consecutive
    phase readings in each channel according to Eq.(1)."

Two practical refinements the paper's text implies but does not spell
out:

* Readings must also be grouped by **antenna port**: each antenna has its
  own cabling/geometry and hence its own constant offset ``c`` in Eq. (1),
  so cross-antenna phase differences are meaningless.  A (stream,
  channel, antenna) chain is the unit of differencing
  (:func:`chain_order`).
* Each chain is **unwrapped across channel recurrences**, not
  differenced within one channel dwell.  Eq. (4)'s running sum over a
  segment (split at gaps over :data:`DEFAULT_SEGMENT_GAP_S`) is an
  absolute displacement with one unknown offset, which the Fig. 6
  normalisation removes (:func:`demeaned_segments`), so each sample keeps
  only its own noise and no dwell-boundary random walk builds up.
  DESIGN.md §6 item 1 and the preprocessing ablation compare this with
  the literal per-read increment form.

These helpers are the array primitives of the engine's one stage 5,
:func:`repro.core.incremental.window_track`, plus
:func:`partition_median`, the median every computed tick takes (the
motion screen, the track roughness and the headline rate).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..rf.constants import fcc_channel_frequencies

#: A per-tag data stream key: (user_id, tag_id).
StreamKey = Tuple[int, int]


def default_frequencies(num_channels: int = 10) -> List[float]:
    """Channel-index -> frequency map for the regulatory default plan.

    The application side of TagBreathe knows the reader's hop table (it
    configures the reader over LLRP); this helper returns the same
    10-channel FCC plan the reader model uses by default.
    """
    return fcc_channel_frequencies(num_channels)


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


def partition_median(values: np.ndarray) -> float:
    """``float(np.median(values))`` for a non-empty 1-D array, bit for bit.

    ``np.median`` partitions at the middle rank (two ranks for an even
    length) and at the last one, where a NaN sorts, and returns NaN when
    it finds one.  Otherwise it is ``np.mean`` of the middle values,
    which sums from 0.0 (so ``-0.0`` comes out as ``0.0``), i.e.
    ``(0.0 + a + b) / 2``.  This is that arithmetic without the axis,
    dtype and output machinery, which costs more than the partition
    itself on a window of a few hundred values.
    """
    n = values.shape[0]
    half = n // 2
    if n % 2:
        part = np.partition(values, (half, -1))
        mid = 0.0 + part[half]
    else:
        part = np.partition(values, (half - 1, half, -1))
        mid = (0.0 + part[half - 1] + part[half]) / 2
    last = part[-1]
    return float(last if last != last else mid)


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
    samples long.  Each sample's neighbourhood is gathered straight from
    its own stream, edge-clamped (the first and last samples repeat), as
    one ``(samples, 2 * window + 1)`` table, and two ``np.partition``
    calls rank every neighbourhood (``k = 2 * window + 1`` is odd, so the
    median is the one order statistic at rank ``window``).  Streams
    shorter than one neighbourhood, and neighbourhoods with zero MAD,
    never flag.

    Returns:
        A boolean mask over ``values``: True where the sample is rejected.
    """
    w = int(window)
    k = 2 * w + 1
    run = lengths >= k
    if not run.any():
        return np.zeros(values.shape[0], dtype=bool)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    local = np.arange(values.shape[0]) - starts
    last = np.repeat(lengths - 1, lengths)
    source = np.minimum(np.maximum(local[:, None] + np.arange(-w, w + 1), 0),
                        last[:, None]) + starts[:, None]
    if run.all():
        return _hampel_verdict(values, values[source], w, n_sigmas)
    member = np.repeat(run, lengths)
    flagged = np.zeros(values.shape[0], dtype=bool)
    flagged[member] = _hampel_verdict(values[member],
                                      values[source[member]], w, n_sigmas)
    return flagged


def _hampel_verdict(centre: np.ndarray, neighbourhoods: np.ndarray,
                    w: int, n_sigmas: float) -> np.ndarray:
    """Flags for samples ``centre`` with their neighbourhood rows."""
    med = np.partition(neighbourhoods, w, axis=1)[:, w]
    sigma = 1.4826 * np.partition(
        np.abs(neighbourhoods - med[:, None]), w, axis=1)[:, w]
    residual = np.abs(centre - med)
    return (sigma > 0) & (residual > n_sigmas * sigma)

