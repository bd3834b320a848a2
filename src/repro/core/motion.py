"""Doppler-based gross-motion detection — DESIGN.md §16.

The paper's pipeline assumes a mostly-still subject; its Fig. 3 shows
the reader already reports a per-read Doppler shift (Eq. 2) that is far
too noisy for breathing (~0.01 Hz signal under a ~1.5 Hz per-report
sigma) and is therefore discarded by the phase path.  Gross body motion
is a different regime entirely: a torso walking or turning moves the
tag at ~0.1-1 m/s, a Doppler shift of 0.3-3 Hz at 915 MHz — and unlike
the noise, it is *coherent across reads*.  Averaging the reports inside
a half-second bin shrinks the noise by ``sqrt(n)`` (~30 reads per bin
at the paper's 64 Hz read rate → sigma of the mean ~0.27 Hz) while the
motion signal survives untouched, so a simple z-test on bin means
separates the two regimes by an order of magnitude.

The detector is a pure function of the window's ``(times, doppler)``
column pair.  The engine's one robustness cascade
(:meth:`repro.core.pipeline.TagBreathe._cascade`), which batch
processing and the streaming tick both run, calls it on the *full*
sanitized window, before antenna selection and staleness demotion:
those filters exist for phase continuity, while Doppler motion
evidence is antenna-agnostic and halving the reports would halve the
z-test's ``sqrt(n)``.

Detection recipe (thresholds in :class:`~repro.config.MotionConfig`):

1. bin the window's Doppler reports into ``bin_s``-wide bins anchored
   at the first report time — twice, at bin offsets of 0 and half a
   bin, keeping the stronger verdict: a burst that straddles one
   grid's bin edges (each half too weak alone) lands squarely inside
   the other grid's bins;
2. estimate the per-report noise sigma robustly (MAD over the whole
   window — motion bursts inflate it slightly, which only makes the
   test more conservative);
3. flag a bin when ``|mean| * sqrt(n) / sigma >= z_threshold`` **and**
   ``|mean| >= min_shift_hz`` (the absolute floor guards against a
   tiny MAD sigma promoting noise to significance);
4. require ``min_run_bins`` consecutive flagged bins — a moving body
   spans bins; single-bin blips are interference.  "Consecutive" is
   judged over the *occupied* bins only: fast motion routinely breaks
   the link itself (the tag swings out of range mid-burst), so the
   hottest bins often sandwich a report dropout, and a bin with no
   evidence must not veto the run a moving body started;
5. *gate* (rather than merely flag) when the flagged fraction exceeds
   ``gate_fraction`` or any flagged run touches the trailing
   ``gate_recent_s`` of the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..config import MotionConfig
from .degradation import REASON_MOTION
from .preprocess import partition_median

#: Fewest Doppler reports a window needs before the z-test means
#: anything; below this the detector reports "still" (never gates).
MIN_WINDOW_REPORTS = 8

#: Fewest reports a *bin* needs for its mean to enter the z-test.
MIN_BIN_REPORTS = 3

#: Consistency factor turning a MAD into a Gaussian sigma estimate.
MAD_TO_SIGMA = 1.4826


@dataclass(frozen=True)
class MotionReport:
    """Verdict of the Doppler motion detector for one analysis window.

    Attributes:
        score: largest bin z-score observed (0.0 when the window is too
            sparse to test).  A clean still-subject window sits well
            under the configured threshold; walking-scale motion scores
            in the tens.
        flagged: at least one qualifying run of significant bins exists
            — the estimate must carry ``REASON_MOTION``.
        gated: the motion is extensive or recent enough that no rate
            estimate over this window should be trusted at all.
        flagged_fraction: fraction of the window's occupied bins that
            were flagged.
        motion_spans: ``(start_s, end_s)`` extents of each qualifying
            flagged run, in report-timestamp coordinates.
    """

    score: float
    flagged: bool
    gated: bool
    flagged_fraction: float
    motion_spans: Tuple[Tuple[float, float], ...]


#: The verdict for a window with no usable Doppler evidence.
STILL = MotionReport(score=0.0, flagged=False, gated=False,
                     flagged_fraction=0.0, motion_spans=())


def score_motion(times: np.ndarray, doppler: np.ndarray,
                 config: MotionConfig) -> MotionReport:
    """Score one window's Doppler column for gross body motion.

    Args:
        times: report timestamps, sorted ascending (seconds).
        doppler: per-report Doppler shifts (Hz), same length as
            ``times``.
        config: detection thresholds.

    Returns:
        The window's :class:`MotionReport`; :data:`STILL` when the
        detector is disabled or the window is too sparse.
    """
    n = int(times.shape[0])
    if not config.enabled or n < MIN_WINDOW_REPORTS:
        return STILL

    med = partition_median(doppler)
    sigma = MAD_TO_SIGMA * partition_median(np.abs(doppler - med))
    # A degenerate (near-constant) Doppler column has no noise scale to
    # test against; the absolute min_shift_hz floor still applies.
    sigma = max(sigma, 1e-9)

    # Two bin grids, half a bin apart: a burst that straddles one grid's
    # bin edges lands squarely inside the other's.  Both are binned in
    # one pass, grid g's bin k at row g, column k of one table.
    origins = float(times[0]) - np.array([0.0, 0.5 * config.bin_s])
    idx = np.floor((times - origins[:, None]) / config.bin_s).astype(np.int64)
    width = int(idx[:, -1].max()) + 1
    idx[1] += width
    counts = np.bincount(idx.ravel(), minlength=2 * width).reshape(2, width)
    sums = np.bincount(idx.ravel(), weights=np.concatenate((doppler, doppler)),
                       minlength=2 * width).reshape(2, width)
    occupied = counts >= MIN_BIN_REPORTS
    if not occupied.any():
        return STILL

    means = np.zeros((2, width))
    means[occupied] = sums[occupied] / counts[occupied]
    z = np.zeros((2, width))
    z[occupied] = (np.abs(means[occupied])
                   * np.sqrt(counts[occupied].astype(np.float64)) / sigma)
    significant = (occupied
                   & (z >= config.z_threshold)
                   & (np.abs(means) >= config.min_shift_hz))
    # Each grid's largest occupied z-score (z is 0 in empty bins).
    scores = z.max(axis=1).tolist()
    if not significant.any():
        return MotionReport(score=max(scores), flagged=False, gated=False,
                            flagged_fraction=0.0, motion_spans=())
    # Keep the stronger verdict — flagged beats unflagged, then more
    # flagged bins, then the higher score.
    t_end = float(times[-1])
    return max(
        (_grid_verdict(float(origins[g]), occupied[g], significant[g],
                       scores[g], t_end, config) for g in (0, 1)),
        key=lambda r: (r.flagged, r.flagged_fraction, r.score))


def _grid_verdict(t0: float, occupied: np.ndarray,
                  significant: np.ndarray, score: float, t_end: float,
                  config: MotionConfig) -> MotionReport:
    """One grid's verdict from its bins (the first at ``t0``);
    :data:`STILL` when no bin has enough reports."""
    if not occupied.any():
        return STILL
    # Qualifying runs: >= min_run_bins significant bins consecutive
    # *among the occupied bins*.  A calm occupied bin breaks the run; an
    # unoccupied bin (report dropout) is skipped — fast motion destroys
    # the link itself, so the hottest bins often sandwich an outage.
    occ_idx = np.flatnonzero(occupied)
    sig_occ = significant[occ_idx]
    n_occ = int(occ_idx.shape[0])
    spans = []
    flagged_bins = 0
    run_start = None
    for j in range(n_occ + 1):
        if j < n_occ and sig_occ[j]:
            if run_start is None:
                run_start = j
            continue
        if run_start is not None:
            run_len = j - run_start
            if run_len >= config.min_run_bins:
                flagged_bins += run_len
                spans.append((t0 + int(occ_idx[run_start]) * config.bin_s,
                              t0 + (int(occ_idx[j - 1]) + 1) * config.bin_s))
            run_start = None
    if not spans:
        return MotionReport(score=score, flagged=False, gated=False,
                            flagged_fraction=0.0, motion_spans=())

    fraction = flagged_bins / float(n_occ)
    recent = any(span_end >= t_end - config.gate_recent_s
                 for _, span_end in spans)
    gated = fraction >= config.gate_fraction or recent
    return MotionReport(score=score, flagged=True, gated=gated,
                        flagged_fraction=fraction,
                        motion_spans=tuple(spans))


def apply_motion(motion: MotionReport, reasons: List[str],
                 confidence: float) -> float:
    """Fold a motion verdict into an estimate's degradation bookkeeping.

    Shared verbatim by both estimate paths so the reason ordering and
    the confidence arithmetic cannot drift between them: a flagged
    window appends ``REASON_MOTION`` and scales confidence by how much
    of the window the motion covers; a *gated* window takes a further
    hard cut that pins confidence well below any warn threshold — the
    estimate is published, but no caller should trust it.

    Returns:
        The updated confidence (``reasons`` is mutated in place).
    """
    if not motion.flagged:
        return confidence
    reasons.append(REASON_MOTION)
    confidence *= max(0.3, 1.0 - 0.5 * motion.flagged_fraction)
    if motion.gated:
        confidence *= 0.25
    return confidence
