"""Test helper: the cadence tick's replaced forms.

A computed tick (``TagBreathe.estimate_user`` -> ``_cascade``) runs the
paper's Section IV-B chain over the trailing window.  This module keeps
the forms that the tick used before it was cut to fewer numpy passes,
term for term:

* :func:`median` — ``np.median``, which the motion screen,
  ``track_roughness`` and the headline rate called (now
  ``preprocess.partition_median``);
* :func:`polyfit_detrend` — the ``np.polyfit`` line that
  ``filters.detrend_series`` removed (now a closed-form fit on centred
  times; the only rewrite that is not bit-equal);
* :func:`score_motion` — the Doppler motion screen scoring its two
  half-offset bin grids one after the other (now one binning pass);
* :func:`dead_streams` — the staleness watchdog's per-stream loop (now
  ``quality.dead_streams``);
* :func:`zero_crossing_times` — crossing interpolation one crossing at a
  time, with two bisections per hysteresis step (now one array pass);
* :func:`extract_signal` — the peak search and the FFT filter each
  validating the track and building its own frequency grid and masks
  (now one validation, one grid, and slices).

Tests compare the tick's forms against this code, never against itself.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.config import MotionConfig
from repro.core.extraction import BreathExtractor
from repro.core.filters import detrend_series, fir_lowpass
from repro.core.motion import (MAD_TO_SIGMA, MIN_BIN_REPORTS,
                               MIN_WINDOW_REPORTS, STILL, MotionReport)
from repro.core.spectral import fft_spectrum
from repro.errors import InsufficientDataError, StreamError
from repro.streams.timeseries import TimeSeries


def median(values: np.ndarray) -> float:
    """The headline median as the tick took it."""
    return float(np.median(values))


def polyfit_detrend(series: TimeSeries) -> TimeSeries:
    """Remove the ``np.polyfit`` best-fit line from a series' values."""
    if len(series) < 2:
        return series
    coeffs = np.polyfit(series.times, series.values, deg=1)
    trend = np.polyval(coeffs, series.times)
    return TimeSeries(series.times, series.values - trend)


def score_motion(times: np.ndarray, doppler: np.ndarray,
                 config: MotionConfig) -> MotionReport:
    """The motion screen, one bin grid at a time."""
    n = int(times.shape[0])
    if not config.enabled or n < MIN_WINDOW_REPORTS:
        return STILL
    med = float(np.median(doppler))
    sigma = MAD_TO_SIGMA * float(np.median(np.abs(doppler - med)))
    sigma = max(sigma, 1e-9)
    first = _score_grid(times, doppler, sigma, config, 0.0)
    second = _score_grid(times, doppler, sigma, config,
                         0.5 * config.bin_s)
    return max(
        (first, second),
        key=lambda r: (r.flagged, r.flagged_fraction, r.score))


def _score_grid(times: np.ndarray, doppler: np.ndarray, sigma: float,
                config: MotionConfig, offset_s: float) -> MotionReport:
    t0 = float(times[0]) - offset_s
    idx = np.floor((times - t0) / config.bin_s).astype(np.int64)
    n_bins = int(idx[-1]) + 1
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=doppler, minlength=n_bins)
    occupied = counts >= MIN_BIN_REPORTS
    if not occupied.any():
        return STILL

    means = np.zeros(n_bins)
    means[occupied] = sums[occupied] / counts[occupied]
    z = np.zeros(n_bins)
    z[occupied] = (np.abs(means[occupied])
                   * np.sqrt(counts[occupied].astype(np.float64)) / sigma)
    significant = (occupied
                   & (z >= config.z_threshold)
                   & (np.abs(means) >= config.min_shift_hz))

    score = float(z[occupied].max())
    if not significant.any():
        return MotionReport(score=score, flagged=False, gated=False,
                            flagged_fraction=0.0, motion_spans=())

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

    fraction = flagged_bins / float(int(occupied.sum()))
    t_end = float(times[-1])
    recent = any(span_end >= t_end - config.gate_recent_s
                 for _, span_end in spans)
    gated = fraction >= config.gate_fraction or recent
    return MotionReport(score=score, flagged=True, gated=gated,
                        flagged_fraction=fraction,
                        motion_spans=tuple(spans))


def dead_streams(times: np.ndarray, sids: np.ndarray,
                 stale_s: float) -> Tuple[List[int], List[int]]:
    """``(streams, dead)``: the window's stream labels and the silent
    ones, stream by stream."""
    unique_sids = np.unique(sids)
    t_latest = float(times[-1])
    dead = [
        int(s) for s in unique_sids
        if float(times[sids == s][-1]) < t_latest - stale_s
    ]
    return unique_sids.tolist(), dead


def zero_crossing_times(series: TimeSeries,
                        hysteresis: float = 0.0) -> List[float]:
    """Zero crossings, interpolated one crossing at a time."""
    if hysteresis < 0:
        raise StreamError("hysteresis must be >= 0")
    if len(series) < 2:
        return []
    v = series.values
    t = series.times
    sign = np.sign(v)
    nonzero = np.flatnonzero(sign)
    if nonzero.size == 0:
        return []
    carry = np.where(sign != 0, np.arange(sign.size), -1)
    np.maximum.accumulate(carry, out=carry)
    carry[carry < 0] = nonzero[0]
    sign = sign[carry]

    crossings: List[float] = []
    idx = np.nonzero(sign[1:] != sign[:-1])[0]
    for i in idx:
        v0, v1 = v[i], v[i + 1]
        if v1 == v0:
            t_cross = t[i]
        else:
            t_cross = t[i] + (t[i + 1] - t[i]) * (-v0) / (v1 - v0)
        crossings.append(float(t_cross))

    if hysteresis <= 0.0 or len(crossings) < 2:
        return crossings
    kept: List[float] = [crossings[0]]
    abs_v = np.abs(v)
    for i in range(1, len(crossings)):
        lo, hi = kept[-1], crossings[i]
        i0 = int(t.searchsorted(lo, side="left"))
        i1 = int(t.searchsorted(hi, side="right"))
        excursion = float(abs_v[i0:i1].max()) if i1 > i0 else 0.0
        if excursion >= hysteresis:
            kept.append(crossings[i])
        else:
            kept.pop()
            if not kept:
                kept.append(crossings[i])
    return kept


def extract_signal(extractor: BreathExtractor,
                   track: TimeSeries) -> TimeSeries:
    """``BreathExtractor.extract_signal`` with the peak search and the
    FFT filter each taking their own spectrum of the track."""
    config = extractor.config
    if not track or track.duration < config.min_window_s:
        raise InsufficientDataError("track too short")
    prepared = detrend_series(track) if config.detrend else track
    low, high = config.highpass_hz, config.cutoff_hz
    if config.adaptive_band:
        peak_hz = _dominant_breathing_peak(config, prepared)
        if peak_hz is not None:
            half = config.band_halfwidth_hz
            low = max(low, peak_hz - half)
            high = min(high, peak_hz + half)
    if extractor._filter_type == "fft":
        return _fft_lowpass(prepared, high, highpass_hz=low)
    return fir_lowpass(prepared, high, highpass_hz=low)


def _dominant_breathing_peak(config, track: TimeSeries) -> Optional[float]:
    if len(track) < 4:
        return None
    freqs, spectrum = fft_spectrum(track)
    spectrum = spectrum * np.sqrt(np.maximum(freqs, 0.0))
    band = (freqs >= config.highpass_hz) & (freqs <= config.cutoff_hz)
    if not band.any():
        return None
    band_freqs = freqs[band]
    band_amp = spectrum[band]
    if len(band_amp) < 3:
        return float(band_freqs[int(np.argmax(band_amp))])
    threshold = 0.5 * float(band_amp.max())
    interior = np.arange(1, len(band_amp) - 1)
    local_max = (band_amp[interior] >= band_amp[interior - 1]) & (
        band_amp[interior] >= band_amp[interior + 1]
    )
    candidates = interior[local_max & (band_amp[interior] >= threshold)]
    if len(candidates):
        return float(band_freqs[candidates[0]])
    return float(band_freqs[int(np.argmax(band_amp))])


def _fft_lowpass(series: TimeSeries, cutoff_hz: float,
                 highpass_hz: float) -> TimeSeries:
    gaps = np.diff(series.times)
    rate_hz = 1.0 / float(gaps.mean())
    spectrum = np.fft.rfft(series.values)
    freqs = np.fft.rfftfreq(len(series), d=1.0 / rate_hz)
    spectrum[freqs > cutoff_hz] = 0.0
    if highpass_hz > 0.0:
        spectrum[freqs < highpass_hz] = 0.0
    spectrum[0] = 0.0
    filtered = np.fft.irfft(spectrum, n=len(series))
    return TimeSeries(series.times, filtered)
