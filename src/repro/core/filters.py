"""Low-pass filtering — the paper's breath-signal extraction front end.

    "we first apply the FFT to convert the time domain displacement values
    to the frequency domain and set the cutoff frequency of the low pass
    filter as 0.67 Hz. After that, we use an inverse FFT (IFFT) to convert
    back to the time domain displacement values. ... A finite impulse
    response (FIR) low pass filter can also be adopted."  (Section IV-B)

Both filters are implemented.  The FFT brick-wall filter is the paper's
primary choice; the FIR filter is the stated alternative (and is what a
streaming implementation would prefer — no whole-window transform).

Only the FIR filter needs ``scipy.signal``; it imports it on first call so
that the default FFT pipeline (and everything that imports this package)
runs on numpy alone.
"""

from __future__ import annotations

import numpy as np

from ..errors import StreamError
from ..streams.timeseries import TimeSeries

#: The paper's cutoff: 0.67 Hz ~= 40 breaths per minute, the upper bound of
#: plausible human breathing ("generally lower than 40 breaths per minute").
PAPER_CUTOFF_HZ = 0.67


def _require_regular(series: TimeSeries, what: str) -> float:
    """Validate a regularly-sampled series and return its sampling rate.

    Raises:
        StreamError: if the series has < 4 samples or irregular timing.
    """
    if len(series) < 4:
        raise StreamError(f"{what} needs at least 4 samples, got {len(series)}")
    times = series.times
    gaps = times[1:] - times[:-1]
    mean_gap = float(gaps.sum() / gaps.shape[0])
    if mean_gap <= 0:
        raise StreamError(f"{what} needs increasing timestamps")
    if float(np.abs(gaps - mean_gap).max()) > 0.01 * mean_gap:
        raise StreamError(
            f"{what} needs a regular sampling grid; resample first "
            f"(see repro.streams.resample)"
        )
    return 1.0 / mean_gap


def detrend_series(series: TimeSeries) -> TimeSeries:
    """Remove the best-fit line from a series' values.

    The displacement track carries a slow ramp (hop-stitching drift plus
    any net body motion); removing it keeps the ramp from leaking through
    the low-pass band and biasing zero-crossing detection.

    The least-squares line is fitted in closed form on centred times,
    ``slope = sum(tc * vc) / sum(tc * tc)`` with ``tc`` and ``vc`` the
    times and values less their means, which stays well conditioned on
    a long-running session's clock.
    """
    if len(series) < 2:
        return series
    times, values = series.times, series.values
    n = times.shape[0]
    tc = times - times.sum() / n
    vc = values - values.sum() / n
    slope = (tc @ vc) / (tc @ tc)
    return TimeSeries.from_trusted(times, vc - slope * tc)


def fft_lowpass(series: TimeSeries, cutoff_hz: float = PAPER_CUTOFF_HZ,
                remove_dc: bool = True, highpass_hz: float = 0.0) -> TimeSeries:
    """The paper's FFT -> zero high bins -> IFFT low-pass filter.

    Args:
        series: regularly sampled input (resample irregular data first).
        cutoff_hz: brick-wall cutoff (paper: 0.67 Hz).
        remove_dc: also zero the DC bin, centring the output for
            zero-crossing detection.
        highpass_hz: additionally zero bins below this edge (0 = pure
            low-pass as the paper describes).  Used to cut the sub-breathing
            random walk that Eq. (4)'s dwell stitching accumulates.

    Returns:
        The filtered series on the same time grid.

    Raises:
        StreamError: on irregular sampling, too few samples, or a cutoff
            at/above Nyquist (which would make the filter a no-op and is
            almost certainly a configuration mistake).
    """
    rate_hz = _require_regular(series, "fft_lowpass")
    freqs = np.fft.rfftfreq(len(series), d=1.0 / rate_hz)
    return _fft_bandpass(series, rate_hz, freqs, cutoff_hz, highpass_hz,
                         remove_dc)


def _check_band(cutoff_hz: float, highpass_hz: float) -> None:
    if cutoff_hz <= 0:
        raise StreamError("cutoff_hz must be > 0")
    if highpass_hz < 0 or highpass_hz >= cutoff_hz:
        raise StreamError("highpass_hz must be in [0, cutoff_hz)")


def _fft_bandpass(series: TimeSeries, rate_hz: float, freqs: np.ndarray,
                  cutoff_hz: float, highpass_hz: float,
                  remove_dc: bool = True) -> TimeSeries:
    """:func:`fft_lowpass` over a series the caller has validated.

    ``rate_hz`` is the series' sampling rate and ``freqs`` its
    ``np.fft.rfftfreq`` grid (ascending), so the bins above the cutoff
    and below the high-pass edge are a tail and a head of the spectrum.
    """
    _check_band(cutoff_hz, highpass_hz)
    nyquist = rate_hz / 2.0
    if cutoff_hz >= nyquist:
        raise StreamError(
            f"cutoff {cutoff_hz} Hz >= Nyquist {nyquist:.3f} Hz of the "
            f"{rate_hz:.1f} Hz grid"
        )
    spectrum = np.fft.rfft(series.values)
    spectrum[freqs.searchsorted(cutoff_hz, side="right"):] = 0.0
    if highpass_hz > 0.0:
        spectrum[:freqs.searchsorted(highpass_hz, side="left")] = 0.0
    if remove_dc:
        spectrum[0] = 0.0
    filtered = np.fft.irfft(spectrum, n=len(series))
    return TimeSeries.from_trusted(series.times, filtered)


def fir_lowpass(series: TimeSeries, cutoff_hz: float = PAPER_CUTOFF_HZ,
                num_taps: int = 101, remove_dc: bool = True,
                highpass_hz: float = 0.0) -> TimeSeries:
    """The paper's stated FIR alternative: windowed-sinc + zero-phase filtering.

    Args:
        series: regularly sampled input.
        cutoff_hz: -6 dB cutoff.
        num_taps: FIR length (odd; forced odd if even).  Longer = sharper.
        remove_dc: subtract the mean after filtering.
        highpass_hz: lower band edge (0 = pure low-pass).  A band-pass FIR
            needs many taps to realise a 0.05 Hz edge, so the high-pass
            part is applied as a brick-wall in the frequency domain after
            the FIR smoothing.

    Raises:
        StreamError: on irregular sampling, bad cutoff, or a series shorter
            than the filter needs for stable zero-phase operation.
    """
    _check_band(cutoff_hz, highpass_hz)
    if num_taps < 3:
        raise StreamError("num_taps must be >= 3")
    rate_hz = _require_regular(series, "fir_lowpass")
    nyquist = rate_hz / 2.0
    if cutoff_hz >= nyquist:
        raise StreamError(f"cutoff {cutoff_hz} Hz >= Nyquist {nyquist:.3f} Hz")
    from scipy import signal as sp_signal

    taps = num_taps | 1  # force odd for a symmetric (linear-phase) filter
    # filtfilt needs the signal to be longer than 3 * filter order.
    max_taps = max(3, (len(series) - 1) // 3)
    taps = min(taps, max_taps | 1)
    coeffs = sp_signal.firwin(taps, cutoff_hz, fs=rate_hz)
    filtered = sp_signal.filtfilt(coeffs, [1.0], series.values)
    out = TimeSeries(series.times, filtered)
    if highpass_hz > 0.0:
        spectrum = np.fft.rfft(out.values)
        freqs = np.fft.rfftfreq(len(out), d=1.0 / rate_hz)
        spectrum[freqs < highpass_hz] = 0.0
        out = TimeSeries(out.times, np.fft.irfft(spectrum, n=len(out)))
    if remove_dc:
        out = out.demean()
    return out
