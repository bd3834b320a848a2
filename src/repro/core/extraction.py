"""Breath-signal extraction: filter, detect crossings, estimate the rate.

This stage consumes the fused displacement track (Eq. 7) and produces what
the paper's realtime UI shows (Fig. 8 / Fig. 11): the extracted breathing
signal and the instantaneous breathing rate from Eq. (5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..config import PipelineConfig
from ..errors import ExtractionError, InsufficientDataError
from ..streams.timeseries import TimeSeries
from .filters import (_fft_bandpass, _require_regular, detrend_series,
                      fir_lowpass)
from .preprocess import partition_median
from .zerocross import instant_rates_bpm, zero_crossing_times

#: Crossing hysteresis as a fraction of the filtered signal's RMS: real
#: crossings swing the signal by about its amplitude; noise chatter stays
#: well below it.
_HYSTERESIS_RMS_FRACTION = 0.3


@dataclass(frozen=True)
class BreathingEstimate:
    """The extraction output for one user over one analysis window.

    Attributes:
        rate_bpm: the headline estimate — median of the Eq. (5)
            instantaneous rates over the window.
        rate_series: instantaneous rate at each zero crossing (realtime
            visualisation track).
        signal: the filtered breathing signal (Fig. 8).
        crossings: zero-crossing timestamps used by Eq. (5).
    """

    rate_bpm: float
    rate_series: TimeSeries
    signal: TimeSeries
    crossings: List[float]


class BreathExtractor:
    """Configurable extraction stage (Section IV-B).

    Args:
        config: cutoff, zero-crossing buffer, minimum window.
        filter_type: "fft" for the paper's FFT low-pass, "fir" for the
            stated FIR alternative.

    Raises:
        ExtractionError: on an unknown filter type.
    """

    def __init__(self, config: Optional[PipelineConfig] = None,
                 filter_type: str = "fft") -> None:
        self._config = config if config is not None else PipelineConfig()
        if filter_type not in ("fft", "fir"):
            raise ExtractionError(f"filter_type must be 'fft' or 'fir', got {filter_type!r}")
        self._filter_type = filter_type

    @property
    def config(self) -> PipelineConfig:
        """The pipeline parameters in force."""
        return self._config

    def extract_signal(self, track: TimeSeries) -> TimeSeries:
        """Filter a displacement track into the breathing signal (Fig. 8).

        Detrends (when configured) and band-limits the track.  With
        ``adaptive_band`` enabled (default) the pass band is first
        re-centred on the dominant breathing peak of the track's spectrum
        — the Fig. 7 FFT — so that the zero-crossing stage sees a clean
        narrowband signal; the crossings then refine the rate beyond the
        FFT's 1/window resolution.

        Raises:
            InsufficientDataError: when the track is shorter than the
                configured minimum window.
        """
        if not track or track.duration < self._config.min_window_s:
            raise InsufficientDataError(
                f"track covers {track.duration if track else 0.0:.1f}s, "
                f"need >= {self._config.min_window_s:.1f}s"
            )
        prepared = detrend_series(track) if self._config.detrend else track
        # One validation and one frequency grid serve the peak search and
        # the FFT filter: both read the same detrended series.
        rate_hz = _require_regular(prepared, "extract_signal")
        freqs = np.fft.rfftfreq(len(prepared), d=1.0 / rate_hz)
        low, high = self._config.highpass_hz, self._config.cutoff_hz
        if self._config.adaptive_band:
            peak_hz = self._dominant_breathing_peak(prepared.values, freqs)
            if peak_hz is not None:
                half = self._config.band_halfwidth_hz
                low = max(low, peak_hz - half)
                high = min(high, peak_hz + half)
        if self._filter_type == "fft":
            return _fft_bandpass(prepared, rate_hz, freqs, high, low)
        return fir_lowpass(prepared, high, highpass_hz=low)

    def _dominant_breathing_peak(self, values: np.ndarray,
                                 freqs: np.ndarray) -> Optional[float]:
        """Locate the breathing fundamental in the track's spectrum [Hz].

        The track amplitudes are weighted by ``sqrt(f)`` before the
        search (half-whitening): any residual random-walk/drift component
        has a ``1/f`` amplitude spectrum whose low bins would otherwise
        hijack the peak, while full whitening (differencing) over-rewards
        high-frequency interference.  The square-root tilt splits the
        difference — drift is suppressed, yet a breathing fundamental
        still beats comparable interference above it.

        Scans the configured band and picks the *lowest-frequency* local
        peak whose weighted amplitude reaches half the band maximum —
        choosing the fundamental over a stronger harmonic of a skewed
        breathing waveform.  Returns None when no bin lies inside the band
        (window too short), in which case the caller falls back to the
        full band.

        ``values`` is the regularly sampled track and ``freqs`` its
        ascending ``rfftfreq`` grid; the amplitudes are
        :func:`~repro.core.spectral.fft_spectrum`'s, computed for the
        band's bins only.
        """
        lo = int(freqs.searchsorted(self._config.highpass_hz, side="left"))
        hi = int(freqs.searchsorted(self._config.cutoff_hz, side="right"))
        if hi <= lo:
            return None
        n = values.shape[0]
        band_freqs = freqs[lo:hi]
        spectrum = np.abs(np.fft.rfft(values - values.sum() / n))[lo:hi] / n
        band_amp = spectrum * np.sqrt(band_freqs)
        if len(band_amp) < 3:
            return float(band_freqs[int(np.argmax(band_amp))])
        threshold = 0.5 * float(band_amp.max())
        inner = band_amp[1:-1]
        local_max = (inner >= band_amp[:-2]) & (inner >= band_amp[2:])
        candidates = np.flatnonzero(local_max & (inner >= threshold))
        if len(candidates):
            return float(band_freqs[candidates[0] + 1])
        return float(band_freqs[int(np.argmax(band_amp))])

    def estimate(self, track: TimeSeries) -> BreathingEstimate:
        """Full extraction: signal, crossings, Eq. (5) rates, headline rate.

        Raises:
            InsufficientDataError: when too little data or too few
                crossings exist (e.g. the user was unreadable — the case
                where the paper "does not report breath monitoring
                results").
        """
        signal = self.extract_signal(track)
        values = signal.values
        rms = math.sqrt((values * values).sum() / values.shape[0])
        crossings = zero_crossing_times(
            signal, hysteresis=_HYSTERESIS_RMS_FRACTION * rms
        )
        rate_series = instant_rates_bpm(
            crossings, buffer_m=self._config.zero_crossing_buffer
        )
        rate = partition_median(rate_series.values)
        return BreathingEstimate(
            rate_bpm=rate,
            rate_series=rate_series,
            signal=signal,
            crossings=crossings,
        )
