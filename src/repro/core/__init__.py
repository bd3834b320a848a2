"""TagBreathe core: the paper's signal-processing contribution.

The stages mirror Fig. 10's workflow:

1. :mod:`~repro.core.preprocess` and :mod:`~repro.core.incremental` —
   phase measurement preprocessing: channel grouping and displacement
   calculation (Eq. 3–4), over columns.
2. :mod:`~repro.core.fusion` — raw-data fusion of multi-tag streams
   (Eq. 6–7) grouped per user via the EPC user-ID field.
3. :mod:`~repro.core.filters` / :mod:`~repro.core.zerocross` /
   :mod:`~repro.core.extraction` — breath-signal extraction: FFT low-pass
   at 0.67 Hz, zero-crossing detection, instantaneous rate (Eq. 5).
4. :mod:`~repro.core.pipeline` — the end-to-end :class:`TagBreathe`
   engine, batch and streaming.

:mod:`~repro.core.baselines` implements the FFT-peak alternative the
paper argues against (Section IV-B), and :mod:`~repro.core.quality` the per-antenna data-quality selection
(Section IV-D-3).
"""

from .preprocess import default_frequencies
from .fusion import fuse_sample_streams, FusedStream
from .filters import fft_lowpass, fir_lowpass, detrend_series
from .zerocross import zero_crossing_times, instant_rates_bpm, rate_series_bpm
from .spectral import fft_spectrum, fft_peak_rate_bpm, frequency_resolution_bpm
from .extraction import BreathExtractor, BreathingEstimate
from .pipeline import (
    DEGRADED_REASONS,
    FEED_DROP_KEYS,
    TagBreathe,
    UserEstimate,
)
from .baselines import FFTPeakEstimator
from .tracking import BreathingRateTracker, TrackedRate, smooth_rate_series

__all__ = [
    "default_frequencies",
    "fuse_sample_streams",
    "FusedStream",
    "fft_lowpass",
    "fir_lowpass",
    "detrend_series",
    "zero_crossing_times",
    "instant_rates_bpm",
    "rate_series_bpm",
    "fft_spectrum",
    "fft_peak_rate_bpm",
    "frequency_resolution_bpm",
    "BreathExtractor",
    "BreathingEstimate",
    "DEGRADED_REASONS", "FEED_DROP_KEYS",
    "TagBreathe",
    "UserEstimate",
    "FFTPeakEstimator",
    "BreathingRateTracker",
    "TrackedRate",
    "smooth_rate_series",
]
