"""The FFT-peak baseline of the paper's Section IV-B.

An FFT works but is resolution-limited to ``1/window`` (2.4 bpm for a
25 s window, Fig. 7), the reason the paper estimates the rate from zero
crossings instead.  The ablation benchmarks swap this baseline in for
the zero-crossing stage.
"""

from __future__ import annotations

from ..streams.timeseries import TimeSeries
from .spectral import fft_peak_rate_bpm


class FFTPeakEstimator:
    """The Section IV-B pitfall baseline: rate = FFT peak of the track.

    Resolution-limited to ``60 / window_s`` bpm, the reason the paper
    prefers zero crossings for the production path.

    Args:
        band_bpm: plausible-rate search band.
    """

    def __init__(self, band_bpm: tuple = (4.0, 40.0)) -> None:
        self._band = band_bpm

    def estimate_rate_bpm(self, track: TimeSeries) -> float:
        """Rate [bpm] from the spectral peak of a regular displacement track.

        Raises:
            StreamError: on irregular input or a window too short to place
                any FFT bin inside the search band.
        """
        return fft_peak_rate_bpm(track, band_bpm=self._band)
