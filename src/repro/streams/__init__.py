"""Time-series substrate used by every other subsystem.

The RFID reader reports irregularly-timed samples (reads happen whenever the
Gen2 MAC grants a slot), so the core abstraction is an irregular
:class:`~repro.streams.timeseries.TimeSeries` plus resampling onto the
regular grids that FFT-based processing needs.
"""

from .timeseries import TimeSeries
from .resample import bin_sum, bin_mean, resample_linear, sample_interval_stats
from .windows import sliding_windows, trailing_window_bounds, window_slices
from .windowindex import GrowableArray, WindowIndex

__all__ = [
    "TimeSeries",
    "GrowableArray",
    "WindowIndex",
    "bin_sum",
    "bin_mean",
    "resample_linear",
    "sample_interval_stats",
    "sliding_windows",
    "trailing_window_bounds",
    "window_slices",
]
