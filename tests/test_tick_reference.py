"""The cadence tick's leaner forms against their replaced forms.

``tests/tick_reference.py`` keeps what the tick computed before it was
cut to fewer numpy passes.  Every rewrite must give the same bits as its
replaced form, except the detrend: its closed-form line may differ from
``np.polyfit``'s in the last bits, so it is held within 1e-9 relative,
on a long-running session's clock too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MotionConfig, PipelineConfig
from repro.core.extraction import BreathExtractor
from repro.core.filters import detrend_series
from repro.core.motion import score_motion
from repro.core.preprocess import partition_median
from repro.core.quality import dead_streams
from repro.core.zerocross import zero_crossing_times
from repro.streams.timeseries import TimeSeries

from . import tick_reference as ref

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestMedian:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=60))
    @example([0.0, -0.0])
    @example([-0.0, -0.0, 1.0, -1.0])
    @example([-0.0])
    def test_equals_np_median(self, values):
        values = np.array(values)
        assert _bits([partition_median(values)]) == _bits(
            [ref.median(values)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=900), seeds,
           st.booleans())
    def test_equals_np_median_on_windows(self, n, seed, with_nan):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        if with_nan:
            values[rng.integers(n)] = np.nan
        assert _bits([partition_median(values)]) == _bits(
            [ref.median(values)])

    def test_does_not_reorder_its_input(self):
        values = np.array([3.0, 1.0, 2.0, 0.5])
        partition_median(values)
        assert values.tolist() == [3.0, 1.0, 2.0, 0.5]


class TestDetrend:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=2, max_value=800),
           st.sampled_from([0.0, 37.5, 1e5, 1e5 + 0.123]),
           st.floats(min_value=0.01, max_value=0.5),
           st.floats(min_value=-1e-2, max_value=1e-2), seeds)
    def test_matches_polyfit(self, n, offset_s, step_s, slope, seed):
        """Regular and jittered grids, with and without a ramp, at a
        clock of 0 and of 1e5 s."""
        rng = np.random.default_rng(seed)
        times = offset_s + np.cumsum(step_s * rng.uniform(0.5, 1.5, n))
        values = (slope * (times - times[0]) + rng.normal(size=n) * 1e-3
                  + rng.normal())
        series = TimeSeries(times, values)
        got = detrend_series(series)
        want = ref.polyfit_detrend(series)
        assert _bits(got.times) == _bits(series.times)
        scale = float(np.abs(values).max())
        assert float(np.abs(got.values - want.values).max()) <= 1e-9 * scale


class TestMotionScreen:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=700), seeds,
           st.sampled_from([0.0, 1e5]),
           st.sampled_from([0.25, 0.5, 0.7]),
           st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.0, max_value=3.0),
           st.booleans())
    def test_equals_two_grid_form(self, n, seed, offset_s, bin_s, run_bins,
                                  shift_hz, sparse):
        """Still windows, bursts that straddle bin edges, dropouts
        inside a burst, and windows too sparse to test."""
        rng = np.random.default_rng(seed)
        rate = 5.0 if sparse else 60.0
        times = offset_s + np.cumsum(rng.exponential(1.0 / rate, n))
        doppler = rng.normal(scale=1.5, size=n)
        if n > 2:
            lo, hi = np.sort(rng.uniform(times[0], times[-1], 2))
            burst = (times >= lo) & (times < hi)
            doppler[burst] += shift_hz
            gap = burst & (rng.random(n) < 0.3)
            times, doppler = times[~gap], doppler[~gap]
        config = MotionConfig(bin_s=bin_s, min_run_bins=run_bins)
        got = score_motion(times, doppler, config)
        want = ref.score_motion(times, doppler, config)
        assert repr(got) == repr(want)

    def test_a_flagged_burst_matches(self):
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.exponential(1 / 64.0, 1600))
        doppler = rng.normal(scale=1.5, size=1600)
        doppler[(times > 10.2) & (times < 14.9)] += 2.5
        config = MotionConfig()
        got = score_motion(times, doppler, config)
        assert got.flagged
        assert repr(got) == repr(ref.score_motion(times, doppler, config))


class TestStaleness:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=6), seeds,
           st.floats(min_value=0.0, max_value=20.0),
           st.lists(st.integers(min_value=0, max_value=5), max_size=3))
    def test_equals_per_stream_loop(self, n, n_streams, seed, stale_s,
                                    silent):
        """Streams that fall silent part-way through the window."""
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.exponential(0.05, n))
        sids = rng.integers(0, n_streams, size=n)
        for sid in silent:
            cut = rng.uniform(times[0], times[-1])
            drop = (sids == sid) & (times > cut)
            if drop.sum() < n:
                times, sids = times[~drop], sids[~drop]
        present, dead = dead_streams(times, sids, stale_s)
        streams, want_dead = ref.dead_streams(times, sids, stale_s)
        assert np.flatnonzero(present).tolist() == streams
        assert np.flatnonzero(dead).tolist() == want_dead


class TestZeroCrossings:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=600), seeds,
           st.floats(min_value=0.0, max_value=1.5),
           st.sampled_from([0.0, 1e5]), st.booleans())
    def test_equals_per_crossing_form(self, n, seed, hysteresis, offset_s,
                                      zeros):
        """Noisy sinusoids with chatter, exact zeros and flat runs."""
        rng = np.random.default_rng(seed)
        times = offset_s + np.cumsum(rng.uniform(0.01, 0.1, n))
        values = (np.sin(2 * np.pi * 0.3 * (times - offset_s))
                  + rng.normal(scale=0.3, size=n))
        if zeros and n:
            values[rng.random(n) < 0.1] = 0.0
            values[: rng.integers(0, min(n, 5) + 1)] = 0.0
        series = TimeSeries(times, values)
        got = zero_crossing_times(series, hysteresis=hysteresis)
        want = ref.zero_crossing_times(series, hysteresis=hysteresis)
        assert _bits(got) == _bits(want)


class TestExtraction:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=210, max_value=700),
           st.floats(min_value=0.05, max_value=0.06),
           st.floats(min_value=0.1, max_value=0.6),
           st.sampled_from([0.0, 1e5]), seeds,
           st.booleans(), st.booleans())
    def test_signal_equals_unshared_form(self, n, step_s, rate_hz, t0,
                                         seed, adaptive, detrend):
        """One validation and one frequency grid for the peak search
        and the filter give the signal of a spectrum each."""
        rng = np.random.default_rng(seed)
        times = t0 + np.arange(n) * step_s
        values = (np.sin(2 * np.pi * rate_hz * times)
                  + 0.5 * np.sin(2 * np.pi * 2.1 * rate_hz * times)
                  + 1e-3 * times + rng.normal(scale=0.4, size=n))
        track = TimeSeries(times, values)
        extractor = BreathExtractor(PipelineConfig(
            adaptive_band=adaptive, detrend=detrend))
        got = extractor.extract_signal(track)
        want = ref.extract_signal(extractor, track)
        assert _bits(got.times) == _bits(want.times)
        assert _bits(got.values) == _bits(want.values)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=210, max_value=500),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=12), seeds, st.booleans(),
           st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.0, max_value=4.0))
    def test_band_edges_on_grid_bins(self, n, low_bin, width_bins, seed,
                                     adaptive, low_amp, high_amp):
        """Band edges that fall exactly on a frequency bin stay inside
        the band, in the peak search and in the filter."""
        rng = np.random.default_rng(seed)
        times = np.arange(n) * 0.05
        gaps = times[1:] - times[:-1]
        freqs = np.fft.rfftfreq(n, d=1.0 / (1.0 / float(gaps.mean())))
        config = PipelineConfig(highpass_hz=float(freqs[low_bin]),
                                cutoff_hz=float(freqs[low_bin + width_bins]),
                                adaptive_band=adaptive)
        values = (low_amp * np.sin(2 * np.pi * freqs[low_bin] * times)
                  + high_amp * np.sin(2 * np.pi * freqs[low_bin + width_bins]
                                      * times)
                  + rng.normal(scale=0.2, size=n))
        track = TimeSeries(times, values)
        extractor = BreathExtractor(config)
        got = extractor.extract_signal(track)
        want = ref.extract_signal(extractor, track)
        assert _bits(got.values) == _bits(want.values)
