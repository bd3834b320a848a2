"""Unit and property tests for repro.streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    EmptyStreamError,
    NonMonotonicTimeError,
    StreamError,
)
from repro.streams import (
    TimeSeries,
    bin_mean,
    bin_sum,
    resample_linear,
    sample_interval_stats,
    sliding_windows,
    window_slices,
)


def make_series(n=10, rate=5.0):
    return TimeSeries.regular(np.sin(np.arange(n)), rate)


class TestTimeSeriesConstruction:
    def test_basic(self):
        ts = TimeSeries([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
        assert len(ts) == 3
        assert ts.start == 0.0
        assert ts.end == 2.0

    def test_empty(self):
        ts = TimeSeries.empty()
        assert len(ts) == 0
        assert not ts

    def test_rejects_length_mismatch(self):
        with pytest.raises(StreamError):
            TimeSeries([0.0, 1.0], [1.0])

    def test_rejects_non_monotonic(self):
        with pytest.raises(NonMonotonicTimeError):
            TimeSeries([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])

    def test_rejects_duplicate_times(self):
        with pytest.raises(NonMonotonicTimeError):
            TimeSeries([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_rejects_2d(self):
        with pytest.raises(StreamError):
            TimeSeries([[0.0], [1.0]], [[1.0], [2.0]])

    def test_regular(self):
        ts = TimeSeries.regular([1, 2, 3, 4], rate_hz=2.0, t0=10.0)
        assert ts.times[0] == 10.0
        assert ts.times[-1] == pytest.approx(11.5)

    def test_regular_rejects_bad_rate(self):
        with pytest.raises(StreamError):
            TimeSeries.regular([1, 2], rate_hz=0.0)

    def test_values_read_only(self):
        ts = make_series()
        with pytest.raises(ValueError):
            ts.values[0] = 99.0


class TestFromTrusted:
    def test_wraps_without_copy(self):
        t = np.array([0.0, 1.0, 2.0])
        v = np.array([5.0, 6.0, 7.0])
        ts = TimeSeries.from_trusted(t, v)
        assert ts.times is t
        assert ts.values is v
        assert len(ts) == 3

    def test_arrays_become_read_only(self):
        t = np.array([0.0, 1.0])
        v = np.array([1.0, 2.0])
        ts = TimeSeries.from_trusted(t, v)
        with pytest.raises(ValueError):
            ts.times[0] = 9.0
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_equivalent_to_validating_constructor(self):
        t = np.linspace(0.0, 5.0, 20)
        v = np.sin(t)
        assert TimeSeries.from_trusted(t.copy(), v.copy()) == \
            TimeSeries(t, v)


class TestTimeSeriesProperties:
    def test_duration(self):
        ts = TimeSeries([1.0, 2.0, 4.0], [0, 0, 0])
        assert ts.duration == pytest.approx(3.0)

    def test_duration_single_sample(self):
        assert TimeSeries([1.0], [0.0]).duration == 0.0

    def test_mean_rate(self):
        ts = TimeSeries.regular(range(11), rate_hz=10.0)
        assert ts.mean_rate_hz() == pytest.approx(10.0)

    def test_start_of_empty_raises(self):
        with pytest.raises(EmptyStreamError):
            _ = TimeSeries.empty().start

    def test_equality(self):
        assert make_series() == make_series()
        assert make_series(5) != make_series(6)

    def test_iteration(self):
        pairs = list(TimeSeries([0.0, 1.0], [5.0, 6.0]))
        assert pairs == [(0.0, 5.0), (1.0, 6.0)]


class TestTimeSeriesTransforms:
    def test_slice_time(self):
        ts = TimeSeries.regular(range(10), rate_hz=1.0)
        sub = ts.slice_time(2.0, 5.0)
        assert list(sub.times) == [2.0, 3.0, 4.0]

    def test_shift_time(self):
        ts = make_series().shift_time(5.0)
        assert ts.start == pytest.approx(5.0)

    def test_demean(self):
        ts = TimeSeries([0, 1, 2], [1.0, 2.0, 3.0]).demean()
        assert ts.values.mean() == pytest.approx(0.0)

    def test_demean_empty_noop(self):
        assert not TimeSeries.empty().demean()

    def test_normalize_peak_is_one(self):
        ts = TimeSeries([0, 1, 2, 3], [0.0, 5.0, -10.0, 0.0]).normalize()
        assert np.abs(ts.values).max() == pytest.approx(1.0)
        assert ts.values.mean() == pytest.approx(0.0, abs=1e-12)

    def test_normalize_constant_series(self):
        ts = TimeSeries([0, 1], [3.0, 3.0]).normalize()
        assert np.all(ts.values == 0.0)

    def test_cumsum(self):
        ts = TimeSeries([0, 1, 2], [1.0, 2.0, 3.0]).cumsum()
        assert list(ts.values) == [1.0, 3.0, 6.0]

    def test_diff(self):
        ts = TimeSeries([0, 1, 2], [1.0, 4.0, 9.0]).diff()
        assert list(ts.values) == [3.0, 5.0]
        assert list(ts.times) == [1.0, 2.0]

    def test_diff_short(self):
        assert not TimeSeries([0.0], [1.0]).diff()

    def test_cumsum_diff_inverse(self):
        ts = make_series(20)
        recovered = ts.cumsum().diff()
        np.testing.assert_allclose(recovered.values, ts.values[1:], atol=1e-12)

    def test_concat(self):
        a = TimeSeries([0, 1], [1.0, 2.0])
        b = TimeSeries([2, 3], [3.0, 4.0])
        joined = a.concat(b)
        assert len(joined) == 4

    def test_concat_rejects_overlap(self):
        a = TimeSeries([0, 2], [1.0, 2.0])
        b = TimeSeries([1, 3], [3.0, 4.0])
        with pytest.raises(NonMonotonicTimeError):
            a.concat(b)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_cumsum_last_equals_sum(self, values):
        ts = TimeSeries.regular(values, rate_hz=1.0)
        assert ts.cumsum().values[-1] == pytest.approx(sum(values), rel=1e-9, abs=1e-6)


class TestBinning:
    def test_bin_sum_basic(self):
        ts = TimeSeries([0.1, 0.2, 1.1, 1.2], [1.0, 2.0, 3.0, 4.0])
        binned = bin_sum(ts, 1.0, t_start=0.0, t_end=2.0)
        assert list(binned.values) == [3.0, 7.0]

    def test_bin_sum_empty_bins_are_zero(self):
        ts = TimeSeries([0.1, 2.1], [1.0, 1.0])
        binned = bin_sum(ts, 1.0, t_start=0.0, t_end=3.0)
        assert list(binned.values) == [1.0, 0.0, 1.0]

    def test_bin_sum_total_preserved(self):
        ts = make_series(50, rate=7.0)
        binned = bin_sum(ts, 0.5)
        assert binned.values.sum() == pytest.approx(ts.values.sum())

    def test_bin_sum_empty_needs_range(self):
        with pytest.raises(EmptyStreamError):
            bin_sum(TimeSeries.empty(), 1.0)

    def test_bin_mean_interpolates_gaps(self):
        ts = TimeSeries([0.5, 2.5], [1.0, 3.0])
        binned = bin_mean(ts, 1.0, t_start=0.0, t_end=3.0)
        assert binned.values[1] == pytest.approx(2.0)

    def test_bin_rejects_bad_width(self):
        with pytest.raises(StreamError):
            bin_sum(make_series(), 0.0)

    def test_bin_sum_range_without_samples_raises(self):
        """The shared empty-range contract: a requested range containing
        no samples is an error, not an all-zero series."""
        ts = TimeSeries([10.0, 11.0], [1.0, 2.0])
        with pytest.raises(EmptyStreamError):
            bin_sum(ts, 1.0, t_start=0.0, t_end=5.0)

    def test_bin_mean_range_without_samples_raises(self):
        """bin_mean shares bin_sum's contract — it must not silently
        interpolate a flat signal out of nothing."""
        ts = TimeSeries([10.0, 11.0], [1.0, 2.0])
        with pytest.raises(EmptyStreamError):
            bin_mean(ts, 1.0, t_start=0.0, t_end=5.0)

    def test_bin_mean_empty_series_needs_range(self):
        with pytest.raises(EmptyStreamError):
            bin_mean(TimeSeries.empty(), 1.0)

    def test_sorted_histogram_matches_numpy(self):
        """The hot-path binning kernel is bit-identical to np.histogram
        on sorted unique times (the TimeSeries invariant)."""
        from repro.streams.resample import _sorted_histogram

        rng = np.random.default_rng(3)
        t = np.unique(np.sort(rng.uniform(0.0, 20.0, 500)))
        w = rng.normal(size=t.size)
        edges = -1.0 + np.arange(101) * 0.22
        counts_ref, _ = np.histogram(t, bins=edges)
        sums_ref, _ = np.histogram(t, bins=edges, weights=w)
        np.testing.assert_array_equal(_sorted_histogram(t, edges),
                                      counts_ref)
        np.testing.assert_array_equal(
            _sorted_histogram(t, edges, weights=w).view(np.uint64),
            sums_ref.view(np.uint64))


class TestResample:
    def test_linear_grid(self):
        ts = TimeSeries([0.0, 1.0], [0.0, 10.0])
        regular = resample_linear(ts, 4.0)
        assert regular.values[1] == pytest.approx(2.5)

    def test_needs_two_samples(self):
        with pytest.raises(EmptyStreamError):
            resample_linear(TimeSeries([0.0], [1.0]), 10.0)

    def test_interval_stats(self):
        ts = TimeSeries([0.0, 1.0, 3.0], [0, 0, 0])
        mean, lo, hi = sample_interval_stats(ts)
        assert (mean, lo, hi) == (1.5, 1.0, 2.0)


class TestWindows:
    def test_slices_cover_span(self):
        slices = window_slices(0.0, 10.0, 4.0, 2.0)
        assert slices[0] == (0.0, 4.0)
        assert slices[-1][1] == pytest.approx(10.0)

    def test_short_span_single_window(self):
        assert window_slices(0.0, 3.0, 10.0, 1.0) == [(0.0, 3.0)]

    def test_rejects_bad_params(self):
        with pytest.raises(StreamError):
            window_slices(0.0, 10.0, 0.0, 1.0)
        with pytest.raises(StreamError):
            window_slices(5.0, 5.0, 1.0, 1.0)

    def test_sliding_windows_yield_subseries(self):
        ts = TimeSeries.regular(range(100), rate_hz=10.0)
        windows = list(sliding_windows(ts, 2.0, 1.0))
        assert len(windows) >= 8
        assert all(w.duration <= 2.0 + 1e-9 for w in windows)

    def test_sliding_windows_empty(self):
        assert list(sliding_windows(TimeSeries.empty(), 1.0, 1.0)) == []
