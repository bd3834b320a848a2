"""Tests for multi-tag raw-data fusion (Eq. 6-7)."""

import numpy as np
import pytest

from repro.core.fusion import FusedStream, fuse_sample_streams
from repro.errors import EmptyStreamError
from repro.streams import TimeSeries


def sine_stream(freq=0.2, duration=30.0, rate=10.0, amplitude=1.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, duration, 1.0 / rate)
    v = amplitude * np.sin(2 * np.pi * freq * t) + rng.normal(0, noise, len(t))
    return TimeSeries(t, v)


class TestFuseSampleStreams:
    def test_sum_of_binned_means(self):
        streams = {(1, k): sine_stream(rate=25.0, seed=k) for k in (1, 2, 3)}
        fused = fuse_sample_streams(1, streams, bin_s=0.1)
        assert fused.tags_fused == 3
        # Peak of the fused track ~ 3x the single-tag amplitude.
        assert np.abs(fused.track.values).max() == pytest.approx(3.0, rel=0.1)

    def test_increments_are_diff_of_track(self):
        fused = fuse_sample_streams(1, {(1, 1): sine_stream(rate=25.0)})
        np.testing.assert_allclose(
            fused.increments.values, np.diff(fused.track.values)
        )

    def test_interpolates_missing_bins(self):
        # A stream with a long gap still produces a full regular track.
        t = np.concatenate([np.arange(0, 5, 0.1), np.arange(15, 20, 0.1)])
        stream = TimeSeries(t, np.sin(0.5 * t))
        fused = fuse_sample_streams(1, {(1, 1): stream}, bin_s=0.1)
        gaps = np.diff(fused.track.times)
        assert gaps.max() == pytest.approx(gaps.min())

    def test_single_sample_streams_skipped(self):
        streams = {
            (1, 1): sine_stream(rate=25.0),
            (1, 2): TimeSeries([1.0], [0.5]),
        }
        fused = fuse_sample_streams(1, streams)
        assert fused.tags_fused == 1

    def test_all_empty_rejected(self):
        with pytest.raises(EmptyStreamError):
            fuse_sample_streams(1, {(1, 1): TimeSeries.empty()})

    def test_is_fused_stream(self):
        fused = fuse_sample_streams(1, {(1, 1): sine_stream(rate=25.0)})
        assert isinstance(fused, FusedStream)
        assert fused.user_id == 1
