"""Tests for phase preprocessing: Eq. (3)/(4), segments, samples.

Segments, samples and the 1-D Hampel filter are the per-stream stage 5
reference in ``tests/stage5_reference.py``; these tests hold that
reference to the physics the kernel is then held to bit for bit.
"""

import math

import numpy as np
import pytest

from repro.core.preprocess import default_frequencies
from repro.epc import EPC96
from repro.errors import StreamError
from repro.reader import TagReport
from repro.rf.phase import backscatter_phase
from repro.streams import TimeSeries
from repro.units import SPEED_OF_LIGHT

from .stage5_reference import (
    displacement_samples,
    group_reports_by_stream,
    hampel_filter,
    merge_series,
    phase_segments,
    series_from_pairs,
)


FREQS = default_frequencies(10)


def make_report(t, phase, channel=0, antenna=1, user=1, tag=1):
    return TagReport(
        epc=EPC96.from_user_tag(user, tag),
        timestamp_s=t,
        phase_rad=phase % (2 * math.pi),
        rssi_dbm=-55.0,
        doppler_hz=0.0,
        channel_index=channel,
        antenna_port=antenna,
    )


def reports_for_motion(distances, times, channel=0, antenna=1, offset=0.8):
    """Noise-free reports of a tag following a distance trajectory."""
    lam = SPEED_OF_LIGHT / FREQS[channel]
    return [
        make_report(t, backscatter_phase(d, lam, offset), channel, antenna)
        for t, d in zip(times, distances)
    ]


class TestGrouping:
    def test_splits_by_stream_key(self):
        reports = [make_report(0.1, 1.0, tag=1), make_report(0.2, 1.0, tag=2),
                   make_report(0.3, 1.0, tag=1)]
        streams = group_reports_by_stream(reports)
        assert set(streams) == {(1, 1), (1, 2)}
        assert len(streams[(1, 1)]) == 2


class TestPhaseSegments:
    def test_one_segment_per_group_when_dense(self):
        times = np.arange(0.0, 4.0, 0.05)
        reports = reports_for_motion([2.0] * len(times), times)
        segments = phase_segments(reports, FREQS)
        assert list(segments) == [(0, 1)]
        assert len(segments[(0, 1)]) == 1

    def test_long_gap_splits_segment(self):
        times = [0.0, 0.05, 0.1, 10.0, 10.05]
        reports = reports_for_motion([2.0] * 5, times)
        segments = phase_segments(reports, FREQS)
        assert len(segments[(0, 1)]) == 2

    def test_unwrap_across_channel_recurrence(self):
        """The key robustness property: a 2 s channel-recurrence gap does
        not break continuity, so slow motion integrates exactly."""
        lam = SPEED_OF_LIGHT / FREQS[0]
        # Tag drifts 3 cm over 6 seconds, read in bursts every 2 s.
        times, distances = [], []
        for burst in range(4):
            for i in range(5):
                t = burst * 2.0 + i * 0.02
                times.append(t)
                distances.append(2.0 + 0.03 * t / 6.0)
        reports = reports_for_motion(distances, times)
        samples = displacement_samples(reports, FREQS)
        swing = samples.values.max() - samples.values.min()
        expected = 0.03 * (times[-1] - times[0]) / 6.0
        assert swing == pytest.approx(expected, abs=1e-6)

    def test_segment_values_match_distance_up_to_offset(self):
        times = np.arange(0.0, 1.0, 0.04)
        distances = 2.0 + 0.002 * np.sin(2 * np.pi * 0.5 * times)
        reports = reports_for_motion(distances, times)
        segments = phase_segments(reports, FREQS)
        segment = segments[(0, 1)][0]
        recovered = segment.values - segment.values.mean()
        expected = distances - distances.mean()
        np.testing.assert_allclose(recovered, expected, atol=1e-9)

    def test_rejects_bad_gap(self):
        with pytest.raises(StreamError):
            phase_segments([make_report(0.0, 1.0)], FREQS, max_gap_s=0.0)


class TestReferenceSeries:
    def test_from_pairs(self):
        ts = series_from_pairs([(0.0, 1.0), (0.5, 2.0)])
        assert len(ts) == 2
        assert ts.values[1] == 2.0

    def test_from_pairs_empty(self):
        assert not series_from_pairs([])

    def test_merge_interleaves(self):
        a = TimeSeries([0.0, 2.0], [1.0, 1.0])
        b = TimeSeries([1.0, 3.0], [2.0, 2.0])
        merged = merge_series([a, b])
        assert list(merged.times) == [0.0, 1.0, 2.0, 3.0]
        assert list(merged.values) == [1.0, 2.0, 1.0, 2.0]

    def test_merge_drops_duplicate_times(self):
        a = TimeSeries([0.0, 1.0], [1.0, 1.0])
        b = TimeSeries([1.0, 2.0], [2.0, 2.0])
        merged = merge_series([a, b])
        assert list(merged.times) == [0.0, 1.0, 2.0]
        assert list(merged.values) == [1.0, 1.0, 2.0]

    def test_merge_empty_inputs(self):
        assert not merge_series([TimeSeries.empty(), TimeSeries.empty()])


class TestDisplacementSamples:
    def test_short_segments_dropped(self):
        reports = reports_for_motion([2.0, 2.0], [0.0, 0.01])
        samples = displacement_samples(reports, FREQS, min_segment_len=3)
        assert not samples

    def test_samples_are_demeaned_per_segment(self):
        times = np.arange(0.0, 2.0, 0.04)
        reports = reports_for_motion([2.0] * len(times), times)
        samples = displacement_samples(reports, FREQS)
        assert samples.values.mean() == pytest.approx(0.0, abs=1e-9)

    def test_multi_channel_merge(self):
        lam0 = SPEED_OF_LIGHT / FREQS[0]
        lam5 = SPEED_OF_LIGHT / FREQS[5]
        reports = []
        for i in range(20):
            t = i * 0.05
            d = 2.0 + 0.005 * math.sin(2 * math.pi * 0.2 * t)
            channel = 0 if (i // 4) % 2 == 0 else 5
            lam = lam0 if channel == 0 else lam5
            reports.append(make_report(t, backscatter_phase(d, lam, 0.3 * channel),
                                       channel=channel))
        samples = displacement_samples(reports, FREQS)
        assert len(samples) == 20

    def test_recovers_breathing_waveform(self):
        """End-to-end: sinusoidal motion -> phase -> samples -> sinusoid."""
        times = np.arange(0.0, 10.0, 0.03)
        motion = 0.005 * np.sin(2 * np.pi * 0.2 * times)
        reports = reports_for_motion(2.0 + motion, times)
        samples = displacement_samples(reports, FREQS)
        recovered = samples.values - samples.values.mean()
        expected = motion - motion.mean()
        np.testing.assert_allclose(recovered, expected, atol=1e-6)

    def test_validation(self):
        with pytest.raises(StreamError):
            displacement_samples([make_report(0.0, 1.0)], FREQS, min_segment_len=0)


class TestHampelFilter:
    def make_smooth(self, n=100):
        times = np.arange(n) * 0.05
        values = 0.005 * np.sin(2 * np.pi * 0.2 * times)
        return TimeSeries(times, values)

    def test_clean_series_passes_bit_identical(self):
        series = self.make_smooth()
        filtered, n_rejected = hampel_filter(series)
        assert n_rejected == 0
        assert filtered is series

    def test_rejects_injected_spike(self):
        series = self.make_smooth()
        values = series.values.copy()
        values[40] += 0.08  # a pi-flip-scale (lambda/4) jump
        spiked = TimeSeries(series.times, values)
        filtered, n_rejected = hampel_filter(spiked)
        assert n_rejected == 1
        assert len(filtered) == len(series) - 1
        assert series.times[40] not in filtered.times

    def test_constant_series_never_flags(self):
        series = TimeSeries(np.arange(50) * 0.1, np.full(50, 0.003))
        filtered, n_rejected = hampel_filter(series)
        assert n_rejected == 0
        assert filtered is series

    def test_short_series_unchanged(self):
        series = TimeSeries([0.0, 0.1, 0.2], [1.0, 2.0, 3.0])
        filtered, n_rejected = hampel_filter(series, window=3)
        assert n_rejected == 0
        assert filtered is series

    def test_validation(self):
        series = self.make_smooth()
        with pytest.raises(StreamError):
            hampel_filter(series, window=0)
        with pytest.raises(StreamError):
            hampel_filter(series, n_sigmas=0.0)
