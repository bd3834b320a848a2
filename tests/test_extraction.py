"""Tests for the breath-signal extraction stage and the report-list
antenna-quality helpers of the cascade oracle."""

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.core.extraction import BreathExtractor
from repro.epc import EPC96
from repro.errors import ExtractionError, InsufficientDataError
from repro.reader import TagReport
from repro.streams import TimeSeries

from .cascade_oracle import (
    antenna_quality_scores,
    filter_to_antenna,
    select_best_antenna,
)


def breathing_track(bpm=12.0, duration=60.0, rate=20.0, amplitude=0.005,
                    noise=0.0, drift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, duration, 1.0 / rate)
    v = amplitude * np.sin(2 * np.pi * bpm / 60.0 * t)
    v = v + drift * t + rng.normal(0, noise, len(t))
    return TimeSeries(t, v)


def make_report(t, antenna, rssi=-55.0, user=1, tag=1):
    return TagReport(
        epc=EPC96.from_user_tag(user, tag),
        timestamp_s=t,
        phase_rad=1.0,
        rssi_dbm=rssi,
        doppler_hz=0.0,
        channel_index=0,
        antenna_port=antenna,
    )


class TestBreathExtractor:
    def test_estimates_clean_rate(self):
        estimate = BreathExtractor().estimate(breathing_track(bpm=12.0))
        assert estimate.rate_bpm == pytest.approx(12.0, abs=0.3)

    def test_rate_range_coverage(self):
        for bpm in (5.0, 10.0, 15.0, 20.0):
            estimate = BreathExtractor().estimate(breathing_track(bpm=bpm, duration=90.0))
            assert estimate.rate_bpm == pytest.approx(bpm, rel=0.05)

    def test_survives_noise(self):
        track = breathing_track(bpm=15.0, noise=0.003, seed=3)
        estimate = BreathExtractor().estimate(track)
        assert estimate.rate_bpm == pytest.approx(15.0, rel=0.1)

    def test_survives_drift(self):
        track = breathing_track(bpm=10.0, drift=0.001)
        estimate = BreathExtractor().estimate(track)
        assert estimate.rate_bpm == pytest.approx(10.0, rel=0.1)

    def test_signal_is_band_limited(self):
        track = breathing_track(bpm=12.0, noise=0.005, seed=1)
        signal = BreathExtractor().extract_signal(track)
        spectrum = np.abs(np.fft.rfft(signal.values))
        freqs = np.fft.rfftfreq(len(signal), d=0.05)
        out_of_band = spectrum[freqs > 0.7]
        assert out_of_band.max() < 0.02 * spectrum.max()

    def test_fir_variant(self):
        estimate = BreathExtractor(filter_type="fir").estimate(breathing_track())
        assert estimate.rate_bpm == pytest.approx(12.0, abs=0.5)

    def test_adaptive_band_rejects_out_of_band_interference(self):
        t = np.arange(0.0, 60.0, 0.05)
        breath = 0.005 * np.sin(2 * np.pi * 0.2 * t)
        interferer = 0.004 * np.sin(2 * np.pi * 0.55 * t)  # in 0.05-0.67 band
        track = TimeSeries(t, breath + interferer)
        adaptive = BreathExtractor(PipelineConfig(adaptive_band=True))
        estimate = adaptive.estimate(track)
        assert estimate.rate_bpm == pytest.approx(12.0, abs=0.5)

    def test_literal_mode_available(self):
        config = PipelineConfig(adaptive_band=False, highpass_hz=0.0)
        estimate = BreathExtractor(config).estimate(breathing_track())
        assert estimate.rate_bpm == pytest.approx(12.0, abs=0.5)

    def test_fundamental_preferred_over_harmonic(self):
        t = np.arange(0.0, 60.0, 0.05)
        fundamental = 0.005 * np.sin(2 * np.pi * 0.15 * t)
        harmonic = 0.004 * np.sin(2 * np.pi * 0.30 * t)
        estimate = BreathExtractor().estimate(TimeSeries(t, fundamental + harmonic))
        assert estimate.rate_bpm == pytest.approx(9.0, abs=1.0)

    def test_short_track_rejected(self):
        with pytest.raises(InsufficientDataError):
            BreathExtractor().estimate(breathing_track(duration=5.0))

    def test_empty_track_rejected(self):
        with pytest.raises(InsufficientDataError):
            BreathExtractor().estimate(TimeSeries.empty())

    def test_flat_track_rejected(self):
        flat = TimeSeries.regular(np.zeros(1200), 20.0)
        with pytest.raises(InsufficientDataError):
            BreathExtractor().estimate(flat)

    def test_unknown_filter_rejected(self):
        with pytest.raises(ExtractionError):
            BreathExtractor(filter_type="iir")

    def test_estimate_contains_visualisation_tracks(self):
        estimate = BreathExtractor().estimate(breathing_track())
        assert len(estimate.signal) > 0
        assert len(estimate.rate_series) > 0
        assert len(estimate.crossings) >= 7


class TestAntennaQuality:
    def make_reports(self):
        reports = []
        # Antenna 1: fast and strong; antenna 2: slow and weak.
        for i in range(100):
            reports.append(make_report(i * 0.02, antenna=1, rssi=-50.0))
        for i in range(10):
            reports.append(make_report(i * 0.2, antenna=2, rssi=-70.0))
        return reports

    def test_scores_both_antennas(self):
        scores = antenna_quality_scores(self.make_reports(), span_s=2.0)
        assert set(scores) == {1, 2}
        assert scores[1].score > scores[2].score

    def test_rate_and_rssi_fields(self):
        scores = antenna_quality_scores(self.make_reports(), span_s=2.0)
        assert scores[1].sampling_rate_hz == pytest.approx(50.0)
        assert scores[1].mean_rssi_dbm == pytest.approx(-50.0)

    def test_select_best(self):
        assert select_best_antenna(self.make_reports(), span_s=2.0) == 1

    def test_rate_beats_rssi(self):
        """A strong-but-rare stream loses to a fast weaker one."""
        reports = []
        for i in range(100):
            reports.append(make_report(i * 0.02, antenna=1, rssi=-65.0))
        for i in range(4):
            reports.append(make_report(i * 0.5, antenna=2, rssi=-35.0))
        assert select_best_antenna(reports, span_s=2.0) == 1

    def test_empty_reports(self):
        assert antenna_quality_scores([]) == {}
        with pytest.raises(InsufficientDataError):
            select_best_antenna([])

    def test_filter_to_antenna(self):
        reports = self.make_reports()
        only_two = filter_to_antenna(reports, 2)
        assert len(only_two) == 10
        assert all(r.antenna_port == 2 for r in only_two)
