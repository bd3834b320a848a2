"""Tests for the FFT-peak baseline (Section IV-B)."""

import numpy as np
import pytest

from repro import (
    FFTPeakEstimator,
    Scenario,
    TagBreathe,
    breathing_rate_accuracy,
    run_scenario,
)
from repro.body import MetronomeBreathing, Subject
from repro.streams import TimeSeries


@pytest.fixture(scope="module")
def close_capture():
    """The paper's ideal case: one tag-rich user, close range, 12 bpm."""
    scenario = Scenario([Subject(user_id=1, distance_m=1.5,
                                 breathing=MetronomeBreathing(12.0),
                                 sway_seed=0)])
    return run_scenario(scenario, duration_s=40.0, seed=21)


class TestFFTPeakBaseline:
    def test_peak_matches_rate_with_long_window(self, close_capture):
        pipeline = TagBreathe(user_ids={1})
        track = pipeline.fused_track(1, close_capture.reports)
        rate = FFTPeakEstimator().estimate_rate_bpm(track)
        assert rate == pytest.approx(12.0, abs=1.6)  # 40 s -> 1.5 bpm grid

    def test_resolution_limited_at_25s(self):
        """The Section IV-B pitfall: 25 s window -> 2.4 bpm grid."""
        t = np.arange(0, 25.0, 0.05)
        track = TimeSeries(t, np.sin(2 * np.pi * (13.0 / 60.0) * t))
        rate = FFTPeakEstimator().estimate_rate_bpm(track)
        assert rate % 2.4 == pytest.approx(0.0, abs=1e-6)
        assert abs(rate - 13.0) <= 2.4


class TestPhaseBeatsBaselines:
    def test_phase_pipeline_is_most_accurate(self):
        """The paper's core design argument, quantified: over a 25 s
        window the FFT peak sits on a 2.4 bpm grid, and zero crossings
        resolve a rate halfway between its bins."""
        truth = 13.2
        scenario = Scenario([Subject(user_id=1, distance_m=1.5,
                                     breathing=MetronomeBreathing(truth),
                                     sway_seed=0)])
        capture = run_scenario(scenario, duration_s=25.0, seed=21)
        pipeline = TagBreathe(user_ids={1})
        phase = pipeline.process(capture.reports)[1]
        peak = FFTPeakEstimator().estimate_rate_bpm(
            pipeline.fused_track(1, capture.reports))
        phase_acc = breathing_rate_accuracy(phase.rate_bpm, truth)
        peak_acc = breathing_rate_accuracy(peak, truth)
        assert phase_acc >= peak_acc
        assert phase_acc > 0.95
