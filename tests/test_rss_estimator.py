"""Tests for the RSS-amplitude fallback estimator (repro.core.rss_estimator).

Covers the coherent group combining (per-link standing-wave signs must
not cancel), the tag-label invariance the streaming path depends on,
the insufficient-data contract, and the end-to-end fallback behaviour
under heavy phase noise.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Scenario, run_scenario
from repro.body import MetronomeBreathing, Subject
from repro.config import EstimatorConfig
from repro.core.degradation import REASON_RSS_FALLBACK
from repro.core.estimators import EstimationWindow
from repro.core.extraction import BreathExtractor
from repro.core.pipeline import TagBreathe
from repro.core.rss_estimator import RSSEstimator
from repro.errors import DegradedEstimateWarning, InsufficientDataError
from repro.rf.noise import PhaseNoiseModel
from repro.streams.timeseries import TimeSeries

RATE_BPM = 15.0


def make_window(n_groups=6, duration_s=40.0, rate_hz=40.0, seed=0,
                sign=None, noise_db=0.15, quantize=True, n=None,
                tag_labels=None):
    """A synthetic RSSI window: per-group random-sign breathing ripple.

    Mimics what the reader synthesises: each (tag, channel, antenna)
    link sees the same chest motion through its own standing-wave
    operating point — here reduced to a per-group sign and scale — on
    top of per-read jitter and 0.5 dB quantisation.
    """
    rng = np.random.default_rng(seed)
    total = n if n is not None else int(duration_s * rate_hz)
    times = np.sort(rng.uniform(0.0, duration_s, size=total))
    times += np.arange(total) * 1e-9  # strictly increasing
    group = rng.integers(0, n_groups, size=total)
    if sign is None:
        sign = rng.choice((-1.0, 1.0), size=n_groups)
    scale = rng.uniform(0.3, 0.6, size=n_groups)
    level = rng.uniform(-60.0, -50.0, size=n_groups)
    ripple = np.sin(2 * np.pi * (RATE_BPM / 60.0) * times)
    rssi = (level[group] + sign[group] * scale[group] * ripple
            + rng.normal(0.0, noise_db, size=total))
    if quantize:
        rssi = np.round(rssi * 2.0) / 2.0
    labels = tag_labels if tag_labels is not None else group
    track = TimeSeries(times, np.zeros(total))
    return EstimationWindow(
        track=track, times=times, rssi=rssi,
        channel=np.zeros(total, dtype=np.int64),
        antenna=np.ones(total, dtype=np.int64),
        tag=np.asarray(labels, dtype=np.int64))


@pytest.fixture
def estimator():
    return RSSEstimator(BreathExtractor())


class TestRecovery:
    def test_recovers_metronome_rate(self, estimator):
        window = make_window(seed=1)
        estimate = estimator.estimate(window)
        assert estimate.rate_bpm == pytest.approx(RATE_BPM, abs=1.0)

    def test_opposite_sign_groups_do_not_cancel(self, estimator):
        """The regression the PCA combiner exists for: two groups with
        equal-and-opposite ripple would cancel under naive merging."""
        window = make_window(n_groups=2, sign=np.array([1.0, -1.0]), seed=2)
        estimate = estimator.estimate(window)
        assert estimate.rate_bpm == pytest.approx(RATE_BPM, abs=1.0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_random_sign_patterns_recover(self, seed):
        window = make_window(seed=seed)
        estimate = RSSEstimator(BreathExtractor()).estimate(window)
        assert estimate.rate_bpm == pytest.approx(RATE_BPM, abs=1.5)


class TestLabelInvariance:
    def test_tag_relabeling_is_bit_identical(self, estimator):
        """Only the partition is contracted: the streaming path labels
        the same groups with different ids and must get the same bits."""
        base = make_window(seed=3)
        relabeled = make_window(
            seed=3, tag_labels=(base.tag * 977 + 13) % 4099)
        a = estimator.estimate(base)
        b = estimator.estimate(relabeled)
        assert a.rate_bpm == b.rate_bpm
        assert np.array_equal(a.signal.values, b.signal.values)


class TestInsufficientData:
    def test_too_few_reads(self, estimator):
        window = make_window(n=5, seed=4)
        with pytest.raises(InsufficientDataError):
            estimator.estimate(window)

    def test_too_few_bins(self, estimator):
        window = make_window(n=40, duration_s=1.0, seed=5)
        with pytest.raises(InsufficientDataError):
            estimator.estimate(window)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def degraded_capture(self):
        """Heavy phase noise: the regime the fallback exists for."""
        scenario = Scenario([Subject(user_id=1, distance_m=1.8,
                                     breathing=MetronomeBreathing(12.0),
                                     sway_seed=2)])
        return run_scenario(
            scenario, duration_s=50.0, seed=9,
            phase_noise=PhaseNoiseModel(floor_rad=1.2, ref_rad=0.3))

    def test_auto_falls_back_to_rss(self, degraded_capture):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            estimate = TagBreathe(user_ids={1}).process(
                degraded_capture.reports, window_s=40.0)[1]
        assert estimate.estimator == "rss"
        assert REASON_RSS_FALLBACK in estimate.degraded_reasons
        assert estimate.confidence < 1.0
        assert estimate.rate_bpm == pytest.approx(12.0, abs=1.5)

    def test_explicit_rss_engine_matches_fallback_rate(self, degraded_capture):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            auto = TagBreathe(user_ids={1}).process(
                degraded_capture.reports, window_s=40.0)[1]
            explicit = TagBreathe(
                user_ids={1}, estimators=EstimatorConfig(estimator="rss"),
            ).process(degraded_capture.reports, window_s=40.0)[1]
        assert explicit.estimator == "rss"
        assert REASON_RSS_FALLBACK not in explicit.degraded_reasons
        assert explicit.rate_bpm == auto.rate_bpm

    def test_streamed_fallback_matches_batch(self, degraded_capture):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            batch = TagBreathe(user_ids={1}).process(
                degraded_capture.reports, window_s=40.0)[1]
            engine = TagBreathe(user_ids={1})
            engine.feed_batch(degraded_capture.reports)
            streamed = engine.estimate_user(1, window_s=40.0)
        assert streamed.estimator == batch.estimator == "rss"
        assert streamed.rate_bpm == batch.rate_bpm
