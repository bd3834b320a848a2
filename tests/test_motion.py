"""Tests for the Doppler motion detector (repro.core.motion).

Unit coverage of the pure scoring function (bin z-test, run filter,
occupied-bin bridging, the dual half-offset grids), property tests that
still-subject noise never trips the gate, and pipeline-level coverage
that the MotionBurst injector produces flagged/gated estimates while a
clean capture stays pristine.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Scenario, run_scenario
from repro.body import MetronomeBreathing, Subject
from repro.config import MotionConfig
from repro.core.degradation import REASON_MOTION
from repro.core.motion import (MIN_WINDOW_REPORTS, STILL, MotionReport,
                               apply_motion, score_motion)
from repro.core.pipeline import TagBreathe
from repro.faults import FaultChain, MotionBurst
from repro.reader.batch import ReportBatch

from .stage5_reference import estimate_user_recompute

CONFIG = MotionConfig()


def noise_window(n=800, sigma=1.5, rate_hz=40.0, seed=0):
    """A still-subject window: pure zero-mean Doppler noise."""
    rng = np.random.default_rng(seed)
    times = np.arange(n) / rate_hz
    return times, rng.normal(0.0, sigma, size=n)


def add_burst(times, doppler, start, duration, shift_hz):
    """Add a coherent Doppler shift over [start, start+duration)."""
    out = doppler.copy()
    mask = (times >= start) & (times < start + duration)
    out[mask] += shift_hz
    return out


class TestScoring:
    def test_disabled_is_still(self):
        times, dop = noise_window()
        report = score_motion(times, dop, MotionConfig(enabled=False))
        assert report is STILL

    def test_sparse_window_is_still(self):
        times, dop = noise_window(n=MIN_WINDOW_REPORTS - 1)
        assert score_motion(times, dop, CONFIG) is STILL

    def test_noise_not_flagged(self):
        times, dop = noise_window(seed=7)
        report = score_motion(times, dop, CONFIG)
        assert not report.flagged
        assert not report.gated
        assert report.score < CONFIG.z_threshold

    def test_burst_flagged_with_span(self):
        times, dop = noise_window(seed=3)
        dop = add_burst(times, dop, 5.0, 3.0, 6.0)
        report = score_motion(times, dop, CONFIG)
        assert report.flagged
        assert report.score >= CONFIG.z_threshold
        (lo, hi), = report.motion_spans
        assert lo == pytest.approx(5.0, abs=CONFIG.bin_s)
        assert hi == pytest.approx(8.0, abs=CONFIG.bin_s)

    def test_recent_burst_gates(self):
        times, dop = noise_window(seed=3)
        dop = add_burst(times, dop, times[-1] - 2.0, 2.0, 6.0)
        report = score_motion(times, dop, CONFIG)
        assert report.flagged and report.gated

    def test_old_small_burst_flags_without_gate(self):
        times, dop = noise_window(n=1600, seed=5)  # 40 s window
        dop = add_burst(times, dop, 4.0, 2.0, 6.0)
        report = score_motion(times, dop, CONFIG)
        assert report.flagged
        assert not report.gated
        assert report.flagged_fraction < CONFIG.gate_fraction

    def test_extensive_motion_gates_by_fraction(self):
        times, dop = noise_window(seed=5)
        dop = add_burst(times, dop, 2.0, 10.0, 6.0)
        report = score_motion(times, dop, CONFIG)
        assert report.gated
        assert report.flagged_fraction >= CONFIG.gate_fraction

    def test_single_bin_blip_not_flagged(self):
        """A sub-bin blip inside one bin of BOTH grids stays a blip.

        The grids are half a bin apart, so only a blip confined to the
        [5.25, 5.5) intersection of two bins lands in a single bin on
        each — anywhere else it straddles one grid's half-bin edge and
        legitimately shows up as two adjacent bins there.
        """
        times, dop = noise_window(seed=11)
        dop = add_burst(times, dop, 5.26, 0.2, 8.0)
        report = score_motion(times, dop, CONFIG)
        assert not report.flagged

    def test_dropout_bridges_run(self):
        """A mid-burst link outage must not veto the surrounding run."""
        times, dop = noise_window(n=1200, seed=13)
        dop = add_burst(times, dop, 10.0, 4.0, 6.0)
        keep = (times < 11.4) | (times >= 12.6)  # outage inside the burst
        report = score_motion(times[keep], dop[keep], CONFIG)
        assert report.flagged
        (lo, hi), = report.motion_spans
        assert lo <= 10.5 and hi >= 13.5

    def test_calm_bin_still_breaks_run(self):
        """Two isolated hot bins separated by calm *evidence* stay blips."""
        times, dop = noise_window(n=1200, seed=17)
        dop = add_burst(times, dop, 10.26, 0.2, 8.0)
        dop = add_burst(times, dop, 12.26, 0.2, 8.0)
        report = score_motion(times, dop, CONFIG)
        assert not report.flagged

    def test_half_offset_grid_catches_straddling_burst(self):
        """A burst split across one grid's bin edges lands in the other's.

        The shift is sized so a full ``bin_s`` of it clears the z
        threshold but a half-diluted edge bin does not: the grid whose
        edges split the burst sees two sub-threshold halves, the
        half-offset grid sees it whole.
        """
        rng = np.random.default_rng(23)
        times = np.arange(800) / 40.0
        dop = rng.normal(0.0, 1.5, size=800)
        config = MotionConfig()
        # Burst aligned to the offset grid: starts on a half-bin edge.
        start = 5.0 + 0.5 * config.bin_s
        dop = add_burst(times, dop, start, 2.0 * config.bin_s, 2.2)
        report = score_motion(times, dop, config)
        assert report.flagged


class TestApplyMotion:
    def test_still_is_identity(self):
        reasons = []
        assert apply_motion(STILL, reasons, 0.8) == 0.8
        assert reasons == []

    def test_flagged_appends_reason_and_scales(self):
        flagged = MotionReport(score=9.0, flagged=True, gated=False,
                               flagged_fraction=0.2, motion_spans=((1., 2.),))
        reasons = []
        confidence = apply_motion(flagged, reasons, 1.0)
        assert reasons == [REASON_MOTION]
        assert confidence == pytest.approx(0.9)

    def test_gate_pins_confidence_low(self):
        gated = MotionReport(score=20.0, flagged=True, gated=True,
                             flagged_fraction=0.6, motion_spans=((1., 9.),))
        reasons = []
        confidence = apply_motion(gated, reasons, 1.0)
        assert confidence <= 0.25


class TestStillnessProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           sigma=st.floats(0.3, 4.0),
           n=st.integers(100, 1500))
    def test_pure_noise_never_flags(self, seed, sigma, n):
        """ISSUE property: a still subject is never gated, any seed."""
        times, dop = noise_window(n=n, sigma=sigma, seed=seed)
        report = score_motion(times, dop, CONFIG)
        assert not report.flagged
        assert not report.gated

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           start=st.floats(2.0, 12.0),
           shift=st.floats(5.0, 12.0))
    def test_strong_burst_always_flags(self, seed, start, shift):
        times, dop = noise_window(n=800, seed=seed)
        dop = add_burst(times, dop, start, 3.0, shift)
        report = score_motion(times, dop, CONFIG)
        assert report.flagged


@pytest.fixture(scope="module")
def clean_capture():
    scenario = Scenario([Subject(user_id=1, distance_m=1.5,
                                 breathing=MetronomeBreathing(12.0),
                                 sway_seed=1)])
    return run_scenario(scenario, duration_s=25.0, seed=42)


class TestPipelineIntegration:
    def test_clean_capture_not_flagged(self, clean_capture):
        estimate = TagBreathe(user_ids={1}).process(clean_capture.reports)[1]
        assert REASON_MOTION not in estimate.degraded_reasons
        assert not estimate.motion_gated
        assert estimate.motion_score < CONFIG.z_threshold

    def test_motion_burst_injector_trips_detector(self, clean_capture):
        chain = FaultChain([MotionBurst(0.4, excursion_m=2.0)], seed=5)
        injected = chain.apply(clean_capture.reports)
        estimate = TagBreathe(user_ids={1}).process(injected)[1]
        assert REASON_MOTION in estimate.degraded_reasons
        assert estimate.motion_score >= CONFIG.z_threshold

    def test_disabled_detector_restores_clean_estimate(self, clean_capture):
        chain = FaultChain([MotionBurst(0.4, excursion_m=2.0)], seed=5)
        injected = chain.apply(clean_capture.reports)
        off = TagBreathe(user_ids={1},
                         motion=MotionConfig(enabled=False)).process(injected)
        assert REASON_MOTION not in off[1].degraded_reasons
        assert off[1].motion_score == 0.0

    def test_streamed_matches_batch_motion_verdict(self, clean_capture):
        chain = FaultChain([MotionBurst(0.4, excursion_m=2.0)], seed=5)
        injected = chain.apply(clean_capture.reports)
        batch = TagBreathe(user_ids={1}).process(injected)[1]
        engine = TagBreathe(user_ids={1})
        engine.feed_batch(ReportBatch.from_reports(injected))
        streamed = engine.estimate_user(1)
        recomputed = estimate_user_recompute(engine, 1)
        for estimate in (streamed, recomputed):
            assert estimate.motion_gated == batch.motion_gated
            assert estimate.motion_score == batch.motion_score
            assert (REASON_MOTION in estimate.degraded_reasons) == (
                REASON_MOTION in batch.degraded_reasons)
