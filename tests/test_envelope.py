"""Position envelopes: the bounds behind the reader's envelope-decided probes.

Every tag's position stays inside a ball (``position_envelope_m``): the
waveforms and the sway bound their displacement, a subject turns those
bounds into a radius around each mounting point, and an antenna bounds
its gain and distance over the ball.  The reader's MAC probes rest on all
four, so each is held here as a property over random inputs.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.body import (
    ApneaSighBreathing,
    AsymmetricBreathing,
    BodySway,
    IrregularBreathing,
    MetronomeBreathing,
    RestlessBreathing,
    SinusoidalBreathing,
    Subject,
    TransientMotion,
)
from repro.body.waveforms import BreathingWaveform
from repro.reader import Antenna
from repro.sim.scenario import Scenario

_rates = st.floats(min_value=3.0, max_value=40.0)
_amplitudes = st.floats(min_value=0.0, max_value=0.05)
_seeds = st.integers(min_value=0, max_value=2**16)
_times = st.lists(st.floats(min_value=0.0, max_value=600.0), min_size=1,
                  max_size=40)


def _waveforms():
    """Every shipped waveform, over its parameter space."""
    return st.one_of(
        st.builds(SinusoidalBreathing, _rates, _amplitudes,
                  st.floats(min_value=-10.0, max_value=10.0)),
        st.builds(AsymmetricBreathing, _rates, _amplitudes,
                  st.floats(min_value=0.05, max_value=0.95)),
        st.builds(IrregularBreathing, _rates, _amplitudes,
                  st.floats(min_value=0.0, max_value=0.49),
                  st.floats(min_value=0.0, max_value=1.0),
                  st.floats(min_value=0.0, max_value=5.0), _seeds),
        st.builds(ApneaSighBreathing, _rates, _amplitudes,
                  sigh_probability=st.floats(min_value=0.0, max_value=1.0),
                  sigh_gain=st.floats(min_value=1.0, max_value=4.0),
                  seed=_seeds),
        st.builds(MetronomeBreathing, _rates, _amplitudes,
                  st.floats(min_value=0.0, max_value=0.49),
                  st.floats(min_value=1.0, max_value=120.0)),
    )


class TestDisplacementBounds:
    @settings(max_examples=150, deadline=None)
    @given(_waveforms(), _times)
    def test_waveforms_stay_within_zero_and_bound(self, waveform, times):
        bound = waveform.peak_displacement_m()
        assert bound is not None
        scalar = np.array([waveform.displacement(t) for t in times])
        array = waveform.displacement_array(np.asarray(times))
        for disp in (scalar, array):
            assert np.all(disp >= 0.0)
            assert np.all(disp <= bound)

    @settings(max_examples=60, deadline=None)
    @given(_waveforms(), st.floats(min_value=0.0, max_value=0.1), _seeds,
           _times)
    def test_restless_bound_adds_the_burst_amplitude(self, waveform, amp,
                                                     seed, times):
        restless = RestlessBreathing(
            waveform, TransientMotion(rate_per_minute=20.0, amplitude_m=amp,
                                      seed=seed))
        bound = restless.peak_displacement_m()
        assert bound == waveform.peak_displacement_m() + amp
        disp = restless.displacement_array(np.asarray(times))
        assert np.all((disp >= 0.0) & (disp <= bound))

    def test_sigh_gain_sets_the_apnea_sigh_bound(self):
        sighing = ApneaSighBreathing(12.0, amplitude_m=0.01,
                                     sigh_probability=0.5, sigh_gain=3.0)
        calm = ApneaSighBreathing(12.0, amplitude_m=0.01,
                                  sigh_probability=0.0, sigh_gain=3.0)
        assert sighing.peak_displacement_m() == 0.01 * 3.0
        assert calm.peak_displacement_m() == 0.01
        times = np.linspace(0.0, 600.0, 20001)
        assert sighing.displacement_array(times).max() > 0.02

    def test_a_custom_waveform_declares_no_bound(self):
        assert _Unbounded().peak_displacement_m() is None

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.01),
           st.integers(min_value=1, max_value=8), _seeds, _times)
    def test_sway_stays_within_plus_minus_bound(self, amp, components, seed,
                                                times):
        sway = BodySway(amplitude_m=amp, components=components, seed=seed)
        bound = sway.peak_displacement_m()
        scalar = np.array([sway.displacement(t) for t in times])
        array = sway.displacement_array(np.asarray(times))
        for disp in (scalar, array):
            assert np.all(np.abs(disp) <= bound)


class _Unbounded(BreathingWaveform):
    """A custom waveform that declares no displacement bound."""

    def displacement(self, t: float) -> float:
        return 0.005 * (1.0 - math.cos(1.2 * t))

    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        return 60.0 * 1.2 / (2.0 * math.pi)


class TestSubjectEnvelope:
    @settings(max_examples=60, deadline=None)
    @given(_waveforms(), st.sampled_from(["sitting", "standing", "lying"]),
           st.floats(min_value=0.0, max_value=180.0), _seeds, _times)
    def test_worn_tags_never_leave_their_ball(self, waveform, posture,
                                              orientation, seed, times):
        subject = Subject(user_id=1, distance_m=2.0, posture=posture,
                          orientation_deg=orientation, breathing=waveform,
                          sway_seed=seed)
        for tag in subject.tags:
            centre, radius = subject.tag_position_envelope_m(tag.tag_id)
            positions = subject.tag_position_m_array(tag.tag_id,
                                                     np.asarray(times))
            scalar = np.array([subject.tag_position_m(tag.tag_id, t)
                               for t in times])
            for pos in (positions, scalar):
                # Real-arithmetic containment; the float sum of the
                # position terms rounds by ~1e-16 m.
                assert np.all(np.linalg.norm(pos - centre, axis=1)
                              <= radius + 1e-12)

    def test_scenario_answers_items_still_and_custom_waveforms_unbounded(self):
        scenario = Scenario([
            Subject(user_id=1, distance_m=2.0, sway_seed=1),
            Subject(user_id=2, distance_m=2.5, breathing=_Unbounded()),
        ]).with_contending_tags(2, seed=1)
        item = scenario.contending_tags[0]
        centre, radius = scenario.position_envelope_m(item.key)
        assert radius == 0.0
        assert np.array_equal(centre, item.position_m)
        assert scenario.position_envelope_m((1, 1))[1] > 0.0
        assert scenario.position_envelope_m((2, 1)) is None


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


_vectors = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3)


class TestAntennaBallBounds:
    @settings(max_examples=200, deadline=None)
    @given(_vectors, _vectors, st.floats(min_value=0.2, max_value=6.0),
           st.floats(min_value=0.0, max_value=0.99),
           st.lists(st.tuples(_vectors, st.floats(min_value=0.0,
                                                  max_value=1.0)),
                    min_size=1, max_size=20),
           st.floats(min_value=10.0, max_value=180.0))
    def test_every_point_in_the_ball_is_bounded(self, boresight, heading,
                                                dist, fraction, offsets,
                                                beamwidth):
        antenna = Antenna(port=1, position_m=(0.5, -0.2, 1.0),
                          boresight=boresight, beamwidth_deg=beamwidth)
        centre = np.array(antenna.position_m) + dist * _unit(heading)
        radius = fraction * dist
        gain_lo, gain_hi, dist_lo, dist_hi = antenna.gain_and_distance_bounds(
            centre, radius)
        assert gain_lo <= gain_hi and dist_lo <= dist_hi
        tol = 1e-9
        for direction, depth in offsets:
            point = centre + depth * radius * _unit(direction)
            gain, distance = antenna.gain_and_distance(point)
            assert gain_lo - tol <= gain <= gain_hi + tol
            assert dist_lo - tol <= distance <= dist_hi + tol

    def test_radius_zero_is_the_point_itself(self):
        antenna = Antenna(port=1)
        point = (2.0, 0.7, 1.3)
        gain, distance = antenna.gain_and_distance(point)
        gain_lo, gain_hi, dist_lo, dist_hi = antenna.gain_and_distance_bounds(
            point, 0.0)
        assert gain_lo == pytest.approx(gain, abs=1e-12)
        assert gain_hi == pytest.approx(gain, abs=1e-12)
        assert dist_lo == dist_hi == distance

    def test_a_point_on_the_panel_plane_is_bounded_across_the_jump(self):
        # At 90 degrees off boresight the point's cosine is exactly 0 (the
        # back-lobe floor) while cos(pi / 2) rounds to 6e-17, where a
        # 180-degree beam is still 3 dB under peak.
        antenna = Antenna(port=1, position_m=(0.5, -0.2, 1.0),
                          boresight=(0.0, 0.0, 1.0), beamwidth_deg=180.0)
        point = (0.5, 0.8, 1.0)
        gain, _ = antenna.gain_and_distance(point)
        gain_lo, gain_hi, _, _ = antenna.gain_and_distance_bounds(point, 0.0)
        assert gain == antenna.peak_gain_dbi - 20.0
        assert gain_lo <= gain <= gain_hi
        assert gain_hi >= antenna.peak_gain_dbi - 3.0

    def test_a_ball_reaching_the_antenna_has_no_bounds(self):
        antenna = Antenna(port=1, position_m=(0.0, 0.0, 1.0))
        assert antenna.gain_and_distance_bounds((0.5, 0.0, 1.0), 0.5) is None
        assert antenna.gain_and_distance_bounds((0.5, 0.0, 1.0), 0.7) is None
        assert antenna.gain_and_distance_bounds((0.5, 0.0, 1.0), 0.49) is not None

    def test_underflowing_cosine_lands_on_the_floor_without_a_warning(self):
        # cos ** 2 underflows to 0 here, and log10(0) used to warn.
        antenna = Antenna(port=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gain, _ = antenna.gain_and_distance((1e-170, 2.0, 1.0))
        assert gain == antenna.peak_gain_dbi - 20.0

    def test_bounds_at_an_underflowing_cosine_warn_nothing(self):
        antenna = Antenna(port=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = antenna.gain_and_distance_bounds((1e-170, 2.0, 1.0), 0.0)
        assert bounds[0] == bounds[1] == antenna.peak_gain_dbi - 20.0
