"""Property-based invariants of the signal pipeline (hypothesis).

These test the *mathematical* properties the paper's equations promise,
on synthetic report streams where ground truth is exact:

* Eq. (1)/(3) invariance to the constant offset ``c``: adding any
  per-channel phase offset to every report leaves the recovered
  displacement unchanged.
* Time-shift equivariance: shifting every timestamp shifts the recovered
  track and leaves the rate estimate unchanged.
* Wrap robustness: Eq. (3) recovery is exact across phase wraps as long
  as per-pair motion stays below lambda/4.
* Zero-crossing scale invariance: scaling a signal's amplitude does not
  move its crossings (hysteresis scaled accordingly).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.incremental import chain_deltas, window_samples
from repro.core.preprocess import chain_order, default_frequencies
from repro.core.zerocross import zero_crossing_times
from repro.epc import EPC96
from repro.reader import TagReport
from repro.reader.batch import ReportBatch
from repro.rf.phase import backscatter_phase
from repro.streams import TimeSeries
from repro.units import SPEED_OF_LIGHT, TWO_PI

FREQS = default_frequencies(10)


def displacement_samples(reports, frequencies_hz):
    """One tag's displacement samples from the engine's Eq. (3)/(4)
    kernel: :func:`chain_deltas` then :func:`window_samples`."""
    cols = ReportBatch.from_reports(reports)
    sid = np.zeros(len(cols), dtype=np.int64)
    order, start = chain_order(sid, cols.channel, cols.antenna)
    wd, seg = chain_deltas(cols.t, cols.phase, order, np.flatnonzero(start))
    coef = SPEED_OF_LIGHT / np.asarray(frequencies_hz) / (4.0 * np.pi)
    times, values, _counts = window_samples(
        cols.t, sid, cols.channel, cols.antenna, cols.phase, wd, seg, coef)
    return TimeSeries(times, values)


def reports_from_trajectory(distances, times, channel_offsets,
                            channels=None):
    """Noise-free reports of one tag over a distance trajectory."""
    channels = channels if channels is not None else [0] * len(times)
    reports = []
    for t, d, ch in zip(times, distances, channels):
        lam = SPEED_OF_LIGHT / FREQS[ch]
        reports.append(TagReport(
            epc=EPC96.from_user_tag(1, 1),
            timestamp_s=float(t),
            phase_rad=backscatter_phase(float(d), lam, channel_offsets[ch]),
            rssi_dbm=-55.0,
            doppler_hz=0.0,
            channel_index=int(ch),
            antenna_port=1,
        ))
    return reports


@st.composite
def trajectories(draw):
    """A smooth breathing-like trajectory sampled within one dwell chain."""
    n = draw(st.integers(min_value=12, max_value=60))
    base = draw(st.floats(min_value=1.0, max_value=6.0))
    amp = draw(st.floats(min_value=0.0005, max_value=0.01))
    freq = draw(st.floats(min_value=0.1, max_value=0.4))
    times = np.arange(n) * 0.04
    distances = base + amp * np.sin(TWO_PI * freq * times)
    return times, distances


class TestOffsetInvariance:
    @given(trajectories(), st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_channel_offset_cancels(self, trajectory, offset):
        """Eq. (3): any constant ``c`` drops out of the displacement."""
        times, distances = trajectory
        base_offsets = [0.5] * 10
        shifted_offsets = [0.5 + offset] * 10
        a = displacement_samples(
            reports_from_trajectory(distances, times, base_offsets), FREQS)
        b = displacement_samples(
            reports_from_trajectory(distances, times, shifted_offsets), FREQS)
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    @given(trajectories())
    @settings(max_examples=30, deadline=None)
    def test_recovers_motion_exactly(self, trajectory):
        times, distances = trajectory
        samples = displacement_samples(
            reports_from_trajectory(distances, times, [1.0] * 10), FREQS)
        expected = distances - distances.mean()
        np.testing.assert_allclose(samples.values, expected, atol=1e-9)


class TestTimeShiftEquivariance:
    @given(trajectories(), st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_shifting_time_shifts_track(self, trajectory, shift):
        times, distances = trajectory
        offsets = [0.3] * 10
        base = displacement_samples(
            reports_from_trajectory(distances, times, offsets), FREQS)
        moved = displacement_samples(
            reports_from_trajectory(distances, times + shift, offsets), FREQS)
        np.testing.assert_allclose(moved.times, base.times + shift, atol=1e-9)
        np.testing.assert_allclose(moved.values, base.values, atol=1e-9)


class TestWrapRobustness:
    @given(st.floats(min_value=1.0, max_value=6.0),
           st.floats(min_value=0.001, max_value=0.02))
    @settings(max_examples=40, deadline=None)
    def test_exact_across_wraps(self, base, total_motion):
        """A slow monotone drift across many phase wraps is recovered as
        long as each inter-read step stays below lambda/4 (~8 cm)."""
        n = 50
        times = np.arange(n) * 0.04
        distances = base + np.linspace(0.0, total_motion, n)
        samples = displacement_samples(
            reports_from_trajectory(distances, times, [2.0] * 10), FREQS)
        recovered_span = samples.values.max() - samples.values.min()
        assert recovered_span == pytest.approx(total_motion, abs=1e-9)

    def test_breaks_beyond_half_wavelength_per_step(self):
        """The documented ambiguity limit: lambda/4 per consecutive pair."""
        lam = SPEED_OF_LIGHT / FREQS[0]
        step = 0.3 * lam  # > lambda/4 per read: aliases
        times = np.arange(5) * 0.04
        distances = 2.0 + np.arange(5) * step
        samples = displacement_samples(
            reports_from_trajectory(distances, times, [0.0] * 10), FREQS)
        span = samples.values.max() - samples.values.min()
        assert span != pytest.approx(4 * step, rel=0.01)


class TestZeroCrossingInvariance:
    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_amplitude_scale_invariance(self, scale):
        t = np.arange(0, 30, 0.05)
        signal = TimeSeries(t, np.sin(TWO_PI * 0.2 * t))
        scaled = TimeSeries(t, scale * signal.values)
        a = zero_crossing_times(signal, hysteresis=0.1)
        b = zero_crossing_times(scaled, hysteresis=0.1 * scale)
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_crossing_count_stable_under_phase(self, phase):
        t = np.arange(0, 30, 0.05)
        signal = TimeSeries(t, np.sin(TWO_PI * 0.2 * t + phase))
        crossings = zero_crossing_times(signal)
        assert 10 <= len(crossings) <= 13  # ~12 half-cycles in 30 s
