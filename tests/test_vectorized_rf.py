"""Array-vs-scalar agreement of the vectorized RF/body/schedule substrate.

Every broadcasting function must agree elementwise with a Python loop
over its scalar form — the property the batched reader synthesis rests on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.body.motion import BodySway
from repro.body.subject import Subject
from repro.body.waveforms import (
    AsymmetricBreathing,
    IrregularBreathing,
    MetronomeBreathing,
    SinusoidalBreathing,
)
from repro.errors import AntennaError, ConfigError
from repro.reader.antenna import Antenna, RoundRobinScheduler
from repro.reader.hopping import HopSchedule
from repro.rf.channel import ChannelPlan
from repro.rf.doppler import doppler_report, doppler_shift_from_velocity
from repro.rf.noise import DynamicMultipath, PhaseNoiseModel, quantize_rssi
from repro.rf.phase import PhaseModel, backscatter_phase
from repro.rf.propagation import LinkBudget, PathLossModel
from repro.sim.scenario import Scenario
from repro.units import linear_to_db, wavelength, wrap_phase, wrap_phase_delta

TIMES = np.linspace(0.0, 12.0, 97)
DISTANCES = np.linspace(0.5, 6.0, 23)
FREQ = 920e6


def _loop(fn, xs):
    return np.array([fn(float(x)) for x in xs])


class TestRfBroadcasts:
    def test_one_way_loss(self):
        model = LinkBudget().path_loss
        arr = model.one_way_loss_db(DISTANCES, FREQ)
        ref = _loop(lambda d: model.one_way_loss_db(d, FREQ), DISTANCES)
        np.testing.assert_allclose(arr, ref, rtol=0, atol=1e-9)

    def test_rx_power_and_snr(self):
        budget = LinkBudget()
        np.testing.assert_allclose(
            budget.rx_power_dbm(DISTANCES, FREQ, extra_loss_db=2.0),
            _loop(lambda d: budget.rx_power_dbm(d, FREQ, extra_loss_db=2.0),
                  DISTANCES),
            rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            budget.snr_db(DISTANCES, FREQ),
            _loop(lambda d: budget.snr_db(d, FREQ), DISTANCES),
            rtol=0, atol=1e-9)

    def test_read_success_probability(self):
        budget = LinkBudget()
        np.testing.assert_allclose(
            budget.read_success_probability(DISTANCES, FREQ),
            _loop(lambda d: budget.read_success_probability(d, FREQ),
                  DISTANCES),
            rtol=0, atol=1e-9)

    def test_backscatter_phase(self):
        lam = wavelength(FREQ)
        np.testing.assert_allclose(
            backscatter_phase(DISTANCES, lam, 0.3),
            _loop(lambda d: backscatter_phase(d, lam, 0.3), DISTANCES),
            rtol=0, atol=1e-9)

    def test_phase_model(self):
        channel = ChannelPlan.default(4, rng=np.random.default_rng(0))[1]
        model = PhaseModel(link_offset_rad=1.1)
        np.testing.assert_allclose(
            model.phase(DISTANCES, channel, 0.05),
            _loop(lambda d: model.phase(d, channel, 0.05), DISTANCES),
            rtol=0, atol=1e-9)

    def test_doppler_shift(self):
        vels = np.linspace(-0.02, 0.02, 11)
        np.testing.assert_allclose(
            doppler_shift_from_velocity(vels, 0.33),
            _loop(lambda v: doppler_shift_from_velocity(v, 0.33), vels),
            rtol=0, atol=1e-12)

    def test_doppler_report_noise_free_matches(self):
        vels = np.linspace(-0.02, 0.02, 11)
        rng = np.random.default_rng(1)
        np.testing.assert_allclose(
            doppler_report(vels, 0.33, rng, phase_noise_rad=0.0),
            _loop(lambda v: doppler_report(v, 0.33, rng, phase_noise_rad=0.0),
                  vels),
            rtol=0, atol=1e-12)

    def test_phase_noise_sigma_and_array_gate(self):
        model = PhaseNoiseModel()
        snrs = np.linspace(-5.0, 40.0, 12)
        np.testing.assert_allclose(
            model.sigma(snrs), _loop(model.sigma, snrs), rtol=0, atol=1e-12)
        silent = PhaseNoiseModel(floor_rad=0.0, ref_rad=0.0)
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state["state"]["state"]
        assert not silent.sample_array(snrs, rng).any()
        assert rng.bit_generator.state["state"]["state"] == before

    def test_multipath_offset_array(self):
        mp = DynamicMultipath(rng=np.random.default_rng(3))
        links = [("tag", 2, 1), ("tag", 5, 1)]
        link_of = np.arange(TIMES.shape[0]) % 2
        arr = mp.phase_offsets(links, link_of, TIMES,
                               np.full(TIMES.shape, 3.0))
        ref = np.array([mp.phase_offset(links[li], float(t), 3.0)
                        for li, t in zip(link_of, TIMES)])
        np.testing.assert_allclose(arr, ref, rtol=0, atol=1e-9)

    def test_quantize_rssi_array(self):
        values = np.linspace(-70.0, -40.0, 31)
        np.testing.assert_allclose(
            quantize_rssi(values, 0.5),
            _loop(lambda v: quantize_rssi(v, 0.5), values),
            rtol=0, atol=0)

    def test_wrap_phase_array(self):
        xs = np.linspace(-20.0, 20.0, 81)
        np.testing.assert_allclose(
            wrap_phase(xs), _loop(wrap_phase, xs), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            wrap_phase_delta(xs), _loop(wrap_phase_delta, xs),
            rtol=0, atol=1e-12)


class TestScheduleLookups:
    def test_channel_indices_match_scalar(self):
        plan = ChannelPlan.default(10, rng=np.random.default_rng(0))
        a = HopSchedule(plan, rng=np.random.default_rng(5))
        b = HopSchedule(plan, rng=np.random.default_rng(5))
        idx = a.channel_indices_at(TIMES)
        ref = np.array([b.channel_index_at(float(t)) for t in TIMES])
        np.testing.assert_array_equal(idx, ref)

    def test_channel_indices_negative_time_raises(self):
        plan = ChannelPlan.default(4, rng=np.random.default_rng(0))
        sched = HopSchedule(plan, rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            sched.channel_indices_at(np.array([0.1, -0.2]))

    def test_antenna_indices_match_scalar(self):
        antennas = [Antenna(port=p) for p in (1, 2, 3)]
        sched = RoundRobinScheduler(antennas, switch_period_s=0.2)
        idx = sched.antenna_indices_at(TIMES)
        ref = np.array([antennas.index(sched.active_at(float(t)))
                        for t in TIMES])
        np.testing.assert_array_equal(idx, ref)
        with pytest.raises(AntennaError):
            sched.antenna_indices_at(np.array([-1.0]))


class TestAntennaGeometry:
    def test_distances_and_gains_match_scalar(self):
        antenna = Antenna(port=1, position_m=(0.0, 0.2, 1.0),
                          boresight=(1.0, 0.1, 0.0))
        rng = np.random.default_rng(7)
        points = rng.uniform(-3.0, 6.0, size=(40, 3))
        np.testing.assert_allclose(
            antenna.distances_to(points),
            np.array([antenna.distance_to(p) for p in points]),
            rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            antenna.gain_dbi_toward_array(points),
            np.array([antenna.gain_dbi_toward(p) for p in points]),
            rtol=0, atol=1e-9)

    def test_gain_array_handles_coincident_point(self):
        antenna = Antenna(port=1)
        points = np.array([antenna.position_m, (2.0, 0.0, 1.0)], dtype=float)
        gains = antenna.gain_dbi_toward_array(points)
        assert gains[0] == antenna.peak_gain_dbi
        assert gains[1] == pytest.approx(
            antenna.gain_dbi_toward((2.0, 0.0, 1.0)), abs=1e-9)


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _pattern_per_call(antenna: Antenna, point):
    """``(gain_dbi, distance_m)`` with nothing cached: every vector
    revalidated, the norms and the cos^k exponent recomputed per call."""
    direction = np.asarray(point, dtype=float) - np.asarray(
        antenna.position_m, dtype=float)
    dist = float(np.linalg.norm(direction))
    if dist == 0.0:
        return antenna.peak_gain_dbi, dist
    bs = np.asarray(antenna.boresight, dtype=float)
    cos_angle = float(direction @ bs / (dist * np.linalg.norm(bs)))
    cos_angle = min(1.0, max(-1.0, cos_angle))
    if cos_angle <= 0.0:
        return antenna.peak_gain_dbi - 20.0, dist
    half_bw = np.radians(antenna.beamwidth_deg / 2.0)
    k = np.log(0.5) / np.log(np.cos(half_bw) ** 2)
    rolloff_db = 10.0 * k * np.log10(cos_angle ** 2)
    return antenna.peak_gain_dbi + max(rolloff_db, -20.0), dist


_coord = st.floats(-10.0, 10.0)
_vec3 = st.tuples(_coord, _coord, _coord)


class TestAntennaPattern:
    """``gain_and_distance`` is the one scalar pattern evaluation."""

    @settings(max_examples=300, deadline=None)
    @given(position=_vec3,
           boresight=_vec3.filter(lambda v: np.linalg.norm(v) > 0.0),
           beamwidth=st.floats(1.0, 360.0), point=_vec3)
    @example(position=(0.0, 0.0, 1.0), boresight=(1.0, 0.0, 0.0),
             beamwidth=70.0, point=(-3.0, 0.5, 1.0))   # behind the panel
    @example(position=(0.0, 0.0, 1.0), boresight=(1.0, 0.0, 0.0),
             beamwidth=70.0, point=(4.0, 0.0, 1.0))    # on boresight
    @example(position=(0.0, 0.0, 1.0), boresight=(1.0, 0.0, 0.0),
             beamwidth=70.0, point=(0.0, 0.0, 1.0))    # zero distance
    @example(position=(0.0, 0.0, 1.0), boresight=(1.0, 0.0, 0.0),
             beamwidth=70.0, point=(0.0, 2.0, 1.0))    # broadside
    def test_bit_identical_to_per_call_formula(self, position, boresight,
                                               beamwidth, point):
        antenna = Antenna(port=1, position_m=position, boresight=boresight,
                          beamwidth_deg=beamwidth)
        # Near-broadside points can underflow cos^2 to zero; log10 then
        # warns and the -20 dB floor applies, identically on both sides.
        with np.errstate(all="ignore"):
            want_gain, want_dist = _pattern_per_call(antenna, point)
            gain, dist = antenna.gain_and_distance(point)
            assert _same_bits(gain, want_gain)
            assert _same_bits(dist, want_dist)
            assert _same_bits(antenna.gain_dbi_toward(point), want_gain)
            assert _same_bits(antenna.distance_to(point), want_dist)

    def test_rejects_non_3_vectors(self):
        with pytest.raises(AntennaError):
            Antenna(port=1).gain_and_distance((1.0, 2.0))


class TestBudgetPieces:
    """The split path-loss and budget terms reproduce the fused formulas."""

    @settings(max_examples=200, deadline=None)
    @given(distance=st.floats(1e-3, 50.0), frequency=st.floats(800e6, 1e9),
           extra=st.floats(0.0, 40.0))
    def test_bit_identical_to_fused_formula(self, distance, frequency, extra):
        budget = LinkBudget()
        model = budget.path_loss
        lam = wavelength(frequency)
        loss = (2.0 * linear_to_db(4.0 * np.pi * model.reference_m / lam)
                + 10.0 * model.exponent * np.log10(distance / model.reference_m))
        assert _same_bits(model.one_way_loss_db(distance, frequency), loss)
        tag_p = (budget.tx_power_dbm + budget.reader_gain_dbi
                 + budget.tag_gain_dbi - loss - budget.on_body_loss_db
                 - budget.polarization_loss_db - extra)
        rx_p = (tag_p - budget.modulation_loss_db + budget.tag_gain_dbi
                + budget.reader_gain_dbi - loss - budget.polarization_loss_db)
        got = budget.link_powers_dbm(distance, frequency, extra)
        assert _same_bits(got[0], tag_p) and _same_bits(got[1], rx_p)
        assert _same_bits(budget.tag_power_dbm(distance, frequency, extra), tag_p)
        assert _same_bits(budget.rx_power_dbm(distance, frequency, extra), rx_p)
        tabled = budget.powers_from_path_loss_dbm(
            model.reference_loss_db(frequency) + model.rolloff_db(distance),
            extra)
        assert _same_bits(tabled[0], tag_p) and _same_bits(tabled[1], rx_p)

    def test_sample_read_from_powers_draws_like_sample_read(self):
        budget = LinkBudget()
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        for distance in np.linspace(0.5, 12.0, 40):
            powers = budget.link_powers_dbm(float(distance), 915e6, 2.0)
            assert budget.sample_read(float(distance), 915e6, a, 2.0) == \
                budget.sample_read_from_powers(*powers, b)
        assert a.random() == b.random()

    def test_zero_sigma_draws_nothing(self):
        budget = LinkBudget(path_loss=PathLossModel(fading_sigma_db=0.0))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert budget.sample_read_from_powers(-10.0, -60.0, rng) == -60.0
        assert budget.sample_read_from_powers(-30.0, -60.0, rng) is None
        assert rng.bit_generator.state == state

    def test_rolloff_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            PathLossModel().rolloff_db(0.0)
        with pytest.raises(ValueError):
            PathLossModel().rolloff_db(np.array([1.0, -1.0]))
        assert math.isfinite(PathLossModel().rolloff_db(1e-3))


class TestBodyTrajectories:
    @pytest.mark.parametrize("waveform", [
        SinusoidalBreathing(12.0),
        AsymmetricBreathing(10.0),
        MetronomeBreathing(10.0),
        IrregularBreathing(10.0, pause_probability=0.2, seed=4,
                           horizon_s=20.0),
        BodySway(seed=6),
    ])
    def test_displacement_array_matches_scalar(self, waveform):
        np.testing.assert_allclose(
            waveform.displacement_array(TIMES),
            np.array([waveform.displacement(float(t)) for t in TIMES]),
            rtol=0, atol=1e-12)

    def test_tag_position_array_matches_scalar(self):
        subject = Subject(user_id=1, distance_m=3.0, orientation_deg=25.0,
                          posture="lying", sway_seed=8)
        for tag in subject.tags:
            arr = subject.tag_position_m_array(tag.tag_id, TIMES)
            ref = np.array([subject.tag_position_m(tag.tag_id, float(t))
                            for t in TIMES])
            np.testing.assert_allclose(arr, ref, rtol=0, atol=1e-12)

    def test_scenario_position_array(self):
        scenario = Scenario.single_user(3.0, sway_seed=2) \
            .with_contending_tags(2, seed=0)
        for key in scenario.tag_keys():
            arr = scenario.position_m_array(key, TIMES)
            ref = np.array([scenario.position_m(key, float(t))
                            for t in TIMES])
            np.testing.assert_allclose(arr, ref, rtol=0, atol=1e-12)

    def test_scenario_static_loss_matches_probe(self):
        scenario = Scenario.single_user(3.0, sway_seed=2) \
            .with_contending_tags(2, seed=0)
        antenna = Antenna(port=1)
        for key in scenario.tag_keys():
            static = scenario.situational_loss_db_static(key, antenna)
            assert static == scenario.extra_loss_db(key, 5.0, antenna)
            np.testing.assert_array_equal(
                scenario.extra_loss_db_array(key, TIMES, antenna),
                np.full(TIMES.shape, static))
