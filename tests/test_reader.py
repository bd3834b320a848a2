"""Tests for the reader model: reports, hopping, antennas, LLRP facade."""

import math

import numpy as np
import pytest

from repro.epc import EPC96, select_user
from repro.errors import AntennaError, ConfigError, ReaderError
from repro.config import ReaderConfig
from repro.reader import (
    Antenna,
    HopSchedule,
    LLRPClient,
    Reader,
    ROSpec,
    RoundRobinScheduler,
    TagReport,
)
from repro.rf import ChannelPlan
from repro.sim import Scenario
from repro.body import Subject
from repro.units import TWO_PI


def make_report(**overrides):
    defaults = dict(
        epc=EPC96.from_user_tag(1, 1),
        timestamp_s=1.0,
        phase_rad=1.0,
        rssi_dbm=-55.0,
        doppler_hz=0.1,
        channel_index=3,
        antenna_port=1,
    )
    defaults.update(overrides)
    return TagReport(**defaults)


class TestTagReport:
    def test_fields(self):
        report = make_report()
        assert report.user_id == 1
        assert report.tag_id == 1
        assert report.stream_key == (1, 1)

    def test_rejects_out_of_range_phase(self):
        with pytest.raises(ReaderError):
            make_report(phase_rad=7.0)
        with pytest.raises(ReaderError):
            make_report(phase_rad=-0.1)

    def test_rejects_non_finite_timestamp(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ReaderError, match="timestamp"):
                make_report(timestamp_s=bad)

    def test_rejects_bad_channel(self):
        with pytest.raises(ReaderError):
            make_report(channel_index=-1)

    def test_rejects_zero_port(self):
        with pytest.raises(ReaderError):
            make_report(antenna_port=0)

    def test_frozen(self):
        report = make_report()
        with pytest.raises(AttributeError):
            report.phase_rad = 0.5


class TestHopSchedule:
    def make(self, dwell=0.2, seed=0):
        plan = ChannelPlan.default(10, rng=np.random.default_rng(seed))
        return HopSchedule(plan, dwell_s=dwell, rng=np.random.default_rng(seed))

    def test_constant_within_dwell(self):
        hops = self.make()
        assert hops.channel_index_at(0.05) == hops.channel_index_at(0.15)

    def test_dwell_residency(self):
        """Fig. 5: the reader resides ~0.2 s per channel."""
        hops = self.make()
        changes = 0
        prev = hops.channel_index_at(0.0)
        for k in range(1, 50):
            cur = hops.channel_index_at(k * 0.2 + 0.01)
            if cur != prev:
                changes += 1
            prev = cur
        assert changes >= 45  # nearly every dwell boundary hops

    def test_each_sweep_visits_every_channel(self):
        hops = self.make()
        seen = {hops.channel_index_at(k * 0.2 + 0.1) for k in range(10)}
        assert seen == set(range(10))

    def test_no_immediate_repeat(self):
        hops = self.make(seed=3)
        prev = hops.channel_index_at(0.1)
        for k in range(1, 200):
            cur = hops.channel_index_at(k * 0.2 + 0.1)
            assert cur != prev
            prev = cur

    def test_deterministic_given_seed(self):
        a = self.make(seed=5)
        b = self.make(seed=5)
        for k in range(50):
            assert a.channel_index_at(k * 0.2) == b.channel_index_at(k * 0.2)

    def test_hop_boundaries(self):
        hops = self.make()
        bounds = hops.hop_boundaries(0.0, 1.0)
        assert bounds == pytest.approx([0.2, 0.4, 0.6, 0.8])

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            self.make().channel_index_at(-1.0)

    def test_bad_dwell_rejected(self):
        plan = ChannelPlan.default(10)
        with pytest.raises(ConfigError):
            HopSchedule(plan, dwell_s=0.0)


class TestAntenna:
    def test_boresight_gain_is_peak(self):
        antenna = Antenna(port=1, position_m=(0, 0, 1), boresight=(1, 0, 0))
        assert antenna.gain_dbi_toward((5, 0, 1)) == pytest.approx(8.5)

    def test_gain_falls_off_axis(self):
        antenna = Antenna(port=1, position_m=(0, 0, 1), boresight=(1, 0, 0))
        on_axis = antenna.gain_dbi_toward((5, 0, 1))
        off_axis = antenna.gain_dbi_toward((5, 3, 1))
        assert off_axis < on_axis

    def test_half_beamwidth_is_3db(self):
        antenna = Antenna(port=1, position_m=(0, 0, 0), boresight=(1, 0, 0),
                          beamwidth_deg=70.0)
        angle = math.radians(35.0)
        gain = antenna.gain_dbi_toward((math.cos(angle), math.sin(angle), 0))
        assert gain == pytest.approx(antenna.peak_gain_dbi - 3.0, abs=0.1)

    def test_back_lobe(self):
        antenna = Antenna(port=1, position_m=(0, 0, 0), boresight=(1, 0, 0))
        assert antenna.gain_dbi_toward((-5, 0, 0)) == pytest.approx(
            antenna.peak_gain_dbi - 20.0
        )

    def test_distance(self):
        antenna = Antenna(port=1, position_m=(0, 0, 1))
        assert antenna.distance_to((3, 4, 1)) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(AntennaError):
            Antenna(port=0)
        with pytest.raises(AntennaError):
            Antenna(port=1, boresight=(0, 0, 0))
        with pytest.raises(AntennaError):
            Antenna(port=1, beamwidth_deg=0.0)


class TestRoundRobin:
    def make(self, n=3, period=0.2):
        antennas = [Antenna(port=i + 1) for i in range(n)]
        return RoundRobinScheduler(antennas, switch_period_s=period)

    def test_cycles_through_all(self):
        sched = self.make(3)
        ports = [sched.active_at(t).port for t in (0.1, 0.3, 0.5, 0.7)]
        assert ports == [1, 2, 3, 1]

    def test_one_active_at_a_time(self):
        # By construction active_at returns exactly one antenna; check the
        # duty cycle accounting matches (paper: power does not grow with
        # antenna count).
        sched = self.make(4)
        assert sched.duty_cycle() == pytest.approx(0.25)

    def test_by_port(self):
        sched = self.make(2)
        assert sched.by_port(2).port == 2
        with pytest.raises(AntennaError):
            sched.by_port(9)

    def test_validation(self):
        with pytest.raises(AntennaError):
            RoundRobinScheduler([])
        with pytest.raises(AntennaError):
            RoundRobinScheduler([Antenna(port=1), Antenna(port=1)])
        with pytest.raises(AntennaError):
            RoundRobinScheduler([Antenna(port=1)], switch_period_s=0.0)
        sched = self.make()
        with pytest.raises(AntennaError):
            sched.active_at(-0.1)


class TestReader:
    def run_default(self, duration=5.0, seed=0, **reader_kwargs):
        scenario = Scenario.single_user(distance_m=2.0, sway_seed=seed)
        reader = Reader(rng=np.random.default_rng(seed), **reader_kwargs)
        return reader.run(scenario, duration), scenario

    def test_reports_sorted_and_in_range(self):
        reports, _ = self.run_default()
        assert reports
        times = [r.timestamp_s for r in reports]
        assert times == sorted(times)
        assert all(0.0 <= t < 5.0 + 0.1 for t in times)

    def test_reports_carry_low_level_fields(self):
        reports, _ = self.run_default()
        for report in reports[:50]:
            assert 0.0 <= report.phase_rad < TWO_PI
            assert -90.0 < report.rssi_dbm < -20.0
            assert 0 <= report.channel_index < 10
            assert report.antenna_port == 1

    def test_rssi_quantized(self):
        reports, _ = self.run_default()
        for report in reports[:50]:
            assert (report.rssi_dbm / 0.5) == pytest.approx(
                round(report.rssi_dbm / 0.5), abs=1e-9
            )

    def test_all_three_tags_read(self):
        reports, scenario = self.run_default()
        seen = {r.stream_key for r in reports}
        assert seen == {t.key for t in scenario.subjects[0].tags}

    def test_phase_jumps_at_hops(self):
        """Fig. 4: raw phase is discontinuous at channel boundaries."""
        reports, _ = self.run_default(duration=8.0)
        one_tag = [r for r in reports if r.stream_key == (1, 1)]
        jumps, smalls = [], []
        for prev, cur in zip(one_tag, one_tag[1:]):
            delta = abs(cur.phase_rad - prev.phase_rad)
            delta = min(delta, TWO_PI - delta)
            if prev.channel_index == cur.channel_index:
                smalls.append(delta)
            else:
                jumps.append(delta)
        # Same-channel consecutive readings move little; cross-channel
        # readings jump arbitrarily.
        assert np.median(smalls) < 0.3
        assert np.median(jumps) > np.median(smalls)

    def test_deterministic_with_seed(self):
        r1, _ = self.run_default(seed=42)
        r2, _ = self.run_default(seed=42)
        assert len(r1) == len(r2)
        assert all(a.phase_rad == b.phase_rad for a, b in zip(r1[:20], r2[:20]))

    def test_antenna_count_mismatch_rejected(self):
        config = ReaderConfig(num_antennas=2)
        with pytest.raises(ReaderError):
            Reader(config=config, antennas=[Antenna(port=1)])

    def test_empty_environment_rejected(self):
        class Empty:
            def tag_keys(self):
                return []
        with pytest.raises(ReaderError):
            Reader().run(Empty(), 1.0)

    def test_bad_duration_rejected(self):
        scenario = Scenario.single_user()
        with pytest.raises(ReaderError):
            Reader().run(scenario, 0.0)

    # A Select matching no tag returns an empty batch early; the window
    # is checked before that return as well as on the inventory path.
    @pytest.mark.parametrize("empty_select", [True, False])
    @pytest.mark.parametrize("duration_s, t_start", [
        (math.nan, 0.0), (math.inf, 0.0), (-1.0, 0.0),
        (1.0, math.nan), (1.0, math.inf),
    ])
    def test_non_finite_window_rejected(self, empty_select, duration_s,
                                        t_start):
        select = select_user(42) if empty_select else None
        with pytest.raises(ReaderError):
            Reader().run(Scenario.single_user(), duration_s,
                         t_start=t_start, select=select)

    @pytest.mark.parametrize("empty_select", [True, False])
    def test_negative_start_rejected_on_both_paths(self, empty_select):
        select = select_user(42) if empty_select else None
        with pytest.raises(ReaderError, match="t_start"):
            Reader().run(Scenario.single_user(), 1.0, t_start=-0.5,
                         select=select)

    def test_blocked_user_yields_no_reports(self):
        scenario = Scenario([Subject(user_id=1, distance_m=4.0,
                                     orientation_deg=150.0)])
        reader = Reader(rng=np.random.default_rng(0))
        reports = reader.run(scenario, 3.0)
        assert reports == []

    def test_multi_antenna_round_robin_ports(self):
        config = ReaderConfig(num_antennas=2)
        antennas = [
            Antenna(port=1, position_m=(0, 0, 1), boresight=(1, 0, 0)),
            Antenna(port=2, position_m=(0, 1, 1), boresight=(1, 0, 0)),
        ]
        scenario = Scenario.single_user(distance_m=2.0)
        reader = Reader(config=config, antennas=antennas,
                        rng=np.random.default_rng(0))
        reports = reader.run(scenario, 4.0)
        ports = {r.antenna_port for r in reports}
        assert ports == {1, 2}


class TestLLRPClient:
    def make_client(self):
        scenario = Scenario.single_user(distance_m=2.0)
        reader = Reader(rng=np.random.default_rng(0))
        return LLRPClient(reader, scenario)

    def test_full_lifecycle(self):
        client = self.make_client()
        client.connect()
        client.add_rospec(ROSpec(duration_s=2.0))
        received = []
        client.subscribe(received.append)
        reports = client.start()
        assert len(received) == len(reports) > 0

    def test_requires_connect(self):
        client = self.make_client()
        with pytest.raises(ReaderError):
            client.add_rospec(ROSpec(duration_s=1.0))

    def test_requires_rospec(self):
        client = self.make_client()
        client.connect()
        with pytest.raises(ReaderError):
            client.start()

    def test_disconnect_clears_rospec(self):
        client = self.make_client()
        client.connect()
        client.add_rospec(ROSpec(duration_s=1.0))
        client.disconnect()
        client.connect()
        with pytest.raises(ReaderError):
            client.start()

    def test_batched_delivery(self):
        client = self.make_client()
        client.connect()
        client.add_rospec(ROSpec(duration_s=2.0, report_every_n=16))
        received = []
        client.subscribe(received.append)
        reports = client.start()
        assert len(received) == len(reports)

    def test_rospec_validation(self):
        with pytest.raises(ReaderError):
            ROSpec(duration_s=0.0)
        with pytest.raises(ReaderError):
            ROSpec(duration_s=1.0, report_every_n=0)
