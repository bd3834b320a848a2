"""Tests for the fault-injection subsystem (repro.faults)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Scenario, TagBreathe, run_scenario
from repro.config import ReaderConfig
from repro.body import MetronomeBreathing, Subject
from repro.errors import FaultInjectionError
from repro.faults import (
    ALL_INJECTORS,
    AntennaOutage,
    BurstyDrop,
    DuplicateReports,
    FaultChain,
    InjectionStats,
    InterferenceBurst,
    OutOfOrderDelivery,
    PhaseOutliers,
    PhasePiFlips,
    ReportDrop,
    TagDeath,
    TagDropout,
    TimestampJitter,
)
from repro.units import TWO_PI


@pytest.fixture(scope="module")
def capture():
    """One shared 2-antenna capture all injector tests chew on."""
    scenario = Scenario([Subject(user_id=1, distance_m=2.5,
                                 breathing=MetronomeBreathing(12.0),
                                 sway_seed=0)])
    return run_scenario(scenario, duration_s=20.0, seed=7,
                        reader_config=ReaderConfig(num_antennas=2))


def rng():
    return np.random.default_rng(42)


class TestSeverityZeroIdentity:
    """ISSUE property: every injector at severity 0 is a byte-level no-op."""

    @pytest.mark.parametrize("cls", ALL_INJECTORS)
    def test_identity(self, cls, capture):
        out = cls(0.0).apply(capture.reports, rng())
        assert len(out) == len(capture.reports)
        assert all(a is b for a, b in zip(out, capture.reports))

    def test_zero_chain_is_noop(self, capture):
        chain = FaultChain([cls(0.0) for cls in ALL_INJECTORS], seed=3)
        out = chain.apply(capture.reports)
        assert all(a is b for a, b in zip(out, capture.reports))
        assert all(st_.dropped == 0 for st_ in chain.last_stats)

    def test_empty_input_is_noop(self):
        for cls in ALL_INJECTORS:
            assert cls(0.7).apply([], rng()) == []


class TestReproducibility:
    def test_same_chain_same_output(self, capture):
        chain = FaultChain([ReportDrop(0.3), PhasePiFlips(0.1),
                            DuplicateReports(0.05)], seed=21)
        assert chain.apply(capture.reports) == chain.apply(capture.reports)

    def test_equal_chains_agree(self, capture):
        make = lambda: FaultChain([BurstyDrop(0.4, burst_s=0.5),
                                   TagDeath(0.5)], seed=9)
        assert make().apply(capture.reports) == make().apply(capture.reports)

    def test_seed_matters(self, capture):
        a = FaultChain([ReportDrop(0.5)], seed=1).apply(capture.reports)
        b = FaultChain([ReportDrop(0.5)], seed=2).apply(capture.reports)
        assert a != b

    def test_stage_draws_independent_of_later_config(self, capture):
        """Editing stage 2 must not change stage 1's random draws."""
        kept_a = FaultChain([ReportDrop(0.4), PhasePiFlips(0.05)],
                            seed=5).apply(capture.reports)
        kept_b = FaultChain([ReportDrop(0.4), PhasePiFlips(0.95)],
                            seed=5).apply(capture.reports)
        # Phase flips never drop reads, so the surviving timestamps expose
        # exactly which reads stage 1 kept.
        assert [r.timestamp_s for r in kept_a] == [r.timestamp_s for r in kept_b]

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_reproducible(self, seed, capture):
        chain = FaultChain([ReportDrop(0.2), TimestampJitter(0.5)], seed=seed)
        assert chain.apply(capture.reports) == chain.apply(capture.reports)


class TestLossInjectors:
    def test_report_drop_rate(self, capture):
        out = ReportDrop(0.5).apply(capture.reports, rng())
        frac = len(out) / len(capture.reports)
        assert 0.4 < frac < 0.6

    def test_report_drop_total(self, capture):
        assert ReportDrop(1.0).apply(capture.reports, rng()) == []

    def test_bursty_drop_total(self, capture):
        assert BurstyDrop(1.0).apply(capture.reports, rng()) == []

    def test_bursty_drop_opens_gaps(self, capture):
        out = BurstyDrop(0.4, burst_s=2.0).apply(capture.reports, rng())
        assert 0 < len(out) < len(capture.reports)
        times = np.array([r.timestamp_s for r in out])
        clean = np.array([r.timestamp_s for r in capture.reports])
        assert np.diff(times).max() > np.diff(clean).max() * 5

    def test_interference_burst_gates_windows(self, capture):
        out = InterferenceBurst(0.3, burst_s=1.0).apply(capture.reports, rng())
        assert 0 < len(out) < len(capture.reports)
        # Survivors are input reads, unchanged.
        assert set(out) <= set(capture.reports)


class TestTagAndAntennaInjectors:
    def test_tag_dropout_hits_every_stream(self, capture):
        out = TagDropout(0.5, outage_s=1.0).apply(capture.reports, rng())
        before = {}
        after = {}
        for r in capture.reports:
            before[r.stream_key] = before.get(r.stream_key, 0) + 1
        for r in out:
            after[r.stream_key] = after.get(r.stream_key, 0) + 1
        assert all(after.get(k, 0) < before[k] for k in before)

    def test_tag_death_is_permanent(self, capture):
        out = TagDeath(0.5, num_victims=1).apply(capture.reports, rng())
        t0 = min(r.timestamp_s for r in capture.reports)
        t1 = max(r.timestamp_s for r in capture.reports)
        death = t1 - 0.5 * (t1 - t0)
        streams = {r.stream_key for r in capture.reports}
        last = {}
        for r in out:
            last[r.stream_key] = max(last.get(r.stream_key, t0), r.timestamp_s)
        victims = [k for k in streams if last.get(k, t0) < death]
        assert len(victims) == 1
        # every other stream still reaches the end of the capture
        for k in streams:
            if k not in victims:
                assert last[k] > death

    def test_antenna_outage_start_window(self, capture):
        out = AntennaOutage(0.5, port=1, align="start").apply(
            capture.reports, rng())
        t0 = min(r.timestamp_s for r in capture.reports)
        t1 = max(r.timestamp_s for r in capture.reports)
        mid = t0 + 0.5 * (t1 - t0)
        assert all(r.timestamp_s > mid for r in out if r.antenna_port == 1)
        n_port2_in = sum(r.antenna_port == 2 for r in capture.reports)
        n_port2_out = sum(r.antenna_port == 2 for r in out)
        assert n_port2_in == n_port2_out

    def test_antenna_outage_default_port_is_busiest(self, capture):
        counts = {}
        for r in capture.reports:
            counts[r.antenna_port] = counts.get(r.antenna_port, 0) + 1
        busiest = max(sorted(counts), key=lambda p: counts[p])
        out = AntennaOutage(1.0, align="start").apply(capture.reports, rng())
        assert not any(r.antenna_port == busiest for r in out)


class TestCorruptionInjectors:
    def test_phase_outliers_wrap(self, capture):
        out = PhaseOutliers(0.2).apply(capture.reports, rng())
        assert len(out) == len(capture.reports)
        changed = sum(a.phase_rad != b.phase_rad
                      for a, b in zip(out, capture.reports))
        assert 0 < changed < len(out)
        assert all(0.0 <= r.phase_rad < TWO_PI for r in out)
        assert all(a.timestamp_s == b.timestamp_s
                   for a, b in zip(out, capture.reports))

    def test_pi_flip_is_exactly_pi(self, capture):
        out = PhasePiFlips(1.0).apply(capture.reports, rng())
        for faulted, clean in zip(out, capture.reports):
            expected = (clean.phase_rad + np.pi) % TWO_PI
            assert faulted.phase_rad == pytest.approx(expected)

    def test_jitter_keeps_order_moves_times(self, capture):
        inj = TimestampJitter(1.0, max_jitter_s=0.05)
        out = inj.apply(capture.reports, rng())
        assert [r.epc for r in out] == [r.epc for r in capture.reports]
        deltas = [abs(a.timestamp_s - b.timestamp_s)
                  for a, b in zip(out, capture.reports)]
        assert max(deltas) <= 0.05 + 1e-12
        assert max(deltas) > 0.0


class TestDeliveryInjectors:
    def test_duplicates_back_to_back(self, capture):
        out = DuplicateReports(1.0).apply(capture.reports, rng())
        assert len(out) == 2 * len(capture.reports)
        assert all(out[2 * i] == out[2 * i + 1]
                   for i in range(len(capture.reports)))

    def test_out_of_order_preserves_multiset(self, capture):
        out = OutOfOrderDelivery(0.5, max_delay_s=0.3).apply(
            capture.reports, rng())
        assert sorted(out, key=lambda r: (r.timestamp_s, r.epc.value)) == \
            sorted(capture.reports, key=lambda r: (r.timestamp_s, r.epc.value))
        times = [r.timestamp_s for r in out]
        assert any(a > b for a, b in zip(times, times[1:]))


class TestValidation:
    @pytest.mark.parametrize("cls", ALL_INJECTORS)
    @pytest.mark.parametrize("severity", [-0.1, 1.5])
    def test_severity_range(self, cls, severity):
        with pytest.raises(FaultInjectionError):
            cls(severity)

    def test_parameter_validation(self):
        with pytest.raises(FaultInjectionError):
            BurstyDrop(0.5, burst_s=0.0)
        with pytest.raises(FaultInjectionError):
            InterferenceBurst(0.5, burst_s=-1.0)
        with pytest.raises(FaultInjectionError):
            TagDropout(0.5, outage_s=0.0)
        with pytest.raises(FaultInjectionError):
            TagDeath(0.5, num_victims=0)
        with pytest.raises(FaultInjectionError):
            AntennaOutage(0.5, port=0)
        with pytest.raises(FaultInjectionError):
            AntennaOutage(0.5, align="middle")
        with pytest.raises(FaultInjectionError):
            PhaseOutliers(0.5, magnitude_rad=0.0)
        with pytest.raises(FaultInjectionError):
            TimestampJitter(0.5, max_jitter_s=0.0)
        with pytest.raises(FaultInjectionError):
            OutOfOrderDelivery(0.5, max_delay_s=0.0)

    def test_chain_rejects_non_injector(self):
        with pytest.raises(FaultInjectionError):
            FaultChain(["not an injector"])


class TestChainBookkeeping:
    def test_stats_account_stage_by_stage(self, capture):
        chain = FaultChain([ReportDrop(0.3), DuplicateReports(0.2)], seed=4)
        out = chain.apply(capture.reports)
        stats = chain.last_stats
        assert [s.name for s in stats] == ["report_drop", "duplicate_reports"]
        assert stats[0].reports_in == len(capture.reports)
        assert stats[0].reports_out == stats[1].reports_in
        assert stats[1].reports_out == len(out)
        assert stats[0].dropped > 0
        assert stats[1].dropped < 0  # duplicates add reports

    def test_describe_and_repr(self, capture):
        chain = FaultChain([BurstyDrop(0.25)], seed=8)
        assert "no-op" not in chain.describe()
        chain.apply(capture.reports)
        text = chain.describe()
        assert "bursty_drop" in text
        assert "->" in text
        assert "bursty_drop@0.25" in repr(chain)
        assert len(chain) == 1

    def test_empty_chain(self, capture):
        chain = FaultChain()
        assert chain.apply(capture.reports) == list(capture.reports)
        assert chain.describe() == "no-op chain"
        assert chain.last_stats == ()

    def test_stats_dataclass(self):
        s = InjectionStats("x", 0.5, 10, 4)
        assert s.dropped == 6


class TestProducerIntegration:
    def test_run_scenario_faults_param(self, capture):
        scenario = capture.scenario
        chain = FaultChain([ReportDrop(0.4)], seed=13)
        faulted = run_scenario(scenario, duration_s=20.0, seed=7,
                               reader_config=ReaderConfig(num_antennas=2),
                               faults=chain)
        expected = FaultChain([ReportDrop(0.4)], seed=13).apply(capture.reports)
        assert faulted.reports == expected

    def test_llrp_client_fault_chain(self):
        from repro.reader import LLRPClient, ROSpec, Reader

        scenario = Scenario.single_user(distance_m=2.0)
        chain = FaultChain([ReportDrop(0.5)], seed=2)

        def run(client):
            client.connect()
            client.add_rospec(ROSpec(duration_s=3.0))
            received = []
            client.subscribe(received.append)
            reports = client.start()
            return reports, received

        clean, _ = run(LLRPClient(
            Reader(rng=np.random.default_rng(0)), scenario))
        faulted, received = run(LLRPClient(
            Reader(rng=np.random.default_rng(0)), scenario, faults=chain))
        assert faulted == FaultChain([ReportDrop(0.5)], seed=2).apply(clean)
        assert received == faulted

    def test_faulted_capture_stays_columnar(self, capture, monkeypatch):
        """Faults and estimation run on columns: no report objects."""
        from repro.reader.batch import ReportBatch

        calls = []
        to_reports = ReportBatch.to_reports
        monkeypatch.setattr(
            ReportBatch, "to_reports",
            lambda self: calls.append(len(self)) or to_reports(self))
        chain = FaultChain([BurstyDrop(0.3, burst_s=1.5), TagDeath(0.5),
                            AntennaOutage(0.1, align="end"),
                            PhaseOutliers(0.05), DuplicateReports(0.05),
                            OutOfOrderDelivery(0.1)], seed=99)
        faulted = run_scenario(capture.scenario, duration_s=20.0, seed=7,
                               reader_config=ReaderConfig(num_antennas=2),
                               faults=chain)
        TagBreathe(user_ids={1}).process(faulted.reports)
        assert calls == []

    def test_set_fault_chain_clears(self):
        from repro.reader import LLRPClient, ROSpec, Reader

        scenario = Scenario.single_user(distance_m=2.0)
        client = LLRPClient(Reader(rng=np.random.default_rng(0)), scenario,
                            faults=FaultChain([ReportDrop(1.0)], seed=0))
        client.set_fault_chain(None)
        client.connect()
        client.add_rospec(ROSpec(duration_s=2.0))
        assert len(client.start()) > 0
