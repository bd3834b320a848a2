"""Tests for the end-to-end TagBreathe engine (batch + streaming)."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro import PipelineConfig, Scenario, TagBreathe, obs, run_scenario
from repro.body import MetronomeBreathing, Subject
from repro.core.pipeline import (
    REASON_DISORDERED,
    REASON_GAPS,
    REASON_TAG_DEATH,
    sanitize_columns,
)
from repro.core.quality import select_port
from repro.epc import EPC96
from repro.errors import (
    DegradedEstimateWarning,
    InsufficientDataError,
    StreamError,
)
from repro.faults import BurstyDrop, FaultChain, OutOfOrderDelivery, TagDeath
from repro.reader import Antenna, ReportBatch, TagReport
from repro.config import ReaderConfig, RobustnessConfig

from .cascade_oracle import (
    group_reports_by_user,
    process_user,
    sanitize_reports,
    select_best_antenna,
)
from .stage5_reference import fused_track_counting


@pytest.fixture(scope="module")
def capture():
    """One shared 50 s close-range capture (12 bpm)."""
    scenario = Scenario([Subject(user_id=1, distance_m=2.0,
                                 breathing=MetronomeBreathing(12.0),
                                 sway_seed=0)])
    return run_scenario(scenario, duration_s=50.0, seed=11)


class TestBatch:
    def test_recovers_rate(self, capture):
        estimates = TagBreathe(user_ids={1}).process(capture.reports)
        assert estimates[1].rate_bpm == pytest.approx(12.0, rel=0.08)

    def test_estimate_metadata(self, capture):
        estimate = TagBreathe(user_ids={1}).process(capture.reports)[1]
        assert estimate.tags_fused == 3
        assert estimate.read_count == len(capture.reports)
        assert estimate.antenna_port == 1

    def test_unfiltered_monitors_all_epcs(self, capture):
        estimates = TagBreathe().process(capture.reports)
        assert 1 in estimates

    def test_filter_ignores_other_users(self, capture):
        estimates = TagBreathe(user_ids={99}).process(capture.reports)
        assert estimates == {}

    def test_missing_user_reported_in_failures(self, capture):
        _, failures = TagBreathe(user_ids={1, 99}).process_detailed(capture.reports)
        assert 99 in failures

    def test_empty_capture(self):
        estimates, failures = TagBreathe(user_ids={1}).process_detailed([])
        assert estimates == {}
        assert 1 in failures

    def test_custom_config_respected(self, capture):
        config = PipelineConfig(cutoff_hz=0.5, zero_crossing_buffer=5)
        pipeline = TagBreathe(user_ids={1}, config=config)
        assert pipeline.config.cutoff_hz == 0.5
        estimate = pipeline.process(capture.reports)[1]
        assert estimate.rate_bpm == pytest.approx(12.0, rel=0.1)

    def test_fused_track_exposed(self, capture):
        pipeline = TagBreathe(user_ids={1})
        track = pipeline.fused_track(1, capture.reports)
        assert track.duration == pytest.approx(50.0, abs=2.0)

    def test_fused_track_fuses_only_the_named_user(self):
        """Given a two-user capture, fused_track(1, ...) fuses user 1's
        tags alone: the same track, bit for bit, as user 1's reports."""
        scenario = Scenario([
            Subject(user_id=1, distance_m=2.0,
                    breathing=MetronomeBreathing(12.0), sway_seed=1),
            Subject(user_id=2, distance_m=2.4,
                    breathing=MetronomeBreathing(17.0), sway_seed=2),
        ])
        result = run_scenario(scenario, duration_s=30.0, seed=5)
        pipeline = TagBreathe()
        mixed = pipeline.fused_track(1, result.reports)
        alone = pipeline.fused_track(1, result.reports_for_user(1))
        np.testing.assert_array_equal(mixed.times, alone.times)
        np.testing.assert_array_equal(mixed.values, alone.values)


class TestStreaming:
    def test_streaming_matches_batch(self, capture):
        batch = TagBreathe(user_ids={1}).process(capture.reports)[1]
        streaming = TagBreathe(user_ids={1})
        streaming.feed_batch(capture.reports)
        estimate = streaming.estimate_user(1, window_s=40.0)
        assert estimate.rate_bpm == pytest.approx(batch.rate_bpm, rel=0.05)

    def test_trailing_window(self, capture):
        pipeline = TagBreathe(user_ids={1})
        pipeline.feed_batch(capture.reports)
        estimate = pipeline.estimate_user(1, window_s=25.0)
        assert estimate.rate_bpm == pytest.approx(12.0, rel=0.1)

    def test_streamed_users(self, capture):
        pipeline = TagBreathe(user_ids={1})
        pipeline.feed_batch(capture.reports)
        assert pipeline.streamed_users() == [1]

    def test_unknown_user_estimate_rejected(self, capture):
        pipeline = TagBreathe(user_ids={1})
        pipeline.feed_batch(capture.reports)
        with pytest.raises(InsufficientDataError):
            pipeline.estimate_user(42)

    def test_reset(self, capture):
        pipeline = TagBreathe(user_ids={1})
        pipeline.feed_batch(capture.reports)
        pipeline.reset_streaming()
        assert pipeline.streamed_users() == []
        with pytest.raises(InsufficientDataError):
            pipeline.estimate_user(1)

    def test_out_of_order_reports_ignored(self, capture):
        pipeline = TagBreathe(user_ids={1})
        pipeline.feed_batch(capture.reports)
        # Stale: dropped and counted, never raised.
        assert pipeline.feed_batch(capture.reports[:1]) == 0
        estimate = pipeline.estimate_user(1, window_s=40.0)
        assert estimate.rate_bpm == pytest.approx(12.0, rel=0.1)

    def test_unmonitored_reports_dropped(self, capture):
        pipeline = TagBreathe(user_ids={99})
        pipeline.feed_batch(capture.reports)
        assert pipeline.streamed_users() == []

    def test_memory_bounded(self, capture):
        pipeline = TagBreathe(user_ids={1})
        # Feed the capture three times with shifted timestamps to simulate
        # a long session.
        rows = capture.reports
        for shift in (0.0, 45.0, 90.0):
            pipeline.feed_batch(ReportBatch(
                rows.t + shift, rows.phase, rows.rssi, rows.doppler,
                rows.channel, rows.antenna, rows.user_id, rows.tag_id))
        total = len(pipeline.buffered_batch(1))
        # Three 40 s passes = ~3x capture, but trimming caps retention.
        assert total <= 3 * len(capture.reports)
        estimate = pipeline.estimate_user(1, window_s=25.0)
        assert estimate.rate_bpm == pytest.approx(12.0, rel=0.15)


class TestMultiAntenna:
    def test_antenna_selection_picks_facing_antenna(self):
        """Section IV-D-3: the best-quality antenna serves each user."""
        config = ReaderConfig(num_antennas=2)
        antennas = [
            Antenna(port=1, position_m=(0.0, 0.0, 1.0), boresight=(1, 0, 0)),
            # Antenna 2 sits behind the user relative to their facing.
            Antenna(port=2, position_m=(8.0, 0.0, 1.0), boresight=(-1, 0, 0)),
        ]
        subject = Subject(user_id=1, distance_m=4.0,
                          breathing=MetronomeBreathing(10.0), sway_seed=0)
        result = run_scenario(
            Scenario([subject]), duration_s=40.0, seed=3,
            reader_config=config, antennas=antennas,
        )
        ports = {r.antenna_port for r in result.reports}
        estimate = TagBreathe(user_ids={1}).process(result.reports)[1]
        if len(ports) > 1:
            assert estimate.antenna_port in ports
        assert estimate.rate_bpm == pytest.approx(10.0, rel=0.15)

    def test_selection_disabled_fuses_everything(self):
        config = ReaderConfig(num_antennas=2)
        antennas = [
            Antenna(port=1, position_m=(0.0, -0.5, 1.0)),
            Antenna(port=2, position_m=(0.0, 0.5, 1.0)),
        ]
        subject = Subject(user_id=1, distance_m=3.0,
                          breathing=MetronomeBreathing(12.0), sway_seed=1)
        result = run_scenario(Scenario([subject]), duration_s=40.0, seed=5,
                              reader_config=config, antennas=antennas)
        pipeline = TagBreathe(user_ids={1}, select_antenna=False)
        estimate = pipeline.process(result.reports)[1]
        assert estimate.antenna_port is None
        assert estimate.rate_bpm == pytest.approx(12.0, rel=0.1)


class TestMultiUser:
    def test_two_users_estimated_independently(self):
        subjects = [
            Subject(user_id=1, distance_m=3.0, lateral_offset_m=-0.6,
                    breathing=MetronomeBreathing(8.0), sway_seed=1),
            Subject(user_id=2, distance_m=3.0, lateral_offset_m=0.6,
                    breathing=MetronomeBreathing(16.0), sway_seed=2),
        ]
        result = run_scenario(Scenario(subjects), duration_s=45.0, seed=9)
        estimates = TagBreathe(user_ids={1, 2}).process(result.reports)
        assert estimates[1].rate_bpm == pytest.approx(8.0, rel=0.1)
        assert estimates[2].rate_bpm == pytest.approx(16.0, rel=0.1)

    def test_blocked_user_absent_others_fine(self):
        subjects = [
            Subject(user_id=1, distance_m=3.0, lateral_offset_m=-0.6,
                    breathing=MetronomeBreathing(10.0), sway_seed=1),
            Subject(user_id=2, distance_m=3.0, lateral_offset_m=0.6,
                    orientation_deg=170.0, sway_seed=2),  # back to antenna
        ]
        result = run_scenario(Scenario(subjects), duration_s=40.0, seed=2)
        estimates, failures = TagBreathe(user_ids={1, 2}).process_detailed(
            result.reports
        )
        assert 1 in estimates
        assert 2 in failures  # paper: no report for a fully blocked user


def _report(t, phase=1.0, port=1, tag_id=1, rssi=-55.0):
    return TagReport(
        epc=EPC96.from_user_tag(1, tag_id), timestamp_s=t, phase_rad=phase,
        rssi_dbm=rssi, doppler_hz=0.0, channel_index=0, antenna_port=port,
    )


def _sanitize(reports):
    """:func:`sanitize_columns` over a report list: (clean, n_dis, n_dup)."""
    cols = ReportBatch.from_reports(reports)
    rows, n_dis, n_dup = sanitize_columns(cols.t, cols.tag_id, cols.antenna,
                                          cols.channel)
    return [reports[i] for i in rows.tolist()], n_dis, n_dup


class TestSanitizeReports:
    def test_clean_stream_untouched(self, capture):
        clean, n_dis, n_dup = _sanitize(capture.reports)
        assert clean == list(capture.reports)
        assert (n_dis, n_dup) == (0, 0)

    def test_sorts_and_counts_disorder(self):
        reports = [_report(0.0), _report(2.0), _report(1.0)]
        clean, n_dis, n_dup = _sanitize(reports)
        assert [r.timestamp_s for r in clean] == [0.0, 1.0, 2.0]
        assert n_dis == 1
        assert n_dup == 0

    def test_drops_and_counts_duplicates(self):
        reports = [_report(0.0), _report(0.0), _report(1.0)]
        clean, _, n_dup = _sanitize(reports)
        assert len(clean) == 2
        assert n_dup == 1

    def test_same_time_different_stream_not_duplicate(self):
        reports = [_report(0.0, tag_id=1), _report(0.0, tag_id=2)]
        clean, _, n_dup = _sanitize(reports)
        assert len(clean) == 2
        assert n_dup == 0

    def test_non_adjacent_copies_are_duplicates(self):
        # After the sort, tag 2's read sits between the two copies of
        # tag 1's; the first delivery is the one kept.
        first = _report(0.0, tag_id=1, phase=1.0)
        reports = [first, _report(0.0, tag_id=2),
                   _report(0.0, tag_id=1, phase=2.0)]
        clean, _, n_dup = _sanitize(reports)
        assert n_dup == 1
        assert clean == reports[:2]
        assert clean[0] is first


class TestUserGrouping:
    """The oracle's Fig. 9 split of a capture by EPC user ID."""

    @staticmethod
    def _read(t, user, tag):
        return TagReport(
            epc=EPC96.from_user_tag(user, tag), timestamp_s=t, phase_rad=1.0,
            rssi_dbm=-55.0, doppler_hz=0.0, channel_index=0, antenna_port=1,
        )

    def test_groups_by_epc_user_field(self):
        reports = [self._read(0.1, 1, 1), self._read(0.2, 2, 1),
                   self._read(0.3, 1, 2)]
        grouped = group_reports_by_user(reports)
        assert set(grouped) == {1, 2}
        assert len(grouped[1]) == 2

    def test_filter_to_monitored_users(self):
        """Fig. 14: item tags' reads must be ignored via the ID filter."""
        reports = [self._read(0.1, 1, 1),
                   self._read(0.2, 0xFFFF_FFFF_0000_0001, 1)]
        grouped = group_reports_by_user(reports, user_ids={1})
        assert set(grouped) == {1}


class TestBatchStage5:
    """Batch runs the segmented stage 5 kernel over stage 1's columns."""

    @staticmethod
    def tied_reads(n=600, n_ties=12, seed=3):
        """One tag read every 50 ms, hopping over four channels every
        0.2 s, plus ``n_ties`` reads at an existing read's timestamp on
        the next channel: same tag and antenna, another Eq. (3) chain."""
        rng = np.random.default_rng(seed)
        epc = EPC96.from_user_tag(1, 0)

        def read(t, channel):
            phase = (1.0 + 0.7 * channel + 2.0 * np.sin(0.5 * np.pi * t)
                     + rng.normal(0.0, 0.05)) % (2.0 * np.pi)
            return TagReport(epc=epc, timestamp_s=t, phase_rad=float(phase),
                             rssi_dbm=-55.0, doppler_hz=0.0,
                             channel_index=channel, antenna_port=1)

        tied = set(rng.choice(np.arange(20, n - 20), n_ties,
                              replace=False).tolist())
        reports = []
        for i in range(n):
            reports.append(read(i * 0.05, (i // 4) % 4))
            if i in tied:
                reports.append(read(i * 0.05, (i // 4 + 1) % 4))
        return reports

    def test_same_timestamp_reads_keep_first_group(self):
        """Two reads of one tag at one timestamp on different channels:
        the per-stream reference's merge keeps the sample of the group
        that appeared first, and so must the kernel."""
        reports = self.tied_reads()
        engine = TagBreathe(user_ids={1})
        rows, n_bad, track_of = engine._batch_rows(
            1, ReportBatch.from_reports(reports))
        assert n_bad == 0
        assert rows.t.shape[0] == 612
        track, n_rejected, n_samples = track_of(np.arange(612))
        clean, _, _ = sanitize_reports(reports)
        want, want_rejected, want_samples = fused_track_counting(
            engine, 1, clean)
        assert want_samples == 600
        assert (n_rejected, n_samples) == (want_rejected, want_samples)
        np.testing.assert_array_equal(track.times, want.times)
        np.testing.assert_array_equal(track.values.view(np.uint64),
                                      want.values.view(np.uint64))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            batch = engine.process(reports)[1]
            oracle = process_user(engine, 1, reports)
        assert batch == oracle

    def test_unwrap_corrections_counted(self):
        """A phase ramp of 0.3 rad per read on one chain wraps at every
        crossing of 2 pi; each wrap is one Eq. (3) correction, counted
        by batch, one feed_batch and one-row feed_batch calls alike."""
        epc = EPC96.from_user_tag(1, 0)
        phases = (0.1 + 0.3 * np.arange(100)) % (2.0 * np.pi)
        wraps = int((0.1 + 0.3 * 99) // (2.0 * np.pi))
        assert wraps == 4
        reports = [TagReport(epc=epc, timestamp_s=0.05 * i,
                             phase_rad=float(p), rssi_dbm=-55.0,
                             doppler_hz=0.0, channel_index=0,
                             antenna_port=1)
                   for i, p in enumerate(phases)]
        name = "repro_pipeline_phase_unwrap_corrections_total"
        for run in ("process", "feed_batch", "rows"):
            engine = TagBreathe(user_ids={1})
            with obs.capture():
                if run == "process":
                    engine.process_detailed(reports)
                elif run == "feed_batch":
                    engine.feed_batch(ReportBatch.from_reports(reports))
                else:
                    for report in reports:
                        engine.feed_batch(ReportBatch.from_reports([report]))
                assert obs.counter(name).value == wraps, run

    def test_invalid_channel_is_a_stream_error(self, capture):
        reports = list(capture.reports[:50])
        reports.append(replace(reports[-1], timestamp_s=99.0,
                               channel_index=99))
        with pytest.raises(StreamError, match="outside frequency map"):
            TagBreathe(user_ids={1}).process(reports)


def _select(reports, stale_s):
    cols = ReportBatch.from_reports(reports)
    return select_port(cols.t, cols.antenna, cols.rssi, stale_s=stale_s)


class TestAntennaFailover:
    def make_two_port_reports(self, dead_after=None):
        reports = []
        for i in range(200):
            t = i * 0.1
            # port 1: strong and fast; port 2: weaker, slower.
            if dead_after is None or t < dead_after:
                reports.append(_report(t, port=1, rssi=-45.0))
            if i % 2 == 0:
                reports.append(_report(t + 0.01, port=2, rssi=-65.0))
        return reports

    def test_healthy_matches_plain_selection(self):
        reports = self.make_two_port_reports()
        port, failed = _select(reports, stale_s=2.5)
        assert failed == ()
        assert port == select_best_antenna(reports)

    def test_dead_port_demoted(self):
        reports = self.make_two_port_reports(dead_after=10.0)
        assert select_best_antenna(reports) == 1  # score still favours port 1
        port, failed = _select(reports, stale_s=2.5)
        assert port == 2
        assert failed == (1,)

    def test_no_reports_raises(self):
        with pytest.raises(InsufficientDataError):
            _select([], stale_s=2.5)


class TestGracefulDegradation:
    def test_clean_estimate_full_confidence(self, capture):
        estimate = TagBreathe(user_ids={1}).process(capture.reports)[1]
        assert estimate.confidence == 1.0
        assert estimate.degraded_reasons == ()
        assert not estimate.degraded

    def test_disordered_batch_still_estimates(self, capture):
        faulted = FaultChain([OutOfOrderDelivery(0.3)], seed=1).apply(
            capture.reports)
        estimate = TagBreathe(user_ids={1}).process(faulted)[1]
        assert estimate.rate_bpm == pytest.approx(12.0, rel=0.1)
        assert REASON_DISORDERED in estimate.degraded_reasons
        assert estimate.confidence < 1.0

    def test_bursty_loss_flags_gaps(self, capture):
        faulted = FaultChain([BurstyDrop(0.35, burst_s=2.0)], seed=5).apply(
            capture.reports)
        estimate = TagBreathe(user_ids={1}).process(faulted)[1]
        assert REASON_GAPS in estimate.degraded_reasons
        assert estimate.confidence < 1.0
        assert estimate.rate_bpm == pytest.approx(12.0, rel=0.2)

    def test_tag_death_demotes_stream(self, capture):
        faulted = FaultChain([TagDeath(0.6, num_victims=1)], seed=2).apply(
            capture.reports)
        estimate = TagBreathe(user_ids={1}).process(faulted)[1]
        assert REASON_TAG_DEATH in estimate.degraded_reasons
        assert estimate.tags_fused == 2  # the dead tag is out of the fusion
        assert estimate.rate_bpm == pytest.approx(12.0, rel=0.1)

    def test_warning_below_confidence_threshold(self, capture):
        chain = FaultChain([BurstyDrop(0.35, burst_s=2.0),
                            TagDeath(0.6, num_victims=1)], seed=5)
        faulted = chain.apply(capture.reports)
        with pytest.warns(DegradedEstimateWarning):
            TagBreathe(user_ids={1}).process(faulted)

    def test_custom_robustness_config(self, capture):
        rb = RobustnessConfig(outlier_rejection=False, gap_warn_s=100.0,
                              stale_stream_s=100.0)
        pipeline = TagBreathe(user_ids={1}, robustness=rb)
        assert pipeline.robustness.gap_warn_s == 100.0
        faulted = FaultChain([BurstyDrop(0.3, burst_s=2.0)], seed=5).apply(
            capture.reports)
        estimate = pipeline.process(faulted)[1]
        # Thresholds too loose to trip: the estimate is not flagged.
        assert REASON_GAPS not in estimate.degraded_reasons


class TestFeedTolerance:
    def test_single_report_is_insufficient_data_not_a_crash(self, capture):
        # One read cannot form a displacement sample; both entry points
        # must surface that as the documented insufficient-data failure,
        # not leak EmptyStreamError from the fusion internals.
        estimates, failures = TagBreathe(user_ids={1}).process_detailed(
            capture.reports[:1])
        assert estimates == {}
        assert 1 in failures
        pipeline = TagBreathe(user_ids={1})
        assert pipeline.feed_batch(capture.reports[:1]) == 1
        with pytest.raises(InsufficientDataError):
            pipeline.estimate_user(1)

    def test_counts_duplicate_and_late(self, capture):
        pipeline = TagBreathe(user_ids={1})
        assert pipeline.feed_batch(capture.reports) == len(capture.reports)
        assert pipeline.feed_batch(capture.reports[-1:]) == 0  # same time
        assert pipeline.feed_batch(capture.reports[:1]) == 0   # older
        counts = pipeline.feed_drop_counts
        assert counts["duplicate"] == 1
        assert counts["late"] == 1
        assert pipeline.dropped_report_count == 2
        estimate = pipeline.estimate_user(1, window_s=40.0)
        assert estimate.rate_bpm == pytest.approx(12.0, rel=0.1)

    def test_counts_invalid_channel(self, capture):
        pipeline = TagBreathe(user_ids={1})
        bad = replace(capture.reports[0], channel_index=499)
        assert pipeline.feed_batch(ReportBatch.from_reports([bad])) == 0
        assert pipeline.feed_drop_counts["invalid_channel"] == 1

    def test_reversed_stream_never_raises(self, capture):
        pipeline = TagBreathe(user_ids={1})
        buffered = pipeline.feed_batch(capture.reports.select(
            np.arange(len(capture.reports))[::-1]))
        assert buffered + pipeline.dropped_report_count == len(capture.reports)

    def test_unmonitored_user_not_counted(self, capture):
        pipeline = TagBreathe(user_ids={99})
        assert pipeline.feed_batch(capture.reports[:1]) == 0
        assert pipeline.dropped_report_count == 0

    def test_reset_clears_counters(self, capture):
        pipeline = TagBreathe(user_ids={1})
        pipeline.feed_batch(capture.reports)
        pipeline.feed_batch(capture.reports[:1])
        assert pipeline.dropped_report_count == 1
        pipeline.reset_streaming()
        assert pipeline.dropped_report_count == 0
