"""Tests for the incremental streaming estimation path (DESIGN.md §12).

The contract under test is *bit-for-bit equivalence*: an incremental
``estimate_user`` tick must return exactly what the from-scratch
reference tick (``estimate_user_recompute`` in
``tests/stage5_reference.py``, the cascade with the per-stream stage 5)
returns over the same pinned trailing window, at every tick, across
pruning and across checkpoint/restore.  Rates are therefore compared
with ``==``, not ``pytest.approx``.
"""

import warnings

import numpy as np
import pytest

from repro import Scenario, TagBreathe, obs, run_scenario
from repro.body import MetronomeBreathing, Subject
from repro.core.incremental import window_samples
from repro.core.pipeline import FEED_DROP_KEYS
from repro.epc import EPC96
from repro.errors import DegradedEstimateWarning, InsufficientDataError
from repro.reader.batch import ReportBatch
from repro.reader.tagreport import TagReport
from repro.streams import GrowableArray, WindowIndex, trailing_window_bounds
from repro.streams.windows import StreamError

from .ingest_reference import feed
from .stage5_reference import displacement_samples, estimate_user_recompute


@pytest.fixture(scope="module")
def capture():
    """One shared two-user 60 s capture at distinct metronome rates."""
    scenario = Scenario([
        Subject(user_id=1, distance_m=2.0,
                breathing=MetronomeBreathing(12.0), sway_seed=1),
        Subject(user_id=2, distance_m=2.4,
                breathing=MetronomeBreathing(17.0), sway_seed=2),
    ])
    return run_scenario(scenario, duration_s=60.0, seed=5)


def make_reports(times, *, user_id=1, tag=0, channel=0, port=1,
                 phase=1.0, rssi=-60.0):
    epc = EPC96.from_user_tag(user_id, tag)
    return [TagReport(epc=epc, timestamp_s=float(t), phase_rad=phase,
                      rssi_dbm=rssi, doppler_hz=0.0,
                      channel_index=channel, antenna_port=port)
            for t in times]


def assert_same_estimate(a, b):
    assert a.rate_bpm == b.rate_bpm
    assert a.confidence == b.confidence
    assert sorted(a.degraded_reasons) == sorted(b.degraded_reasons)
    assert a.tags_fused == b.tags_fused
    assert a.read_count == b.read_count
    assert a.antenna_port == b.antenna_port


def tick_both(inc_engine, ref_engine, user_id, window_s=None):
    """Tick both engines; assert identical outcome (value or error)."""
    try:
        a = inc_engine.estimate_user(user_id, window_s=window_s)
    except InsufficientDataError as exc_a:
        with pytest.raises(InsufficientDataError) as exc_b:
            estimate_user_recompute(ref_engine, user_id, window_s=window_s)
        assert str(exc_a) == str(exc_b.value)
        return None
    b = estimate_user_recompute(ref_engine, user_id, window_s=window_s)
    assert_same_estimate(a, b)
    return a


# ----------------------------------------------------------------------
# Substrate: GrowableArray / WindowIndex / trailing_window_bounds
# ----------------------------------------------------------------------
class TestGrowableArray:
    def test_append_and_view(self):
        arr = GrowableArray(np.float64)
        for x in range(100):
            arr.append(float(x))
        assert len(arr) == 100
        np.testing.assert_array_equal(arr.view(), np.arange(100.0))

    def test_drop_front(self):
        arr = GrowableArray(np.float64)
        for x in range(10):
            arr.append(float(x))
        arr.drop_front(4)
        np.testing.assert_array_equal(arr.view(), np.arange(4.0, 10.0))

    def test_view_tracks_further_appends(self):
        arr = GrowableArray(np.float64)
        arr.append(1.0)
        arr.append(2.0)
        before = arr.view().copy()
        arr.append(3.0)
        np.testing.assert_array_equal(before, [1.0, 2.0])
        np.testing.assert_array_equal(arr.view(), [1.0, 2.0, 3.0])


class TestWindowBounds:
    def test_half_open_below(self):
        lo, hi = trailing_window_bounds(100.0, 25.0)
        assert lo == 75.0
        assert hi == 100.0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(StreamError):
            trailing_window_bounds(10.0, 0.0)

    def test_rejects_nan_window(self):
        with pytest.raises(StreamError):
            trailing_window_bounds(10.0, float("nan"))

    def test_empty_window_is_insufficient_data_on_every_path(self, capture):
        """A window too short to hold even the newest report (t - 1e-300
        rounds back to t) is a refusal, never an IndexError."""
        engine = TagBreathe(user_ids={1})
        engine.feed_batch(capture.reports)
        with pytest.raises(InsufficientDataError) as tick:
            engine.estimate_user(1, window_s=1e-300)
        with pytest.raises(InsufficientDataError) as recompute:
            estimate_user_recompute(engine, 1, window_s=1e-300)
        estimates, failures = engine.process_detailed(capture.reports,
                                                      window_s=1e-300)
        assert 1 not in estimates
        assert str(tick.value) == str(recompute.value) == failures[1]

    def test_pinned_shared_by_recompute_and_incremental(self, capture):
        """A sample landing exactly on ``t_latest - window_s`` is OUT.

        This pins the single window-boundary definition: the trailing
        window is half-open below, ``(t_latest - window_s, t_latest]``.
        Both tick paths must agree on the boundary sample's exclusion,
        so their read_counts (and everything downstream) match.
        """
        reports = [r for r in capture.reports if r.user_id == 1]
        engine = TagBreathe(user_ids={1})
        engine.feed_batch(ReportBatch.from_reports(reports))
        t_latest = reports[-1].timestamp_s
        # Choose the window so an actual report sits EXACTLY on the
        # lower boundary; strict > must exclude it on both paths.
        boundary = next(r.timestamp_s for r in reports
                        if t_latest - r.timestamp_s <= 30.0)
        window = t_latest - boundary
        in_window = sum(1 for r in reports
                        if r.timestamp_s > boundary)
        assert in_window < sum(
            1 for r in reports if r.timestamp_s >= boundary)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            inc_est = engine.estimate_user(1, window_s=window)
            rec_est = estimate_user_recompute(engine, 1, window_s=window)
        assert inc_est.read_count == in_window
        assert rec_est.read_count == in_window


# ----------------------------------------------------------------------
# Store + kernel bit-equality against the batch builder
# ----------------------------------------------------------------------
class TestWindowSamples:
    FREQS = [920.625e6 + 250e3 * k for k in range(16)]

    def random_reports(self, n, seed=7):
        rng = np.random.default_rng(seed)
        epc = EPC96.from_user_tag(1, 0)
        out, t = [], 0.0
        for _ in range(n):
            # Mostly dense reads, occasional segment-splitting gaps.
            t += (float(rng.uniform(0.02, 0.06)) if rng.random() > 0.02
                  else float(rng.uniform(6.0, 8.0)))
            out.append(TagReport(
                epc=epc, timestamp_s=t,
                phase_rad=float(rng.uniform(0, 2 * np.pi)),
                rssi_dbm=-60.0, doppler_hz=0.0,
                channel_index=int(rng.integers(0, 16)), antenna_port=1))
        return out

    def kernel_samples(self, engine, t_lo, t_hi):
        """The kernel's displacement samples of the store's window."""
        state = engine._inc._states[1]
        index = state.index
        a, b = index.window_bounds(t_lo, t_hi)
        t, values, counts = window_samples(
            index.times[a:b], *(index.column(name)[a:b] for name in (
                "sid", "chan", "port", "phase", "wd", "seg")),
            engine._inc._coef)
        assert counts.tolist() == [t.shape[0]]
        return t, values

    def assert_matches_batch(self, engine, reports, t_lo, t_hi):
        got_t, got_v = self.kernel_samples(engine, t_lo, t_hi)
        want = displacement_samples(
            [r for r in reports if t_lo < r.timestamp_s <= t_hi],
            self.FREQS)
        np.testing.assert_array_equal(got_t, want.times)
        # uint64 view: compares the exact float bit patterns.
        np.testing.assert_array_equal(
            got_v.view(np.uint64), want.values.view(np.uint64))

    def test_window_matches_batch_bit_for_bit(self):
        reports = self.random_reports(1200)
        engine = TagBreathe(frequencies_hz=self.FREQS, user_ids={1})
        for hi in range(300, len(reports) + 1, 300):
            engine.feed_batch(ReportBatch.from_reports(reports[hi - 300:hi]))
            t_hi = reports[hi - 1].timestamp_s
            self.assert_matches_batch(engine, reports[:hi],
                                      t_hi - 25.0, t_hi)

    def test_equality_survives_pruning(self):
        reports = self.random_reports(2000, seed=11)
        engine = TagBreathe(frequencies_hz=self.FREQS, user_ids={1})
        pruned = False
        for hi in range(250, len(reports) + 1, 250):
            engine.feed_batch(ReportBatch.from_reports(reports[hi - 250:hi]))
            t_hi = reports[hi - 1].timestamp_s
            state = engine._inc._states[1]
            before = len(state.index)
            engine._inc._prune(state, 0, t_hi - 60.0)
            pruned = pruned or len(state.index) < before
            self.assert_matches_batch(engine, reports[:hi],
                                      t_hi - 25.0, t_hi)
            # A window reaching past the horizon re-anchors every chain
            # at its first surviving row: it equals the batch builder
            # over the retained reports.
            retained = [r for r in reports[:hi]
                        if r.timestamp_s >= t_hi - 60.0]
            self.assert_matches_batch(engine, retained, t_hi - 80.0, t_hi)
        assert pruned, "scenario never pruned; test lost its teeth"


# ----------------------------------------------------------------------
# Engine-level equivalence
# ----------------------------------------------------------------------
class TestIncrementalEquivalence:
    def test_interleaved_ticks_match_recompute(self, capture):
        # One-row feed_batch calls against the row-wise reference.
        inc = TagBreathe(user_ids={1, 2})
        ref = TagBreathe(user_ids={1, 2})
        next_tick, matched = 20.0, 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            for report in capture.reports:
                inc.feed_batch(ReportBatch.from_reports([report]))
                feed(ref, report)
                if report.timestamp_s >= next_tick:
                    next_tick += 4.0
                    for uid in (1, 2):
                        if tick_both(inc, ref, uid) is not None:
                            matched += 1
        assert matched >= 10

    def test_streamed_equals_batch_process(self, capture):
        """Satellite: feed_batch + estimate_user == process over the
        same pinned trailing window (one shared boundary definition)."""
        streaming = TagBreathe(user_ids={1, 2})
        batch = TagBreathe(user_ids={1, 2})
        streaming.feed_batch(capture.reports)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            batch_estimates = batch.process(capture.reports, window_s=25.0)
            for uid in (1, 2):
                streamed = streaming.estimate_user(uid, window_s=25.0)
                assert abs(streamed.rate_bpm
                           - batch_estimates[uid].rate_bpm) < 1e-9
                assert streamed.read_count == batch_estimates[uid].read_count

    def test_memoized_tick_returns_same_object(self, capture):
        engine = TagBreathe(user_ids={1})
        engine.feed_batch(capture.reports)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            with obs.capture() as (_tracer, _registry):
                first = engine.estimate_user(1)
                again = engine.estimate_user(1)
                assert again is first
                hits = obs.counter("repro_pipeline_tick_cache_total",
                                   result="hit").value
                misses = obs.counter("repro_pipeline_tick_cache_total",
                                     result="miss").value
        assert misses == 1.0
        assert hits == 1.0

    def test_new_report_invalidates_memo(self, capture):
        engine = TagBreathe(user_ids={1})
        mid = len(capture.reports) // 2
        engine.feed_batch(capture.reports[:mid])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            first = engine.estimate_user(1)
            engine.feed_batch(capture.reports[mid:])
            second = engine.estimate_user(1)
            assert second is not first
            reference = estimate_user_recompute(engine, 1)
        assert_same_estimate(second, reference)

    def test_cached_insufficient_data_reraises(self):
        engine = TagBreathe(user_ids={1})
        engine.feed_batch(ReportBatch.from_reports(
            make_reports([0.0, 0.1, 0.2, 0.3])))
        with pytest.raises(InsufficientDataError) as first:
            engine.estimate_user(1)
        with pytest.raises(InsufficientDataError) as second:
            engine.estimate_user(1)
        assert str(first.value) == str(second.value)

    def test_unknown_user_raises(self, capture):
        engine = TagBreathe(user_ids={1, 99})
        engine.feed_batch(capture.reports)
        with pytest.raises(InsufficientDataError):
            engine.estimate_user(99)


# ----------------------------------------------------------------------
# Satellite: restore must not conflate replay drops with restored counters
# ----------------------------------------------------------------------
class TestRestoreDropAccounting:
    def duplicate_snapshot(self):
        """A snapshot whose replay itself triggers a duplicate drop."""
        reports = make_reports([0.0, 0.5, 1.0, 1.5, 2.0])
        # Same stream, same timestamp as the newest buffered report: the
        # replaying feed_batch() classifies this as a duplicate.
        reports.append(make_reports([2.0])[0])
        return reports

    def test_replay_drops_kept_out_of_restored_counters(self):
        engine = TagBreathe(user_ids={1})
        saved = {"late": 3, "duplicate": 7, "invalid_channel": 0}
        engine.restore_streaming(self.duplicate_snapshot(), saved)
        # The restored production counters are exactly the checkpointed
        # ones — NOT checkpointed + 1 replay artifact.
        assert engine.feed_drop_counts == saved
        assert engine.last_restore_drop_counts["duplicate"] == 1

    def test_clean_restore_reports_zero_replay_drops(self):
        engine = TagBreathe(user_ids={1})
        engine.restore_streaming(make_reports([0.0, 0.5, 1.0]),
                                 {"late": 2, "duplicate": 0,
                                  "invalid_channel": 1})
        assert engine.last_restore_drop_counts == dict.fromkeys(
            FEED_DROP_KEYS, 0)
        assert engine.feed_drop_counts["late"] == 2

    def test_restore_without_counts_zeroes_counters(self):
        engine = TagBreathe(user_ids={1})
        engine.restore_streaming(self.duplicate_snapshot())
        assert engine.feed_drop_counts == dict.fromkeys(FEED_DROP_KEYS, 0)
        assert engine.last_restore_drop_counts["duplicate"] == 1

    def test_reset_clears_replay_accounting(self):
        engine = TagBreathe(user_ids={1})
        engine.restore_streaming(self.duplicate_snapshot())
        engine.reset_streaming()
        assert engine.last_restore_drop_counts == dict.fromkeys(
            FEED_DROP_KEYS, 0)

    def test_restored_engine_estimates_match(self, capture):
        """Restore = re-feed: estimates after restore are bit-identical
        to an engine that never checkpointed."""
        original = TagBreathe(user_ids={1})
        original.feed_batch(capture.reports)
        restored = TagBreathe(user_ids={1})
        restored.restore_streaming(original.buffered_reports(),
                                   original.feed_drop_counts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            assert_same_estimate(original.estimate_user(1),
                                 restored.estimate_user(1))


# ----------------------------------------------------------------------
# Restore under cross-stream timestamp ties
# ----------------------------------------------------------------------
def tied_reports(duration_s=60.0, seed=3):
    """Three tags read on one 20 ms grid, arrival shuffled per instant.

    Every grid instant carries one report per tag, so reports of
    different streams share exact timestamps, and the order they arrive
    in changes from instant to instant — never the order the streams
    were first seen in.
    """
    rng = np.random.default_rng(seed)
    wavelength = 3e8 / 915e6
    reports = []
    for k in range(int(duration_s / 0.02)):
        t = k * 0.02
        chest = 0.005 * np.sin(2.0 * np.pi * 0.2 * t)
        for tag in rng.permutation(3).tolist():
            phase = (1.0 + tag + 4.0 * np.pi * chest / wavelength
                     + float(rng.normal(0.0, 0.05))) % (2.0 * np.pi)
            reports.append(TagReport(
                epc=EPC96.from_user_tag(1, tag), timestamp_s=t,
                phase_rad=phase, rssi_dbm=-60.0 + tag,
                doppler_hz=float(rng.normal(0.0, 0.5)),
                channel_index=(k // 10) % 10, antenna_port=1))
    return reports


class TestRestoreUnderTimestampTies:
    def test_restored_engine_is_bit_exact(self):
        """Restoring a snapshot rebuilds the live index row for row, so
        every later tick equals the uninterrupted engine's bit for bit."""
        reports = tied_reports()
        cut = next(i for i, r in enumerate(reports) if r.timestamp_s >= 25.0)
        live = TagBreathe(user_ids={1})
        live.feed_batch(ReportBatch.from_reports(reports[:cut]))
        restored = TagBreathe(user_ids={1})
        restored.restore_streaming(live.buffered_batch(1),
                                   live.feed_drop_counts)

        def index_columns(engine):
            keys, times, columns, last_t, _since_prune = \
                engine._inc.snapshot()[1]
            return keys, times, columns, last_t

        assert index_columns(restored) == index_columns(live)
        ticks = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            for lo in range(cut, len(reports), 300):
                chunk = ReportBatch.from_reports(reports[lo:lo + 300])
                live.feed_batch(chunk)
                restored.feed_batch(chunk)
                want = live.estimate_user(1)
                for got in (restored.estimate_user(1),
                            estimate_user_recompute(restored, 1)):
                    assert got.rate_bpm == want.rate_bpm
                    assert got.confidence == want.confidence
                    assert (got.estimate.signal.values.tobytes()
                            == want.estimate.signal.values.tobytes())
                ticks += 1
        assert index_columns(restored) == index_columns(live)
        assert ticks >= 15


class TestRestoreAfterPrune:
    """A restore replays the snapshot without prune checks, so an engine
    that has already pruned is rebuilt row for row."""

    @staticmethod
    def store(engine):
        """Every index column, stream ids read through the stream keys."""
        keys, times, columns, last_t, _since_prune = \
            engine._inc.snapshot()[1]
        columns = dict(columns)
        columns["sid"] = [keys[sid] for sid in columns["sid"]]
        return times, columns, sorted(zip(keys, last_t))

    def test_restored_engine_matches_pruned_live_engine(self):
        reports = tied_reports(duration_s=460.0, seed=4)
        cut = next(i for i, r in enumerate(reports) if r.timestamp_s >= 290.0)
        live = TagBreathe(user_ids={1})
        live.feed_batch(ReportBatch.from_reports(reports[:cut]))
        snapshot = live.buffered_batch(1)
        assert snapshot.t[0] > 150.0, "live engine never pruned"
        restored = TagBreathe(user_ids={1})
        restored.restore_streaming(snapshot, live.feed_drop_counts)
        assert len(restored.buffered_batch(1)) == len(snapshot)
        assert self.store(restored) == self.store(live)

        ticks = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            lo = cut
            for _ in range(30):
                t_next = reports[lo].timestamp_s + 5.0
                hi = next(i for i in range(lo, len(reports))
                          if reports[i].timestamp_s >= t_next)
                batch = ReportBatch.from_reports(reports[lo:hi])
                live.feed_batch(batch)
                restored.feed_batch(batch)
                lo = hi
                want = live.estimate_user(1)
                got = restored.estimate_user(1)
                assert got.rate_bpm == want.rate_bpm
                assert got.confidence == want.confidence
                assert got.read_count == want.read_count
                assert (got.estimate.signal.values.tobytes()
                        == want.estimate.signal.values.tobytes())
                ticks += 1
        assert ticks == 30
