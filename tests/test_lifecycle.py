"""Session-lifecycle battery: hibernation must be invisible.

The cold tier's whole contract is that parking an idle session as a
compressed checkpoint document and waking it on the next report is
*bit-exact*: every downstream number — buffered reports, drop counters,
cadence bookkeeping, the breathing estimate itself — must be identical
to a session that never hibernated.  The hypothesis properties here cut
the stream at arbitrary points (including mid-breath, including many
cycles, including waking straight into the batched SoA feed) and pin
the divergence at exactly 0.0 bpm.

The second half of the battery pins the memory-compaction story:
prune-driven shrinking of the backing storage (GrowableArray,
WindowIndex) must release high-water allocations without
perturbing estimates, and a long multi-window stream must hold a flat
resident-bytes ceiling.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Scenario, TagBreathe, run_scenario
from repro.body import MetronomeBreathing, Subject
from repro.errors import DegradedEstimateWarning, InsufficientDataError
from repro.reader.batch import ReportBatch
from repro.serve import SessionConfig, SessionShard, UserSession
from repro.serve.hibernate import blob_to_doc, doc_to_blob
from repro.streams.windowindex import _MIN_CAPACITY, GrowableArray, \
    WindowIndex

from .stage5_reference import estimate_user_recompute

USER = 1

#: Lazily built module caches — hypothesis examples reuse the capture
#: and the uninterrupted-reference snapshot instead of re-simulating.
_REPORTS = None
_BASELINE = None


def reports():
    """One user breathing at 12 bpm for 30 s (cached)."""
    global _REPORTS
    if _REPORTS is None:
        scenario = Scenario([
            Subject(user_id=USER, distance_m=3.0,
                    breathing=MetronomeBreathing(12.0), sway_seed=USER),
        ])
        capture = run_scenario(scenario, duration_s=30.0, seed=11)
        _REPORTS = [r for r in capture.reports if r.user_id == USER]
    return _REPORTS


def snapshot(session):
    """Everything observable about a session, for exact comparison."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        est = session.engine.estimate_user(USER)
    signal = est.estimate.signal
    state = session.state()
    buffered = state.pop("batch").to_reports()
    return {
        "state": state,
        "reports": buffered,
        "drops": dict(session.engine.feed_drop_counts),
        "rate_bpm": est.rate_bpm,
        "confidence": est.confidence,
        "signal_t": np.array(signal.times, copy=True),
        "signal_v": np.array(signal.values, copy=True),
    }


def baseline():
    """Reference snapshot of a session that never hibernated (cached)."""
    global _BASELINE
    if _BASELINE is None:
        session = UserSession(USER, SessionConfig())
        session.ingest_batch(ReportBatch.from_reports(reports()))
        _BASELINE = snapshot(session)
    return _BASELINE


def assert_bit_identical(got, want):
    assert got["state"] == want["state"]
    assert got["drops"] == want["drops"]
    assert got["reports"] == want["reports"]
    # The acceptance criterion, verbatim: divergence of exactly 0.0 bpm.
    assert got["rate_bpm"] - want["rate_bpm"] == 0.0
    assert got["confidence"] == want["confidence"]
    np.testing.assert_array_equal(got["signal_t"], want["signal_t"])
    np.testing.assert_array_equal(got["signal_v"], want["signal_v"])


def interrupted(cuts, batch_from=None):
    """Snapshot of a session hibernated (and woken) at each cut index.

    Reports before ``batch_from`` arrive as one-row column batches; from
    that index on the rest arrive as one batch, so a wake can land
    directly on a many-row feed.
    """
    shard = SessionShard(0, SessionConfig(), publish=lambda message: None)
    cut_set = set(cuts)
    rows = ReportBatch.from_reports(reports())
    rows_until = len(rows) if batch_from is None else batch_from
    for i in range(rows_until):
        if i in cut_set:
            assert shard.hibernate_session(USER)
            assert USER in shard.hibernated
            assert USER not in shard.sessions
        shard.session_for(USER).ingest_batch(rows[i:i + 1])
    if batch_from is not None:
        if batch_from in cut_set:
            assert shard.hibernate_session(USER)
        shard.session_for(USER).ingest_batch(rows[batch_from:])
    return snapshot(shard.session_for(USER))


def cut_index(fraction):
    n = len(reports())
    return min(n - 1, max(1, int(fraction * n)))


class TestHibernateWakeBitExact:
    """hibernate -> wake -> keep feeding == never hibernated, exactly."""

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_single_hibernation_is_invisible(self, fraction):
        assert_bit_identical(interrupted([cut_index(fraction)]), baseline())

    def test_mid_breath_hibernation(self):
        # Half-way through the capture lands mid-inhalation: the phase
        # chains are cut at an interior sample, the hardest spot for a
        # replay to get bit-right.
        assert_bit_identical(interrupted([len(reports()) // 2]), baseline())

    @settings(max_examples=8, deadline=None)
    @given(st.sets(st.floats(min_value=0.01, max_value=0.99),
                   min_size=2, max_size=5))
    def test_repeated_cycles_are_invisible(self, fractions):
        cuts = sorted({cut_index(f) for f in fractions})
        assert_bit_identical(interrupted(cuts), baseline())

    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_wake_into_batched_feed(self, fraction):
        # The wake itself is triggered by a column batch: the engine's
        # feed_batch path must land on the identical state too.
        cut = cut_index(fraction)
        assert_bit_identical(interrupted([cut], batch_from=cut),
                             baseline())

    def test_wake_after_blob_round_trip_is_the_store_path(self):
        # The shard already parks through doc_to_blob; pin the codec
        # itself: doc -> blob -> doc is the identity on checkpoint docs.
        session = UserSession(USER, SessionConfig())
        session.ingest_batch(ReportBatch.from_reports(
            reports()[: len(reports()) // 3]))
        from repro.serve import session_state_to_doc
        doc = session_state_to_doc(session.state())
        doc["hibernated"] = True
        assert blob_to_doc(doc_to_blob(doc)) == doc

    def test_hibernation_frees_the_resident_engine(self):
        shard = SessionShard(0, SessionConfig(), publish=lambda m: None)
        shard.session_for(USER).ingest_batch(
            ReportBatch.from_reports(reports()))
        resident = shard.sessions[USER].engine.streaming_nbytes(USER)
        assert shard.hibernate_session(USER)
        cold = shard.hibernated.resident_bytes()
        assert USER not in shard.sessions
        assert cold * 5 < resident  # the cold blob is a small fraction


class TestBackingStorageCompaction:
    """Pruned prefixes must release memory, not just logical length."""

    def test_growable_array_shrinks_after_drop_front(self):
        arr = GrowableArray(np.float64)
        arr.extend(np.arange(10_000.0))
        high_water = arr.capacity
        assert high_water >= 10_000
        arr.drop_front(9_900)
        # Shrink lands capacity in [2n, 4n): pinned exactly for n=100.
        assert arr.capacity == 256
        assert arr.capacity < high_water
        np.testing.assert_array_equal(arr.view(),
                                      np.arange(9_900.0, 10_000.0))

    def test_growable_array_never_shrinks_below_floor(self):
        arr = GrowableArray(np.float64)
        arr.extend(np.arange(1_000.0))
        arr.drop_front(999)
        assert arr.capacity == _MIN_CAPACITY
        assert len(arr) == 1

    def test_growable_array_hysteresis_no_thrash(self):
        # Oscillating around a power of two must not reallocate every
        # step: at half-full (above the quarter-full shrink trigger)
        # the capacity stays put.
        arr = GrowableArray(np.float64)
        arr.extend(np.arange(512.0))
        cap = arr.capacity
        for _ in range(16):
            arr.drop_front(1)
            arr.append(0.0)
            assert arr.capacity == cap

    def test_window_index_prune_releases_bytes(self):
        index = WindowIndex({"value": np.float64})
        times = np.arange(20_000, dtype=np.float64) * 0.01
        index.extend(times, value=times)
        high_water = index.nbytes
        index.prune_before(float(times[-1]) - 1.0)
        assert len(index) <= 102
        assert index.nbytes * 8 < high_water
        np.testing.assert_array_equal(index.times, index.column("value"))


class TestLongStreamMemoryCeiling:
    """A multi-window stream must plateau, and stay estimate-exact."""

    def _shifted(self, batch, k, span):
        return ReportBatch(batch.t + k * span, batch.phase, batch.rssi,
                           batch.doppler, batch.channel, batch.antenna,
                           batch.user_id, batch.tag_id)

    def test_resident_bytes_plateau_across_windows(self):
        # 12 reps x 30 s = 360 s of stream — well past the 100 s pruning
        # horizon, so the later reps exercise steady-state prune+shrink.
        engine = TagBreathe(user_ids={USER})
        batch = ReportBatch.from_reports(reports())
        span = float(batch.t[-1] - batch.t[0]) + 0.05
        samples = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            for k in range(12):
                engine.feed_batch(self._shifted(batch, k, span))
                try:
                    engine.estimate_user(USER)
                except InsufficientDataError:
                    pass
                samples.append(engine.streaming_nbytes(USER))
        steady = max(samples[4:8])
        late = max(samples[8:])
        assert late <= steady * 1.5, samples

    def test_pruned_stream_still_matches_recompute(self):
        engine = TagBreathe(user_ids={USER})
        batch = ReportBatch.from_reports(reports())
        span = float(batch.t[-1] - batch.t[0]) + 0.05
        for k in range(6):
            engine.feed_batch(self._shifted(batch, k, span))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            streamed = engine.estimate_user(USER)
            recomputed = estimate_user_recompute(engine, USER)
        assert streamed.rate_bpm - recomputed.rate_bpm == 0.0
        np.testing.assert_array_equal(streamed.estimate.signal.values,
                                      recomputed.estimate.signal.values)

    def test_tracemalloc_ceiling_with_hibernation_cycles(self):
        # The full economic loop: feed, hibernate, wake, feed — python
        # heap growth between early and late cycles must stay bounded.
        shard = SessionShard(0, SessionConfig(), publish=lambda m: None)
        batch = ReportBatch.from_reports(reports())
        span = float(batch.t[-1] - batch.t[0]) + 0.05
        tracemalloc.start()
        peaks = []
        for k in range(8):
            shard.session_for(USER).ingest_batch(self._shifted(
                batch, k, span))
            shard.hibernate_session(USER)
            peaks.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
        steady = max(peaks[2:5])
        late = max(peaks[5:])
        assert late <= steady * 1.5, peaks


class TestIdleSweepAndBudget:
    """The two eviction triggers: wall-clock idleness and head count."""

    def test_idle_sweep_parks_only_quiet_sessions(self):
        config = SessionConfig(idle_after_s=10.0)
        shard = SessionShard(0, config, publish=lambda m: None)
        for uid, report in [(1, reports()[0]), (2, reports()[1])]:
            session = shard.session_for(uid)
            session.ingest_batch(ReportBatch.from_reports([report]))
        shard.sessions[1].last_active -= 60.0  # user 1 went quiet
        assert shard.hibernate_idle() == 1
        assert 1 in shard.hibernated and 1 not in shard.sessions
        assert 2 in shard.sessions and 2 not in shard.hibernated
        assert shard.session_count == 2
        assert shard.user_ids() == [1, 2]

    def test_idle_sweep_disabled_without_knob(self):
        shard = SessionShard(0, SessionConfig(), publish=lambda m: None)
        shard.session_for(1).last_active -= 1e6
        assert shard.hibernate_idle() == 0
        assert 1 in shard.sessions

    def test_budget_evicts_least_recently_active(self):
        config = SessionConfig(max_resident=2)
        shard = SessionShard(0, config, publish=lambda m: None)
        for uid in (1, 2, 3):
            shard.session_for(uid)
            shard.sessions[uid].last_active = float(uid)
        shard.session_for(4)  # over budget: uid 1 is the LRA victim
        assert 1 in shard.hibernated
        assert sorted(shard.sessions) == [3, 4]
        assert 2 in shard.hibernated
        assert shard.session_count == 4

    def test_budget_never_evicts_the_session_just_touched(self):
        config = SessionConfig(max_resident=1)
        shard = SessionShard(0, config, publish=lambda m: None)
        shard.session_for(1)
        session = shard.session_for(2)
        assert 2 in shard.sessions
        assert session.user_id == 2
        assert 1 in shard.hibernated
