"""Property-based tests (hypothesis): invariants the example-based suites
only spot-check.

Covered substrate:

* :mod:`repro.units` — conversion round-trips and phase-wrap ranges;
* :mod:`repro.epc.codec` — EPC96 encode/decode round-trips;
* :mod:`repro.streams` — bin_sum sample conservation, resample grid
  monotonicity.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.epc.codec import EPC96, decode_user_tag, encode_user_tag
from repro.streams.resample import bin_sum, resample_linear
from repro.streams.timeseries import TimeSeries

#: Finite, sanely-sized floats — the library works in SI units where
#: astronomically large magnitudes only exercise float artifacts.
finite = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# repro.units
# ----------------------------------------------------------------------
class TestUnitsProperties:
    @given(st.floats(min_value=-200.0, max_value=200.0))
    def test_db_linear_round_trip(self, db):
        assert units.linear_to_db(units.db_to_linear(db)) == \
            pytest.approx(db, abs=1e-9)

    @given(st.floats(min_value=-100.0, max_value=60.0))
    def test_dbm_watts_round_trip(self, dbm):
        assert units.watts_to_dbm(units.dbm_to_watts(dbm)) == \
            pytest.approx(dbm, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=1e4))
    def test_hz_bpm_round_trip(self, hz):
        assert units.bpm_to_hz(units.hz_to_bpm(hz)) == \
            pytest.approx(hz, rel=1e-12, abs=1e-12)

    @given(finite)
    def test_deg_rad_round_trip(self, deg):
        assert units.rad_to_deg(units.deg_to_rad(deg)) == \
            pytest.approx(deg, rel=1e-9, abs=1e-6)

    @given(finite)
    def test_wrap_phase_range(self, theta):
        wrapped = units.wrap_phase(theta)
        assert 0.0 <= wrapped < units.TWO_PI

    @given(finite)
    def test_wrap_phase_delta_range(self, delta):
        wrapped = units.wrap_phase_delta(delta)
        assert -math.pi <= wrapped < math.pi

    @given(st.floats(min_value=-3.14, max_value=3.14))
    def test_wrap_phase_delta_identity_inside_range(self, delta):
        # A delta already inside (-pi, pi) passes through unchanged (the
        # exact +/- pi boundary is a float-rounding coin flip, so stay off
        # it; the range test above still covers the edges).
        assert units.wrap_phase_delta(delta) == pytest.approx(delta, abs=1e-9)

    @given(st.lists(finite, min_size=1, max_size=32))
    def test_wrap_phase_array_matches_scalar(self, thetas):
        array = units.wrap_phase(np.array(thetas))
        scalars = [units.wrap_phase(t) for t in thetas]
        np.testing.assert_allclose(array, scalars, rtol=0, atol=0)


# ----------------------------------------------------------------------
# repro.epc.codec
# ----------------------------------------------------------------------
class TestEPCProperties:
    user_ids = st.integers(min_value=0, max_value=(1 << 64) - 1)
    tag_ids = st.integers(min_value=0, max_value=(1 << 32) - 1)

    @given(user_ids, tag_ids)
    def test_encode_decode_round_trip(self, user_id, tag_id):
        assert decode_user_tag(encode_user_tag(user_id, tag_id)) == \
            (user_id, tag_id)

    @given(user_ids, tag_ids)
    def test_epc96_hex_round_trip(self, user_id, tag_id):
        epc = EPC96.from_user_tag(user_id, tag_id)
        again = EPC96.from_hex(epc.to_hex())
        assert again == epc
        assert again.split() == (user_id, tag_id)

    @given(st.integers(min_value=0, max_value=(1 << 96) - 1))
    def test_hex_is_24_chars_for_any_value(self, value):
        assert len(EPC96(value).to_hex()) == 24


# ----------------------------------------------------------------------
# repro.streams
# ----------------------------------------------------------------------
#: Strictly increasing time lists with arbitrary values attached.
def _sample_lists(min_size=1, max_size=40):
    return st.lists(
        st.tuples(st.floats(min_value=0.001, max_value=10.0,
                            allow_nan=False),
                  st.floats(min_value=-100.0, max_value=100.0,
                            allow_nan=False)),
        min_size=min_size, max_size=max_size,
    ).map(lambda gaps: [
        (sum(g for g, _ in gaps[:i + 1]), v)
        for i, (_, v) in enumerate(gaps)
    ])


class TestResampleProperties:
    @settings(max_examples=60)
    @given(_sample_lists(min_size=2),
           st.floats(min_value=0.05, max_value=2.0))
    def test_bin_sum_conserves_total(self, samples, bin_s):
        series = TimeSeries([t for t, _ in samples], [v for _, v in samples])
        binned = bin_sum(series, bin_s)
        # Eq. 6 is a partition of the samples into bins: nothing is lost.
        assert float(np.sum(binned.values)) == \
            pytest.approx(float(np.sum(series.values)), abs=1e-6)
        assert np.all(np.diff(binned.times) > 0)

    @settings(max_examples=60)
    @given(_sample_lists(min_size=2),
           st.floats(min_value=0.5, max_value=64.0))
    def test_resample_linear_grid_regular_and_bounded(self, samples, rate_hz):
        series = TimeSeries([t for t, _ in samples], [v for _, v in samples])
        resampled = resample_linear(series, rate_hz)
        times = np.asarray(resampled.times)
        assert times[0] == pytest.approx(series.start)
        assert times[-1] <= series.end + 1e-9
        if len(times) > 1:
            np.testing.assert_allclose(np.diff(times), 1.0 / rate_hz,
                                       rtol=1e-9)
        # Interpolation cannot overshoot the sample range.
        assert np.min(resampled.values) >= min(series.values) - 1e-9
        assert np.max(resampled.values) <= max(series.values) + 1e-9


# ----------------------------------------------------------------------
# repro.core incremental streaming (DESIGN.md §12)
# ----------------------------------------------------------------------
def _report_streams(draw):
    """A messy multi-stream report sequence: several tags and channels,
    shuffled delivery, occasional exact-duplicate timestamps."""
    from repro.reader.tagreport import TagReport

    n_tags = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=10, max_value=60))
    reports = []
    for tag in range(n_tags):
        t = draw(st.floats(min_value=0.0, max_value=1.0))
        for i in range(n):
            dt = draw(st.sampled_from([0.0, 0.03, 0.05, 0.4, 6.0]))
            t += dt  # dt == 0.0 fabricates an exact duplicate
            reports.append(TagReport(
                epc=EPC96.from_user_tag(1, tag),
                timestamp_s=t,
                phase_rad=draw(st.floats(min_value=0.0, max_value=6.28)),
                rssi_dbm=-60.0, doppler_hz=0.0,
                channel_index=draw(st.integers(min_value=0, max_value=3)),
                antenna_port=1))
    shuffled = draw(st.permutations(reports))
    return shuffled


_report_streams = st.composite(_report_streams)


class TestIncrementalStreamingProperties:
    @staticmethod
    def _tick_pair(engine, window_s=None):
        """(kind, payload) of estimate_user vs estimate_user_recompute."""
        from repro.errors import InsufficientDataError
        import warnings as _warnings

        from repro.errors import DegradedEstimateWarning

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DegradedEstimateWarning)
            try:
                inc = engine.estimate_user(1, window_s=window_s)
            except InsufficientDataError as exc:
                inc = ("err", str(exc))
            try:
                rec = engine.estimate_user_recompute(1, window_s=window_s)
            except InsufficientDataError as exc:
                rec = ("err", str(exc))
        return inc, rec

    @settings(max_examples=30, deadline=None)
    @given(_report_streams())
    def test_incremental_tick_equals_recompute(self, reports):
        """Whatever mess arrives — shuffled, duplicated, multi-channel —
        the incremental tick and the from-scratch recompute agree
        bit-for-bit (identical estimate or identical refusal)."""
        from repro import TagBreathe

        engine = TagBreathe(user_ids={1})
        engine.feed_many(reports)
        inc, rec = self._tick_pair(engine)
        if isinstance(inc, tuple):
            assert inc == rec
        else:
            assert inc.rate_bpm == rec.rate_bpm
            assert inc.confidence == rec.confidence
            assert sorted(inc.degraded_reasons) == \
                sorted(rec.degraded_reasons)

    @settings(max_examples=20, deadline=None)
    @given(_report_streams())
    def test_checkpoint_restore_equals_uninterrupted(self, reports):
        """Snapshot + restore mid-stream converges on the uninterrupted
        session: identical estimates and identical drop accounting."""
        from repro import TagBreathe

        split = len(reports) // 2
        uninterrupted = TagBreathe(user_ids={1})
        uninterrupted.feed_many(reports)

        first_half = TagBreathe(user_ids={1})
        first_half.feed_many(reports[:split])
        resumed = TagBreathe(user_ids={1})
        resumed.restore_streaming(first_half.buffered_reports(),
                                  first_half.feed_drop_counts)
        resumed.feed_many(reports[split:])

        # The restored buffer was already deduplicated, so the replay
        # itself must not have dropped anything.
        assert sum(resumed.last_restore_drop_counts.values()) == 0
        assert resumed.feed_drop_counts == uninterrupted.feed_drop_counts
        a, _ = self._tick_pair(uninterrupted)
        b, _ = self._tick_pair(resumed)
        if isinstance(a, tuple) or isinstance(b, tuple):
            assert a == b
        else:
            assert a.rate_bpm == b.rate_bpm
            assert a.confidence == b.confidence
