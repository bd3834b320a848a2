"""Property-based tests (hypothesis): invariants the example-based suites
only spot-check.

Covered substrate:

* :mod:`repro.units` — conversion round-trips and phase-wrap ranges;
* :mod:`repro.epc.codec` — EPC96 encode/decode round-trips;
* :mod:`repro.streams` — bin_sum sample conservation, resample grid
  monotonicity;
* the streaming tick's vectorised pieces against their 1-D references,
  bit for bit: padded 2-D cumsum rows, length-grouped row sums,
  multi-stream Hampel, and the fused Eq. (6)/(7) binning;
* the robustness cascade, batch and streamed, against the report-list
  oracle in ``tests/cascade_oracle.py``, field for field, and batch
  stage 5 against the per-stream reference in
  ``tests/stage5_reference.py``, bit for bit.
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
        """(kind, payload) of estimate_user vs the per-stream reference
        tick."""
        from repro.errors import InsufficientDataError
        import warnings as _warnings

        from repro.errors import DegradedEstimateWarning

        from .stage5_reference import estimate_user_recompute

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DegradedEstimateWarning)
            try:
                inc = engine.estimate_user(1, window_s=window_s)
            except InsufficientDataError as exc:
                inc = ("err", str(exc))
            try:
                rec = estimate_user_recompute(engine, 1, window_s=window_s)
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
        from repro.reader.batch import ReportBatch

        engine = TagBreathe(user_ids={1})
        engine.feed_batch(ReportBatch.from_reports(reports))
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
        from repro.reader.batch import ReportBatch

        split = len(reports) // 2
        uninterrupted = TagBreathe(user_ids={1})
        uninterrupted.feed_batch(ReportBatch.from_reports(reports))

        first_half = TagBreathe(user_ids={1})
        first_half.feed_batch(ReportBatch.from_reports(reports[:split]))
        resumed = TagBreathe(user_ids={1})
        resumed.restore_streaming(first_half.buffered_reports(),
                                  first_half.feed_drop_counts)
        resumed.feed_batch(ReportBatch.from_reports(reports[split:]))

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


# ----------------------------------------------------------------------
# The streaming tick's vectorised pieces against their 1-D references
# ----------------------------------------------------------------------
def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _mixed_values(seed, n):
    """Values spanning many magnitudes, so that any regrouping of a sum
    shows up in the last bits."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 6.0, size=n)


class TestTickKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                    max_size=8),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_padded_cumsum_rows_equal_1d_cumsum(self, lengths, seed):
        from repro.core.preprocess import padded_rows

        lengths = np.array(lengths)
        values = _mixed_values(seed, int(lengths.sum()))
        rows, row_of, col = padded_rows(values, lengths)
        np.testing.assert_array_equal(_bits(rows[row_of, col]),
                                      _bits(values))
        sums = np.cumsum(rows, axis=1)
        ends = np.cumsum(lengths)
        for i, (end, length) in enumerate(zip(ends, lengths)):
            np.testing.assert_array_equal(
                _bits(sums[i, :length]),
                _bits(np.cumsum(values[end - length:end])))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=300), min_size=1,
                    max_size=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_length_grouped_row_sums_equal_1d_sum(self, lengths, seed):
        """Lengths 1-300 cross numpy's 8- and 128-element pairwise
        blocks; a padded row sum regroups them and fails this."""
        from repro.core.preprocess import padded_rows, row_sums

        lengths = np.sort(np.array(lengths))
        values = _mixed_values(seed, int(lengths.sum()))
        rows, _, _ = padded_rows(values, lengths)
        got = row_sums(rows, lengths)
        ends = np.cumsum(lengths)
        want = [values[end - length:end].sum()
                for end, length in zip(ends, lengths)]
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                              st.booleans()),
                    min_size=1, max_size=5),
           st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.5, max_value=6.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_multi_stream_hampel_equals_per_stream(self, streams, window,
                                                   n_sigmas, seed):
        """Streams shorter than 2w+1 and constant streams included."""
        from repro.core.preprocess import hampel_streams

        from .stage5_reference import hampel_filter

        rng = np.random.default_rng(seed)
        parts = []
        for length, constant in streams:
            if constant:
                parts.append(np.full(length, float(rng.normal())))
            else:
                part = rng.normal(size=length)
                # A few glitches for the filter to find.
                part[rng.random(length) < 0.1] += 50.0
                parts.append(part)
        lengths = np.array([len(p) for p in parts])
        values = np.concatenate(parts)
        flagged = hampel_streams(values, lengths, window, n_sigmas)
        ends = np.cumsum(lengths)
        for end, length, part in zip(ends, lengths, parts):
            if not length:
                continue
            times = np.arange(float(length))
            kept, rejected = hampel_filter(
                TimeSeries(times, part), window=window, n_sigmas=n_sigmas)
            mine = flagged[end - length:end]
            assert rejected == int(mine.sum())
            np.testing.assert_array_equal(kept.times, times[~mine])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0.01, 0.03, 0.06, 0.4, 1.3]),
                             min_size=0, max_size=60),
                    min_size=1, max_size=4),
           st.floats(min_value=0.02, max_value=0.2),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_fused_binning_equals_fuse_sample_streams(self, gaps, bin_s,
                                                      seed):
        """Gaps of up to 1.3 s leave empty interior bins to interpolate."""
        from repro.core.fusion import fuse_sample_streams
        from repro.core.incremental import fused_track
        from repro.errors import EmptyStreamError

        rng = np.random.default_rng(seed)
        streams = []
        for stream_gaps in gaps:
            times = float(rng.uniform(0.0, 2.0)) + np.cumsum(stream_gaps)
            streams.append(TimeSeries(times, _mixed_values(
                int(rng.integers(2**32)), len(stream_gaps))))
        counts = np.array([len(s) for s in streams])
        times = np.concatenate([s.times for s in streams])
        values = np.concatenate([s.values for s in streams])
        try:
            want = fuse_sample_streams(7, dict(enumerate(streams)),
                                       bin_s=bin_s).track
        except EmptyStreamError as exc:
            with pytest.raises(EmptyStreamError) as got:
                fused_track(7, times, values, counts, bin_s)
            assert str(got.value) == str(exc)
            return
        got = fused_track(7, times, values, counts, bin_s)
        np.testing.assert_array_equal(_bits(got.times), _bits(want.times))
        np.testing.assert_array_equal(_bits(got.values), _bits(want.values))



# ----------------------------------------------------------------------
# The robustness cascade against its report-list oracle
# ----------------------------------------------------------------------
_CASCADE_FIELDS = ("rate_bpm", "confidence", "degraded_reasons", "estimator",
                   "antenna_port", "tags_fused", "read_count", "motion_gated",
                   "motion_score")


@st.composite
def _cascade_captures(draw, messy=st.booleans()):
    """One user's multi-antenna capture: breathing phase (clean or
    noisy) on 1-3 tags, 2-3 ports (RSSI quantised to 0.5 dB),
    optionally a port or a tag that dies, bursty read gaps and a
    Doppler motion burst.  Returns the in-order reports and the
    delivered copy: disordered, with re-deliveries, when ``messy``
    draws True."""
    from repro.core.preprocess import default_frequencies
    from repro.reader.tagreport import TagReport

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_tags = draw(st.integers(1, 3))
    ports = list(range(1, draw(st.integers(2, 3)) + 1))
    duration = draw(st.sampled_from([20.0, 30.0]))
    dead_port = draw(st.sampled_from([None] + ports))
    dead_tag = draw(st.sampled_from([None] + list(range(n_tags))))
    n_bursts = draw(st.integers(0, 3))
    burst_s = draw(st.sampled_from([0.6, 2.0, 4.0]))
    motion = draw(st.booleans())
    messy = draw(messy)
    phase_noise = draw(st.sampled_from([0.05, 0.05, 1.5]))

    wavelength = 299792458.0 / np.array(default_frequencies())[:4]
    bpm = rng.uniform(14.0, 30.0)
    port_rssi = rng.uniform(-70.0, -45.0, size=len(ports) + 1)
    weights = np.sort(rng.dirichlet(np.ones(len(ports))))
    if dead_port is not None:
        # The dying port is the busiest, so it outscores the survivors.
        weights = np.roll(weights, dead_port)
    holes = [(s, s + burst_s) for s in rng.uniform(0.0, duration, n_bursts)]
    kick = rng.uniform(0.0, duration - 3.0)
    rows = []
    for tag in range(n_tags):
        t = rng.uniform(0.0, 0.5) + np.cumsum(
            rng.exponential(1.0 / rng.uniform(10.0, 30.0), size=2000))
        t = t[t < duration]
        port = rng.choice(ports, size=t.shape[0], p=weights)
        alive = np.ones(t.shape[0], dtype=bool)
        for lo, hi in holes:
            alive &= (t < lo) | (t >= hi)
        if dead_port is not None:
            alive &= (port != dead_port) | (t < 0.6 * duration)
        if dead_tag == tag:
            alive &= t < 0.5 * duration
        chan = (t / 0.2).astype(int) % 4
        offset = rng.uniform(0.0, 2 * np.pi, size=(4, len(ports) + 1))
        d = 0.005 * np.sin(2 * np.pi * bpm / 60.0 * t)
        phase = np.mod(4 * np.pi * d / wavelength[chan] + offset[chan, port]
                       + rng.normal(0.0, phase_noise, t.shape[0]), 2 * np.pi)
        rssi = np.round((port_rssi[port] + rng.normal(0.0, 1.0, t.shape[0]))
                        * 2.0) / 2.0
        dop = rng.normal(0.0, 1.5, t.shape[0])
        if motion:
            dop += np.where((t >= kick) & (t < kick + 3.0), 3.0, 0.0)
        epc = EPC96.from_user_tag(1, tag)
        rows += [(float(t[i]), TagReport(
            epc=epc, timestamp_s=float(t[i]), phase_rad=float(phase[i]),
            rssi_dbm=float(rssi[i]), doppler_hz=float(dop[i]),
            channel_index=int(chan[i]), antenna_port=int(port[i])))
            for i in np.flatnonzero(alive).tolist()]
    in_order = [r for _, r in sorted(rows, key=lambda row: row[0])]
    delivered = list(in_order)
    if messy and delivered:
        # Late deliveries: swap some neighbours; re-deliveries: copies
        # of random reads, landing a few positions later.
        for i in rng.integers(0, len(delivered) - 1, size=20).tolist():
            delivered[i], delivered[i + 1] = delivered[i + 1], delivered[i]
        for i in rng.integers(0, len(delivered), size=10).tolist():
            delivered.insert(min(len(delivered), i + 3), delivered[i])
    return in_order, delivered


def _assert_same_outcome(got, want):
    """Field-for-field equality of two estimates (or two refusals)."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for name in _CASCADE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


class TestCascadeOracleProperties:
    """The column cascade (``TagBreathe._cascade``) behind batch
    ``process_detailed`` and the streaming tick equals the report-list
    cascade in ``tests/cascade_oracle.py`` field for field, across
    antenna failover, tag death, gaps, motion and score ties."""

    @staticmethod
    def _tick(engine, window_s):
        from repro.errors import InsufficientDataError
        try:
            return engine.estimate_user(1, window_s=window_s)
        except InsufficientDataError as exc:
            return str(exc)

    @staticmethod
    def _oracle_user(engine, reports):
        from repro.errors import InsufficientDataError

        from .cascade_oracle import process_user
        try:
            return process_user(engine, 1, reports)
        except InsufficientDataError as exc:
            return str(exc)

    @settings(max_examples=80, deadline=None)
    @given(_cascade_captures(), st.sampled_from([None, 15.0]))
    def test_cascade_equals_report_list_oracle(self, capture, window_s):
        import warnings as _warnings

        from repro import TagBreathe
        from repro.errors import DegradedEstimateWarning
        from repro.reader.batch import ReportBatch

        from .cascade_oracle import process_detailed, trailing_reports

        in_order, delivered = capture
        engine = TagBreathe(user_ids={1})
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DegradedEstimateWarning)
            got, got_failed = engine.process_detailed(delivered,
                                                      window_s=window_s)
            want, want_failed = process_detailed(engine, delivered,
                                                 window_s=window_s)
            assert got_failed == want_failed
            assert set(got) == set(want)
            for uid in want:
                _assert_same_outcome(got[uid], want[uid])

            engine.feed_batch(ReportBatch.from_reports(in_order))
            window = 25.0 if window_s is None else window_s
            _assert_same_outcome(
                self._tick(engine, window),
                self._oracle_user(engine, trailing_reports(in_order, window)))

    @settings(max_examples=40, deadline=None)
    @given(_cascade_captures(messy=st.just(True)))
    def test_batch_equals_per_stream_reference_on_messy_delivery(
            self, capture):
        """Late and re-delivered reports: batch stage 5 (the segmented
        kernel over stage 1's columns) equals the per-stream reference
        over stage 1's report list bit for bit, and batch process()
        equals the report-list oracle field for field."""
        import warnings as _warnings

        from repro import TagBreathe
        from repro.errors import DegradedEstimateWarning, EmptyStreamError
        from repro.reader.batch import ReportBatch

        from .cascade_oracle import process_detailed, sanitize_reports
        from .stage5_reference import fused_track_counting

        _in_order, delivered = capture
        engine = TagBreathe(user_ids={1})
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DegradedEstimateWarning)
            got, got_failed = engine.process_detailed(delivered)
            want, want_failed = process_detailed(engine, delivered)
        assert got_failed == want_failed
        assert set(got) == set(want)
        for uid in want:
            _assert_same_outcome(got[uid], want[uid])

        if not delivered:
            return
        rows, _n_bad, track_of = engine._batch_rows(
            1, ReportBatch.from_reports(delivered))
        clean, _, _ = sanitize_reports(delivered)
        try:
            want_track = fused_track_counting(engine, 1, clean)
        except EmptyStreamError as exc:
            with pytest.raises(EmptyStreamError) as err:
                track_of(np.arange(rows.t.shape[0]))
            assert str(err.value) == str(exc)
            return
        track, n_rejected, n_samples = track_of(np.arange(rows.t.shape[0]))
        assert (n_rejected, n_samples) == want_track[1:]
        np.testing.assert_array_equal(_bits(track.times),
                                      _bits(want_track[0].times))
        np.testing.assert_array_equal(_bits(track.values),
                                      _bits(want_track[0].values))

    def test_exact_score_tie_picks_lowest_port(self):
        """Ports 2 and 3 share every read count and RSSI: both paths
        (and the oracle) ride port 2."""
        import warnings as _warnings

        from repro import TagBreathe
        from repro.errors import DegradedEstimateWarning
        from repro.reader.batch import ReportBatch
        from repro.reader.tagreport import TagReport

        from .cascade_oracle import process_user

        reports = []
        for i in range(600):
            t = i * 0.05
            for port in (2, 3):
                reports.append(TagReport(
                    epc=EPC96.from_user_tag(1, 0),
                    timestamp_s=t + 0.001 * (port - 1),
                    phase_rad=float(np.mod(
                        1.0 + 0.2 * np.sin(2 * np.pi * 0.25 * t), 2 * np.pi)),
                    rssi_dbm=-55.0, doppler_hz=0.0, channel_index=0,
                    antenna_port=port))
        engine = TagBreathe(user_ids={1})
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DegradedEstimateWarning)
            batch = engine.process(reports)[1]
            engine.feed_batch(ReportBatch.from_reports(reports))
            tick = engine.estimate_user(1, window_s=30.0)
            oracle = process_user(engine, 1, reports)
        assert batch.antenna_port == tick.antenna_port == 2
        _assert_same_outcome(batch, oracle)
        _assert_same_outcome(tick, oracle)
