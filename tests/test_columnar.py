"""The columnar hot path: batched SoA feed and the binary column frame.

Two contracts are property-tested here (hypothesis):

* ``TagBreathe.feed_batch`` is **bit-exact** with the row-wise ingest
  reference (``tests/ingest_reference.py``) under every cut of a stream
  into batches, down to one-row batches — same drop counters, same
  stored columns, same per-stream tails and prune counters — under
  adversarial orderings (late, duplicate, invalid-channel,
  unmonitored-user and interleaved-stream deliveries);
* the binary column frame round-trips every batch losslessly, and its
  decoder rejects truncated, padded, or corrupted payloads with a typed
  :class:`~repro.errors.ProtocolError` instead of misparsing them.

Example-based tests cover the negotiation edges (frame grant filtering,
payloads in another codec) and the serve-level equivalence: a replay
over column frames leaves the same session estimates as feeding each
report to an engine one at a time through the reference.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pickle
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Scenario, TagBreathe, run_scenario
from repro.bench import SOAK_REPORTS_PER_USER, _soak_capture, benchmark_scenario
from repro.body import MetronomeBreathing, Subject
from repro.epc.codec import EPC96
from repro.errors import DegradedEstimateWarning, ProtocolError, ReaderError
from repro.reader.batch import COLUMNS, ReportBatch
from repro.reader.tagreport import TagReport
from repro.serve import BreathServer, IngestClient
from repro.serve.protocol import (
    COLUMN_FRAME_MAGIC,
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode_column_frame,
    encode_column_frame,
    negotiate_frames,
)
from repro.units import TWO_PI

from .ingest_reference import feed_all


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Report rows drawn to collide: few users/tags, coarse timestamps (so
#: duplicates and out-of-order deliveries are common), and channels that
#: sometimes fall outside the default hop table.
_row = st.tuples(
    st.integers(min_value=0, max_value=400),      # t in 0.25 s ticks
    st.floats(min_value=0.0, max_value=6.28),     # phase
    st.floats(min_value=-80.0, max_value=-30.0),  # rssi
    st.integers(min_value=0, max_value=64),       # channel (some invalid)
    st.integers(min_value=1, max_value=3),        # antenna
    st.integers(min_value=1, max_value=3),        # user
    st.integers(min_value=1, max_value=2),        # tag
)


def _reports(rows):
    return [
        TagReport(epc=EPC96.from_user_tag(u, g), timestamp_s=ti * 0.25,
                  phase_rad=ph, rssi_dbm=rs, doppler_hz=0.0,
                  channel_index=ch, antenna_port=an)
        for ti, ph, rs, ch, an, u, g in rows
    ]


# ----------------------------------------------------------------------
# feed_batch == the row-wise reference (bit-exact)
# ----------------------------------------------------------------------
class TestFeedBatchEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(_row, min_size=1, max_size=120).flatmap(
        lambda rows: st.tuples(st.just(rows), st.integers(
            min_value=1, max_value=len(rows)))))
    def test_bit_exact_with_sequential_feed(self, rows_and_cut):
        # Rows arrive shuffled, duplicated, late and on invalid channels;
        # with ``user_ids`` set, user 3's rows are unmonitored too.  The
        # stream is cut into 1 to len(rows) batches: one-row batches
        # included.
        rows, n_chunks = rows_and_cut
        reports = _reports(rows)
        for user_ids in (None, {1, 2}):
            scalar = TagBreathe(user_ids=user_ids)
            batched = TagBreathe(user_ids=user_ids)
            accepted_scalar = feed_all(scalar, reports)
            accepted_batched = 0
            for chunk in np.array_split(np.arange(len(reports)), n_chunks):
                batch = ReportBatch.from_reports(
                    [reports[i] for i in chunk])
                accepted_batched += batched.feed_batch(batch)
            assert accepted_batched == accepted_scalar
            assert batched.feed_drop_counts == scalar.feed_drop_counts
            # Every stored column, stream tail and prune counter, per
            # user.
            assert batched._inc.snapshot() == scalar._inc.snapshot()

    def test_estimates_bit_exact_on_simulated_capture(self):
        scenario = Scenario([
            Subject(user_id=uid, distance_m=3.0,
                    lateral_offset_m=(uid - 1.5) * 0.8,
                    breathing=MetronomeBreathing(10.0 + 2.0 * uid),
                    sway_seed=uid)
            for uid in (1, 2)
        ])
        reports = run_scenario(scenario, duration_s=30.0, seed=11).reports
        scalar = TagBreathe()
        batched = TagBreathe()
        feed_all(scalar, reports)
        batch = ReportBatch.from_reports(reports)
        # Odd chunking exercises the cross-chunk cursor/tail state.
        for lo in range(0, len(batch), 997):
            batched.feed_batch(batch.select(
                np.arange(lo, min(lo + 997, len(batch)))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            for uid in (1, 2):
                a = scalar.estimate_user(uid)
                b = batched.estimate_user(uid)
                assert a.rate_bpm == b.rate_bpm
                assert a.confidence == b.confidence
        assert batched.feed_drop_counts == scalar.feed_drop_counts
        assert batched._inc.snapshot() == scalar._inc.snapshot()


# ----------------------------------------------------------------------
# ReportBatch as a read-only sequence of reports
# ----------------------------------------------------------------------
class TestReportBatchSequence:
    @pytest.fixture
    def pair(self):
        rows = [(3 * i, 0.1 * i, -50.0 - i, i % 5, 1 + i % 2, 1 + i % 3, 1)
                for i in range(12)]
        reports = _reports(rows)
        return reports, ReportBatch.from_reports(reports)

    def test_int_index_gives_the_report(self, pair):
        reports, batch = pair
        assert batch[0] == reports[0]
        assert batch[-1] == reports[-1]
        assert batch[-12] == reports[0]
        assert batch[np.int64(5)] == reports[5]
        with pytest.raises(IndexError):
            batch[12]
        with pytest.raises(TypeError):
            batch["0"]

    def test_slice_gives_a_batch(self, pair):
        reports, batch = pair
        for cut in (slice(2, 7), slice(None, None, 3), slice(-4, None),
                    slice(None, None, -1), slice(5, 5)):
            part = batch[cut]
            assert isinstance(part, ReportBatch)
            assert part == reports[cut]
            assert part.t.flags["C_CONTIGUOUS"]

    def test_iteration_builds_the_reports_once(self, pair):
        reports, batch = pair
        assert list(batch) == reports == batch.to_reports()
        assert [id(r) for r in batch] == [id(r) for r in batch]
        assert reports[3] in batch
        assert list(reversed(batch)) == reports[::-1]

    def test_truth_value_and_length(self, pair):
        _, batch = pair
        empty = ReportBatch.from_reports([])
        assert batch and len(batch) == 12
        assert not empty and len(empty) == 0

    def test_equality_with_lists_and_batches(self, pair):
        reports, batch = pair
        assert batch == reports and reports == batch
        assert batch == tuple(reports)
        assert batch == ReportBatch.from_reports(list(reports))
        assert batch != reports[:-1]
        assert batch != reports[::-1]
        assert batch != batch.select(np.arange(11))
        assert ReportBatch.from_reports([]) == []
        assert batch != "not reports"
        with pytest.raises(TypeError):
            hash(batch)

    def test_from_reports_returns_a_batch_as_is(self, pair):
        _, batch = pair
        assert ReportBatch.from_reports(batch) is batch

    def test_pickle_round_trip(self, pair):
        _, batch = pair
        restored = pickle.loads(pickle.dumps(batch))
        assert isinstance(restored, ReportBatch)
        for name, dtype in COLUMNS:
            column = getattr(restored, name)
            assert column.dtype == dtype
            assert column.tobytes() == getattr(batch, name).tobytes()
        list(batch)  # built reports stay behind, not in the pickle
        assert pickle.loads(pickle.dumps(batch)) == batch

    def test_with_columns_replaces_and_validates(self, pair):
        reports, batch = pair
        moved = batch.with_columns(t=batch.t + 1.0)
        assert moved == [dataclasses.replace(r, timestamp_s=r.timestamp_s + 1.0)
                         for r in reports]
        assert batch == reports
        with pytest.raises(ReaderError):
            batch.with_columns(phase=batch.phase + TWO_PI)
        with pytest.raises(ReaderError):
            batch.with_columns(antenna=batch.antenna[1:])
        with pytest.raises(TypeError):
            batch.with_columns(epc=batch.user_id)

    def test_soak_capture_matches_the_report_clones(self):
        """The soak's user-replicated stream, built on columns, equals
        the per-report EPC remapping it replaced."""
        capture = run_scenario(benchmark_scenario(1, seed=0),
                               duration_s=3.0, seed=0).reports
        users = 5
        base = [r for r in capture if r.user_id == 1][:SOAK_REPORTS_PER_USER]
        clones = [dataclasses.replace(r, epc=EPC96.from_user_tag(uid, r.tag_id))
                  for r in base for uid in range(1, users + 1)]
        assert len(set(capture.user_id.tolist())) > 1
        assert len(clones) == users * SOAK_REPORTS_PER_USER
        assert _soak_capture(capture, users) == ReportBatch.from_reports(clones)

    def test_simulated_capture_is_a_batch(self):
        result = run_scenario(Scenario.single_user(), duration_s=3.0, seed=2)
        assert isinstance(result.reports, ReportBatch)
        assert pickle.loads(pickle.dumps(result)).reports == result.reports
        user = result.reports_for_user(1)
        assert user == [r for r in result.reports if r.user_id == 1]
        assert result.reports_for_user(99) == []


# ----------------------------------------------------------------------
# Column frame round-trip and rejection
# ----------------------------------------------------------------------
_wire_row = st.tuples(
    st.floats(min_value=0.0, max_value=1e6),      # t
    st.floats(min_value=0.0, max_value=6.28),     # phase
    st.floats(min_value=-120.0, max_value=0.0),   # rssi
    st.floats(min_value=-1e3, max_value=1e3),     # doppler
    st.integers(min_value=0, max_value=0x7FFF),   # channel
    st.integers(min_value=1, max_value=0x7FFF),   # antenna
    st.integers(min_value=0, max_value=2**63),    # user_id
    st.integers(min_value=0, max_value=2**32 - 1),  # tag_id
)


def _wire_batch(rows):
    cols = list(zip(*rows))
    return ReportBatch(*cols)


class TestColumnFrameProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_wire_row, min_size=0, max_size=64),
           st.booleans())
    def test_round_trip_bit_exact(self, rows, with_seqs):
        if not rows:
            batch = ReportBatch([], [], [], [], [], [], [], [])
        else:
            batch = _wire_batch(rows)
        seqs = None
        if with_seqs:
            seqs = np.arange(7, 7 + len(batch), dtype=np.uint64)
        data = encode_column_frame(batch, seqs)
        messages = FrameDecoder().feed(data)
        assert len(messages) == 1
        message = messages[0]
        assert message["type"] == "report_batch"
        out = message["batch"]
        for name in ("t", "phase", "rssi", "doppler", "channel",
                     "antenna", "user_id", "tag_id"):
            np.testing.assert_array_equal(getattr(out, name),
                                          getattr(batch, name))
            assert getattr(out, name).dtype == getattr(batch, name).dtype
        if with_seqs:
            np.testing.assert_array_equal(message["seqs"], seqs)
        else:
            assert message["seqs"] is None

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_wire_row, min_size=1, max_size=16),
           st.data())
    def test_truncated_and_padded_payloads_rejected(self, rows, data):
        payload = encode_column_frame(_wire_batch(rows))[4:]
        cut = data.draw(st.integers(min_value=1, max_value=len(payload) - 2))
        with pytest.raises(ProtocolError):
            decode_column_frame(payload[:cut])
        with pytest.raises(ProtocolError):
            decode_column_frame(payload + b"\x00")

    def test_bad_magic_and_version_rejected(self):
        payload = encode_column_frame(_wire_batch(
            [(0.0, 0.0, -50.0, 0.0, 1, 1, 1, 1)]))[4:]
        assert payload[:2] == COLUMN_FRAME_MAGIC
        with pytest.raises(ProtocolError):
            decode_column_frame(b"\x00D" + payload[2:])
        bumped = payload[:2] + bytes([payload[2] + 1]) + payload[3:]
        with pytest.raises(ProtocolError):
            decode_column_frame(bumped)

    def test_oversized_encode_rejected(self):
        n = MAX_FRAME_BYTES // 48 + 64
        batch = ReportBatch(np.arange(n, dtype=np.float64),
                            np.zeros(n), np.zeros(n), np.zeros(n),
                            np.zeros(n, dtype=np.int64),
                            np.ones(n, dtype=np.int64),
                            np.zeros(n, dtype=np.uint64),
                            np.zeros(n, dtype=np.uint64))
        with pytest.raises(ProtocolError):
            encode_column_frame(batch)

    def test_non_finite_timestamps_rejected(self):
        with pytest.raises(ReaderError, match="finite"):
            ReportBatch([1.0, np.inf, np.nan], [0.0] * 3, [-50.0] * 3,
                        [0.0] * 3, [1] * 3, [1] * 3, [1] * 3, [1] * 3)
        payload = bytearray(encode_column_frame(_wire_batch(
            [(0.0, 0.0, -50.0, 0.0, 1, 1, 1, 1)] * 3))[4:])
        struct.pack_into("<d", payload, 16 + 8, np.inf)  # row 1's t
        with pytest.raises(ProtocolError, match="finite"):
            decode_column_frame(bytes(payload))

    def test_wide_channel_rejected(self):
        batch = ReportBatch([0.0], [0.0], [-50.0], [0.0],
                            [0x8000], [1], [1], [1])
        with pytest.raises(ProtocolError):
            encode_column_frame(batch)


# ----------------------------------------------------------------------
# Negotiation edges
# ----------------------------------------------------------------------
class TestNegotiation:
    def test_frames_grant_filters_unknown_kinds(self):
        assert negotiate_frames(None) == ()
        assert negotiate_frames([]) == ()
        assert negotiate_frames(["column"]) == ("column",)
        assert negotiate_frames(["parquet", "column", "column"]) \
            == ("column",)
        assert negotiate_frames(["parquet"]) == ()

    def test_unknown_codec_fails_typed(self):
        # A peer framing a msgpack map ({"type": "ping"}) where JSON is
        # the only non-column encoding.
        payload = b"\x81\xa4type\xa4ping"
        with pytest.raises(ProtocolError, match="undecodable json"):
            FrameDecoder().feed(struct.pack("!I", len(payload)) + payload)

    def test_client_requires_column_frames(self):
        with pytest.raises(ValueError, match="column"):
            IngestClient("127.0.0.1", 1, frames=())


# ----------------------------------------------------------------------
# Serve-level equivalence: column replay == per-report feeding
# ----------------------------------------------------------------------
class TestServeColumnPath:
    def test_column_replay_matches_per_report_replay(self):
        scenario = Scenario([
            Subject(user_id=uid, distance_m=3.0,
                    lateral_offset_m=(uid - 1.5) * 0.8,
                    breathing=MetronomeBreathing(10.0 + 2.0 * uid),
                    sway_seed=uid)
            for uid in (1, 2)
        ])
        reports = run_scenario(scenario, duration_s=25.0, seed=5).reports

        async def ingest():
            server = BreathServer(n_shards=2)
            await server.start()
            client = IngestClient("127.0.0.1", server.port,
                                  client_id="eq-test")
            welcome = await client.connect()
            stats = await client.replay(reports, speed=0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedEstimateWarning)
                estimates = {
                    s.user_id: s.engine.estimate_user(s.user_id).rate_bpm
                    for s in server.sessions()
                }
            await client.close()
            await server.drain()
            return welcome, stats, estimates

        welcome, stats, estimates = run(ingest())
        assert welcome.get("frames") == ["column"]
        assert stats.sent == stats.acked == len(reports)
        # 48 data bytes and an 8-byte seq per report, plus frame headers.
        assert 56 <= stats.bytes_sent / stats.sent <= 60
        # The same estimates as a session engine fed report by report.
        per_report = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            for uid in estimates:
                engine = TagBreathe(user_ids={uid})
                feed_all(engine, reports)
                per_report[uid] = engine.estimate_user(uid).rate_bpm
        assert estimates == per_report
