"""Session state as one CRC-checked column frame.

A session's buffered rows are stored as the wire's binary column-frame
payload (base64 in the document, CRC-32 beside it), and that one
document shape is the checkpoint entry, the migration record and —
with the frame as raw bytes after a JSON header — the hibernation
blob.  This battery pins:

* the round trip — a hibernated-then-woken session is identical to an
  uninterrupted one on multi-tag, multi-antenna input with duplicate,
  late and invalid-channel rows;
* integrity — a flipped bit in a stored phase value is caught by the
  frame CRC and the checkpoint falls back to ``.prev``; every bit flip
  of a parked blob is caught or harmless, and a corrupt blob is
  dropped and counted by wake, checkpoint and migration alike;
* the frame-size edge — a session larger than one wire frame still
  hibernates, wakes, checkpoints and loads;
* fuzzed input — every malformed frame, blob or document ends in a
  valid result or a typed error, never another exception;
* v2 compatibility — per-report JSON documents still load.
"""

from __future__ import annotations

import asyncio
import base64
import json
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Scenario, run_scenario
from repro.body import MetronomeBreathing, Subject
from repro.config import ReaderConfig
from repro.errors import (
    CheckpointCorruptError,
    DegradedEstimateWarning,
    InsufficientDataError,
    ProtocolError,
)
from repro.obs import capture as obs_capture
from repro.reader.batch import ReportBatch
from repro.serve import (
    BreathServer,
    SessionConfig,
    SessionShard,
    UserSession,
    load_checkpoint,
    save_checkpoint,
    session_state_from_doc,
    session_state_to_doc,
)
from repro.serve.checkpoint import CHECKPOINT_VERSION, FRAME_CRC_KEY, FRAME_KEY
from repro.serve.hibernate import blob_to_doc, doc_to_blob
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_column_frame,
    encode_column_frame,
    encode_column_payload,
)

from .wire_helpers import report_to_wire

USER = 1

#: Column-frame layout facts the bit-flip test needs: a 16-byte header,
#: then ``t`` (8 B a row), then ``phase``.
_HEADER_BYTES = 16

_REPORTS = None


@pytest.fixture(autouse=True)
def _quiet_degraded():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        yield


def reports():
    """One user, several tags, two antennas, 30 s (cached)."""
    global _REPORTS
    if _REPORTS is None:
        scenario = Scenario([
            Subject(user_id=USER, distance_m=2.5,
                    breathing=MetronomeBreathing(14.0), sway_seed=3),
        ])
        capture = run_scenario(scenario, duration_s=30.0, seed=5,
                               reader_config=ReaderConfig(num_antennas=2))
        _REPORTS = [r for r in capture.reports if r.user_id == USER]
    return _REPORTS


def fed_session(rows=None) -> UserSession:
    session = UserSession(USER, SessionConfig())
    session.ingest_batch(ReportBatch.from_reports(
        reports() if rows is None else rows))
    return session


def outcome(engine):
    """The next estimate (its observable numbers) or its refusal."""
    try:
        est = engine.estimate_user(USER)
    except InsufficientDataError as exc:
        return ("refused", str(exc))
    return ("estimate", est.rate_bpm, est.confidence, est.degraded_reasons,
            est.estimator, est.motion_gated, est.tags_fused,
            est.read_count, est.antenna_port,
            tuple(est.estimate.signal.times),
            tuple(est.estimate.signal.values))


# ----------------------------------------------------------------------
# Round trip: hibernate -> wake == never hibernated
# ----------------------------------------------------------------------
def test_base_capture_is_multi_tag_multi_antenna_without_cross_stream_ties():
    """Preconditions of the round-trip property's input.

    Reports of different streams sharing a timestamp merge in arrival
    order (DESIGN.md §12, a documented measure-zero deviation no
    restore can reproduce), so the base capture must have none; the
    injected rows below only copy timestamps within one stream.
    """
    rows = reports()
    assert len({r.tag_id for r in rows}) > 1
    assert len({r.antenna_port for r in rows}) > 1
    stamps = {}
    for r in rows:
        stamps.setdefault(r.timestamp_s, set()).add(r.tag_id)
    assert all(len(tags) == 1 for tags in stamps.values())


_INJECTION = st.tuples(
    st.floats(min_value=0.0, max_value=0.999),   # where the copy comes from
    st.integers(min_value=0, max_value=40),      # how much later it lands
    st.sampled_from(["duplicate", "late", "invalid_channel"]))


def perturbed(injections):
    """The base capture with faulty deliveries spliced in."""
    rows = list(reports())
    for fraction, delay, kind in injections:
        i = int(fraction * len(rows))
        source = rows[i]
        if kind == "invalid_channel":
            source = type(source)(
                epc=source.epc, timestamp_s=source.timestamp_s + 1e-4,
                phase_rad=source.phase_rad, rssi_dbm=source.rssi_dbm,
                doppler_hz=source.doppler_hz, channel_index=40,
                antenna_port=source.antenna_port)
        # A duplicate lands right behind its original; a late copy lands
        # after later reads of its stream.
        at = i + 1 if kind == "duplicate" else min(len(rows), i + 1 + delay)
        rows.insert(at, source)
    return rows


def feed_in_chunks(shard, rows, chunk, cuts):
    """Feed ``rows`` ``chunk`` at a time, hibernating before each cut."""
    for start in range(0, len(rows), chunk):
        if start in cuts:
            shard.hibernate_session(USER)
        part = rows[start:start + chunk]
        shard.session_for(USER).ingest_batch(ReportBatch.from_reports(part))
    return shard.session_for(USER)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(injections=st.lists(_INJECTION, max_size=12),
       cut_fractions=st.lists(st.floats(min_value=0.01, max_value=0.99),
                              min_size=1, max_size=3),
       chunk=st.sampled_from([1, 7, 64, 500]))
def test_hibernate_wake_round_trip_is_invisible(injections, cut_fractions,
                                                chunk):
    rows = perturbed(injections)
    cuts = {int(f * len(rows)) // chunk * chunk for f in cut_fractions}
    plain = feed_in_chunks(SessionShard(0, SessionConfig(), lambda m: None),
                           rows, chunk, cuts=set())
    parked = feed_in_chunks(SessionShard(0, SessionConfig(), lambda m: None),
                            rows, chunk, cuts=cuts)
    assert (parked.engine.buffered_reports(USER)
            == plain.engine.buffered_reports(USER))
    assert parked.engine.feed_drop_counts == plain.engine.feed_drop_counts
    assert (parked.engine.last_restore_drop_counts
            == plain.engine.last_restore_drop_counts)
    assert outcome(parked.engine) == outcome(plain.engine)
    # Every spliced row is a counted drop: none leaks into the buffer.
    assert sum(plain.engine.feed_drop_counts.values()) == len(injections)


def test_buffered_batch_matches_buffered_reports():
    engine = fed_session(perturbed([(0.3, 5, "late"),
                                    (0.6, 0, "duplicate")])).engine
    batch = engine.buffered_batch(USER)
    assert batch.to_reports() == engine.buffered_reports(USER)
    assert np.all(np.diff(batch.t) >= 0.0)
    assert len(engine.buffered_batch(USER + 1)) == 0


def test_state_document_round_trip_is_lossless():
    session = fed_session()
    state = session.state()
    doc = session_state_to_doc(state)
    assert set(doc) >= {FRAME_KEY, "frame_crc32"} and "batch" not in doc
    back = session_state_from_doc(blob_to_doc(doc_to_blob(doc)))
    assert back["batch"].to_reports() == state["batch"].to_reports()
    for key in ("first_t", "latest_t", "next_due_t", "reports_in",
                "estimates_out", "drop_counts"):
        assert back[key] == state[key]


def v2_blob(doc):
    """A v2 document as the retired JSON blob codec parked it."""
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return zlib.compress(text.encode("utf-8"), 6)


def test_frame_blob_is_smaller_than_per_report_json():
    state = fed_session().state()
    frame_blob = doc_to_blob(session_state_to_doc(state))
    v2 = dict(state)
    v2["reports"] = [report_to_wire(r) for r in v2.pop("batch").to_reports()]
    assert len(frame_blob) < len(v2_blob(v2))


def test_doc_to_blob_rejects_a_v2_document():
    # Resume and migrate_in re-encode v2 documents before parking them.
    with pytest.raises(CheckpointCorruptError, match="column frame"):
        doc_to_blob(v2_doc(fed_session()))


# ----------------------------------------------------------------------
# Integrity: the frame CRC
# ----------------------------------------------------------------------
def _flip_phase_bit(doc, row=3, bit=0):
    """Flip one mantissa bit of one stored phase value, CRC untouched."""
    payload = bytearray(base64.b64decode(doc[FRAME_KEY]))
    count = (len(payload) - _HEADER_BYTES) // 48
    offset = _HEADER_BYTES + 8 * count + 8 * row  # phase column, `row`
    payload[offset] ^= 1 << bit
    doc[FRAME_KEY] = base64.b64encode(bytes(payload)).decode("ascii")
    return bytes(payload)


def test_flipped_phase_bit_decodes_silently_without_the_crc():
    doc = session_state_to_doc(fed_session().state())
    original = decode_column_frame(base64.b64decode(doc[FRAME_KEY]))["batch"]
    flipped = decode_column_frame(_flip_phase_bit(doc))["batch"]
    # The frame itself is still well-formed: only the CRC can tell.
    assert flipped.phase[3] != original.phase[3]
    with pytest.raises(CheckpointCorruptError, match="CRC"):
        session_state_from_doc(doc)


def test_flipped_phase_bit_in_checkpoint_falls_back_to_prev(tmp_path):
    path = tmp_path / "serve.ckpt"
    session = fed_session()
    save_checkpoint(path, [session.state()], {"frames_total": 1})
    # A duplicate: counted, state unchanged.
    session.ingest_batch(ReportBatch.from_reports(reports()[-1:]))
    save_checkpoint(path, [session.state()], {"frames_total": 2})
    live = json.loads(path.read_text())
    _flip_phase_bit(live["sessions"][0])
    path.write_text(json.dumps(live))
    saved = load_checkpoint(path)
    assert saved["fallback"] is True
    assert "CRC" in saved["fallback_reason"]
    assert saved["counters"]["frames_total"] == 1
    [state] = saved["sessions"]
    assert state["batch"].to_reports() == session.engine.buffered_reports(USER)
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path, allow_fallback=False)


def test_flipped_watermark_digit_in_checkpoint_falls_back_to_prev(tmp_path):
    # A scribbled client_seqs digit would make a restored server drop a
    # reconnecting client's valid reports as already seen.
    path = tmp_path / "serve.ckpt"
    state = fed_session().state()
    save_checkpoint(path, [state], {"frames_total": 1},
                    client_seqs={"reader-1": 4096})
    save_checkpoint(path, [state], {"frames_total": 2},
                    client_seqs={"reader-1": 8192})
    text = path.read_text()
    assert text.count('"reader-1":8192') == 1
    path.write_text(text.replace('"reader-1":8192', '"reader-1":9192'))
    saved = load_checkpoint(path)
    assert saved["fallback"] is True
    assert "CRC" in saved["fallback_reason"]
    assert saved["client_seqs"] == {"reader-1": 4096}
    assert saved["counters"]["frames_total"] == 1
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path, allow_fallback=False)


def test_checkpoint_without_its_metadata_crc_is_corrupt(tmp_path):
    path = tmp_path / "serve.ckpt"
    save_checkpoint(path, [fed_session().state()], {"frames_total": 1})
    doc = json.loads(path.read_text())
    del doc["meta_crc32"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointCorruptError, match="CRC"):
        load_checkpoint(path, allow_fallback=False)
    # A v3 file predates the metadata CRC and still loads.
    doc["version"] = 3
    path.write_text(json.dumps(doc))
    saved = load_checkpoint(path, allow_fallback=False)
    assert saved["counters"] == {"frames_total": 1}


def test_corrupt_parked_blob_wakes_as_a_counted_fresh_session():
    shard = SessionShard(0, SessionConfig(), lambda m: None)
    shard.session_for(USER).ingest_batch(ReportBatch.from_reports(reports()))
    shard.hibernate_session(USER)
    doc = blob_to_doc(shard.hibernated.blob(USER))
    _flip_phase_bit(doc)
    shard.hibernated.put(USER, doc)
    with obs_capture() as (_tracer, registry):
        session = shard.session_for(USER)
        corrupt = registry.values("repro_serve_wake_corrupt_total")
    assert sum(corrupt.values()) == 1
    assert session.reports_in == 0
    assert USER not in shard.hibernated and shard.sessions[USER] is session


def test_parked_blob_with_a_non_finite_timestamp_wakes_as_corrupt():
    # The frame CRC matches: the row itself is what wake must refuse.
    shard = SessionShard(0, SessionConfig(), lambda m: None)
    shard.session_for(USER).ingest_batch(ReportBatch.from_reports(reports()))
    shard.hibernate_session(USER)
    doc = blob_to_doc(shard.hibernated.blob(USER))
    payload = bytearray(base64.b64decode(doc[FRAME_KEY]))
    struct.pack_into("<d", payload, _HEADER_BYTES + 8 * 3, float("nan"))
    doc[FRAME_KEY] = base64.b64encode(bytes(payload)).decode("ascii")
    doc[FRAME_CRC_KEY] = zlib.crc32(bytes(payload))
    shard.hibernated.put(USER, doc)
    with obs_capture() as (_tracer, registry):
        session = shard.session_for(USER)
        corrupt = registry.values("repro_serve_wake_corrupt_total")
    assert sum(corrupt.values()) == 1
    assert session.reports_in == 0


def rows_of(user_id, n=60):
    """The first ``n`` base-capture rows, relabelled as ``user_id``'s."""
    rows = ReportBatch.from_reports(reports()[:n])
    return ReportBatch(rows.t, rows.phase, rows.rssi, rows.doppler,
                       rows.channel, rows.antenna,
                       np.full(n, user_id, dtype=np.uint64), rows.tag_id)


def server_with_a_corrupt_parked_blob(**kwargs):
    """One shard: user 1 resident, user 2 parked as garbage, user 3 parked."""
    server = BreathServer(port=0, n_shards=1, **kwargs)
    shard = server.shard_for(USER)
    for uid in (USER, 2, 3):
        shard.session_for(uid).ingest_batch(rows_of(uid))
    for uid in (2, 3):
        assert shard.hibernate_session(uid)
    shard.hibernated.put_blob(2, b"\x00garbage")
    return server, shard


def test_migrate_out_skips_a_corrupt_parked_blob():
    server, shard = server_with_a_corrupt_parked_blob()
    want = session_state_to_doc(shard.sessions[USER].state())
    with obs_capture() as (_tracer, registry):
        docs = asyncio.run(server.migrate_out([USER, 2]))
        corrupt = registry.values("repro_serve_wake_corrupt_total")
    assert docs == [want]
    assert sum(corrupt.values()) == 1
    assert shard.user_ids() == [3]


def test_checkpoint_skips_a_corrupt_parked_blob(tmp_path):
    path = tmp_path / "serve.ckpt"
    server, shard = server_with_a_corrupt_parked_blob(
        checkpoint_path=str(path))
    with obs_capture() as (_tracer, registry):
        server.checkpoint_now()
        corrupt = registry.values("repro_serve_wake_corrupt_total")
    assert sum(corrupt.values()) == 1
    saved = load_checkpoint(path, allow_fallback=False)
    assert [s["user_id"] for s in saved["sessions"]] == [USER, 3]
    assert saved["sessions"][1]["hibernated"] is True
    assert shard.user_ids() == [USER, 3]
    server.checkpoint_now()  # the periodic loop would carry on
    assert load_checkpoint(path, allow_fallback=False)["documents"] \
        == saved["documents"]


def woken_state(session):
    """Everything a wake restores, for exact comparison."""
    batch = session.engine.buffered_batch(USER)
    return (session.first_t, session.latest_t, session.next_due_t,
            session.reports_in, session.estimates_out,
            session.engine.feed_drop_counts,
            tuple(getattr(batch, name).tobytes()
                  for name in ("t", "phase", "rssi", "doppler", "channel",
                               "antenna", "user_id", "tag_id")))


def test_every_single_bit_flip_of_a_blob_is_caught_or_harmless():
    shard = SessionShard(0, SessionConfig(), lambda m: None)
    shard.session_for(USER).ingest_batch(
        ReportBatch.from_reports(reports()[:12]))
    shard.hibernate_session(USER)
    blob = shard.hibernated.blob(USER)
    want = woken_state(shard.session_for(USER))
    assert want[3] == 12
    caught = 0
    with obs_capture() as (_tracer, registry):
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            shard.sessions.pop(USER)
            shard.hibernated.put_blob(USER, bytes(flipped))
            session = shard.session_for(USER)
            counted = sum(registry.values(
                "repro_serve_wake_corrupt_total").values())
            if counted > caught:
                caught = counted
                assert session.reports_in == 0
            else:
                assert woken_state(session) == want, bit
    assert caught > 0.9 * 8 * len(blob)


def test_migrate_in_rejects_a_bad_crc():
    doc = session_state_to_doc(fed_session().state())
    doc["frame_crc32"] ^= 1
    server = BreathServer(port=0)
    with pytest.raises(CheckpointCorruptError):
        server.migrate_in([doc])
    assert server.session_count() == 0


# ----------------------------------------------------------------------
# Frame-size edge: state is not bound by the wire's frame limit
# ----------------------------------------------------------------------
def big_rows(n=24_000, tags=4):
    """``n`` synthetic reads over 60 s — inside the prune horizon."""
    rng = np.random.default_rng(9)
    t = np.arange(n) * (60.0 / n)
    return ReportBatch(
        t, rng.uniform(0.0, 2 * np.pi, n), rng.uniform(-70, -40, n),
        rng.normal(0.0, 0.5, n), rng.integers(0, 10, n),
        rng.integers(1, 3, n), np.full(n, USER, dtype=np.uint64),
        (np.arange(n) % tags).astype(np.uint64))


def test_session_larger_than_a_wire_frame_hibernates_and_wakes():
    batch = big_rows()
    assert len(batch) * 48 > MAX_FRAME_BYTES
    with pytest.raises(ProtocolError):
        encode_column_frame(batch)  # the wire keeps its limit
    assert len(encode_column_payload(batch)) > MAX_FRAME_BYTES
    shard = SessionShard(0, SessionConfig(), lambda m: None)
    shard.session_for(USER).ingest_batch(batch)
    want = shard.sessions[USER].engine.buffered_reports(USER)
    assert len(want) == len(batch)
    assert shard.hibernate_session(USER)
    woken = shard.session_for(USER)
    assert woken.engine.buffered_reports(USER) == want


def test_session_larger_than_a_wire_frame_checkpoints(tmp_path):
    batch = big_rows()
    session = UserSession(USER, SessionConfig())
    session.ingest_batch(batch)
    path = tmp_path / "big.ckpt"
    n = save_checkpoint(path, [session.state()], {})
    assert n == len(batch)
    [state] = load_checkpoint(path)["sessions"]
    assert (state["batch"].to_reports()
            == session.engine.buffered_reports(USER))


# ----------------------------------------------------------------------
# v2 documents still load
# ----------------------------------------------------------------------
def v2_doc(session, hibernated=False):
    doc = dict(session.state())
    doc["reports"] = [report_to_wire(r) for r in doc.pop("batch").to_reports()]
    if hibernated:
        doc["hibernated"] = True
    return doc


def test_v2_session_document_still_loads():
    session = fed_session()
    state = session_state_from_doc(v2_doc(session))
    assert (state["batch"].to_reports()
            == session.engine.buffered_reports(USER))


def test_v2_checkpoint_resumes_and_is_rewritten_as_v3(tmp_path):
    path = tmp_path / "old.ckpt"
    live, cold = fed_session(), UserSession(2, SessionConfig())
    cold.ingest_batch(ReportBatch.from_reports(
        [r for r in run_scenario(Scenario([
            Subject(user_id=2, distance_m=3.0,
                    breathing=MetronomeBreathing(12.0), sway_seed=2)]),
            duration_s=5.0, seed=2).reports if r.user_id == 2]))
    path.write_text(json.dumps({
        "format": "repro-serve-checkpoint", "version": 2,
        "counters": {}, "client_seqs": {},
        "sessions": [v2_doc(live), v2_doc(cold, hibernated=True)]}))

    async def scenario():
        server = BreathServer(port=0, checkpoint_path=str(path),
                              checkpoint_interval_s=0)
        await server.start()
        summary = (server.resident_count(), server.hibernated_count())
        parked = blob_to_doc(server.shard_for(2).hibernated.blob(2))
        await server.drain()
        return summary, parked

    (resident, hibernated), parked = asyncio.run(scenario())
    assert (resident, hibernated) == (1, 1)
    assert FRAME_KEY in parked and "reports" not in parked
    rewritten = json.loads(path.read_text())
    # The sessions come back as v3 frame documents inside a checkpoint
    # of the current version (v4 added the metadata CRC).
    assert rewritten["version"] == CHECKPOINT_VERSION == 4
    assert all(FRAME_KEY in d for d in rewritten["sessions"])


# ----------------------------------------------------------------------
# Fuzzed input: valid result or typed error, never anything else
# ----------------------------------------------------------------------
_VALID_DOC = None


def valid_doc():
    global _VALID_DOC
    if _VALID_DOC is None:
        _VALID_DOC = session_state_to_doc(fed_session(reports()[:80]).state())
    return dict(_VALID_DOC)


def assert_restorable(state):
    """A document that validated must restore without an exception."""
    session = UserSession(state["user_id"], SessionConfig())
    session.restore(state)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_fuzz_decode_column_frame_arbitrary_bytes(payload):
    try:
        message = decode_column_frame(payload)
    except ProtocolError:
        return
    assert isinstance(message["batch"], ReportBatch)


@settings(max_examples=200, deadline=None)
@given(flags=st.integers(0, 255), count=st.integers(0, 6),
       body=st.binary(max_size=400), version=st.sampled_from([1, 1, 2]))
def test_fuzz_decode_column_frame_behind_a_valid_magic(flags, count, body,
                                                      version):
    header = struct.pack("!2sBBI8s", b"\x00C", version, flags, count,
                         b"\x00" * 8)
    try:
        message = decode_column_frame(header + body)
    except ProtocolError:
        return
    assert len(message["batch"]) == count


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)


def envelope(header, payload=b"", size=None):
    """A blob in the cold tier's layout: deflated ``u32 | header | payload``."""
    size = len(header) if size is None else size
    return zlib.compress(struct.pack("<I", size) + header + payload)


def valid_parts():
    """A valid document's blob header (JSON) and frame payload."""
    doc = valid_doc()
    payload = base64.b64decode(doc.pop(FRAME_KEY))
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode(), \
        payload


@st.composite
def envelopes(draw):
    """Blobs whose deflate stream is fine but whose layout is not."""
    header, payload = valid_parts()
    kind = draw(st.sampled_from(["past_end", "non_utf8", "non_object",
                                 "truncated", "oversized", "short"]))
    if kind == "past_end":
        return envelope(header, payload, draw(st.integers(
            len(header) + len(payload) + 1, 2**32 - 1)))
    if kind == "non_utf8":  # 0xff never occurs in UTF-8
        return envelope(b"\xff" + draw(st.binary(max_size=40)), payload)
    if kind == "non_object":
        value = draw(_JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
        return envelope(json.dumps(value).encode(), payload)
    if kind == "truncated":
        return envelope(header, payload[:draw(
            st.integers(0, len(payload) - 1))])
    if kind == "oversized":
        return envelope(header, payload + draw(st.binary(min_size=1,
                                                         max_size=64)))
    return zlib.compress(draw(st.binary(max_size=3)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(zlib.compress),
    _JSON_VALUES.map(lambda value: zlib.compress(json.dumps(value).encode())),
    envelopes()))
def test_fuzz_blob_to_doc(blob):
    try:
        doc = blob_to_doc(blob)
    except CheckpointCorruptError:
        return
    assert isinstance(doc, dict)
    assert isinstance(doc[FRAME_KEY], str)


_WRONG_TYPED = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                | st.floats() | st.text(max_size=12)
                | st.lists(st.integers(), max_size=3)
                | st.dictionaries(st.text(max_size=4), st.integers(),
                                  max_size=3))


@st.composite
def mutated_docs(draw):
    doc = valid_doc()
    kind = draw(st.sampled_from(["drop", "retype", "truncate", "garble",
                                 "crc", "other_user", "non_object"]))
    if kind == "drop":
        doc.pop(draw(st.sampled_from(sorted(doc))))
    elif kind == "retype":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_WRONG_TYPED)
    elif kind == "truncate":
        doc[FRAME_KEY] = doc[FRAME_KEY][:draw(
            st.integers(0, len(doc[FRAME_KEY]) - 1))]
    elif kind == "garble":
        frame = doc[FRAME_KEY]
        at = draw(st.integers(0, len(frame) - 1))
        doc[FRAME_KEY] = (frame[:at] + draw(st.characters())
                          + frame[at + 1:])
    elif kind == "crc":
        doc["frame_crc32"] = draw(st.integers(0, 2**32 - 1))
    elif kind == "other_user":
        doc["user_id"] = draw(st.integers(0, 2**64 - 1))
    else:
        return draw(_WRONG_TYPED)
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_docs())
def test_fuzz_session_state_from_doc(doc):
    try:
        state = session_state_from_doc(doc)
    except CheckpointCorruptError:
        return
    assert_restorable(state)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def random_row_blobs(draw):
    """A CRC-correct blob of arbitrary rows.

    Every column but ``t`` passes the batch checks; ``t`` may hold NaN
    or an infinity, which the frame carries and wake must refuse.
    """
    n = draw(st.integers(0, 24))
    column = lambda elements: np.array(draw(st.lists(  # noqa: E731
        elements, min_size=n, max_size=n)))
    t = column(_ANY_FLOAT)
    batch = ReportBatch(
        np.zeros(n), column(st.floats(0.0, 6.283)),
        column(_ANY_FLOAT), column(_ANY_FLOAT),
        column(st.integers(0, 0x7FFF)).astype(np.int64),
        column(st.integers(1, 0x7FFF)).astype(np.int64),
        np.full(n, USER, dtype=np.uint64),
        column(st.integers(0, 2**32 - 1)).astype(np.uint64))
    header, _payload = valid_parts()
    doc = json.loads(header)
    payload = bytearray(encode_column_payload(batch))
    payload[_HEADER_BYTES:_HEADER_BYTES + 8 * n] = t.astype("<f8").tobytes()
    doc["frame_crc32"] = zlib.crc32(payload)
    return envelope(json.dumps(doc).encode(), bytes(payload))


@st.composite
def mutated_doc_blobs(draw):
    """A mutated document (see :func:`mutated_docs`) in the blob layout."""
    doc = draw(mutated_docs())
    if not isinstance(doc, dict):
        return envelope(json.dumps(doc).encode())
    frame = doc.pop(FRAME_KEY, "")
    try:
        payload = base64.b64decode(frame, validate=True)
    except (TypeError, ValueError):
        payload = b""
    return envelope(json.dumps(doc).encode(), payload)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.binary(max_size=300),
                 st.binary(max_size=300).map(zlib.compress),
                 envelopes(), mutated_doc_blobs(), random_row_blobs()))
def test_fuzz_waking_an_arbitrary_parked_blob(blob):
    # Any parked blob wakes as a restored session or as a counted fresh
    # one; nothing else escapes session_for.
    shard = SessionShard(0, SessionConfig(), lambda m: None)
    shard.hibernated.put_blob(USER, blob)
    with obs_capture() as (_tracer, registry):
        session = shard.session_for(USER)
        corrupt = sum(registry.values(
            "repro_serve_wake_corrupt_total").values())
        woken = sum(registry.values("repro_serve_woken_total").values())
    assert (corrupt, woken) in {(1, 0), (0, 1)}
    assert USER not in shard.hibernated and shard.sessions[USER] is session
    if corrupt:
        assert session.reports_in == 0
        assert len(session.engine.buffered_batch(USER)) == 0


def test_frame_holding_another_users_rows_is_rejected():
    doc = valid_doc()
    doc["user_id"] = USER + 1
    with pytest.raises(CheckpointCorruptError, match="other"):
        session_state_from_doc(doc)
