"""Fuzzing ``FrameDecoder``: any bytes, any chunking, typed outcomes.

The server trusts what the decoder hands it: a ``report_batch`` is
split per user into slices that are never validated again.  So every
byte stream, fed in any chunking, must end in decoded messages or a
typed ``ProtocolError`` — never another exception, never a hang — and
every decoded ``report_batch`` must hold a batch within ``ReportBatch``
bounds.  Feeding the same stream in different chunkings must decode the
same messages up to the first bad frame.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.reader.batch import COLUMNS, ReportBatch
from repro.serve.protocol import (
    FrameDecoder,
    encode_column_frame,
    encode_frame,
)
from repro.units import TWO_PI


def column_frame(rows: int, seed: int, with_seqs: bool) -> bytes:
    rng = np.random.default_rng(seed)
    batch = ReportBatch(
        np.sort(rng.uniform(0.0, 30.0, rows)),
        rng.uniform(0.0, TWO_PI, rows), rng.uniform(-70.0, -40.0, rows),
        rng.normal(0.0, 0.5, rows), rng.integers(0, 10, rows),
        rng.integers(1, 5, rows),
        rng.integers(0, 4, rows).astype(np.uint64),
        rng.integers(0, 2**32, rows).astype(np.uint64))
    seqs = np.arange(1, rows + 1, dtype=np.uint64) if with_seqs else None
    return encode_column_frame(batch, seqs=seqs)


def flipped(frame: bytes, flips) -> bytes:
    """``frame`` with some bytes XOR-ed (length prefix included)."""
    data = bytearray(frame)
    for at, mask in flips:
        data[at % len(data)] ^= mask
    return bytes(data)


_FLIPS = st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 255)),
                  max_size=4)

_SEGMENT = st.one_of(
    st.binary(max_size=64),
    st.builds(column_frame, st.integers(0, 12), st.integers(0, 99),
              st.booleans()),
    st.builds(flipped,
              st.builds(column_frame, st.integers(1, 12),
                        st.integers(0, 99), st.booleans()), _FLIPS),
    st.builds(lambda message: encode_frame(message),
              st.sampled_from([{"type": "flush"}, {"type": "ping"},
                               {"type": "watch", "user_id": 3}])),
    st.builds(lambda payload: struct.pack("!I", len(payload)) + payload,
              st.binary(max_size=64)),
    st.builds(lambda n: struct.pack("!I", n), st.integers(0, 2**32 - 1)),
)


def decode(stream: bytes, cuts) -> tuple:
    """``(messages, error)`` from feeding ``stream`` cut at ``cuts``."""
    decoder = FrameDecoder()
    messages = []
    edges = [0] + sorted({c % (len(stream) + 1) for c in cuts}) \
        + [len(stream)]
    try:
        for lo, hi in zip(edges, edges[1:]):
            messages.extend(decoder.feed(stream[lo:hi]))
    except ProtocolError as exc:
        return messages, exc
    return messages, None


def assert_within_bounds(message) -> None:
    assert isinstance(message, dict) and "type" in message
    if message["type"] != "report_batch":
        return
    batch = message["batch"]
    assert type(batch) is ReportBatch
    n = len(batch)
    for name, dtype in COLUMNS:
        column = getattr(batch, name)
        assert column.dtype == dtype and column.shape == (n,)
    assert np.all(np.isfinite(batch.phase))
    assert np.all((batch.phase >= 0.0) & (batch.phase < TWO_PI + 1e-12))
    assert np.all(batch.channel >= 0) and np.all(batch.antenna >= 1)
    assert np.all(batch.tag_id <= np.uint64(0xFFFFFFFF))
    seqs = message["seqs"]
    assert seqs is None or (seqs.dtype == np.uint64 and seqs.shape == (n,))


def canonical(message):
    if message.get("type") != "report_batch":
        return json.dumps(message, sort_keys=True)
    seqs = message["seqs"]
    return (tuple(getattr(message["batch"], name).tobytes()
                  for name, _ in COLUMNS),
            None if seqs is None else seqs.tobytes())


@settings(max_examples=300, deadline=None)
@given(segments=st.lists(_SEGMENT, max_size=6),
       cuts=st.lists(st.integers(0, 10_000), max_size=8))
def test_any_stream_any_chunking_decodes_or_raises_typed(segments, cuts):
    stream = b"".join(segments)
    messages, error = decode(stream, cuts)
    for message in messages:
        assert_within_bounds(message)
    # A feed() that raises returns nothing, so the messages a chunking
    # delivers before the bad frame depend on where the cuts fell: one
    # run's messages are a prefix of the other's, and equal without an
    # error.
    whole, whole_error = decode(stream, [])
    assert (error is None) == (whole_error is None)
    got = [canonical(m) for m in messages]
    want = [canonical(m) for m in whole]
    if error is None:
        assert got == want
    else:
        shorter = min(len(got), len(want))
        assert got[:shorter] == want[:shorter]


def test_deeply_nested_json_is_a_protocol_error():
    payload = b"[" * 100_000
    with pytest.raises(ProtocolError):
        FrameDecoder().feed(struct.pack("!I", len(payload)) + payload)


def test_report_batch_as_a_json_object_is_refused():
    # report_batch exists on the wire only as a binary column frame; a
    # json object of that type would reach the server without a batch.
    frame = encode_frame({"type": "report_batch", "batch": [1, 2]})
    with pytest.raises(ProtocolError, match="column frame"):
        FrameDecoder().feed(frame)


def test_error_for_a_huge_non_object_payload_stays_small():
    # The server echoes the error text in an error frame, which must
    # itself fit the frame limit.
    payload = b"[" + b"1," * 400_000 + b"1]"
    with pytest.raises(ProtocolError) as info:
        FrameDecoder().feed(struct.pack("!I", len(payload)) + payload)
    assert len(str(info.value)) < 1000
