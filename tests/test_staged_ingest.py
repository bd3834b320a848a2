"""Staged column ingest and the trusted per-user split.

``UserSession.ingest_batch`` stages its rows and the engine is fed on
the next read of ``session.engine``.  This battery pins that staging is
invisible: a session fed a capture cut into random sub-batches, with
every kind of state read interleaved at random points, publishes the
same estimates and holds the same store, buffers and drop counts as a
twin that feeds each sub-batch the moment it arrives, and as a third
that takes the capture report by report through the row-wise ingest
reference (``tests/ingest_reference.py``).  It also pins
``ReportBatch.split_by_user``: its sub-batches are the rows
``select`` would give, as read-only slices of one gathered copy.
"""

from __future__ import annotations

import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DegradedEstimateWarning, ReaderError
from repro.reader.batch import COLUMNS, BatchBuffer, ReportBatch
from repro.serve import SessionConfig, SessionShard
from repro.serve.session import STAGE_ROWS

from .ingest_reference import feed
from .test_session_frames import USER, _INJECTION, outcome, perturbed

#: The second user whose touch evicts ``USER`` from a one-slot shard.
OTHER = 2

READS = ("none", "estimate", "state", "ingest", "drops", "buffered",
         "park")


@pytest.fixture(autouse=True)
def _quiet_degraded():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        yield


def staged_rows(session) -> int:
    return 0 if session._stage is None else session._stage.rows


def message_text(message):
    """An estimate message as comparable text (NaN-safe)."""
    return json.dumps(message, sort_keys=True)


def state_key(state):
    """A ``session.state()`` dict as a comparable value."""
    state = dict(state)
    return (state.pop("batch").to_reports(), state)


def reference_ingest(session, batch) -> None:
    """The session bookkeeping and the row-wise reference feed, per
    report: what ``ingest_batch`` must be indistinguishable from."""
    for report in batch.to_reports():
        session.reports_in += 1
        session.last_active = time.monotonic()
        t = report.timestamp_s
        if session.first_t is None:
            session.first_t = t
            session.next_due_t = t + session.config.warmup_s
        session.latest_t = (t if session.latest_t is None
                            else max(session.latest_t, t))
        feed(session.engine, report)


class Side:
    """One session driven through a one-slot shard.

    ``mode`` is how rows reach its engine: ``"staged"`` through
    ``ingest_batch`` alone, ``"eager"`` with an engine read after every
    batch (so each batch is its own ``feed_batch``), ``"reference"``
    through :func:`reference_ingest`.
    """

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.shard = SessionShard(0, SessionConfig(max_resident=1),
                                  lambda message: None)

    @property
    def session(self):
        return self.shard.session_for(USER)

    def ingest_batch(self, batch):
        session = self.session
        if self.mode == "reference":
            reference_ingest(session, batch)
        else:
            session.ingest_batch(batch)
        if self.mode == "eager":
            session.engine  # feeds the one staged batch right away
        return message_text(session.maybe_estimate())

    def read(self, kind, report):
        session = self.session
        if kind == "estimate":
            return message_text(session.estimate_now())
        if kind == "state":
            return state_key(session.state())
        if kind == "ingest":
            return self.ingest_batch(ReportBatch.from_reports([report]))
        if kind == "drops":
            return session.engine.feed_drop_counts
        if kind == "buffered":
            return session.engine.buffered_reports(USER)
        if kind == "park":
            self.shard.session_for(OTHER)  # evicts USER
            assert USER in self.shard.hibernated
            return None
        return None


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(injections=st.lists(_INJECTION, max_size=12),
       sizes=st.lists(st.integers(min_value=1, max_value=700),
                      min_size=1, max_size=12),
       reads=st.lists(st.sampled_from(READS), min_size=1, max_size=12))
def test_staged_session_matches_eager_twin(injections, sizes, reads):
    rows = perturbed(injections)
    staged, eager = Side("staged"), Side("eager")
    reference = Side("reference")
    sides = (staged, eager, reference)
    step = at = 0
    while at < len(rows):
        size = sizes[step % len(sizes)]
        kind = reads[step % len(reads)]
        step += 1
        batch = ReportBatch.from_reports(rows[at:at + size])
        at += size
        assert len({side.ingest_batch(batch) for side in sides}) == 1
        report = None
        if kind == "ingest":
            if at >= len(rows):
                continue
            report = rows[at]
            at += 1
        want = reference.read(kind, report)
        assert staged.read(kind, report) == want
        assert eager.read(kind, report) == want
        assert staged_rows(staged.session) <= STAGE_ROWS
    c = reference.session
    for a in (staged.session, eager.session):
        assert (a.reports_in, a.first_t, a.latest_t, a.next_due_t) \
            == (c.reports_in, c.first_t, c.latest_t, c.next_due_t)
        assert a.engine._inc.snapshot() == c.engine._inc.snapshot()
        assert a.engine.buffered_reports(USER) \
            == c.engine.buffered_reports(USER)
        assert a.engine.feed_drop_counts == c.engine.feed_drop_counts
        assert message_text(a.estimate_now(final=True)) \
            == message_text(c.estimate_now(final=True))
        assert outcome(a.engine) == outcome(c.engine)


def test_staging_feeds_the_engine_once_per_read():
    rows = perturbed([])
    session = Side("staged").session
    calls = []
    engine = session._engine
    feed_batch = engine.feed_batch
    engine.feed_batch = lambda batch: calls.append(len(batch)) \
        or feed_batch(batch)

    def ingest(lo, hi, step):
        for start in range(lo, hi, step):
            session.ingest_batch(
                ReportBatch.from_reports(rows[start:start + step]))

    ingest(0, 300, 6)
    assert calls == [] and staged_rows(session) == 300
    session.engine.feed_drop_counts
    assert calls == [300] and staged_rows(session) == 0
    # The cap: STAGE_ROWS rows wait; the next batch feeds them first.
    ingest(300, 300 + STAGE_ROWS, 8)
    assert calls == [300] and staged_rows(session) == STAGE_ROWS
    ingest(300 + STAGE_ROWS, 308 + STAGE_ROWS, 8)
    assert calls == [300, STAGE_ROWS] and staged_rows(session) == 8
    # A batch of STAGE_ROWS rows on its own is fed at once, after the
    # rows staged before it.
    ingest(308 + STAGE_ROWS, 308 + 2 * STAGE_ROWS, STAGE_ROWS)
    assert calls == [300, STAGE_ROWS, 8, STAGE_ROWS]
    assert staged_rows(session) == 0


def test_parked_session_carries_nothing_staged():
    rows = perturbed([])
    side = Side("staged")
    side.session.ingest_batch(ReportBatch.from_reports(rows[:100]))
    side.read("park", None)
    woken = side.session
    assert woken._stage is None
    assert len(woken.engine.buffered_reports(USER)) == 100


# ----------------------------------------------------------------------
# split_by_user: trusted slices equal to select
# ----------------------------------------------------------------------
@st.composite
def batches(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    users = np.array(draw(st.lists(
        st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
        max_size=5, unique=True)), dtype=np.uint64)
    return ReportBatch(
        np.sort(rng.uniform(0.0, 30.0, n)), rng.uniform(0.0, 2 * np.pi, n),
        rng.uniform(-70.0, -40.0, n), rng.normal(0.0, 0.5, n),
        rng.integers(0, 10, n), rng.integers(1, 5, n),
        users[rng.integers(0, users.shape[0], n)],
        rng.integers(0, 2**32, n).astype(np.uint64))


@settings(max_examples=200, deadline=None)
@given(batch=batches())
def test_split_by_user_equals_select(batch):
    before = {name: getattr(batch, name).copy() for name, _ in COLUMNS}
    parts = list(batch.split_by_user())
    firsts = []
    for uid, sub in parts:
        rows = np.flatnonzero(batch.user_id == np.uint64(uid))
        want = batch.select(rows)
        firsts.append(int(rows[0]))
        for name, dtype in COLUMNS:
            got, ref = getattr(sub, name), getattr(want, name)
            assert got.dtype == ref.dtype == dtype
            assert np.array_equal(got, ref)
            assert got.flags.c_contiguous and ref.flags.c_contiguous
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[:1] = ref[:1]
            # A slice of one gathered copy of this batch, never a view
            # of the batch's own (possibly larger) buffer.
            assert not np.shares_memory(got, getattr(batch, name))
            assert got.base is not None
            assert got.base.nbytes == getattr(batch, name).nbytes
        with pytest.raises(AttributeError):
            sub.t = want.t
    # Users by first appearance; every row lands in exactly one part.
    assert firsts == sorted(firsts)
    assert sum(len(sub) for _, sub in parts) == len(batch)
    for name, _ in COLUMNS:
        assert np.array_equal(getattr(batch, name), before[name])


def test_batch_buffer_copies_rows_in_order():
    batch = ReportBatch.from_reports(perturbed([])[:50])
    buffer = BatchBuffer(64)
    for _, sub in batch.split_by_user():
        for lo in range(0, len(sub), 7):
            buffer.append(sub.select(slice(lo, lo + 7)))
    held = buffer.batch()
    assert held.to_reports() == batch.to_reports()
    for name, dtype in COLUMNS:
        assert getattr(held, name).dtype == dtype
        assert not np.shares_memory(getattr(held, name),
                                    getattr(batch, name))
    with pytest.raises(ReaderError):
        buffer.append(batch.select(slice(0, 15)))
    assert len(buffer.batch()) == 50
