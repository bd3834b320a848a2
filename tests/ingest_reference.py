"""Test helper: the row-wise ingest reference.

``TagBreathe.feed_batch`` is the engine's one ingest path: it screens a
column batch per stream (unmonitored users, invalid channels, late and
duplicate deliveries) and stores the survivors with their Eq. (3)
deltas in whole-batch passes (``IncrementalEstimator.ingest_streams``).
:func:`feed` keeps the per-report ingest that path replaced, term for
term: the screening one report at a time against its stream's stored
tail, then the store update — stream id, the (stream, channel, antenna)
chain's wrapped delta and segment flag against its tail, one
``WindowIndex.add`` and the every-``_PRUNE_EVERY`` prune check.  It
reads and writes the engine's private store the way
``synthesis_reference.scalar_run`` reads the reader's.

Feeding a stream report by report through :func:`feed` must leave the
store (``engine._inc.snapshot()``), the drop counters and so every
estimate exactly where ``feed_batch`` leaves them, whatever the cut of
the stream into batches.  Tests compare ``feed_batch`` against this
code, never against itself.
"""

from typing import Iterable

import numpy as np

from repro import obs
from repro.core.incremental import _PRUNE_EVERY, IncrementalEstimator
from repro.core.pipeline import TagBreathe
from repro.core.preprocess import DEFAULT_SEGMENT_GAP_S
from repro.reader.tagreport import TagReport
from repro.units import wrap_phase_delta


def feed(engine: TagBreathe, report: TagReport) -> bool:
    """Screen one report and store it; True when it was stored.

    Reports for unmonitored users are dropped silently; invalid-channel,
    duplicate and late reports are dropped and counted in
    ``engine.feed_drop_counts``.
    """
    if engine._user_ids is not None and report.user_id not in engine._user_ids:
        return False
    if report.channel_index >= len(engine._frequencies):
        engine._feed_drops["invalid_channel"] += 1
        return False
    t = report.timestamp_s
    last = engine._inc.stream_tail(report.stream_key)
    if t <= last:
        engine._feed_drops["duplicate" if t == last else "late"] += 1
        return False
    _ingest(engine._inc, report)
    return True


def feed_all(engine: TagBreathe, reports: Iterable[TagReport]) -> int:
    """:func:`feed` each report in order; how many were stored."""
    return sum(feed(engine, report) for report in reports)


def _ingest(store: IncrementalEstimator, report: TagReport) -> None:
    """Store one accepted report with its Eq. (3) delta."""
    state, sid = store._stream_id(report.stream_key)
    t = report.timestamp_s
    phase = report.phase_rad
    chain = (sid, report.channel_index, report.antenna_port)
    slot = state.chain_of.get(chain)
    wd, seg = 0.0, 1
    if slot is None:
        state.chain_of[chain] = len(state.chain_of)
        state.tail_t = np.append(state.tail_t, t)
        state.tail_p = np.append(state.tail_p, phase)
    else:
        gap = t - float(state.tail_t[slot])
        if 0.0 < gap <= DEFAULT_SEGMENT_GAP_S:
            raw = phase - float(state.tail_p[slot])
            wd = wrap_phase_delta(raw)
            seg = 0
            if not -np.pi <= raw < np.pi and obs.enabled():
                obs.counter(
                    "repro_pipeline_phase_unwrap_corrections_total").inc()
        state.tail_t[slot] = t
        state.tail_p[slot] = phase
    state.index.add(t, port=report.antenna_port, rssi=report.rssi_dbm,
                    sid=sid, dop=report.doppler_hz,
                    chan=report.channel_index, phase=phase, wd=wd,
                    seg=seg)
    state.last_t[sid] = t
    state.version += 1
    # The trigger counts accepted reports since the last prune check.
    count = state.since_prune[sid] + 1
    if count >= _PRUNE_EVERY:
        count = 0
        store._prune(state, sid, t - store._retain_s)
    state.since_prune[sid] = count
