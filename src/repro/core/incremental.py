"""The streaming store and the engine's one stage 5.

This module keeps, per user, the engine's one store of streamed
reports, updated once per ``feed_batch()``:

* a :class:`~repro.streams.windowindex.WindowIndex` holding every
  accepted report's columns (time, phase, RSSI, Doppler, channel,
  antenna port, stream id) in time order, equal times in arrival order,
  so a trailing window is two binary searches plus contiguous slices
  instead of a gather + sort;
* two more index columns computed once at ingest — each row's Eq. (3)
  wrapped phase delta against the previous read of its (stream,
  channel, antenna) chain, and its segment-start flag — plus each
  chain's newest ``(time, phase)``, which the next read differences
  against;
* per stream, the newest accepted timestamp (late and duplicate
  screening) and the accepted-rows counter behind the bounded-memory
  prune.

Eq. (3) is one function, :func:`chain_deltas`: the store runs it
against each chain's stored tail, and batch ``process()`` runs it once,
with no tails, over its stage 1 output
(:meth:`IncrementalEstimator.column_track`).  Stage 5 — per-tag
displacement, Hampel and Eq. (6)/(7) fusion — is one segmented pass
over those columns (:func:`window_track`), whichever path computed
them.  Every estimate path runs the engine's one robustness cascade
(``TagBreathe._cascade``: antenna failover, staleness demotion, gap
scoring, the Doppler motion screen, fusion, the estimator lattice) and
passes it this stage 5.  ``tests/stage5_reference.py`` keeps the
per-stream reference (segments, displacement samples, Hampel and
fusion stream by stream over ``TagReport`` lists); the tests hold
batch and tick equal to it bit for bit.  Chains split into segments at
gaps over :data:`~repro.core.preprocess.DEFAULT_SEGMENT_GAP_S`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import obs
from ..config import PipelineConfig, RobustnessConfig
from ..errors import EmptyStreamError, InsufficientDataError
from ..reader.batch import ReportBatch
from ..streams.resample import _HISTOGRAM_BLOCK, _bin_edges
from ..streams.timeseries import TimeSeries
from ..streams.windowindex import WindowIndex
from ..streams.windows import trailing_window_bounds
from ..units import SPEED_OF_LIGHT, wrap_phase_delta
from .fusion import fuse_sample_streams
from .preprocess import (
    DEFAULT_MIN_SEGMENT_LEN,
    DEFAULT_SEGMENT_GAP_S,
    StreamKey,
    chain_order,
    demeaned_segments,
    hampel_streams,
)

#: Accepted reports per stream between bounded-memory prune checks.
_PRUNE_EVERY = 512


class WindowRows(NamedTuple):
    """One user's window rows, time-ordered, as the robustness cascade
    (``TagBreathe._cascade``) reads them: time, antenna port, RSSI,
    Doppler, channel, and a tag-stream label (only the partition it
    induces matters)."""

    t: np.ndarray
    port: np.ndarray
    rssi: np.ndarray
    dop: np.ndarray
    chan: np.ndarray
    sid: np.ndarray


class UserStreamState:
    """One user's streamed reports and the state derived from them.

    ``index`` is the only per-row store: the report columns plus each
    row's Eq. (3) wrapped delta ``wd`` and segment-start flag ``seg``.
    The per-stream lists (``keys``, ``last_t``, ``since_prune``) are
    indexed by the stream id the index stores.  ``chain_of`` maps a
    (stream id, channel, antenna) chain to its slot in ``tail_t`` /
    ``tail_p``, the chain's newest accepted read.

    ``version`` increments on every mutation (accepted feed, prune) and
    is what the pipeline's estimate memo keys on: a tick at an unchanged
    version returns the cached ``UserEstimate`` without touching any of
    this.
    """

    __slots__ = ("index", "keys", "sid_of", "last_t", "since_prune",
                 "chain_of", "tail_t", "tail_p", "version")

    def __init__(self) -> None:
        self.index = WindowIndex({
            "port": np.int64, "rssi": np.float64, "sid": np.int64,
            "dop": np.float64, "chan": np.int64, "phase": np.float64,
            "wd": np.float64, "seg": np.int64,
        })
        self.keys: List[StreamKey] = []
        self.sid_of: Dict[StreamKey, int] = {}
        self.last_t: List[float] = []
        self.since_prune: List[int] = []
        self.chain_of: Dict[Tuple[int, int, int], int] = {}
        self.tail_t = np.empty(0)
        self.tail_p = np.empty(0)
        self.version = 0


class IncrementalEstimator:
    """The per-user streaming store + the O(window-slice) tick.

    Owned by :class:`~repro.core.pipeline.TagBreathe`; fed from
    ``feed_batch()``, queried from ``estimate_user()``.

    Args:
        frequencies_hz: channel-index -> carrier frequency map.
        config: signal-processing parameters (fusion bin width).
        robustness: graceful-degradation thresholds (Hampel rejection).
        retain_s: bounded-memory horizon: a prune check drops a
            stream's rows older than its triggering row's time minus
            this.
    """

    def __init__(
        self,
        frequencies_hz: List[float],
        config: PipelineConfig,
        robustness: RobustnessConfig,
        retain_s: float,
    ) -> None:
        self._config = config
        self._robustness = robustness
        self._retain_s = retain_s
        # Eq. (4)'s displacement coefficient lambda / (4 pi) per channel.
        self._coef = np.array([(SPEED_OF_LIGHT / f) / (4.0 * np.pi)
                               for f in frequencies_hz])
        self._states: Dict[int, UserStreamState] = {}

    # ------------------------------------------------------------------
    # Feed-side maintenance
    # ------------------------------------------------------------------
    def version(self, user_id: int) -> int:
        """The user's state version (-1 before their first report)."""
        state = self._states.get(user_id)
        return -1 if state is None else state.version

    def users(self) -> List[int]:
        """Users with at least one stored report, in first-seen order."""
        return [uid for uid, state in self._states.items()
                if len(state.index)]

    def stream_tail(self, key: StreamKey) -> float:
        """Newest accepted timestamp of a stream (-inf before its first)."""
        state = self._states.get(key[0])
        sid = None if state is None else state.sid_of.get(key)
        return -np.inf if sid is None else state.last_t[sid]

    def nbytes(self, user_id: Optional[int] = None) -> int:
        """Resident numpy bytes of one user's index (or every user's).

        The allocation-backed cost that hibernation and horizon pruning
        exist to bound: every index column, the derived Eq. (3) columns
        included.
        """
        states = (self._states.values() if user_id is None
                  else filter(None, [self._states.get(user_id)]))
        return sum(state.index.nbytes for state in states)

    def snapshot(self) -> Dict[int, tuple]:
        """The whole store as plain python values, for ``==`` checks.

        Per user: the stream keys in stream-id order, every index column
        (time, phase, stream id and the Eq. (3) ``wd``/``seg`` columns
        included), and each stream's tail and prune counter.
        """
        return {
            uid: (list(state.keys), state.index.times.tolist(),
                  {name: state.index.column(name).tolist()
                   for name in ("sid", "phase", "rssi", "dop", "chan",
                                "port", "wd", "seg")},
                  list(state.last_t), list(state.since_prune))
            for uid, state in self._states.items()
        }

    def batch(self, user_id: int, start: int = 0,
              stop: Optional[int] = None) -> ReportBatch:
        """Index rows ``[start, stop)`` of one user as a column batch.

        Rows come in index order: by time, equal times in arrival order.
        Every column is a copy, so the batch outlives later feeds.
        """
        state = self._states.get(user_id)
        if state is None:
            return ReportBatch.from_reports([])
        index = state.index
        rows = slice(start, stop)
        sid = index.column("sid")[rows]
        tags = np.array([key[1] for key in state.keys], dtype=np.uint64)
        return ReportBatch._trusted([
            index.times[rows].copy(), index.column("phase")[rows].copy(),
            index.column("rssi")[rows].copy(),
            index.column("dop")[rows].copy(),
            index.column("chan")[rows].copy(),
            index.column("port")[rows].copy(),
            np.full(sid.shape[0], user_id, dtype=np.uint64), tags[sid]])

    def window(self, user_id: int,
               window_s: float) -> Tuple[UserStreamState, float, float,
                                         int, int]:
        """Locate one user's trailing window in their index.

        Returns:
            ``(state, lo, hi, a, b)``: the window bounds
            ``(lo, hi]`` and the index rows ``[a, b)`` inside them.

        Raises:
            InsufficientDataError: no stored report for the user.
        """
        state = self._states.get(user_id)
        if state is None or not len(state.index):
            raise InsufficientDataError(
                f"no streamed data for user {user_id}")
        lo, hi = trailing_window_bounds(float(state.index.times[-1]),
                                        window_s)
        a, b = state.index.window_bounds(lo, hi)
        return state, lo, hi, a, b

    def _stream_id(self, key: StreamKey) -> Tuple[UserStreamState, int]:
        """The stream's user state and id, creating either on first use."""
        state = self._states.get(key[0])
        if state is None:
            state = UserStreamState()
            self._states[key[0]] = state
        sid = state.sid_of.get(key)
        if sid is None:
            sid = len(state.keys)
            state.sid_of[key] = sid
            state.keys.append(key)
            state.last_t.append(-np.inf)
            state.since_prune.append(0)
        return state, sid

    def ingest_streams(self, groups: List[Tuple[StreamKey, np.ndarray]],
                       times: np.ndarray, phases: np.ndarray,
                       rssis: np.ndarray, dopplers: np.ndarray,
                       channels: np.ndarray, antennas: np.ndarray,
                       prune: bool = True) -> None:
        """Store one batch's accepted rows with their Eq. (3) deltas.

        The caller (``TagBreathe.feed_batch``) has already enforced the
        stream contract per stream: strictly increasing timestamps,
        valid channel index, monitored user.  This ingests every
        surviving row, user by user — stream-id assignment, one Eq. (3)
        pass over the user's chains, one window-index extension — then
        runs the prune checks, leaving state bit-identical to storing
        the rows one at a time in arrival order: stream ids are
        assigned in order of first appearance, each user's index
        receives its rows as a stable sort by time (what row-wise
        ``add`` converges to), and each (stream, channel, antenna)
        chain is differenced in arrival order against its stored tail.
        Every ``_PRUNE_EVERY`` accepted rows of a stream, the stream
        drops its rows older than the bounded-memory horizon.
        ``version`` advances by each user's accepted row count.

        Args:
            groups: per-stream ``(stream_key, rows)`` pairs — ``rows``
                being ascending original-batch indices of that stream's
                accepted rows — sorted by first accepted row, i.e. the
                order row-wise ingest would first see (and create) each
                stream.
            times / phases / rssis / dopplers / channels / antennas: the
                full batch columns (only ``rows`` positions are read).
            prune: run the bounded-memory prune checks.  A checkpoint
                restore replays without them, so the rebuilt index keeps
                every row of the live one; its prune counters restart
                at zero.
        """
        if not groups:
            return
        sids = np.empty(times.shape[0], dtype=np.int64)
        by_user: Dict[int, List[np.ndarray]] = {}
        streams: List[Tuple[UserStreamState, int, np.ndarray]] = []
        for key, rows in groups:
            state, sid = self._stream_id(key)
            sids[rows] = sid
            by_user.setdefault(key[0], []).append(rows)
            streams.append((state, sid, rows))

        for uid, chunks in by_user.items():
            rows_u = (np.sort(np.concatenate(chunks))
                      if len(chunks) > 1 else chunks[0])
            state = self._states[uid]
            tsort = np.argsort(times[rows_u], kind="stable")
            srt = rows_u[tsort]
            t, p, s = times[srt], phases[srt], sids[srt]
            c, a = channels[srt], antennas[srt]
            # A stream's rows are in time order in both arrival and index
            # order, so the chains difference the same in either.
            wd, seg = self._chain_deltas(state, s, t, p, c, a)
            tail = state.index.last_time()
            if tail is None or t[0] >= tail:
                state.index.extend(t, port=a, rssi=rssis[srt], sid=s,
                                   dop=dopplers[srt], chan=c, phase=p,
                                   wd=wd, seg=seg)
            else:
                # A straggler lands before the index tail (cross-stream
                # reordering against previously fed data): rare, row-wise
                # in arrival order.
                for j in np.argsort(tsort).tolist():
                    state.index.add(float(t[j]), port=int(a[j]),
                                    rssi=float(rssis[srt[j]]),
                                    sid=int(s[j]), dop=float(dopplers[srt[j]]),
                                    chan=int(c[j]), phase=float(p[j]),
                                    wd=float(wd[j]), seg=int(seg[j]))
            state.version += rows_u.shape[0]

        # Prune checks: the counter counts accepted rows since the last
        # check (a length modulo would stop firing once a prune moved
        # the length off the modulo phase).  It crosses the threshold at
        # accepted row (_PRUNE_EVERY - since_prune - 1), then every
        # _PRUNE_EVERY rows after; horizons are monotone and pruning is
        # idempotent, so applying only the LAST trigger's horizon leaves
        # the identical final state.
        for state, sid, rows in streams:
            m = rows.shape[0]
            state.last_t[sid] = float(times[rows[-1]])
            if not prune:
                continue
            total = state.since_prune[sid] + m
            state.since_prune[sid] = total % _PRUNE_EVERY
            if total >= _PRUNE_EVERY:
                last_trigger = m - 1 - state.since_prune[sid]
                self._prune(state, sid, float(times[rows[last_trigger]])
                            - self._retain_s)

    def _chain_deltas(self, state: UserStreamState, sids: np.ndarray,
                      times: np.ndarray, phases: np.ndarray,
                      channels: np.ndarray, antennas: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`chain_deltas` for one user's new rows against the
        stored chain tails, which then advance to each chain's last new
        row.  A new chain's tail is its own first row: a zero gap, so a
        segment start.
        """
        order, start = chain_order(sids, channels, antennas)
        starts = np.flatnonzero(start)
        first = order[starts]
        chains = list(zip(sids[first].tolist(), channels[first].tolist(),
                          antennas[first].tolist()))
        slots = np.fromiter(map(state.chain_of.get, chains, repeat(-1)),
                            dtype=np.int64, count=len(chains))
        new = np.flatnonzero(slots < 0)
        if new.size:
            slots[new] = len(state.chain_of) + np.arange(new.size)
            state.chain_of.update(zip([chains[i] for i in new.tolist()],
                                      slots[new].tolist()))
            state.tail_t = np.concatenate((state.tail_t, times[first[new]]))
            state.tail_p = np.concatenate((state.tail_p, phases[first[new]]))
        wd, seg = chain_deltas(times, phases, order, starts,
                               state.tail_t[slots], state.tail_p[slots])
        last = order[np.append(starts[1:], order.shape[0]) - 1]
        state.tail_t[slots] = times[last]
        state.tail_p[slots] = phases[last]
        return wd, seg

    def _prune(self, state: UserStreamState, sid: int,
               horizon_s: float) -> None:
        """Drop one stream's rows older than ``horizon_s``.

        Each of the stream's chains then restarts at its first surviving
        row (``seg = 1``, ``wd = 0``), which is what replaying the
        surviving rows computes — the store stays a pure function of the
        rows it holds.  Ticks never read those values: a window
        re-anchors every chain at its first row.
        """
        index = state.index
        if not index.prune_before(horizon_s,
                                  where=index.column("sid") == sid):
            return
        rows = np.flatnonzero(index.column("sid") == sid)
        order, start = chain_order(index.column("sid")[rows],
                                   index.column("chan")[rows],
                                   index.column("port")[rows])
        index.column("seg")[rows[order[start]]] = 1
        index.column("wd")[rows[order[start]]] = 0.0
        state.version += 1

    def reset(self) -> None:
        """Forget every user's state (streaming reset / restore)."""
        self._states.clear()

    # ------------------------------------------------------------------
    # Tick side
    # ------------------------------------------------------------------
    def window_rows(
        self, user_id: int, window_s: float,
    ) -> Tuple[WindowRows,
               Callable[[np.ndarray], Tuple[TimeSeries, int, int]]]:
        """One user's trailing ``window_s`` seconds, as the cascade reads it.

        Returns:
            ``(rows, track_of)``: views of the window's index columns, and
            stage 5 over a subset of those rows (positions into
            ``rows``) — :func:`window_track` from the stored Eq. (3)
            columns.

        Raises:
            InsufficientDataError: no stored report for the user.
        """
        state, _lo, _hi, a, b = self.window(user_id, window_s)
        index = state.index
        col = index.column
        rows = WindowRows(index.times[a:b], col("port")[a:b],
                          col("rssi")[a:b], col("dop")[a:b],
                          col("chan")[a:b], col("sid")[a:b])
        return rows, self._track_of(user_id, rows, col("phase")[a:b],
                                    col("wd")[a:b], col("seg")[a:b])

    def column_track(
        self, user_id: int, rows: WindowRows, phase: np.ndarray,
    ) -> Callable[[np.ndarray], Tuple[TimeSeries, int, int]]:
        """Stage 5 over rows that never entered the store.

        ``rows`` and ``phase`` are one user's time-ordered columns free
        of re-deliveries (batch stage 1's output).  Their Eq. (3)
        columns are computed here in one :func:`chain_deltas` pass with
        no chain tails, so every chain starts a segment at its first row.

        Returns:
            ``track_of``, as :meth:`window_rows` returns it.
        """
        order, start = chain_order(rows.sid, rows.chan, rows.port)
        wd, seg = chain_deltas(rows.t, phase, order, np.flatnonzero(start))
        return self._track_of(user_id, rows, phase, wd, seg)

    def _track_of(
        self, user_id: int, rows: WindowRows, phase: np.ndarray,
        wd: np.ndarray, seg: np.ndarray,
    ) -> Callable[[np.ndarray], Tuple[TimeSeries, int, int]]:
        """:func:`window_track` over a subset of ``rows`` (positions)."""

        def track_of(keep: np.ndarray) -> Tuple[TimeSeries, int, int]:
            return window_track(
                user_id, rows.t[keep], rows.sid[keep], rows.chan[keep],
                rows.port[keep], phase[keep], wd[keep], seg[keep],
                self._coef, self._robustness, self._config.fusion_bin_s)

        return track_of


def chain_deltas(times: np.ndarray, phases: np.ndarray, order: np.ndarray,
                 starts: np.ndarray, tail_t: Optional[np.ndarray] = None,
                 tail_p: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. (3) over time-ordered rows: the engine's one phase differencing.

    ``order`` lays the rows out as (stream, channel, antenna) chains and
    ``starts`` marks each chain's first position in it
    (:func:`~repro.core.preprocess.chain_order`).  A chain's first row
    is differenced against its tail — ``tail_t``/``tail_p``, one entry
    per chain in chain order, the newest read stored before these rows
    — and every later row against its predecessor.  With no tails each
    chain's first row is its own predecessor.  A row whose gap is not
    positive or exceeds
    :data:`~repro.core.preprocess.DEFAULT_SEGMENT_GAP_S` starts a
    segment; every other row gets its wrapped phase delta.  While
    tracing is on, deltas that the wrap moved (raw difference outside
    ``[-pi, pi)``) are counted in
    ``repro_pipeline_phase_unwrap_corrections_total``.

    Returns:
        ``(wd, seg)`` aligned with the input rows: the wrapped delta (0
        at a segment start) and the segment-start flag (0 or 1).
    """
    t, p = times[order], phases[order]
    prev_t = np.empty_like(t)
    prev_t[1:] = t[:-1]
    prev_t[starts] = t[starts] if tail_t is None else tail_t
    prev_p = np.empty_like(p)
    prev_p[1:] = p[:-1]
    prev_p[starts] = p[starts] if tail_p is None else tail_p
    gap = t - prev_t
    seg = (gap <= 0.0) | (gap > DEFAULT_SEGMENT_GAP_S)
    raw = p - prev_p
    wd = np.empty_like(t)
    wd[order] = np.where(seg, 0.0, wrap_phase_delta(raw))
    if obs.enabled():
        wrapped = int(np.count_nonzero(~seg & ((raw < -np.pi)
                                               | (raw >= np.pi))))
        if wrapped:
            obs.counter(
                "repro_pipeline_phase_unwrap_corrections_total").inc(wrapped)
    seg_rows = np.empty(t.shape[0], dtype=np.int64)
    seg_rows[order] = seg
    return wd, seg_rows


def window_samples(times: np.ndarray, sids: np.ndarray, chans: np.ndarray,
                   ports: np.ndarray, phases: np.ndarray, wd: np.ndarray,
                   seg: np.ndarray, coef: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stream's displacement samples over one window's rows (time
    order, equal times in arrival order).

    Each (stream, channel, antenna) chain is re-anchored at its first
    row and at every stored segment start; segments shorter than
    ``DEFAULT_MIN_SEGMENT_LEN`` drop, the rest are accumulated (Eq. 4)
    and demeaned (the Fig. 6 normalisation) with ``coef`` (channel ->
    lambda / 4 pi).  A stream keeps one sample per timestamp: where
    chains of one stream share a time, the sample of the chain whose
    first row came earliest wins.

    Returns:
        ``(t, values, counts)``: the samples stream after stream, each
        stream in time order, and ``counts[i]`` samples for the stream
        ranked *i* by first appearance in the window — the order
        Eq. (6)/(7) sums streams in.
    """
    n = times.shape[0]
    chain, chain_start = chain_order(sids, chans, ports)
    # The chains lay each stream's rows out together, in stream id order,
    # so a stream's first row in the window is its smallest position.
    chain_sid = sids[chain]
    firsts = np.flatnonzero(np.concatenate(
        ([True], chain_sid[1:] != chain_sid[:-1])))
    present = chain_sid[firsts]
    rank = np.empty(int(present[-1]) + 1, dtype=np.int64)
    rank[present[np.argsort(np.minimum.reduceat(chain, firsts))]] = (
        np.arange(present.shape[0]))
    start = chain_start | (seg[chain] != 0)
    bounds = np.flatnonzero(start)
    lengths = np.empty_like(bounds)
    lengths[:-1] = bounds[1:] - bounds[:-1]
    lengths[-1] = n - bounds[-1]
    kept = lengths >= DEFAULT_MIN_SEGMENT_LEN
    if not kept.any():
        return np.empty(0), np.empty(0), np.zeros(present.shape[0],
                                                  dtype=np.int64)
    member = np.repeat(kept, lengths)
    # Eq. (4) re-anchored: a segment's first row contributes its raw
    # phase, every later row its stored wrapped delta.
    acc = np.where(start, phases[chain], wd[chain])[member]
    values = demeaned_segments(acc, lengths[kept],
                               coef[chans[chain[bounds[kept]]]])
    # Back to time order, one stream after another.
    pos = chain[member]
    stream = rank[sids[pos]]
    by_stream = np.argsort(stream * n + pos)
    pos, values, stream = pos[by_stream], values[by_stream], stream[by_stream]
    t = times[pos]
    tie = (t[1:] == t[:-1]) & (stream[1:] == stream[:-1])
    if tie.any():
        # Only batch rows tie: the store keeps one read per (stream, t).
        origin = np.empty(n, dtype=np.int64)
        origin[chain] = chain[np.flatnonzero(chain_start)][
            np.cumsum(chain_start) - 1]
        run = np.cumsum(np.append(True, ~tie)) - 1
        pick = np.lexsort((origin[pos], run))
        keep = pick[np.append(True, run[pick][1:] != run[pick][:-1])]
        keep.sort()
        t, values, stream = t[keep], values[keep], stream[keep]
    return t, values, np.bincount(stream, minlength=present.shape[0])


def window_track(user_id: int, times: np.ndarray, sids: np.ndarray,
                 chans: np.ndarray, ports: np.ndarray, phases: np.ndarray,
                 wd: np.ndarray, seg: np.ndarray, coef: np.ndarray,
                 robustness: RobustnessConfig,
                 bin_s: float) -> Tuple[TimeSeries, int, int]:
    """Stage 5 over one window: per-tag displacement samples
    (:func:`window_samples`), per-stream Hampel rejection and Eq. (6)/(7)
    fusion.  Batch, the streaming tick and the public ``fused_track``
    all run it; ``tests/stage5_reference.py`` holds the per-stream
    reference it equals bit for bit.

    Returns:
        ``(track, n_rejected, n_samples)``: the fused Eq. (7) track, the
        Hampel rejections, and the displacement samples before
        rejection.

    Raises:
        EmptyStreamError: no stream has two samples to fuse.
    """
    t, values, counts = window_samples(times, sids, chans, ports, phases,
                                       wd, seg, coef)
    n_samples = values.shape[0]
    n_rejected = 0
    if robustness.outlier_rejection:
        flagged = hampel_streams(values, counts, robustness.hampel_window,
                                 robustness.hampel_n_sigmas)
        n_rejected = int(np.count_nonzero(flagged))
        if n_rejected:
            keep = ~flagged
            stream = np.repeat(np.arange(counts.shape[0]), counts)
            t, values = t[keep], values[keep]
            counts = np.bincount(stream[keep], minlength=counts.shape[0])
    track = fused_track(user_id, t, values, counts, bin_s)
    return track, n_rejected, n_samples


def fused_track(user_id: int, times: np.ndarray, values: np.ndarray,
                counts: np.ndarray, bin_s: float) -> TimeSeries:
    """:func:`~repro.core.fusion.fuse_sample_streams`'s Eq. (6)/(7)
    track for streams laid end to end (``counts[i]`` time-ordered samples
    each), bit for bit.

    Streams with two samples or more are binned on the common grid with
    ``bin_mean``'s arithmetic — per-bin sums as differences of each
    stream's zero-prefixed cumulative sum, empty bins interpolated — and
    summed in stream order.

    Raises:
        EmptyStreamError: no stream has two samples.
    """
    live = counts >= 2
    if not live.all():
        if not live.any():
            raise EmptyStreamError(
                f"user {user_id}: no displacement data to fuse")
        member = np.repeat(live, counts)
        times, values, counts = times[member], values[member], counts[live]
    ends = np.cumsum(counts)
    starts = ends - counts
    if counts.max() > _HISTOGRAM_BLOCK:
        # np.histogram bins such streams block by block; so does
        # fuse_sample_streams.
        return fuse_sample_streams(user_id, {
            i: TimeSeries.from_trusted(times[a:b], values[a:b])
            for i, (a, b) in enumerate(zip(starts.tolist(), ends.tolist()))
        }, bin_s=bin_s).track
    edges = _bin_edges(float(times[starts].min()),
                       float(times[ends - 1].max()) + 1e-9, bin_s)
    n_streams, width = counts.shape[0], edges.shape[0] + 1
    stream = np.repeat(np.arange(n_streams), counts)
    # A stream's searchsorted(edges[i], "left") counts its samples with
    # #(edges <= t) <= i; the last edge closes its bin on the right.
    below = np.bincount(stream * width + edges.searchsorted(times, "right"),
                        minlength=n_streams * width).reshape(n_streams, width)
    idx = np.cumsum(below, axis=1)[:, :-1]
    idx[:, -1] += np.bincount(stream[times == edges[-1]], minlength=n_streams)
    # Row i: stream i's zero-prefixed cumulative sum, zero-padded.
    cw = np.zeros((n_streams, int(counts.max()) + 1))
    cw[stream, np.arange(1, times.shape[0] + 1)
       - np.repeat(starts, counts)] = values
    np.cumsum(cw[:, 1:], axis=1, out=cw[:, 1:])
    at_edges = cw[np.arange(n_streams)[:, None], idx]
    n_in = idx[:, 1:] - idx[:, :-1]
    filled = n_in > 0
    # An empty bin's sum is 0.0, and its mean is interpolated below.
    means = (at_edges[:, 1:] - at_edges[:, :-1]) / np.maximum(n_in, 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    track = None
    for binned, full in zip(means, filled):
        if not full.all():
            if not full.any():
                raise EmptyStreamError(
                    "no samples fall inside the requested bin range")
            # np.interp returns a filled bin's own mean at its centre.
            binned = np.interp(centers, centers[full], binned[full])
        track = binned if track is None else track + binned
    return TimeSeries.from_trusted(centers, track)
