"""The streaming store and its O(new-samples) tick.

The batch reference (:meth:`repro.core.pipeline.TagBreathe._process_user`)
re-gathers, re-sorts, re-differences, re-fuses, and re-filters the whole
trailing window on every cadence tick.  This module keeps, per user, the
engine's one store of streamed reports, updated once per ``feed()``:

* a :class:`~repro.streams.windowindex.WindowIndex` holding every
  accepted report's columns (time, phase, RSSI, Doppler, channel,
  antenna port, stream id) in time order, equal times in arrival order,
  so a trailing window is two binary searches plus contiguous slices
  instead of a gather + sort;
* one :class:`~repro.core.preprocess.PhaseChainCursor` per tag stream,
  holding the Eq. (3) wrapped phase deltas computed once at ingest time;
* per stream, the newest accepted timestamp (late and duplicate
  screening) and the accepted-rows counter behind the bounded-memory
  prune.

:meth:`IncrementalEstimator.estimate` then replays the *same* six-stage
algorithm as the batch path — delivery hygiene, antenna failover,
staleness demotion, gap scoring, Hampel + Eq. (6)/(7) fusion, Eq. (5)
extraction — over those columns.  Each stage's arithmetic is arranged to
perform the identical float64 operations on the identical values in the
identical order, so the result is **bit-for-bit equal** to the recompute
path, which runs the batch path over the same index slice
(``tests/test_incremental.py`` and the hypothesis property in
``tests/test_property.py`` pin this).  One deliberate, measure-zero
deviation is documented in DESIGN.md §12: exact antenna-score ties break
toward the lowest port.

What stays out: ``mode="increments"`` cannot tick incrementally — its
:class:`~repro.core.preprocess.DeltaChain` smoothing window spans the
analysis-window boundary, so windowed results are not a function of
windowed reports — and ticks through the recompute path, reading its
rows from this same store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import perf
from ..config import (
    EstimatorConfig,
    MotionConfig,
    PipelineConfig,
    RobustnessConfig,
)
from ..errors import EmptyStreamError, InsufficientDataError
from ..reader.batch import ReportBatch
from ..reader.tagreport import TagReport
from ..streams.timeseries import TimeSeries
from ..streams.windowindex import WindowIndex
from ..streams.windows import trailing_window_bounds
from .degradation import (
    REASON_ANTENNA_FAILOVER,
    REASON_GAPS,
    REASON_OUTLIERS,
    REASON_TAG_DEATH,
)
from .estimators import (
    BreathEstimator,
    EstimationWindow,
    resolve_estimator,
    track_roughness,
)
from .extraction import BreathExtractor, BreathingEstimate
from .fusion import fuse_sample_streams
from .motion import STILL, apply_motion, score_motion
from .preprocess import (
    DEFAULT_MIN_SEGMENT_LEN,
    PhaseChainCursor,
    StreamKey,
    defer_chains,
    hampel_filter,
)
from .quality import quality_score

#: Accepted reports per stream between bounded-memory prune checks.
_PRUNE_EVERY = 512


@dataclass
class TickOutcome:
    """Everything one incremental tick computed, pre-finalisation.

    The pipeline turns this into a ``UserEstimate`` via the same
    finalisation (obs counters, degradation warning, confidence clamp)
    the batch path uses, so the two paths cannot drift there either.
    """

    estimate: BreathingEstimate
    antenna_port: Optional[int]
    tags_fused: int
    read_count: int
    confidence: float
    reasons: List[str]
    n_rejected: int
    n_samples: int
    estimator: str = "zero_crossing"
    motion_gated: bool = False
    motion_score: float = 0.0


class UserStreamState:
    """One user's streamed reports and the state derived from them.

    ``index`` is the only copy of the user's accepted reports; the
    per-stream lists (``keys``, ``cursors``, ``last_t``,
    ``since_prune``) are indexed by the stream id the index stores.

    ``version`` increments on every mutation (accepted feed, prune) and
    is what the pipeline's estimate memo keys on: a tick at an unchanged
    version returns the cached ``UserEstimate`` without touching any of
    this.
    """

    __slots__ = ("index", "cursors", "keys", "sid_of", "last_t",
                 "since_prune", "version")

    def __init__(self) -> None:
        self.index = WindowIndex({
            "port": np.int64, "rssi": np.float64, "sid": np.int64,
            "dop": np.float64, "chan": np.int64, "phase": np.float64,
        })
        self.cursors: List[PhaseChainCursor] = []
        self.keys: List[StreamKey] = []
        self.sid_of: Dict[StreamKey, int] = {}
        self.last_t: List[float] = []
        self.since_prune: List[int] = []
        self.version = 0


class IncrementalEstimator:
    """The per-user streaming store + the O(window-slice) tick.

    Owned by :class:`~repro.core.pipeline.TagBreathe`; fed from
    ``feed()``, queried from ``estimate_user()``.

    Args:
        frequencies_hz: channel-index -> carrier frequency map.
        config: signal-processing parameters (fusion bin width).
        robustness: graceful-degradation thresholds.
        extractor: the shared extraction stage.
        select_antenna: mirror of the engine's antenna-selection flag.
        max_gap_s: segment-splitting gap limit (samples mode).
        retain_s: bounded-memory horizon: a prune check drops a
            stream's rows older than its triggering row's time minus
            this.
    """

    def __init__(
        self,
        frequencies_hz: List[float],
        config: PipelineConfig,
        robustness: RobustnessConfig,
        extractor: BreathExtractor,
        select_antenna: bool,
        max_gap_s: float,
        retain_s: float,
        motion: Optional[MotionConfig] = None,
        est_config: Optional[EstimatorConfig] = None,
        estimators: Optional[Dict[str, BreathEstimator]] = None,
    ) -> None:
        self._frequencies = frequencies_hz
        self._config = config
        self._robustness = robustness
        self._extractor = extractor
        self._select_antenna = select_antenna
        self._max_gap_s = max_gap_s
        self._retain_s = retain_s
        self._motion = motion if motion is not None else MotionConfig()
        self._est_config = (est_config if est_config is not None
                            else EstimatorConfig())
        if estimators is None:
            from .estimators import build_estimators
            estimators = build_estimators(extractor)
        self._estimators = estimators
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
        """Resident numpy bytes of one user's state (or every user's).

        Sums the window-index columns and every chain cursor's packed
        rows — the allocation-backed cost that hibernation and horizon
        pruning exist to bound.
        """
        states = (self._states.values() if user_id is None
                  else filter(None, [self._states.get(user_id)]))
        total = 0
        for state in states:
            total += state.index.nbytes
            for cursor in state.cursors:
                total += cursor.nbytes
        return total

    def snapshot(self) -> Dict[int, tuple]:
        """The whole store as plain python values, for ``==`` checks.

        Per user: the stream keys in stream-id order, every index column
        (time, phase and stream id included), and each stream's tail and
        prune counter.
        """
        return {
            uid: (list(state.keys), state.index.times.tolist(),
                  {name: state.index.column(name).tolist()
                   for name in ("sid", "phase", "rssi", "dop", "chan",
                                "port")},
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
            state.cursors.append(PhaseChainCursor(
                self._frequencies, max_gap_s=self._max_gap_s))
            state.last_t.append(-np.inf)
            state.since_prune.append(0)
        return state, sid

    def ingest(self, report: TagReport) -> None:
        """Store one accepted report and difference it at its cursor.

        The caller (``TagBreathe.feed``) has already enforced the stream
        contract: per-stream strictly-increasing timestamps, valid
        channel index, monitored user.  Every ``_PRUNE_EVERY`` accepted
        reports of a stream, the stream drops its rows older than the
        bounded-memory horizon.
        """
        state, sid = self._stream_id(report.stream_key)
        t = report.timestamp_s
        state.index.add(t, port=report.antenna_port, rssi=report.rssi_dbm,
                        sid=sid, dop=report.doppler_hz,
                        chan=report.channel_index, phase=report.phase_rad)
        state.cursors[sid].push(report)
        state.last_t[sid] = t
        state.version += 1
        # The trigger counts accepted reports since the last prune check
        # — a length modulo would stop firing once a prune moved the
        # length off the modulo phase.
        count = state.since_prune[sid] + 1
        if count >= _PRUNE_EVERY:
            count = 0
            self._prune(state, sid, t - self._retain_s)
        state.since_prune[sid] = count

    def ingest_streams(self, groups: List[Tuple[StreamKey, np.ndarray]],
                       users: np.ndarray, tags: np.ndarray,
                       times: np.ndarray, phases: np.ndarray,
                       rssis: np.ndarray, dopplers: np.ndarray,
                       channels: np.ndarray,
                       antennas: np.ndarray) -> None:
        """Vectorized :meth:`ingest` of one batch's accepted rows.

        The caller (``TagBreathe.feed_batch``) has already screened the
        batch per stream; this ingests every surviving row across all
        users in three passes — stream-id assignment, per-user window
        index extension, and one global Eq. (3) chain pass — then runs
        the prune checks, leaving state bit-identical to calling
        :meth:`ingest` row by row in arrival order: stream ids are
        assigned in order of first appearance, each user's index
        receives its rows as a stable sort by time (what row-wise
        ``add`` converges to), and each (stream, channel, antenna) chain
        is differenced in one shot against its cached tail.  ``version``
        advances by each user's accepted row count.

        Args:
            groups: per-stream ``(stream_key, rows)`` pairs — ``rows``
                being ascending original-batch indices of that stream's
                accepted rows — sorted by first accepted row, i.e. the
                order row-wise ingest would first see (and create) each
                stream.
            users / tags / times / phases / rssis / dopplers / channels
                / antennas: the full batch columns (only ``rows``
                positions are read).
        """
        if not groups:
            return
        sids = np.empty(times.shape[0], dtype=np.int64)
        cursor_of: Dict[StreamKey, PhaseChainCursor] = {}
        by_user: Dict[int, List[np.ndarray]] = {}
        streams: List[Tuple[UserStreamState, int, np.ndarray]] = []
        for key, rows in groups:
            state, sid = self._stream_id(key)
            sids[rows] = sid
            cursor_of[key] = state.cursors[sid]
            by_user.setdefault(key[0], []).append(rows)
            streams.append((state, sid, rows))

        for uid, chunks in by_user.items():
            rows_u = (np.sort(np.concatenate(chunks))
                      if len(chunks) > 1 else chunks[0])
            state = self._states[uid]
            tu = times[rows_u]
            tsort = np.argsort(tu, kind="stable")
            tail = state.index.last_time()
            if tail is None or tu[tsort[0]] >= tail:
                srt = rows_u[tsort]
                state.index.extend(tu[tsort], port=antennas[srt],
                                   rssi=rssis[srt], sid=sids[srt],
                                   dop=dopplers[srt], chan=channels[srt],
                                   phase=phases[srt])
            else:
                # A straggler lands before the index tail (cross-stream
                # reordering against previously fed data): rare, row-wise
                # in arrival order.
                for i in rows_u.tolist():
                    state.index.add(float(times[i]), port=int(antennas[i]),
                                    rssi=float(rssis[i]), sid=int(sids[i]),
                                    dop=float(dopplers[i]),
                                    chan=int(channels[i]),
                                    phase=float(phases[i]))
            state.version += rows_u.shape[0]

        # Global chain pass: one stable lexsort arranges every accepted
        # row as contiguous (user, tag, channel, antenna) runs, each in
        # arrival order; every chain is then extended from one
        # vectorized differencing pass.
        acc = (np.sort(np.concatenate([rows for _, rows in groups]))
               if len(groups) > 1 else groups[0][1])
        au = users[acc]
        atg = tags[acc]
        ach = channels[acc]
        aan = antennas[acc]
        order = np.lexsort((aan, ach, atg, au))
        gacc = acc[order]
        su = au[order]
        stg = atg[order]
        sch = ach[order]
        san = aan[order]
        m = gacc.shape[0]
        is_start = np.empty(m, dtype=bool)
        is_start[0] = True
        np.not_equal(su[1:], su[:-1], out=is_start[1:])
        is_start[1:] |= ((stg[1:] != stg[:-1]) | (sch[1:] != sch[:-1])
                         | (san[1:] != san[:-1]))
        starts = np.flatnonzero(is_start)
        cursors = [cursor_of[(u, tg)]
                   for u, tg in zip(su[starts].tolist(),
                                    stg[starts].tolist())]
        gkeys = list(zip(sch[starts].tolist(), san[starts].tolist()))
        defer_chains(cursors, gkeys, starts, times[gacc], phases[gacc],
                     self._max_gap_s)

        # Prune checks, shared with ingest(): the counter crosses the
        # threshold at accepted row (_PRUNE_EVERY - since_prune - 1),
        # then every _PRUNE_EVERY rows after; horizons are monotone and
        # pruning is idempotent, so applying only the LAST trigger's
        # horizon leaves the identical final state.
        for state, sid, rows in streams:
            m = rows.shape[0]
            state.last_t[sid] = float(times[rows[-1]])
            total = state.since_prune[sid] + m
            state.since_prune[sid] = total % _PRUNE_EVERY
            if total >= _PRUNE_EVERY:
                last_trigger = m - 1 - state.since_prune[sid]
                self._prune(state, sid, float(times[rows[last_trigger]])
                            - self._retain_s)

    def _prune(self, state: UserStreamState, sid: int,
               horizon_s: float) -> None:
        """Drop one stream's rows older than ``horizon_s``."""
        where = state.index.column("sid") == sid
        if state.index.prune_before(horizon_s, where=where):
            state.cursors[sid].prune_before(horizon_s)
            state.version += 1

    def reset(self) -> None:
        """Forget every user's state (streaming reset / restore)."""
        self._states.clear()

    # ------------------------------------------------------------------
    # Tick side
    # ------------------------------------------------------------------
    def estimate(self, user_id: int, window_s: float,
                 previous_estimator: Optional[str] = None,
                 estimator_override: Optional[str] = None) -> TickOutcome:
        """One incremental tick over the trailing ``window_s`` seconds.

        Args:
            user_id: the user to estimate.
            window_s: trailing-window length.
            previous_estimator: the user's fallback hysteresis memory
                (the estimator that produced their previous streaming
                estimate), owned by the pipeline.
            estimator_override: per-call estimator override, bypassing
                ``auto`` selection.

        Raises:
            InsufficientDataError: no streamed data for the user, or the
                window holds too little signal (same contract and wording
                as the recompute path).
        """
        state, lo, hi, a, b = self.window(user_id, window_s)
        rb = self._robustness
        reasons: List[str] = []
        confidence = 1.0

        with perf.stage("pipeline.tick.window"):
            index = state.index
            times = index.times[a:b]
            ports = index.column("port")[a:b]
            rssis = index.column("rssi")[a:b]
            sids = index.column("sid")[a:b]
            dops = index.column("dop")[a:b]
            chans = index.column("chan")[a:b]
            # Stage 1 (delivery hygiene) is a no-op here by construction:
            # feed() enforces per-stream order and dedup and the index
            # keeps global time order, so sanitize_reports would find
            # nothing to count.

            # The motion screen (stage 4b) scores the *full* sanitized
            # window — all antennas, pre-demotion — exactly like the
            # batch path: antenna selection exists for phase continuity,
            # while Doppler motion evidence is antenna-agnostic.
            m_times = times
            m_dops = dops

            # Stage 2: antenna selection with failover past dead ports.
            antenna_port: Optional[int] = None
            unique_ports = np.unique(ports)
            if self._select_antenna and unique_ports.size > 1:
                antenna_port, failed_over = _select_port(
                    times, ports, rssis, unique_ports, rb.antenna_stale_s)
                if failed_over:
                    reasons.append(REASON_ANTENNA_FAILOVER)
                    confidence *= 0.85
                keep = ports == antenna_port
                times = times[keep]
                sids = sids[keep]
                ports = ports[keep]
                rssis = rssis[keep]
                dops = dops[keep]
                chans = chans[keep]
            elif unique_ports.size == 1:
                antenna_port = int(unique_ports[0])

            # Stage 3: staleness watchdog — demote dead tag streams.
            unique_sids = np.unique(sids)
            if times.shape[0] and unique_sids.size > 1:
                t_lat = float(times[-1])
                dead = [
                    s for s in unique_sids
                    if float(times[sids == s][-1]) < t_lat - rb.stale_stream_s
                ]
                if dead and len(dead) < unique_sids.size:
                    reasons.append(REASON_TAG_DEATH)
                    confidence *= max(
                        0.5,
                        (unique_sids.size - len(dead)) / unique_sids.size)
                    keep = ~np.isin(sids, dead)
                    times = times[keep]
                    sids = sids[keep]
                    ports = ports[keep]
                    rssis = rssis[keep]
                    dops = dops[keep]
                    chans = chans[keep]

            # Stage 4: coverage — long holes in the read times.
            if times.shape[0] > 1:
                span = max(float(times[-1]) - float(times[0]), 1e-9)
                gaps = np.diff(times)
                # Sequential python sum, matching the batch path's
                # generator sum float for float (np.sum is pairwise).
                excess = sum(gaps[gaps > rb.gap_warn_s].tolist())
                if excess > 0.0:
                    reasons.append(REASON_GAPS)
                    confidence *= max(0.5, 1.0 - excess / span)

            # Stage 4b: Doppler motion screen (same pure function, same
            # full-window pre-selection arrays as the batch path).
            motion = STILL
            if self._motion.enabled and m_times.shape[0]:
                motion = score_motion(m_times, m_dops, self._motion)
                confidence = apply_motion(motion, reasons, confidence)

        with perf.stage("pipeline.tick.fuse"):
            # Stage 5: per-tag windowed displacement (from the feed-time
            # chains) + Hampel + Eq. (6)/(7) fusion.  Stream order is the
            # first appearance in the surviving windowed reports, exactly
            # like group_reports_by_stream on the batch side.
            _, first_pos = np.unique(sids, return_index=True)
            order = sids[np.sort(first_pos)]
            per_tag: Dict[StreamKey, TimeSeries] = {}
            n_rejected = 0
            for s in order:
                sid = int(s)
                stream = state.cursors[sid].window_displacement(
                    lo, hi, antenna_port=antenna_port,
                    min_segment_len=DEFAULT_MIN_SEGMENT_LEN)
                if rb.outlier_rejection and stream:
                    stream, rejected = hampel_filter(
                        stream, window=rb.hampel_window,
                        n_sigmas=rb.hampel_n_sigmas)
                    n_rejected += rejected
                per_tag[state.keys[sid]] = stream
            n_samples = sum(len(s) for s in per_tag.values()) + n_rejected
            try:
                fused = fuse_sample_streams(
                    user_id, per_tag, bin_s=self._config.fusion_bin_s)
            except EmptyStreamError as exc:
                raise InsufficientDataError(str(exc)) from exc
            if n_samples and n_rejected / n_samples > rb.outlier_warn_fraction:
                reasons.append(REASON_OUTLIERS)
                confidence *= max(0.7, 1.0 - 5.0 * n_rejected / n_samples)

        with perf.stage("pipeline.tick.extract"):
            # Stage 6: estimator selection + extraction (DESIGN.md §16),
            # identical arithmetic and ordering to the batch path.
            roughness = track_roughness(fused.track)
            chosen, est_factor = resolve_estimator(
                self._est_config, roughness, previous_estimator,
                estimator_override, reasons)
            confidence *= est_factor
            # ``tag=sids`` labels the same per-tag groups the batch path
            # labels with tag_id — only the partition is contracted.
            est_window = EstimationWindow(
                track=fused.track, times=times, rssi=rssis,
                channel=chans, antenna=ports, tag=sids)
            estimate = self._estimators[chosen].estimate(est_window)

        return TickOutcome(
            estimate=estimate,
            antenna_port=antenna_port,
            tags_fused=len(per_tag),
            read_count=int(times.shape[0]),
            confidence=confidence,
            reasons=reasons,
            n_rejected=n_rejected,
            n_samples=n_samples,
            estimator=chosen,
            motion_gated=motion.gated,
            motion_score=motion.score,
        )


def _select_port(times: np.ndarray, ports: np.ndarray, rssis: np.ndarray,
                 unique_ports: np.ndarray,
                 stale_s: float) -> Tuple[int, Tuple[int, ...]]:
    """Column-store twin of ``select_antenna_with_failover``.

    Same score (via the shared :func:`~repro.core.quality.quality_score`),
    same span and liveness definitions; exact score ties break toward the
    lowest live port (the batch path's small-int set iteration does the
    same in practice — a documented measure-zero deviation otherwise).
    """
    span = max(float(times[-1]) - float(times[0]), 1e-9)
    t_latest = float(times[-1])
    scores: Dict[int, float] = {}
    last_seen: Dict[int, float] = {}
    for p in unique_ports:
        port = int(p)
        selected = ports == p
        port_times = times[selected]
        scores[port] = quality_score(
            int(selected.sum()), span, float(np.mean(rssis[selected])))
        last_seen[port] = float(port_times[-1])
    live = [p for p in sorted(last_seen)
            if last_seen[p] >= t_latest - stale_s]
    chosen = max(live, key=lambda p: scores[p])
    failed_over = tuple(sorted(
        p for p in scores
        if p not in live and scores[p] > scores[chosen]
    ))
    return chosen, failed_over
