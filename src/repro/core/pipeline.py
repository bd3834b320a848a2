"""The end-to-end TagBreathe engine — Fig. 10's workflow as a public API.

    Data Collection -> Data Fusion -> Vital Sign Extraction

Batch mode (:meth:`TagBreathe.process`) consumes a full LLRP capture and
returns per-user estimates; streaming mode
(:meth:`TagBreathe.feed_batch` with :meth:`TagBreathe.estimate_user`)
consumes reports as they arrive, the way the paper's prototype
visualised breathing "in realtime" (Section V).

Every path runs one robustness cascade (:meth:`TagBreathe._cascade`,
DESIGN.md §12) over one user's time-ordered column arrays: antenna
failover, stale-tag demotion, gap coverage, the Doppler motion screen,
fusion, and the estimator lattice.  Every path also runs one stage 5,
:func:`repro.core.incremental.window_track`: per-tag displacement
samples from Eq. (3) columns, Hampel rejection and Eq. (6)/(7) fusion.
The paths differ only in where those columns come from.  Batch mode
converts the capture to columns once, runs stage 1
(:func:`sanitize_columns`: stable time sort, late and duplicate
deliveries counted) over each user's delivered rows, and computes their
Eq. (3) columns in one pass.  The streaming store needs no stage 1:
``feed_batch()`` stores each report once in a per-user, timestamp-ordered
window index (the engine's only copy of streamed reports, which
checkpoints read back out) with its Eq. (3) phase delta, dropping late
and duplicate reports as it goes, and the tick
(:meth:`TagBreathe.estimate_user`) slices the window out of it.  A tick
with no new reports returns the memoized ``UserEstimate`` without
touching the filter.  All paths share one trailing-window definition:
``(t_latest - window_s, t_latest]``
(:func:`repro.streams.windows.trailing_window_bounds`).

Stage 5 preprocesses phase one way: per-channel unwrapped phase
segments, offset-normalised and fused by binned averaging (DESIGN.md §6
item 1).  Every sample carries only its own noise — no dwell-boundary
random walk — and channel recurrences preserve continuity even when
reads are sparse (30 contending tags, 90-degree orientation).  The
paper-literal per-read increment form runs only as the preprocessing
ablation's arm (``benchmarks/test_ablation_preprocessing.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple, Union)

import numpy as np

from .. import obs
from ..config import (
    EstimatorConfig,
    MotionConfig,
    PipelineConfig,
    RobustnessConfig,
)
from ..errors import (
    DegradedEstimateWarning,
    EmptyStreamError,
    InsufficientDataError,
    StreamError,
)
from ..reader.batch import ReportBatch
from ..reader.tagreport import TagReport
from ..streams.timeseries import TimeSeries
from ..streams.windows import trailing_window_bounds
from .degradation import (
    DEGRADED_REASONS,
    REASON_ANTENNA_FAILOVER,
    REASON_DISORDERED,
    REASON_GAPS,
    REASON_MOTION,
    REASON_OUTLIERS,
    REASON_PHASE_DEGRADED,
    REASON_RSS_FALLBACK,
    REASON_TAG_DEATH,
)
from .estimators import (
    EstimationWindow,
    build_estimators,
    resolve_estimator,
    track_roughness,
)
from .extraction import BreathExtractor, BreathingEstimate
from .incremental import IncrementalEstimator, WindowRows
from .motion import STILL, MotionReport, apply_motion, score_motion
from .preprocess import StreamKey, default_frequencies
from .quality import dead_streams, select_port

__all__ = [
    "FEED_DROP_KEYS", "DEGRADED_REASONS",
    "REASON_DISORDERED", "REASON_GAPS", "REASON_TAG_DEATH",
    "REASON_ANTENNA_FAILOVER", "REASON_OUTLIERS",
    "REASON_MOTION", "REASON_PHASE_DEGRADED", "REASON_RSS_FALLBACK",
    "sanitize_columns", "UserEstimate", "TagBreathe",
]

#: The stable key set of :attr:`TagBreathe.feed_drop_counts` — the
#: per-cause accounting of reports the streaming entry point discarded.
#: ``late``: older than the newest buffered report of the same tag
#: stream; ``duplicate``: identical timestamp on the same stream (a
#: re-delivery); ``invalid_channel``: channel index outside the
#: configured hop table.  :mod:`repro.serve` forwards these counters in
#: its ``estimate`` messages so dashboards can watch them like
#: packet-loss stats.
FEED_DROP_KEYS = ("late", "duplicate", "invalid_channel")

def sanitize_columns(t: np.ndarray, tag: np.ndarray, port: np.ndarray,
                     chan: np.ndarray) -> Tuple[np.ndarray, int, int]:
    """Stage 1, delivery hygiene: restore time order, drop re-deliveries.

    Real LLRP feeds (and :mod:`repro.faults`) deliver reports late,
    reordered, and twice.  Over one user's columns, in delivery order:

    * out-of-order reports are re-sorted into place (stable, so equal
      timestamps keep their delivery order); the adjacent inversions in
      delivery order are counted;
    * re-deliveries — same tag, timestamp, antenna, and channel — are
      dropped and counted, keeping the first.  Copies need not be
      adjacent after the sort (another stream's read can share the
      timestamp), so they are matched by key.

    Returns:
        ``(rows, n_disordered, n_duplicates)``: the delivery positions
        of the clean rows, in time order.
    """
    n = t.shape[0]
    n_disordered = int(np.count_nonzero(t[1:] < t[:-1]))
    order = (np.argsort(t, kind="stable") if n_disordered
             else np.arange(n))
    keys = (chan[order], port[order], tag[order], t[order])
    # lexsort is stable: copies of one key stay in time (then delivery)
    # order, so every copy after the first is a duplicate.
    by_key = np.lexsort(keys)
    same = np.ones(max(n - 1, 0), dtype=bool)
    for key in keys:
        k = key[by_key]
        same &= k[1:] == k[:-1]
    n_duplicates = int(np.count_nonzero(same))
    if not n_duplicates:
        return order, n_disordered, 0
    fresh = np.ones(n, dtype=bool)
    fresh[by_key[1:][same]] = False
    return order[fresh], n_disordered, n_duplicates


@dataclass(frozen=True)
class UserEstimate:
    """One user's monitoring result.

    Attributes:
        user_id: the monitored user.
        estimate: the extraction output (rate, signal, crossings).
        antenna_port: the antenna whose data was used (None = all fused).
        tags_fused: how many tag streams contributed.
        read_count: how many low-level reads backed the estimate.
        confidence: 1.0 for a clean, fully-backed estimate; lowered
            multiplicatively for every degradation the pipeline had to
            survive (report loss, dead tags, antenna failover, rejected
            outliers, detected motion).  Callers gate on this to tell a
            trustworthy estimate from a best-effort one.
        degraded_reasons: which degradations occurred, as stable machine
            names from :data:`DEGRADED_REASONS` (empty = clean).
        estimator: which :class:`~repro.core.estimators.BreathEstimator`
            produced the rate — ``"zero_crossing"`` (the paper's path),
            ``"spectral"``, or ``"rss"`` (the UbiBreathe-style
            fallback; accompanied by ``rss_fallback`` in
            ``degraded_reasons`` when ``auto`` mode chose it).
        motion_gated: the Doppler motion detector found gross body
            motion extensive or recent enough that the rate over this
            window should not be trusted at all (DESIGN.md §16);
            confidence is pinned low when set.
        motion_score: the detector's largest bin z-score (0.0 when
            still or the detector is disabled; walking-scale motion
            scores in the tens).
    """

    user_id: int
    estimate: BreathingEstimate
    antenna_port: Optional[int]
    tags_fused: int
    read_count: int
    confidence: float = 1.0
    degraded_reasons: Tuple[str, ...] = field(default=())
    estimator: str = "zero_crossing"
    motion_gated: bool = False
    motion_score: float = 0.0

    @property
    def rate_bpm(self) -> float:
        """Shortcut to the headline breathing rate."""
        return self.estimate.rate_bpm

    @property
    def degraded(self) -> bool:
        """True when the estimate was produced in degraded mode."""
        return bool(self.degraded_reasons)


class TagBreathe:
    """The TagBreathe breath-monitoring engine.

    Args:
        frequencies_hz: channel-index -> carrier frequency map of the
            reader's hop table (defaults to the 10-channel FCC plan).
        config: signal-processing parameters (cutoff, buffer M, ...).
        user_ids: when given, only these users are monitored; all other
            EPCs (e.g. item-labelling tags) are ignored — the Fig. 14
            setup.
        filter_type: "fft" (paper default) or "fir".
        select_antenna: restrict each user's data to the best-quality
            antenna (Section IV-D-3) when reads arrive via several
            antennas.
        robustness: graceful-degradation thresholds (Hampel rejection,
            staleness watchdog, antenna failover); defaults preserve
            clean-capture output bit for bit.
        motion: Doppler motion-detection thresholds (DESIGN.md §16);
            defaults never flag a clean still-subject capture.
        estimators: estimator selection and fallback hysteresis; the
            default ``auto`` runs the paper's zero-crossing path with
            RSS fallback under degraded phase, which on clean captures
            is bit-identical to the pre-lattice pipeline.

    Raises:
        ExtractionError: on an unknown filter type.
    """

    def __init__(
        self,
        frequencies_hz: Optional[Sequence[float]] = None,
        config: Optional[PipelineConfig] = None,
        user_ids: Optional[Set[int]] = None,
        filter_type: str = "fft",
        select_antenna: bool = True,
        robustness: Optional[RobustnessConfig] = None,
        motion: Optional[MotionConfig] = None,
        estimators: Optional[EstimatorConfig] = None,
    ) -> None:
        self._frequencies = list(
            frequencies_hz if frequencies_hz is not None else default_frequencies()
        )
        self._config = config if config is not None else PipelineConfig()
        self._user_ids = set(user_ids) if user_ids is not None else None
        # The monitored users as a column, for masking a batch's user_id.
        self._user_id_array = (
            None if self._user_ids is None else
            np.fromiter(self._user_ids, dtype=np.uint64,
                        count=len(self._user_ids)))
        self._extractor = BreathExtractor(self._config, filter_type=filter_type)
        self._select_antenna = select_antenna
        self._robustness = robustness if robustness is not None else RobustnessConfig()
        self._motion = motion if motion is not None else MotionConfig()
        self._est_config = (estimators if estimators is not None
                            else EstimatorConfig())
        # The estimator lattice: every rate-producing path behind one
        # interface, sharing the extraction stage (DESIGN.md §16).
        self._estimators = build_estimators(self._extractor)
        # Per-user fallback hysteresis memory for auto mode: the
        # estimator that produced the user's previous *streaming*
        # estimate.  Batch process() stays stateless (previous=None).
        self._active_estimator: Dict[int, str] = {}
        # Tolerate-and-count accounting of reports feed_batch() had to
        # discard.
        self._feed_drops: Dict[str, int] = dict.fromkeys(FEED_DROP_KEYS, 0)
        # Drops incurred while restore_streaming replayed a snapshot —
        # kept apart from live-traffic counters (see last_restore_drop_counts).
        self._last_restore_drops: Dict[str, int] = dict.fromkeys(FEED_DROP_KEYS, 0)
        # The streaming store: per-user window index of every accepted
        # report + feed-time phase chains.  Bounded memory: each stream
        # keeps ~4 analysis windows of reports.
        self._inc = IncrementalEstimator(
            self._frequencies, self._config, self._robustness,
            retain_s=4.0 * self._window_s())
        # Memo key: (user_id, window_s, per-call estimator override).
        self._tick_memo: Dict[Tuple[int, float, Optional[str]],
                              Tuple[int, str, object]] = {}

    @property
    def config(self) -> PipelineConfig:
        """The signal-processing configuration in force."""
        return self._config

    @property
    def robustness(self) -> RobustnessConfig:
        """The graceful-degradation thresholds in force."""
        return self._robustness

    @property
    def extractor(self) -> BreathExtractor:
        """The extraction stage (exposed for inspection/ablation)."""
        return self._extractor

    # ------------------------------------------------------------------
    # Batch mode
    # ------------------------------------------------------------------
    def process(self, reports: Iterable[TagReport],
                window_s: Optional[float] = None) -> Dict[int, UserEstimate]:
        """Process a full capture; estimates for every estimable user.

        Users without enough data (fully blocked LOS, too few crossings)
        are silently absent — the paper's "does not report" behaviour.
        Use :meth:`process_detailed` to see why a user is missing.

        Args:
            reports: the capture to process.
            window_s: when given, restrict each user to their trailing
                ``(t_latest - window_s, t_latest]`` window — the same
                pinned boundary semantics :meth:`estimate_user` applies
                (:func:`repro.streams.windows.trailing_window_bounds`),
                so batch and streamed results over identical reports are
                directly comparable.  Default: the whole capture.
        """
        estimates, _failures = self.process_detailed(reports,
                                                     window_s=window_s)
        return estimates

    def process_detailed(
        self, reports: Iterable[TagReport],
        window_s: Optional[float] = None,
    ) -> Tuple[Dict[int, UserEstimate], Dict[int, str]]:
        """Like :meth:`process`, also returning per-user failure reasons.

        A :class:`~repro.reader.batch.ReportBatch` (what ``Reader.run``
        and ``run_scenario`` return) is used as given; other reports are
        packed into columns first.
        """
        with obs.span("pipeline.process"):
            batch = ReportBatch.from_reports(reports)
            if self._user_id_array is not None:
                batch = batch.select(
                    np.isin(batch.user_id, self._user_id_array))
            by_user: Dict[int, ReportBatch] = {}
            for user_id, cols in batch.split_by_user():
                if window_s is not None:
                    lo, hi = trailing_window_bounds(float(cols.t.max()),
                                                    window_s)
                    cols = cols.select((cols.t > lo) & (cols.t <= hi))
                by_user[user_id] = cols
            obs.counter("repro_events_total",
                        name="pipeline.reports_processed").inc(
                sum(len(cols) for cols in by_user.values()))
            estimates: Dict[int, UserEstimate] = {}
            failures: Dict[int, str] = {}
            for user_id, cols in sorted(by_user.items()):
                try:
                    with obs.span("pipeline.user", user_id=user_id) as span:
                        est = self._batch_estimate(user_id, cols)
                        span.set(rate_bpm=est.rate_bpm,
                                 confidence=est.confidence,
                                 tags_fused=est.tags_fused,
                                 reads=est.read_count,
                                 degraded=list(est.degraded_reasons))
                    estimates[user_id] = est
                except InsufficientDataError as exc:
                    failures[user_id] = str(exc)
            if self._user_ids is not None:
                for user_id in self._user_ids - set(by_user):
                    failures[user_id] = "no reads received (tag unreadable?)"
            obs.counter("repro_events_total",
                        name="pipeline.users_estimated").inc(len(estimates))
        return estimates, failures

    def _batch_estimate(self, user_id: int, cols: ReportBatch) -> UserEstimate:
        """Stage 1 over one user's delivered rows, then the cascade."""
        clean, n_bad, track_of = self._batch_rows(user_id, cols)
        reasons: List[str] = []
        confidence = 1.0
        if n_bad:
            reasons.append(REASON_DISORDERED)
            confidence *= max(0.6, 1.0 - n_bad / max(1, len(cols)))
        return self._cascade(user_id, clean, track_of, warn_stacklevel=4,
                             reasons=reasons, confidence=confidence)

    def _batch_rows(
        self, user_id: int, cols: ReportBatch,
    ) -> Tuple[WindowRows, int,
               Callable[[np.ndarray], Tuple[TimeSeries, int, int]]]:
        """Batch stage 1 and the stage 5 the cascade runs over its output.

        Tag streams are keyed on (user, tag); stage 1
        (:func:`sanitize_columns`) restores time order and drops
        re-deliveries.

        Returns:
            ``(rows, n_bad, track_of)``: the clean rows, the disordered
            plus duplicate deliveries, and stage 5 over a subset of the
            rows.

        Raises:
            StreamError: a channel index outside the hop table.
        """
        bad = np.flatnonzero(cols.channel >= len(self._frequencies))
        if bad.size:
            raise StreamError(
                f"channel index {int(cols.channel[bad[0]])} outside "
                f"frequency map of {len(self._frequencies)} channels")
        # Dense (user, tag) stream labels: only the partition matters.
        order = np.lexsort((cols.tag_id, cols.user_id))
        user, tag = cols.user_id[order], cols.tag_id[order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = (user[1:] != user[:-1]) | (tag[1:] != tag[:-1])
        sid = np.empty(order.shape[0], dtype=np.int64)
        sid[order] = np.cumsum(first) - 1
        rows, n_disordered, n_duplicates = sanitize_columns(
            cols.t, sid, cols.antenna, cols.channel)
        clean = WindowRows(cols.t[rows], cols.antenna[rows], cols.rssi[rows],
                           cols.doppler[rows], cols.channel[rows], sid[rows])
        track_of = self._inc.column_track(user_id, clean, cols.phase[rows])
        return clean, n_disordered + n_duplicates, track_of

    def fused_track(self, user_id: int, reports: ReportBatch) -> TimeSeries:
        """The fused displacement track of ``user_id``'s reports.

        Exposed for diagnostics and the characterisation benchmarks
        (Figs. 6-8 plot exactly this series and its derivatives).  It is
        batch stage 1 and stage 5 over the given reports whose EPC
        carries ``user_id``: each of that user's tag streams is one
        stream to fuse, and every other user's reports are ignored.

        Raises:
            InsufficientDataError / EmptyStreamError: with too little data.
        """
        cols = reports.select(reports.user_id == user_id)
        if not len(cols):
            raise EmptyStreamError(
                f"user {user_id}: no displacement data to fuse")
        rows, _n_bad, track_of = self._batch_rows(user_id, cols)
        track, _rejected, _total = track_of(np.arange(rows.t.shape[0]))
        return track

    def _cascade(
        self,
        user_id: int,
        rows: WindowRows,
        track_of: Callable[[np.ndarray], Tuple[TimeSeries, int, int]],
        warn_stacklevel: int,
        previous_estimator: Optional[str] = None,
        estimator_override: Optional[str] = None,
        reasons: Optional[List[str]] = None,
        confidence: float = 1.0,
    ) -> UserEstimate:
        """The robustness cascade over one user's sanitized rows.

        Stages 2-4b and 6 exist only here; every estimate path runs them
        over time-ordered rows free of re-deliveries: batch
        :meth:`process_detailed` after its stage 1 column sanitize, and
        the streaming tick over the window index, clean by construction.
        Stage 5 reads columns the two paths hold differently, so the
        caller passes it in: ``track_of`` maps the positions of the rows
        surviving stages 2-3 to ``(track, n_rejected, n_samples)`` —
        :func:`~repro.core.incremental.window_track` over the stored
        Eq. (3) columns (tick) or over columns computed once from the
        batch rows.

        Args:
            user_id: the user the rows belong to.
            rows: the user's window rows (time-ordered).
            track_of: stage 5 over a subset of ``rows``.
            warn_stacklevel: frames from this one up to the public
                caller, for the degraded-estimate warning.
            previous_estimator: the user's fallback hysteresis memory.
            estimator_override: per-call estimator override.
            reasons, confidence: stage 1's verdict (default: clean).

        Raises:
            InsufficientDataError: no rows, or too little signal.
        """
        rb = self._robustness
        reasons = [] if reasons is None else reasons
        if not rows.t.shape[0]:
            raise InsufficientDataError(
                f"user {user_id}: no reports in the analysis window")
        # Row positions surviving stages 2 and 3: every row until one
        # of them drops some, so stage 5 reads views of the window.
        keep: Union[slice, np.ndarray] = slice(None)

        # 2. Antenna selection with failover past dead ports.
        antenna_port: Optional[int] = None
        if not (rows.port != rows.port[0]).any():
            antenna_port = int(rows.port[0])
        elif self._select_antenna:
            antenna_port, failed_over = select_port(
                rows.t, rows.port, rows.rssi, rb.antenna_stale_s)
            if failed_over:
                reasons.append(REASON_ANTENNA_FAILOVER)
                confidence *= 0.85
            keep = np.flatnonzero(rows.port == antenna_port)
        times, sids = rows.t[keep], rows.sid[keep]

        # 3. Staleness watchdog: demote permanently-dead tag streams so
        #    Eq. (6)-(7) fuse only live survivors.
        present, dead = dead_streams(times, sids, rb.stale_stream_s)
        tags_fused = int(np.count_nonzero(present))
        n_dead = int(np.count_nonzero(dead))
        if 0 < n_dead < tags_fused:
            reasons.append(REASON_TAG_DEATH)
            confidence *= max(0.5, (tags_fused - n_dead) / tags_fused)
            tags_fused -= n_dead
            alive = ~dead[sids]
            keep = (np.flatnonzero(alive) if isinstance(keep, slice)
                    else keep[alive])
            times, sids = times[alive], sids[alive]

        # 4. Coverage: seconds-long holes in the read times (bursty loss,
        #    interference) degrade the estimate even when it still lands.
        if times.shape[0] > 1:
            span = max(float(times[-1]) - float(times[0]), 1e-9)
            gaps = np.diff(times)
            # Sequential python sum, not np.sum's pairwise one.
            excess = sum(gaps[gaps > rb.gap_warn_s].tolist())
            if excess > 0.0:
                reasons.append(REASON_GAPS)
                confidence *= max(0.5, 1.0 - excess / span)

        # 4b. Doppler motion screen over the full window — all antennas,
        #     pre-demotion: antenna selection and demotion exist for phase
        #     continuity, while Doppler motion evidence is antenna-agnostic
        #     and halving the reports halves the z-test's sqrt(n).  Gross
        #     body motion corrupts phase *and* RSS, so the verdict applies
        #     whichever estimator runs below.
        motion: MotionReport = STILL
        if self._motion.enabled:
            motion = score_motion(rows.t, rows.dop, self._motion)
            confidence = apply_motion(motion, reasons, confidence)

        # 5. Fusion with per-stream Hampel outlier rejection.  Too few
        #    reads to form a displacement sample is an insufficient-data
        #    failure, not a stream-misuse bug.
        try:
            track, n_rejected, n_samples = track_of(keep)
        except EmptyStreamError as exc:
            raise InsufficientDataError(str(exc)) from exc
        if n_samples and n_rejected / n_samples > rb.outlier_warn_fraction:
            reasons.append(REASON_OUTLIERS)
            confidence *= max(0.7, 1.0 - 5.0 * n_rejected / n_samples)

        # 6. Estimator selection (DESIGN.md §16): the fused track's
        #    roughness decides whether the paper's zero-crossing path is
        #    trustworthy or the RSS fallback takes over.
        chosen, est_factor = resolve_estimator(
            self._est_config, track_roughness(track), previous_estimator,
            estimator_override, reasons)
        confidence *= est_factor
        window = EstimationWindow(
            track=track, times=times, rssi=rows.rssi[keep],
            channel=rows.chan[keep], antenna=rows.port[keep], tag=sids)
        estimate = self._estimators[chosen].estimate(window)

        # 7. Bookkeeping: clamp, count, warn, build.
        confidence = min(1.0, max(0.0, confidence))
        if obs.enabled():
            registry = obs.get_registry()
            registry.counter("repro_pipeline_estimates_total").inc()
            registry.counter("repro_pipeline_estimator_total",
                             estimator=chosen).inc()
            if motion.gated:
                registry.counter("repro_pipeline_motion_gated_total").inc()
            if n_rejected:
                registry.counter(
                    "repro_pipeline_hampel_rejected_total").inc(n_rejected)
            for reason in reasons:
                registry.counter("repro_pipeline_degraded_total",
                                 reason=reason).inc()
            registry.histogram("repro_pipeline_confidence",
                               bounds=obs.UNIT_BUCKETS).observe(confidence)
        if reasons and confidence < rb.warn_confidence:
            warnings.warn(
                f"user {user_id}: degraded estimate "
                f"(confidence {confidence:.2f}; {', '.join(reasons)})",
                DegradedEstimateWarning,
                stacklevel=warn_stacklevel,
            )
        return UserEstimate(
            user_id=user_id,
            estimate=estimate,
            antenna_port=antenna_port,
            tags_fused=tags_fused,
            read_count=times.shape[0],
            confidence=confidence,
            degraded_reasons=tuple(reasons),
            estimator=chosen,
            motion_gated=motion.gated,
            motion_score=motion.score,
        )


    # ------------------------------------------------------------------
    # Streaming mode
    # ------------------------------------------------------------------
    def feed_batch(self, batch: ReportBatch) -> int:
        """Consume a column batch into the streaming store.

        The engine's one ingest path: screening (unmonitored users,
        invalid channels, per-stream late/duplicate deliveries),
        indexing, the incremental Eq. (3) differencing, and the
        bounded-memory prune all run as array operations over the
        batch's numpy columns.  Where a stream is cut into batches does
        not matter: the store and :attr:`feed_drop_counts` end bit for
        bit where feeding the reports one at a time, in arrival order,
        would leave them, so every subsequent :meth:`estimate_user`
        result does too.  A list of reports goes in as
        ``ReportBatch.from_reports(reports)``.

        Tolerate-and-count: one bad delivery never takes down the
        monitoring loop, so nothing here raises on malformed *streams*.
        Reports for unmonitored users (when ``user_ids`` was given) are
        silently dropped; late, duplicate, and unknown-channel reports
        are dropped **and counted** in :attr:`feed_drop_counts`.

        Late/duplicate screening per stream reduces to a running
        maximum: seeding a cumulative max with the stream's stored
        tail, row *i* is accepted iff ``t[i] > cummax[i]``, a duplicate
        iff equal, late iff below — dropped rows never raise the running
        max, so including them in the cummax is exact.

        Args:
            batch: the reports, in arrival order.

        Returns:
            How many reports were stored (the rest were dropped, and
            counted unless their user is unmonitored).
        """
        return self._feed_batch(batch, prune=True)

    def _feed_batch(self, batch: ReportBatch, prune: bool) -> int:
        """:meth:`feed_batch`, with the bounded-memory prune optional.

        :meth:`restore_streaming` replays a snapshot with ``prune=False``
        so the rebuilt index keeps every row the snapshot holds.
        """
        n = len(batch)
        if n == 0:
            return 0
        t = batch.t
        user = batch.user_id
        tag = batch.tag_id
        keep = np.ones(n, dtype=bool)
        if self._user_id_array is not None:
            keep = np.isin(user, self._user_id_array)
        invalid = keep & (batch.channel >= len(self._frequencies))
        n_invalid = int(np.count_nonzero(invalid))
        if n_invalid:
            self._feed_drops["invalid_channel"] += n_invalid
            keep[invalid] = False
        cand = np.flatnonzero(keep)
        if not cand.size:
            return 0

        # Group candidate rows per (user, tag) stream; the stable
        # lexsort keeps arrival order inside each group.
        cu = user[cand]
        ct = tag[cand]
        order = np.lexsort((ct, cu))
        sorted_cand = cand[order]
        su = cu[order]
        st = ct[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (su[1:] != su[:-1]) | (st[1:] != st[:-1]))))
        bounds = np.append(starts, sorted_cand.shape[0])

        n_late = 0
        n_dup = 0
        n_accepted = 0
        accepted: List[Tuple[StreamKey, np.ndarray]] = []
        for gi in range(starts.shape[0]):
            rows = sorted_cand[bounds[gi]: bounds[gi + 1]]
            key: StreamKey = (int(su[starts[gi]]), int(st[starts[gi]]))
            tg = t[rows]
            prior = np.maximum.accumulate(
                np.concatenate(([self._inc.stream_tail(key)], tg)))[:-1]
            acc = tg > prior
            m_acc = int(np.count_nonzero(acc))
            if m_acc != rows.shape[0]:
                dup = int(np.count_nonzero(tg == prior))
                n_dup += dup
                n_late += rows.shape[0] - m_acc - dup
            if m_acc:
                accepted.append((key, rows[acc]))
                n_accepted += m_acc

        if accepted:
            # Streams sorted by their first accepted row — the order
            # row-wise ingest would first see (and so create) each.
            accepted.sort(key=lambda kr: int(kr[1][0]))
            self._inc.ingest_streams(
                accepted, t, batch.phase, batch.rssi, batch.doppler,
                batch.channel, batch.antenna, prune=prune)
        if n_late:
            self._feed_drops["late"] += n_late
        if n_dup:
            self._feed_drops["duplicate"] += n_dup
        return n_accepted

    @property
    def feed_drop_counts(self) -> Dict[str, int]:
        """Reports :meth:`feed_batch` discarded, by cause.

        The key set is stable and exactly :data:`FEED_DROP_KEYS`:

        * ``"late"`` — the report is older than the newest stored
          report of its tag stream (out-of-order delivery after the
          per-stream cursor already advanced);
        * ``"duplicate"`` — same stream, same timestamp as the newest
          stored report (an LLRP re-delivery);
        * ``"invalid_channel"`` — channel index outside the configured
          hop table, so Eq. (1) has no carrier frequency for it.

        All three are *tolerated* faults: the report is discarded, the
        counter ticks, and the monitoring loop continues — one bad
        delivery never raises.  Note the difference from batch mode:
        :meth:`process` re-sorts late reports and keeps them (surfacing
        ``late_or_duplicate_reports`` in ``degraded_reasons`` instead),
        while streaming mode must drop them because each stream is
        append-only.  Monitoring dashboards — and the
        ``estimate`` messages of :mod:`repro.serve`, which embed these
        counters — watch them the way they watch packet-loss stats.
        """
        return dict(self._feed_drops)

    @property
    def dropped_report_count(self) -> int:
        """Total reports :meth:`feed_batch` discarded across all causes."""
        return sum(self._feed_drops.values())

    def estimate_user(self, user_id: int,
                      window_s: Optional[float] = None,
                      estimator: Optional[str] = None) -> UserEstimate:
        """Estimate from the trailing window of streamed data.

        The trailing window ``(t_latest - window_s, t_latest]`` is
        sliced out of the per-user window index and the feed-time phase
        chains supply its Eq. (3) deltas, so the tick gathers and sorts
        no reports; stage 5 and extraction then run over every row of
        the window (``feed_batch`` is the O(new rows) half).  The
        result is **memoized** — calling again before any
        new report is accepted returns the same ``UserEstimate`` object
        (and cached insufficient-data failures re-raise) without touching
        the filter.  Cache traffic is counted in
        ``repro_pipeline_tick_cache_total{result=hit|miss}``; the
        degraded-estimate warning fires when the estimate is *computed*,
        not on cache hits.  A tick equals, bit for bit, batch
        :meth:`process_detailed` over the user's stored rows with the
        same ``window_s``, whenever both select the same estimator (batch
        keeps no fallback hysteresis memory).

        The returned :class:`UserEstimate` carries the full degradation
        bookkeeping: ``confidence`` (1.0 for a clean window, lowered
        multiplicatively per survived fault), ``degraded_reasons``
        (stable machine names from :data:`DEGRADED_REASONS`),
        ``estimator`` (which lattice path produced the rate —
        ``auto`` mode falls back from zero-crossing to RSS under
        degraded phase and tags the estimate ``rss_fallback``), and
        ``motion_gated``/``motion_score`` (the Doppler motion
        detector's verdict; a gated estimate should not be trusted).

        Args:
            user_id: the user to estimate.
            window_s: analysis window length (default: 25 s, the paper's
                characterisation window).
            estimator: per-call estimator override ("zero_crossing",
                "spectral", or "rss") — bypasses ``auto`` selection
                without touching the user's fallback hysteresis state.

        Raises:
            InsufficientDataError: when no streamed data covers the user
                or the window holds too little signal.
            ExtractionError: on an unknown ``estimator`` name.
        """
        window = window_s if window_s is not None else self._window_s()
        version = self._inc.version(user_id)
        if version < 0:
            raise InsufficientDataError(f"no streamed data for user {user_id}")
        memo_key = (user_id, window, estimator)
        cached = self._tick_memo.get(memo_key)
        if cached is not None and cached[0] == version:
            obs.counter("repro_pipeline_tick_cache_total",
                        result="hit").inc()
            if cached[1] == "ok":
                return cached[2]
            raise InsufficientDataError(cached[2])
        obs.counter("repro_pipeline_tick_cache_total", result="miss").inc()
        previous = self._active_estimator.get(user_id)
        with obs.span("pipeline.tick", user_id=user_id):
            try:
                rows, track_of = self._inc.window_rows(user_id, window)
                result = self._cascade(
                    user_id, rows, track_of, warn_stacklevel=3,
                    previous_estimator=previous,
                    estimator_override=estimator)
            except InsufficientDataError as exc:
                self._tick_memo[memo_key] = (version, "err", str(exc))
                raise
        self._tick_memo[memo_key] = (version, "ok", result)
        if estimator is None:
            self._note_estimator(user_id, previous, result.estimator)
        return result

    def _note_estimator(self, user_id: int, previous: Optional[str],
                        chosen: str) -> None:
        """Update the fallback hysteresis memory; count transitions."""
        self._active_estimator[user_id] = chosen
        if previous is not None and previous != chosen:
            obs.counter("repro_pipeline_estimator_transitions_total",
                        to=chosen).inc()

    def streamed_users(self) -> List[int]:
        """Users with at least one stored report."""
        return sorted(self._inc.users())

    def buffered_batch(self, user_id: Optional[int] = None) -> ReportBatch:
        """The streamed reports currently stored, as one column batch.

        Args:
            user_id: restrict to one user (default: all users).

        This is the engine's whole recoverable streaming state: feeding
        the batch into a fresh engine (see :meth:`restore_streaming`)
        rebuilds the same window index and phase chains, so every
        subsequent :meth:`estimate_user` result is reproduced bit for
        bit, which is how :mod:`repro.serve` checkpoints, hibernates and
        migrates a live monitoring session.  One user's rows are the
        window-index columns in index order: by time, equal times in
        arrival order.  The all-users batch concatenates the users and
        stable-sorts on time, so each user's rows keep that order.
        Reports older than the bounded-memory horizon (~4 analysis
        windows) have already been pruned and are not part of the state.
        """
        if user_id is not None:
            return self._inc.batch(user_id)
        merged = ReportBatch.concat(
            [self._inc.batch(uid) for uid in self._inc.users()])
        return merged.select(np.argsort(merged.t, kind="stable"))

    def buffered_reports(self, user_id: Optional[int] = None) -> List[TagReport]:
        """:meth:`buffered_batch` as ``TagReport`` objects, same order.

        Args:
            user_id: restrict to one user (default: all users).
        """
        return self.buffered_batch(user_id).to_reports()

    def streaming_nbytes(self, user_id: Optional[int] = None) -> int:
        """Resident bytes of the streaming state.

        The exact numpy backing of the store — window-index columns plus
        phase-chain columns (see ``IncrementalEstimator.nbytes``).  This
        is the per-user cost the idle-economics benchmark reports and
        hibernation reclaims.

        Args:
            user_id: restrict to one user (default: whole engine).
        """
        return self._inc.nbytes(user_id)

    @property
    def last_restore_drop_counts(self) -> Dict[str, int]:
        """Reports the most recent :meth:`restore_streaming` replay dropped.

        Restoring a snapshot runs its rows back through :meth:`feed_batch`,
        so a corrupted or hand-assembled snapshot (duplicate timestamps,
        out-of-order streams, unknown channels) can incur drops *during
        the restore itself*.  Those are a property of the restore, not of
        live traffic, and are therefore kept out of
        :attr:`feed_drop_counts` — this side channel (and the
        ``repro_pipeline_restore_replay_drops_total`` counter) is where
        they land instead.  All zeros after a clean restore.
        """
        return dict(self._last_restore_drops)

    def restore_streaming(self,
                          rows: Union[ReportBatch, Iterable[TagReport]],
                          drop_counts: Optional[Dict[str, int]] = None) -> int:
        """Replace the streaming state with a saved snapshot.

        The inverse of :meth:`buffered_batch` + :attr:`feed_drop_counts`:
        clears current state and feeds ``rows`` (timestamp-ordered, as
        :meth:`buffered_batch` returns them; a ``TagReport`` sequence is
        packed into a batch first) through one :meth:`feed_batch` pass
        with the bounded-memory prune checks off, so the rebuilt index
        holds every snapshot row, row for row, and a restored engine's
        subsequent :meth:`estimate_user` results are bit-identical to an
        uninterrupted session's; the per-stream prune counters restart
        at zero.  It also restores the drop counters so monitoring
        dashboards do not see loss statistics reset to zero after a
        checkpoint resume.

        Drops incurred *while restoring the snapshot* are never conflated
        with the restored counters: :attr:`feed_drop_counts` afterwards
        holds exactly ``drop_counts`` (or all zeros when None), and the
        restore's own drops are reported via
        :attr:`last_restore_drop_counts`.

        Returns:
            The number of reports stored.
        """
        batch = ReportBatch.from_reports(rows)
        self.reset_streaming()
        buffered = self._feed_batch(batch, prune=False)
        self._last_restore_drops = dict(self._feed_drops)
        self._feed_drops = dict.fromkeys(FEED_DROP_KEYS, 0)
        if drop_counts:
            for key in FEED_DROP_KEYS:
                self._feed_drops[key] = int(drop_counts.get(key, 0))
        replayed = sum(self._last_restore_drops.values())
        if replayed:
            obs.counter(
                "repro_pipeline_restore_replay_drops_total").inc(replayed)
        return buffered

    def reset_streaming(self) -> None:
        """Drop all streaming state (start a fresh monitoring session).

        Clears the streaming store *and* zeroes every
        :attr:`feed_drop_counts` counter — after a reset the engine is
        indistinguishable from a newly constructed one as far as
        streaming is concerned.  Batch mode (:meth:`process`) is
        stateless and unaffected.  Robustness thresholds, the analysis
        window, and all signal-processing configuration survive the
        reset; only data does not.
        """
        self._feed_drops = dict.fromkeys(FEED_DROP_KEYS, 0)
        self._last_restore_drops = dict.fromkeys(FEED_DROP_KEYS, 0)
        self._tick_memo.clear()
        self._active_estimator.clear()
        self._inc.reset()

    # ------------------------------------------------------------------
    def _window_s(self) -> float:
        """The default streaming analysis window: 25 s as in Section IV-A."""
        return max(25.0, self._config.min_window_s)
