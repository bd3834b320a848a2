"""Test helper: the robustness cascade over ``TagReport`` lists.

The engine runs one cascade over column arrays
(``TagBreathe._cascade``).  This module keeps the report-list version
it replaced — delivery hygiene, antenna failover, staleness demotion,
gap coverage, the Doppler motion screen, fusion and the estimator
lattice, stage by stage over Python lists — as an independent
reference that tests compare the column cascade against.  Its antenna
selection scores ports with :func:`antenna_quality_scores`, the
report-list form of ``quality.select_port``'s scoring.  It borrows
the engine's configuration and its estimator lattice; its stage 5 is
the per-stream reference in ``tests/stage5_reference.py``.

It emits no observability counters and no degraded-estimate warning
(the returned :class:`~repro.core.pipeline.UserEstimate` is the same
either way), and it refuses an empty window with the engine's message.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.degradation import (
    REASON_ANTENNA_FAILOVER,
    REASON_DISORDERED,
    REASON_GAPS,
    REASON_OUTLIERS,
    REASON_TAG_DEATH,
)
from repro.core.estimators import (
    EstimationWindow,
    resolve_estimator,
    track_roughness,
)
from repro.core.motion import STILL, apply_motion, score_motion
from repro.core.pipeline import TagBreathe, UserEstimate
from repro.core.quality import quality_score
from repro.errors import EmptyStreamError, InsufficientDataError
from repro.reader.tagreport import TagReport
from repro.streams.windows import trailing_window_bounds

from .stage5_reference import fused_track_counting, group_reports_by_stream


def group_reports_by_user(
    reports: Iterable[TagReport],
    user_ids: Optional[Set[int]] = None,
) -> Dict[int, List[TagReport]]:
    """Split a capture by the EPC user-ID field (Fig. 9).

    Args:
        reports: the full capture (may include contending item tags).
        user_ids: when given, only these users' reads are kept — this is
            how the 3 monitoring tags are picked out from 30 contending
            item tags in the Fig. 14 experiment.

    Returns:
        user_id -> that user's reads, order preserved.
    """
    grouped: Dict[int, List[TagReport]] = defaultdict(list)
    for report in reports:
        if user_ids is not None and report.user_id not in user_ids:
            continue
        grouped[report.user_id].append(report)
    return dict(grouped)


def sanitize_reports(
    reports: Sequence[TagReport],
) -> Tuple[List[TagReport], int, int]:
    """Restore timestamp order and drop duplicate deliveries.

    Out-of-order reports are re-sorted into place (stable) and counted;
    re-deliveries — same stream, timestamp, antenna, and channel — are
    dropped and counted.

    Returns:
        ``(clean, n_disordered, n_duplicates)``.
    """
    report_list = list(reports)
    n_disordered = sum(
        1 for a, b in zip(report_list, report_list[1:])
        if b.timestamp_s < a.timestamp_s
    )
    if n_disordered:
        report_list = sorted(report_list, key=lambda r: r.timestamp_s)
    seen: Set[Tuple] = set()
    clean: List[TagReport] = []
    n_duplicates = 0
    for report in report_list:
        key = (report.stream_key, report.timestamp_s,
               report.antenna_port, report.channel_index)
        if key in seen:
            n_duplicates += 1
            continue
        seen.add(key)
        clean.append(report)
    return clean, n_disordered, n_duplicates


def trailing_reports(reports: List[TagReport],
                     window_s: float) -> List[TagReport]:
    """One user's reports inside the pinned trailing window, order kept."""
    t_latest = max(r.timestamp_s for r in reports)
    lo, hi = trailing_window_bounds(t_latest, window_s)
    return [r for r in reports if lo < r.timestamp_s <= hi]


def filter_to_antenna(reports: Iterable[TagReport],
                      port: int) -> List[TagReport]:
    """Keep only reads delivered via ``port``, order preserved."""
    return [r for r in reports if r.antenna_port == port]


@dataclass(frozen=True)
class AntennaQuality:
    """Quality metrics of one antenna's data for one user.

    Attributes:
        antenna_port: the LLRP port the metrics describe.
        read_count: reads of this user's tags via this antenna.
        sampling_rate_hz: reads per second of wall-clock span.
        mean_rssi_dbm: mean received signal strength.
        score: combined quality score (higher is better).
    """

    antenna_port: int
    read_count: int
    sampling_rate_hz: float
    mean_rssi_dbm: float
    score: float


def antenna_quality_scores(
    reports: Iterable[TagReport],
    span_s: Optional[float] = None,
) -> Dict[int, AntennaQuality]:
    """Score each antenna's data quality for one user's reports.

    Args:
        reports: one user's reads (all antennas mixed).
        span_s: wall-clock span for rate computation; defaults to the
            report span (use the trial duration for fair comparisons when
            an antenna saw only a brief burst).

    Returns:
        antenna_port -> quality metrics (empty dict for no reports).
    """
    by_port: Dict[int, List[TagReport]] = defaultdict(list)
    for report in reports:
        by_port[report.antenna_port].append(report)
    if not by_port:
        return {}
    all_times = [r.timestamp_s for rs in by_port.values() for r in rs]
    default_span = max(all_times) - min(all_times)
    span = span_s if span_s is not None else max(default_span, 1e-9)

    out: Dict[int, AntennaQuality] = {}
    for port, port_reports in by_port.items():
        rssi = float(np.mean([r.rssi_dbm for r in port_reports]))
        out[port] = AntennaQuality(
            antenna_port=port,
            read_count=len(port_reports),
            sampling_rate_hz=len(port_reports) / span,
            mean_rssi_dbm=rssi,
            score=quality_score(len(port_reports), span, rssi),
        )
    return out


def select_best_antenna(
    reports: Iterable[TagReport],
    span_s: Optional[float] = None,
) -> int:
    """The optimal antenna port for one user (Section IV-D-3).

    Raises:
        InsufficientDataError: when the user has no reports at all.
    """
    scores = antenna_quality_scores(reports, span_s=span_s)
    if not scores:
        raise InsufficientDataError("no reports: cannot select an antenna")
    return max(scores.values(), key=lambda q: q.score).antenna_port


def select_antenna_with_failover(
    reports: Iterable[TagReport],
    stale_s: float,
) -> Tuple[int, Tuple[int, ...]]:
    """The best-scoring port among those whose newest read is no more
    than ``stale_s`` older than the newest read overall.

    Returns:
        ``(port, failed_over)``: the chosen live port and the stale ports
        that outscored it.

    Raises:
        InsufficientDataError: when there are no reports at all.
    """
    report_list = list(reports)
    scores = antenna_quality_scores(report_list)
    if not scores:
        raise InsufficientDataError("no reports: cannot select an antenna")
    last_by_port: Dict[int, float] = {}
    for report in report_list:
        last_by_port[report.antenna_port] = max(
            last_by_port.get(report.antenna_port, -np.inf),
            report.timestamp_s)
    t_latest = max(last_by_port.values())
    live = {p for p, t in last_by_port.items() if t >= t_latest - stale_s}
    chosen = max((scores[p] for p in live), key=lambda q: q.score).antenna_port
    failed_over = tuple(sorted(
        p for p, q in scores.items()
        if p not in live and q.score > scores[chosen].score
    ))
    return chosen, failed_over


def process_user(engine: TagBreathe, user_id: int,
                 user_reports: List[TagReport],
                 previous_estimator: Optional[str] = None,
                 estimator_override: Optional[str] = None) -> UserEstimate:
    """The whole cascade over one user's delivered reports."""
    rb = engine._robustness
    reasons: List[str] = []
    confidence = 1.0

    # 1. Delivery hygiene.
    working, n_disordered, n_duplicates = sanitize_reports(user_reports)
    n_bad = n_disordered + n_duplicates
    if n_bad:
        reasons.append(REASON_DISORDERED)
        confidence *= max(0.6, 1.0 - n_bad / max(1, len(user_reports)))
    if not working:
        raise InsufficientDataError(
            f"user {user_id}: no reports in the analysis window")
    motion_window = working

    # 2. Antenna selection with failover past dead ports.
    antenna_port: Optional[int] = None
    ports = {r.antenna_port for r in working}
    if engine._select_antenna and len(ports) > 1:
        antenna_port, failed_over = select_antenna_with_failover(
            working, stale_s=rb.antenna_stale_s)
        if failed_over:
            reasons.append(REASON_ANTENNA_FAILOVER)
            confidence *= 0.85
        working = filter_to_antenna(working, antenna_port)
    elif len(ports) == 1:
        antenna_port = next(iter(ports))

    # 3. Staleness watchdog.
    streams = group_reports_by_stream(working)
    if len(streams) > 1:
        t_latest = max(r.timestamp_s for r in working)
        dead = {
            key for key, tag_reports in streams.items()
            if tag_reports[-1].timestamp_s < t_latest - rb.stale_stream_s
        }
        if dead and len(dead) < len(streams):
            reasons.append(REASON_TAG_DEATH)
            confidence *= max(0.5, (len(streams) - len(dead)) / len(streams))
            working = [r for r in working if r.stream_key not in dead]
            streams = group_reports_by_stream(working)

    # 4. Coverage.
    if len(working) > 1:
        times = [r.timestamp_s for r in working]
        span = max(times[-1] - times[0], 1e-9)
        excess = sum(
            gap for gap in (b - a for a, b in zip(times, times[1:]))
            if gap > rb.gap_warn_s
        )
        if excess > 0.0:
            reasons.append(REASON_GAPS)
            confidence *= max(0.5, 1.0 - excess / span)

    # 4b. Doppler motion screen over the full sanitized window.
    motion = STILL
    if engine._motion.enabled:
        m_times = np.array([r.timestamp_s for r in motion_window])
        m_dop = np.array([r.doppler_hz for r in motion_window])
        motion = score_motion(m_times, m_dop, engine._motion)
        confidence = apply_motion(motion, reasons, confidence)

    # 5. Fusion with per-stream Hampel outlier rejection.
    try:
        track, n_rejected, n_samples = fused_track_counting(
            engine, user_id, working)
    except EmptyStreamError as exc:
        raise InsufficientDataError(str(exc)) from exc
    if n_samples and n_rejected / n_samples > rb.outlier_warn_fraction:
        reasons.append(REASON_OUTLIERS)
        confidence *= max(0.7, 1.0 - 5.0 * n_rejected / n_samples)

    # 6. Estimator selection and extraction.
    chosen, est_factor = resolve_estimator(
        engine._est_config, track_roughness(track), previous_estimator,
        estimator_override, reasons)
    confidence *= est_factor
    window = EstimationWindow(
        track=track,
        times=np.array([r.timestamp_s for r in working]),
        rssi=np.array([r.rssi_dbm for r in working]),
        channel=np.array([r.channel_index for r in working], dtype=np.int64),
        antenna=np.array([r.antenna_port for r in working], dtype=np.int64),
        tag=np.array([r.tag_id for r in working], dtype=np.int64),
    )
    estimate = engine._estimators[chosen].estimate(window)
    return UserEstimate(
        user_id=user_id, estimate=estimate, antenna_port=antenna_port,
        tags_fused=len(streams), read_count=len(working),
        confidence=min(1.0, max(0.0, confidence)),
        degraded_reasons=tuple(reasons), estimator=chosen,
        motion_gated=motion.gated, motion_score=motion.score)


def process_detailed(
    engine: TagBreathe, reports: Iterable[TagReport],
    window_s: Optional[float] = None,
) -> Tuple[Dict[int, UserEstimate], Dict[int, str]]:
    """``TagBreathe.process_detailed`` over report lists."""
    by_user = group_reports_by_user(reports, user_ids=engine._user_ids)
    if window_s is not None:
        by_user = {uid: trailing_reports(urs, window_s)
                   for uid, urs in by_user.items()}
    estimates: Dict[int, UserEstimate] = {}
    failures: Dict[int, str] = {}
    for user_id, user_reports in sorted(by_user.items()):
        try:
            estimates[user_id] = process_user(engine, user_id, user_reports)
        except InsufficientDataError as exc:
            failures[user_id] = str(exc)
    if engine._user_ids is not None:
        for user_id in engine._user_ids - set(by_user):
            failures[user_id] = "no reads received (tag unreadable?)"
    return estimates, failures
