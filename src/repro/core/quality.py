"""Per-antenna data-quality scoring and optimal-antenna selection.

    "As the antennas are distributed geographically, the data qualities of
    antennas vary across different users in different locations.
    TagBreathe evaluates the data quality in terms of received signal
    strength and data sampling rate and extract breathing signals with the
    data reported by the optimal antenna for each user."  (Section IV-D-3)

The engine's robustness cascade selects with :func:`select_port` over
one user's column arrays, failing over past dead ports;
:func:`antenna_quality_scores` and :func:`select_best_antenna` are the
report-list diagnostic API.  All three share :func:`quality_score`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import InsufficientDataError
from ..reader.tagreport import TagReport


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


#: Score weights: sampling rate matters more than raw RSSI (a strong but
#: rarely-read stream cannot carry a breathing signal), mirroring the
#: paper's ordering "received signal strength and data sampling rate".
_RATE_WEIGHT = 1.0
_RSSI_WEIGHT = 0.5
#: RSSI normalisation anchors [dBm] for the score's RSSI term.
_RSSI_FLOOR = -80.0
_RSSI_CEIL = -30.0


def quality_score(read_count: int, span_s: float,
                  mean_rssi_dbm: float) -> float:
    """The Section IV-D-3 quality score from its three raw ingredients.

    Pure and stateless so both antenna-selection entry points — the
    report-list diagnostic :func:`antenna_quality_scores` and the
    pipeline's column-store :func:`select_port` — compute the *same
    float* from the same measurements.
    """
    rate = read_count / span_s
    rssi_norm = (mean_rssi_dbm - _RSSI_FLOOR) / (_RSSI_CEIL - _RSSI_FLOOR)
    rssi_norm = min(1.0, max(0.0, rssi_norm))
    # Rate term saturates at 50 Hz: beyond that, extra reads add
    # nothing for a sub-1 Hz signal.
    rate_norm = min(1.0, rate / 50.0)
    return _RATE_WEIGHT * rate_norm + _RSSI_WEIGHT * rssi_norm


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


def select_port(times: np.ndarray, ports: np.ndarray, rssis: np.ndarray,
                stale_s: float) -> Tuple[int, Tuple[int, ...]]:
    """Optimal-antenna selection that fails over past dead ports.

    :func:`select_best_antenna` scores ports over the whole window, so a
    port that delivered excellent data for 55 s and then went dark (cable
    kicked, port driver crashed) still wins the score — and the estimate
    would silently ride a dead antenna.  This variant demotes any port
    whose newest read lags the overall newest read by more than
    ``stale_s`` and picks the best-scoring *live* port instead; exact
    score ties break toward the lowest port.

    Args:
        times: one user's read times, ascending (all antennas mixed).
        ports: each read's antenna port.
        rssis: each read's RSSI [dBm].
        stale_s: silence at the window end that marks a port dead.

    Returns:
        ``(port, failed_over)`` — the chosen live port and the stale ports
        that outscored it (empty tuple = no failover happened, the result
        matches :func:`select_best_antenna` up to score ties).

    Raises:
        InsufficientDataError: when there are no reads at all.  (A live
        port always exists — the port owning the newest read is live by
        definition — so failover itself cannot fail.)
    """
    if not times.shape[0]:
        raise InsufficientDataError("no reports: cannot select an antenna")
    t_latest = float(times[-1])
    span = max(t_latest - float(times[0]), 1e-9)
    scores: Dict[int, float] = {}
    last_seen: Dict[int, float] = {}
    for p in np.unique(ports):
        port = int(p)
        selected = ports == p
        scores[port] = quality_score(
            int(selected.sum()), span, float(np.mean(rssis[selected])))
        last_seen[port] = float(times[selected][-1])
    # Ports come out of np.unique ascending, so max() breaks ties low.
    live = [p for p, t in last_seen.items() if t >= t_latest - stale_s]
    chosen = max(live, key=lambda p: scores[p])
    failed_over = tuple(sorted(
        p for p in scores
        if p not in live and scores[p] > scores[chosen]
    ))
    return chosen, failed_over
