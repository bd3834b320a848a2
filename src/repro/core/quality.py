"""Per-antenna data-quality scoring and optimal-antenna selection.

    "As the antennas are distributed geographically, the data qualities of
    antennas vary across different users in different locations.
    TagBreathe evaluates the data quality in terms of received signal
    strength and data sampling rate and extract breathing signals with the
    data reported by the optimal antenna for each user."  (Section IV-D-3)

The engine's robustness cascade selects with :func:`select_port` over
one user's column arrays, failing over past dead ports; it scores each
port with :func:`quality_score`.  Its staleness watchdog finds the tag
streams that went silent with :func:`dead_streams`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import InsufficientDataError


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

    Pure and stateless, so the pipeline's column-store
    :func:`select_port` and any report-list scorer compute the *same
    float* from the same measurements.
    """
    rate = read_count / span_s
    rssi_norm = (mean_rssi_dbm - _RSSI_FLOOR) / (_RSSI_CEIL - _RSSI_FLOOR)
    rssi_norm = min(1.0, max(0.0, rssi_norm))
    # Rate term saturates at 50 Hz: beyond that, extra reads add
    # nothing for a sub-1 Hz signal.
    rate_norm = min(1.0, rate / 50.0)
    return _RATE_WEIGHT * rate_norm + _RSSI_WEIGHT * rssi_norm


def select_port(times: np.ndarray, ports: np.ndarray, rssis: np.ndarray,
                stale_s: float) -> Tuple[int, Tuple[int, ...]]:
    """Optimal-antenna selection that fails over past dead ports.

    Scoring ports over the whole window alone would let a port that
    delivered excellent data for 55 s and then went dark (cable kicked,
    port driver crashed) still win the score — and the estimate would
    silently ride a dead antenna.  So any port whose newest read lags
    the overall newest read by more than ``stale_s`` is demoted, and the
    best-scoring *live* port is picked instead; exact score ties break
    toward the lowest port.

    Args:
        times: one user's read times, ascending (all antennas mixed).
        ports: each read's antenna port.
        rssis: each read's RSSI [dBm].
        stale_s: silence at the window end that marks a port dead.

    Returns:
        ``(port, failed_over)`` — the chosen live port and the stale ports
        that outscored it (empty tuple = no failover happened: the chosen
        port has the best score of all, up to score ties).

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


def dead_streams(times: np.ndarray, sids: np.ndarray,
                 stale_s: float) -> Tuple[np.ndarray, np.ndarray]:
    """The tag streams present in a window, and those that went silent.

    A stream is dead when its newest read lags the window's newest read
    by more than ``stale_s``, i.e. when none of its reads lies at or
    after ``t_latest - stale_s``.  The reads are time-ordered, so those
    are a suffix of the rows, and one count of the stream labels over
    all rows and one over the suffix decide every stream at once.

    Args:
        times: one window's read times, ascending, at least one.
        sids: each read's tag-stream label, a small non-negative int.
        stale_s: silence at the window end that marks a stream dead.

    Returns:
        ``(present, dead)``: boolean masks indexed by stream label.
    """
    present = np.bincount(sids) > 0
    recent = sids[times.searchsorted(float(times[-1]) - stale_s,
                                     side="left"):]
    alive = np.bincount(recent, minlength=present.shape[0]) > 0
    return present, present & ~alive
