"""Test helper: the report-list fault injectors.

Every injector in :mod:`repro.faults` is a column transform over a
``ReportBatch``: a keep mask, a perturbed column or a row gather.
:func:`apply` keeps the per-report forms those transforms replaced,
term for term: each report tested against its outage windows one at a
time, streams keyed by ``TagReport.stream_key`` in ``sorted`` order,
and every perturbed read rebuilt with :func:`dataclasses.replace` (so
``TagReport.__post_init__`` checks it).  The random draws are the same
calls in the same order, and :func:`apply_chain` spawns one child
generator per stage exactly as ``FaultChain.apply`` does.

A column injector must give ``ReportBatch.from_reports`` of this
module's output, bit for bit, for every capture, severity and seed.
Tests compare the injectors against this code, never against
themselves.
"""

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.faults import (
    AntennaOutage,
    BurstyDrop,
    DuplicateReports,
    FaultChain,
    FaultInjector,
    InterferenceBurst,
    MotionBurst,
    OutOfOrderDelivery,
    PhaseOutliers,
    PhasePiFlips,
    ReportDrop,
    TagDeath,
    TagDropout,
    TimestampJitter,
)
from repro.faults.injectors import _NOMINAL_LAMBDA_M, _alternating_outage_windows
from repro.reader.tagreport import TagReport
from repro.units import TWO_PI


def _span(reports: Sequence[TagReport]) -> Tuple[float, float]:
    """First/last timestamp of a non-empty report sequence."""
    times = [r.timestamp_s for r in reports]
    return min(times), max(times)


def _in_windows(t: float, windows: Sequence[Tuple[float, float]]) -> bool:
    return any(lo <= t < hi for lo, hi in windows)


def _report_drop(inj, reports, rng):
    keep = rng.random(len(reports)) >= inj.severity
    return [r for r, k in zip(reports, keep) if k]


def _bursty_drop(inj, reports, rng):
    if inj.severity >= 1.0:
        return []
    t0, t1 = _span(reports)
    windows = _alternating_outage_windows(
        rng, t0, t1, inj.severity, inj.burst_s)
    return [r for r in reports if not _in_windows(r.timestamp_s, windows)]


def _interference_burst(inj, reports, rng):
    t0, t1 = _span(reports)
    span = max(t1 - t0, inj.burst_s)
    n_bursts = max(1, int(round(inj.severity * span / inj.burst_s)))
    starts = rng.uniform(t0, max(t0, t1 - inj.burst_s), size=n_bursts)
    windows = [(s, s + inj.burst_s) for s in starts]
    return [r for r in reports if not _in_windows(r.timestamp_s, windows)]


def _tag_dropout(inj, reports, rng):
    if inj.severity >= 1.0:
        return []
    t0, t1 = _span(reports)
    streams = sorted({r.stream_key for r in reports})
    windows = {
        key: _alternating_outage_windows(rng, t0, t1, inj.severity,
                                         inj.outage_s)
        for key in streams
    }
    return [r for r in reports
            if not _in_windows(r.timestamp_s, windows[r.stream_key])]


def _tag_death(inj, reports, rng):
    t0, t1 = _span(reports)
    death_time = t1 - inj.severity * (t1 - t0)
    streams = sorted({r.stream_key for r in reports})
    n = min(inj.num_victims, len(streams))
    victim_idx = rng.choice(len(streams), size=n, replace=False)
    victims = {streams[i] for i in victim_idx}
    return [r for r in reports
            if r.stream_key not in victims or r.timestamp_s < death_time]


def _antenna_outage(inj, reports, rng):
    t0, t1 = _span(reports)
    length = inj.severity * (t1 - t0)
    if inj.align == "start":
        lo = t0
    elif inj.align == "end":
        lo = t1 - length
    else:
        lo = float(rng.uniform(t0, max(t0, t1 - length)))
    hi = lo + length
    port = inj.port
    if port is None:
        counts: dict = {}
        for r in reports:
            counts[r.antenna_port] = counts.get(r.antenna_port, 0) + 1
        port = max(sorted(counts), key=lambda p: counts[p])
    return [r for r in reports
            if r.antenna_port != port
            or not (lo <= r.timestamp_s <= hi)]


def _phase_outliers(inj, reports, rng):
    hit = rng.random(len(reports)) < inj.severity
    magnitudes = rng.uniform(0.5, 1.0, len(reports)) * inj.magnitude_rad
    signs = rng.choice((-1.0, 1.0), len(reports))
    out = []
    for report, h, mag, sign in zip(reports, hit, magnitudes, signs):
        if h:
            report = replace(
                report,
                phase_rad=float((report.phase_rad + sign * mag) % TWO_PI),
            )
        out.append(report)
    return out


def _phase_pi_flips(inj, reports, rng):
    hit = rng.random(len(reports)) < inj.severity
    return [
        replace(r, phase_rad=float((r.phase_rad + np.pi) % TWO_PI))
        if h else r
        for r, h in zip(reports, hit)
    ]


def _timestamp_jitter(inj, reports, rng):
    offsets = inj.severity * rng.uniform(
        -inj.max_jitter_s, inj.max_jitter_s, len(reports))
    return [
        replace(r, timestamp_s=float(r.timestamp_s + dt))
        for r, dt in zip(reports, offsets)
    ]


def _duplicate_reports(inj, reports, rng):
    dup = rng.random(len(reports)) < inj.severity
    out: List[TagReport] = []
    for report, d in zip(reports, dup):
        out.append(report)
        if d:
            out.append(report)
    return out


def _out_of_order(inj, reports, rng):
    delayed = rng.random(len(reports)) < inj.severity
    delays = rng.uniform(0.0, inj.max_delay_s, len(reports))
    delivery = [
        r.timestamp_s + (dt if d else 0.0)
        for r, d, dt in zip(reports, delayed, delays)
    ]
    order = np.argsort(delivery, kind="stable")
    return [reports[i] for i in order]


def _motion_burst(inj, reports, rng):
    t0, t1 = _span(reports)
    span = max(t1 - t0, inj.burst_s)
    n_bursts = max(1, int(round(inj.severity * span / inj.burst_s)))
    starts = rng.uniform(t0, max(t0, t1 - inj.burst_s), size=n_bursts)
    signs = rng.choice((-1.0, 1.0), size=n_bursts)
    times = np.array([r.timestamp_s for r in reports])
    disp = np.zeros(times.shape[0])
    vel = np.zeros(times.shape[0])
    peak_v = inj.excursion_m * np.pi / (2.0 * inj.burst_s)
    for start, sign in zip(starts, signs):
        u = np.clip((times - start) / inj.burst_s, 0.0, 1.0)
        disp += sign * inj.excursion_m * (1.0 - np.cos(np.pi * u)) / 2.0
        vel += sign * peak_v * np.sin(np.pi * u)
    phase_delta = 2.0 * TWO_PI * disp / _NOMINAL_LAMBDA_M
    doppler_delta = vel / _NOMINAL_LAMBDA_M
    moved = (disp != 0.0) | (vel != 0.0)
    return [
        replace(
            r,
            phase_rad=float((r.phase_rad + dp) % TWO_PI),
            doppler_hz=float(r.doppler_hz + dd),
        ) if m else r
        for r, m, dp, dd in zip(reports, moved, phase_delta, doppler_delta)
    ]


_TRANSFORMS = {
    ReportDrop: _report_drop,
    BurstyDrop: _bursty_drop,
    InterferenceBurst: _interference_burst,
    TagDropout: _tag_dropout,
    TagDeath: _tag_death,
    AntennaOutage: _antenna_outage,
    PhaseOutliers: _phase_outliers,
    PhasePiFlips: _phase_pi_flips,
    TimestampJitter: _timestamp_jitter,
    DuplicateReports: _duplicate_reports,
    OutOfOrderDelivery: _out_of_order,
    MotionBurst: _motion_burst,
}


def apply(injector: FaultInjector, reports: Sequence[TagReport],
          rng: np.random.Generator) -> List[TagReport]:
    """``injector`` over a report list; severity 0 copies the list."""
    if injector.severity == 0.0 or not reports:
        return list(reports)
    return _TRANSFORMS[type(injector)](injector, list(reports), rng)


def apply_chain(chain: FaultChain,
                reports: Sequence[TagReport]) -> List[TagReport]:
    """Every stage of ``chain`` in order, one spawned generator each."""
    children = np.random.SeedSequence(chain.seed).spawn(
        max(1, len(chain.stages)))
    out = list(reports)
    for stage, child in zip(chain.stages, children):
        out = apply(stage, out, np.random.default_rng(child))
    return out
