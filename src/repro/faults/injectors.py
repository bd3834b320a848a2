"""Composable fault injectors over :class:`~repro.reader.batch.ReportBatch` captures.

The paper's evaluation runs against a healthy Impinj R420 in a quiet
office; its own Figs. 14-16 already show what contention and orientation
do to the read rate.  A production deployment additionally sees tags die,
antenna ports fail, reports arrive late or twice, and phase readings
glitch.  Each injector here models one such failure as a *seeded,
severity-parameterised column transform* over a report batch, so
robustness experiments are exactly repeatable:

* every injector takes a ``severity`` in ``[0, 1]``;
* at severity 0 the output is the input batch itself — a chain of
  severity-0 injectors is a provable no-op;
* all randomness comes from the :class:`numpy.random.Generator` passed to
  :meth:`FaultInjector.apply`, normally owned by a
  :class:`~repro.faults.chain.FaultChain` that derives one child generator
  per stage from a single master seed.

Each transform is one of three kinds: a keep mask through
:meth:`ReportBatch.select` (loss and outages), a perturbed column
(phase, timestamp, Doppler) checked by the validating
:class:`ReportBatch` constructor, or a row gather (duplicates and
reordering).  Injectors never write into their input's columns.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FaultInjectionError
from ..reader.batch import ReportBatch
from ..units import TWO_PI, wavelength

#: Mid-band FCC carrier wavelength [m] used to turn burst kinematics into
#: phase/Doppler perturbations (channel-exact wavelengths would need the
#: hop table; the ~1% spread across the band does not matter here).
_NOMINAL_LAMBDA_M = float(wavelength(915.0e6))


def _outside(t: np.ndarray,
             windows: Sequence[Tuple[float, float]]) -> np.ndarray:
    """Mask of the times in no ``[lo, hi)`` window."""
    inside = np.zeros(t.shape[0], dtype=bool)
    for lo, hi in windows:
        inside |= (t >= lo) & (t < hi)
    return ~inside


def _streams(batch: ReportBatch) -> Tuple[int, np.ndarray]:
    """Stream count and each row's stream, numbered in sorted key order.

    Streams are ``(user_id, tag_id)`` pairs, sorted as
    :meth:`ReportBatch.stream_counts` sorts them, so per-stream draws
    are seed-deterministic.
    """
    _, user_rank = np.unique(batch.user_id, return_inverse=True)
    tags, tag_rank = np.unique(batch.tag_id, return_inverse=True)
    keys, stream = np.unique(user_rank * tags.shape[0] + tag_rank,
                             return_inverse=True)
    return keys.shape[0], stream


def _alternating_outage_windows(
    rng: np.random.Generator,
    t0: float,
    t1: float,
    loss_fraction: float,
    mean_outage_s: float,
) -> List[Tuple[float, float]]:
    """Gilbert-Elliott style on/off windows over ``[t0, t1]``.

    A two-state continuous-time channel alternates between a good state and
    a bad (losing) state with exponentially distributed sojourn times.  The
    mean bad sojourn is ``mean_outage_s`` and the mean good sojourn is
    chosen so the stationary bad fraction equals ``loss_fraction``.
    """
    mean_good_s = mean_outage_s * (1.0 - loss_fraction) / loss_fraction
    windows: List[Tuple[float, float]] = []
    bad = bool(rng.random() < loss_fraction)
    t = t0
    while t <= t1:
        duration = float(rng.exponential(mean_outage_s if bad else mean_good_s))
        if bad:
            windows.append((t, t + duration))
        t += duration
        bad = not bad
    return windows


class FaultInjector(ABC):
    """One failure mode as a severity-parameterised batch transform.

    Subclasses are frozen dataclasses whose first field is ``severity``;
    they validate their parameters at construction (raising
    :class:`~repro.errors.FaultInjectionError`) and implement
    :meth:`_transform`, which is only invoked for ``severity > 0`` on a
    non-empty batch.
    """

    #: Short machine-readable injector name (stats / CLI tables).
    name: str = "fault"

    severity: float  # supplied by the dataclass subclasses

    def _validate_severity(self) -> None:
        if not 0.0 <= self.severity <= 1.0:
            raise FaultInjectionError(
                f"{self.name}: severity must be in [0, 1], got {self.severity}"
            )

    def apply(self, batch: ReportBatch,
              rng: np.random.Generator) -> ReportBatch:
        """Transform a capture; severity 0 or no rows returns ``batch``."""
        if self.severity == 0.0 or not len(batch):
            return batch
        return self._transform(batch, rng)

    @abstractmethod
    def _transform(self, batch: ReportBatch,
                   rng: np.random.Generator) -> ReportBatch:
        """The actual perturbation (severity > 0, non-empty input)."""


# ----------------------------------------------------------------------
# Report loss
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReportDrop(FaultInjector):
    """Drop each report independently with probability ``severity``.

    The i.i.d. loss model: thins the stream uniformly, the way generic RF
    noise or a congested LLRP link loses individual reports.
    """

    severity: float
    name = "report_drop"

    def __post_init__(self) -> None:
        self._validate_severity()

    def _transform(self, batch, rng):
        return batch.select(rng.random(len(batch)) >= self.severity)


@dataclass(frozen=True)
class BurstyDrop(FaultInjector):
    """Gilbert-Elliott bursty loss: whole stretches of the stream vanish.

    ``severity`` is the long-run fraction of *time* spent in the losing
    state; ``burst_s`` is the mean loss-burst duration.  Bursty loss is
    much harsher than i.i.d. loss at equal fraction — it opens seconds-long
    gaps in every tag's stream at once, the pattern real interference and
    reader stalls produce.
    """

    severity: float
    burst_s: float = 1.0
    name = "bursty_drop"

    def __post_init__(self) -> None:
        self._validate_severity()
        if self.burst_s <= 0:
            raise FaultInjectionError("bursty_drop: burst_s must be > 0")

    def _transform(self, batch, rng):
        if self.severity >= 1.0:
            return batch[:0]
        t0, t1 = float(batch.t.min()), float(batch.t.max())
        windows = _alternating_outage_windows(
            rng, t0, t1, self.severity, self.burst_s)
        return batch.select(_outside(batch.t, windows))


@dataclass(frozen=True)
class InterferenceBurst(FaultInjector):
    """Discrete interference events that gate whole time windows.

    Models a co-channel jammer / forklift / microwave firing
    ``~severity * span / burst_s`` times during the capture, each event
    wiping ``burst_s`` seconds of *every* tag's reports.  Unlike
    :class:`BurstyDrop` the number of events is deterministic given the
    span, so campaigns can sweep "k jam events of d seconds".
    """

    severity: float
    burst_s: float = 1.0
    name = "interference_burst"

    def __post_init__(self) -> None:
        self._validate_severity()
        if self.burst_s <= 0:
            raise FaultInjectionError("interference_burst: burst_s must be > 0")

    def _transform(self, batch, rng):
        t0, t1 = float(batch.t.min()), float(batch.t.max())
        span = max(t1 - t0, self.burst_s)
        n_bursts = max(1, int(round(self.severity * span / self.burst_s)))
        starts = rng.uniform(t0, max(t0, t1 - self.burst_s), size=n_bursts)
        windows = [(s, s + self.burst_s) for s in starts.tolist()]
        return batch.select(_outside(batch.t, windows))


# ----------------------------------------------------------------------
# Per-tag and per-antenna outages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TagDropout(FaultInjector):
    """Intermittent per-tag outages (detuning, crumpled clothing, shadowing).

    Each (user, tag) stream gets its own independent Gilbert-Elliott
    outage process: ``severity`` is the per-stream fraction of time the
    tag is unreadable, ``outage_s`` the mean outage duration.  Streams are
    processed in sorted key order so results are seed-deterministic.
    """

    severity: float
    outage_s: float = 1.0
    name = "tag_dropout"

    def __post_init__(self) -> None:
        self._validate_severity()
        if self.outage_s <= 0:
            raise FaultInjectionError("tag_dropout: outage_s must be > 0")

    def _transform(self, batch, rng):
        if self.severity >= 1.0:
            return batch[:0]
        t0, t1 = float(batch.t.min()), float(batch.t.max())
        n_streams, stream = _streams(batch)
        keep = np.empty(len(batch), dtype=bool)
        for s in range(n_streams):
            rows = stream == s
            keep[rows] = _outside(batch.t[rows], _alternating_outage_windows(
                rng, t0, t1, self.severity, self.outage_s))
        return batch.select(keep)


@dataclass(frozen=True)
class TagDeath(FaultInjector):
    """Permanent tag death: a tag stops reporting and never comes back.

    ``num_victims`` streams (chosen by the seeded generator) die at
    ``t_end - severity * span`` — i.e. ``severity`` is the fraction of the
    capture each victim spends dead.  severity 1 means the victim never
    reported at all.
    """

    severity: float
    num_victims: int = 1
    name = "tag_death"

    def __post_init__(self) -> None:
        self._validate_severity()
        if self.num_victims < 1:
            raise FaultInjectionError("tag_death: num_victims must be >= 1")

    def _transform(self, batch, rng):
        t0, t1 = float(batch.t.min()), float(batch.t.max())
        death_time = t1 - self.severity * (t1 - t0)
        n_streams, stream = _streams(batch)
        n = min(self.num_victims, n_streams)
        victim_idx = rng.choice(n_streams, size=n, replace=False)
        return batch.select(~np.isin(stream, victim_idx)
                            | (batch.t < death_time))


@dataclass(frozen=True)
class AntennaOutage(FaultInjector):
    """One antenna port goes silent for a contiguous window.

    Models a kicked cable, port driver crash, or RF front-end fault:
    every report delivered via ``port`` inside the outage window is lost.
    The window is ``severity * span`` long; ``align`` places it at the
    ``"start"`` or ``"end"`` of the capture or (default) uniformly at
    ``"random"``.  ``port=None`` picks the busiest observed port, the
    worst-case victim.
    """

    severity: float
    port: Optional[int] = None
    align: str = "random"
    name = "antenna_outage"

    def __post_init__(self) -> None:
        self._validate_severity()
        if self.port is not None and self.port < 1:
            raise FaultInjectionError("antenna_outage: port is 1-based")
        if self.align not in ("random", "start", "end"):
            raise FaultInjectionError(
                f"antenna_outage: align must be random/start/end, got {self.align!r}")

    def _transform(self, batch, rng):
        t0, t1 = float(batch.t.min()), float(batch.t.max())
        length = self.severity * (t1 - t0)
        if self.align == "start":
            lo = t0
        elif self.align == "end":
            lo = t1 - length
        else:
            lo = float(rng.uniform(t0, max(t0, t1 - length)))
        hi = lo + length
        port = self.port
        if port is None:
            ports, counts = np.unique(batch.antenna, return_counts=True)
            port = int(ports[np.argmax(counts)])  # ties: the lowest port
        # Closed at both ends so an align="end" window still gates the
        # final report (whose timestamp equals the span end).
        t = batch.t
        return batch.select((batch.antenna != port) | (t < lo) | (t > hi))


# ----------------------------------------------------------------------
# Measurement corruption
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseOutliers(FaultInjector):
    """Gross phase glitches on random reads.

    Each report is corrupted with probability ``severity``: its phase is
    offset by a uniformly signed draw in ``[magnitude_rad / 2,
    magnitude_rad]`` (wrapped back into ``[0, 2*pi)``) — the single-read
    garbage a marginal decode produces, far outside thermal phase noise.
    """

    severity: float
    magnitude_rad: float = float(np.pi)
    name = "phase_outliers"

    def __post_init__(self) -> None:
        self._validate_severity()
        if self.magnitude_rad <= 0:
            raise FaultInjectionError("phase_outliers: magnitude_rad must be > 0")

    def _transform(self, batch, rng):
        n = len(batch)
        hit = rng.random(n) < self.severity
        magnitudes = rng.uniform(0.5, 1.0, n) * self.magnitude_rad
        signs = rng.choice((-1.0, 1.0), n)
        return batch.with_columns(phase=np.where(
            hit, (batch.phase + signs * magnitudes) % TWO_PI, batch.phase))


@dataclass(frozen=True)
class PhasePiFlips(FaultInjector):
    """The pi-ambiguity flip of backscatter phase measurement.

    Commodity readers recover phase modulo pi, not 2*pi (the paper's
    Eq. 1 context; the half-wavelength ambiguity).  A decoder resolving
    the ambiguity the wrong way shifts a read by exactly pi — injected
    here on each report with probability ``severity``.
    """

    severity: float
    name = "phase_pi_flips"

    def __post_init__(self) -> None:
        self._validate_severity()

    def _transform(self, batch, rng):
        hit = rng.random(len(batch)) < self.severity
        return batch.with_columns(phase=np.where(
            hit, (batch.phase + np.pi) % TWO_PI, batch.phase))


# ----------------------------------------------------------------------
# Delivery faults
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimestampJitter(FaultInjector):
    """Timestamping noise: every report's clock reading wobbles.

    Each timestamp moves by ``severity * uniform(-max_jitter_s,
    +max_jitter_s)`` while the delivery *order* stays as-is, so at
    meaningful severities neighbouring reports swap timestamps and the
    stream stops being monotonic — exactly the brittleness the hardened
    pipeline must absorb.
    """

    severity: float
    max_jitter_s: float = 0.05
    name = "timestamp_jitter"

    def __post_init__(self) -> None:
        self._validate_severity()
        if self.max_jitter_s <= 0:
            raise FaultInjectionError("timestamp_jitter: max_jitter_s must be > 0")

    def _transform(self, batch, rng):
        offsets = self.severity * rng.uniform(
            -self.max_jitter_s, self.max_jitter_s, len(batch))
        return batch.with_columns(t=batch.t + offsets)


@dataclass(frozen=True)
class DuplicateReports(FaultInjector):
    """Exact duplicate delivery of random reports.

    LLRP readers re-deliver reports after keepalive hiccups; with
    probability ``severity`` a report is emitted twice back to back,
    byte-identical both times.
    """

    severity: float
    name = "duplicate_reports"

    def __post_init__(self) -> None:
        self._validate_severity()

    def _transform(self, batch, rng):
        dup = rng.random(len(batch)) < self.severity
        return batch.select(np.repeat(np.arange(len(batch)), 1 + dup))


@dataclass(frozen=True)
class OutOfOrderDelivery(FaultInjector):
    """Late delivery: reports keep their timestamps but arrive reordered.

    With probability ``severity`` a report's *delivery* is delayed by
    ``uniform[0, max_delay_s)`` so it lands after younger reports — the
    network-reordering fault of a buffered LLRP TCP stream.  Timestamps
    are untouched; only the sequence order changes.
    """

    severity: float
    max_delay_s: float = 0.2
    name = "out_of_order"

    def __post_init__(self) -> None:
        self._validate_severity()
        if self.max_delay_s <= 0:
            raise FaultInjectionError("out_of_order: max_delay_s must be > 0")

    def _transform(self, batch, rng):
        delayed = rng.random(len(batch)) < self.severity
        delays = rng.uniform(0.0, self.max_delay_s, len(batch))
        delivery = batch.t + np.where(delayed, delays, 0.0)
        return batch.select(np.argsort(delivery, kind="stable"))


# ----------------------------------------------------------------------
# Subject motion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MotionBurst(FaultInjector):
    """Gross body-motion bursts: the subject shifts, turns, or walks.

    The paper's pipeline (and its evaluation) assumes a mostly-still
    subject; this injector breaks that assumption on purpose.  Each
    burst moves the whole tag array through a smooth raised-cosine
    excursion of ``excursion_m`` metres over ``burst_s`` seconds:
    inside the window every report's phase advances by the Eq. 3
    displacement term (``4*pi*d/lambda``, wrapped) and its Doppler
    reading picks up the coherent ``v/lambda`` shift that the motion
    detector (:mod:`repro.core.motion`) keys on.  After a burst the
    phase offset *persists* — the body settled somewhere new.

    ``severity`` scales burst coverage exactly like
    :class:`InterferenceBurst`: about ``severity * span / burst_s``
    bursts per capture, each at a seeded start time with a seeded
    direction.
    """

    severity: float
    burst_s: float = 3.0
    excursion_m: float = 1.5
    name = "motion_burst"

    def __post_init__(self) -> None:
        self._validate_severity()
        if self.burst_s <= 0:
            raise FaultInjectionError("motion_burst: burst_s must be > 0")
        if self.excursion_m <= 0:
            raise FaultInjectionError("motion_burst: excursion_m must be > 0")

    def _transform(self, batch, rng):
        times = batch.t
        t0, t1 = float(times.min()), float(times.max())
        span = max(t1 - t0, self.burst_s)
        n_bursts = max(1, int(round(self.severity * span / self.burst_s)))
        starts = rng.uniform(t0, max(t0, t1 - self.burst_s), size=n_bursts)
        signs = rng.choice((-1.0, 1.0), size=n_bursts)
        disp = np.zeros(times.shape[0])
        vel = np.zeros(times.shape[0])
        peak_v = self.excursion_m * np.pi / (2.0 * self.burst_s)
        for start, sign in zip(starts, signs):
            u = np.clip((times - start) / self.burst_s, 0.0, 1.0)
            disp += sign * self.excursion_m * (1.0 - np.cos(np.pi * u)) / 2.0
            vel += sign * peak_v * np.sin(np.pi * u)
        phase_delta = 2.0 * TWO_PI * disp / _NOMINAL_LAMBDA_M
        doppler_delta = vel / _NOMINAL_LAMBDA_M
        moved = (disp != 0.0) | (vel != 0.0)
        return batch.with_columns(
            phase=np.where(moved, (batch.phase + phase_delta) % TWO_PI,
                           batch.phase),
            doppler=np.where(moved, batch.doppler + doppler_delta,
                             batch.doppler))


#: Every concrete injector class, for property tests and CLI listings.
ALL_INJECTORS = (
    ReportDrop,
    BurstyDrop,
    InterferenceBurst,
    TagDropout,
    TagDeath,
    AntennaOutage,
    PhaseOutliers,
    PhasePiFlips,
    TimestampJitter,
    DuplicateReports,
    OutOfOrderDelivery,
    MotionBurst,
)
