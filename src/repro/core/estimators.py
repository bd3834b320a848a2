"""The estimator lattice: one interface over every rate-producing path.

DESIGN.md §16.  The paper commits to a single estimator — Eq. 5 zero
crossings over the fused phase-displacement track — and its Section
IV-B discusses the FFT-peak alternative only to reject it for
resolution.  Production needs more than one: when phase quality
collapses (dense multipath, interference, a marginal link) the
zero-crossing count stops meaning breaths, while the RSS amplitude
ripple (paper Fig. 2, UbiBreathe) often survives.  This module
extracts the common :class:`BreathEstimator` interface over the
existing paths and adds the RSS fallback behind it.

Every estimator consumes an :class:`EstimationWindow` — the fused
track *plus* the surviving raw report columns — and returns the same
:class:`~repro.core.extraction.BreathingEstimate` the pipeline always
produced.  :class:`ZeroCrossingEstimator` delegates verbatim to
:class:`~repro.core.extraction.BreathExtractor`, so the refactor is
bit-identical to the pre-interface pipeline by construction (pinned by
``tests/test_estimators.py`` on the golden traces).

Estimator selection (``auto`` mode) keys off *track roughness* — the
median absolute sample-to-sample step of the fused displacement track.
Clean captures sit well under a millimetre per 50 ms bin; when phase
noise dominates, the track is a random walk with millimetre-to-
centimetre steps.  A dual threshold
(:class:`~repro.config.EstimatorConfig`) gives the switch hysteresis
so a borderline stream cannot flap between estimators every tick.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import EstimatorConfig
from ..errors import ExtractionError
from ..streams.timeseries import TimeSeries
from .degradation import REASON_PHASE_DEGRADED, REASON_RSS_FALLBACK
from .extraction import BreathExtractor, BreathingEstimate
from .preprocess import partition_median
from .spectral import fft_peak_rate_bpm

@dataclass(frozen=True)
class EstimationWindow:
    """Everything one analysis window offers a rate estimator.

    The robustness cascade builds this from its post-selection,
    post-staleness rows, so an estimator sees identical inputs whether
    the window came from batch processing or a streaming tick.

    Attributes:
        track: the fused Eq. 7 displacement track (phase path input).
        times: surviving report timestamps, ascending [s].
        rssi: per-report RSSI [dBm], aligned with ``times``.
        channel: per-report channel index, aligned with ``times``.
        antenna: per-report antenna port, aligned with ``times``.
        tag: per-report tag-stream label, aligned with ``times``.  Only
            the *partition* it induces is contracted — batch processing
            labels each (user, tag) pair while the streaming tick uses
            its internal stream ids, which label the identical groups
            (one per worn tag), so group-wise arithmetic is bit-identical
            across paths.
    """

    track: TimeSeries
    times: np.ndarray
    rssi: np.ndarray
    channel: np.ndarray
    antenna: np.ndarray
    tag: np.ndarray


class BreathEstimator(ABC):
    """One way of turning an :class:`EstimationWindow` into a rate.

    Attributes:
        name: stable machine name surfaced in ``UserEstimate.estimator``
            and the serve wire format.
    """

    name: str = ""

    @abstractmethod
    def estimate(self, window: EstimationWindow) -> BreathingEstimate:
        """Produce the window's rate estimate.

        Raises:
            InsufficientDataError: when the window cannot support this
                estimator (too short, too sparse, too few crossings).
        """


class ZeroCrossingEstimator(BreathEstimator):
    """The paper's production path: Eq. 5 crossings over the fused track.

    Pure delegation to :class:`BreathExtractor` — the pipeline's
    pre-interface behaviour, bit for bit.
    """

    name = "zero_crossing"

    def __init__(self, extractor: BreathExtractor) -> None:
        self._extractor = extractor

    def estimate(self, window: EstimationWindow) -> BreathingEstimate:
        return self._extractor.estimate(window.track)


class SpectralEstimator(BreathEstimator):
    """The Fig. 7 path: rate = FFT peak of the fused track.

    Resolution-limited to ``60 / window_s`` bpm (the Section IV-B
    pitfall), which is why it is never the ``auto`` choice — but it is
    cheap, crossing-free, and useful as an explicit selection for
    sanity sweeps.
    """

    name = "spectral"

    def __init__(self, band_bpm: tuple = (4.0, 40.0)) -> None:
        self._band = band_bpm

    def estimate(self, window: EstimationWindow) -> BreathingEstimate:
        rate = fft_peak_rate_bpm(window.track, band_bpm=self._band)
        t_end = float(window.track.times[-1])
        point = TimeSeries.from_trusted(np.array([t_end]), np.array([rate]))
        return BreathingEstimate(rate_bpm=rate, rate_series=point,
                                 signal=window.track, crossings=[])


def build_estimators(extractor: BreathExtractor) -> Dict[str, BreathEstimator]:
    """Every concrete estimator, keyed by name, sharing one extractor."""
    from .rss_estimator import RSSEstimator
    lattice: Dict[str, BreathEstimator] = {}
    for estimator in (ZeroCrossingEstimator(extractor),
                      SpectralEstimator(),
                      RSSEstimator(extractor)):
        lattice[estimator.name] = estimator
    return lattice


def track_roughness(track: TimeSeries) -> float:
    """Phase-quality proxy: median |sample-to-sample step| of the track.

    Clean fused tracks step by well under a millimetre per bin; a
    phase-noise-dominated track random-walks at millimetre scale or
    worse.  Pure function of the track, so both estimate paths agree
    bit-for-bit.
    """
    if len(track) < 2:
        return 0.0
    values = track.values
    return partition_median(np.abs(values[1:] - values[:-1]))


def select_estimator(config: EstimatorConfig, roughness: float,
                     previous: Optional[str]) -> str:
    """Pick the active estimator name for one window.

    Explicit modes return themselves.  ``auto`` applies the roughness
    hysteresis: enter the RSS fallback above ``roughness_enter_m``,
    leave it only below ``roughness_exit_m``, keep the previous choice
    in between (``previous=None`` means no history — the enter
    threshold alone decides).
    """
    if config.estimator != "auto":
        return config.estimator
    if previous == "rss":
        return "zero_crossing" if roughness < config.roughness_exit_m else "rss"
    if roughness >= config.roughness_enter_m:
        return "rss"
    return "zero_crossing"


def resolve_estimator(config: EstimatorConfig, roughness: float,
                      previous: Optional[str], override: Optional[str],
                      reasons: List[str]) -> Tuple[str, float]:
    """Selection plus degradation bookkeeping, shared by both paths.

    An explicit per-call ``override`` wins outright (a deliberate
    choice, not a degradation — no reasons, no confidence cost).
    Otherwise :func:`select_estimator` decides, and an ``auto``-mode
    fall to RSS appends ``REASON_PHASE_DEGRADED`` + ``REASON_RSS_FALLBACK``
    and returns a mild confidence factor: the fallback estimate is
    usable but earned less trust than clean phase.

    Returns:
        ``(estimator_name, confidence_factor)``; ``reasons`` is mutated
        in place.

    Raises:
        ExtractionError: on an unknown override name.
    """
    if override is not None:
        if override not in ("zero_crossing", "spectral", "rss"):
            raise ExtractionError(
                f"estimator must be 'zero_crossing', 'spectral', or "
                f"'rss', got {override!r}")
        return override, 1.0
    chosen = select_estimator(config, roughness, previous)
    if config.estimator == "auto" and chosen == "rss":
        reasons.append(REASON_PHASE_DEGRADED)
        reasons.append(REASON_RSS_FALLBACK)
        return chosen, 0.9
    return chosen, 1.0
