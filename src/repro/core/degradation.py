"""Degradation bookkeeping of the robustness cascade.

Stable machine names for every way an estimate can be produced in
degraded mode.  The engine's one robustness cascade
(:meth:`repro.core.pipeline.TagBreathe._cascade`), which batch
processing and the streaming tick both run, attaches these to
:class:`~repro.core.pipeline.UserEstimate`, and they are re-exported
from :mod:`repro.core.pipeline` (the historical home) so callers import
them from either place.
"""

from __future__ import annotations

#: The stream contained late/duplicate deliveries that were re-ordered or
#: dropped before processing.
REASON_DISORDERED = "late_or_duplicate_reports"
#: The user's read times contain gaps longer than the configured warning
#: threshold (bursty loss, interference, reader stall).
REASON_GAPS = "report_gaps"
#: One or more tag streams went permanently silent and were demoted out of
#: fusion (Eq. 6-7 re-weighted over the survivors).
REASON_TAG_DEATH = "tag_death"
#: The best-scoring antenna was dead at the end of the window; the
#: estimate rides the next-best live port.
REASON_ANTENNA_FAILOVER = "antenna_failover"
#: Hampel rejection removed a non-trivial fraction of displacement
#: samples (phase glitches / pi-ambiguity flips).
REASON_OUTLIERS = "phase_outliers"
#: The Doppler motion detector found gross body motion (walking,
#: turning) inside the analysis window; the displacement track is
#: dominated by the motion artifact, not breathing.
REASON_MOTION = "motion_artifact"
#: The fused displacement track's phase quality fell below the fallback
#: threshold (median sample-to-sample step too rough for zero-crossing
#: counting to mean breaths).
REASON_PHASE_DEGRADED = "phase_degraded"
#: The estimate was produced by the RSS-amplitude fallback estimator
#: rather than the paper's phase path.
REASON_RSS_FALLBACK = "rss_fallback"

#: Every degradation reason the pipeline can attach to an estimate.
DEGRADED_REASONS = (
    REASON_DISORDERED,
    REASON_GAPS,
    REASON_TAG_DEATH,
    REASON_ANTENNA_FAILOVER,
    REASON_OUTLIERS,
    REASON_MOTION,
    REASON_PHASE_DEGRADED,
    REASON_RSS_FALLBACK,
)
