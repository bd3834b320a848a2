"""Fault injection for robustness campaigns.

This package sits between capture production
(:func:`repro.sim.engine.run_scenario` / :meth:`repro.reader.reader.Reader.run`)
and capture consumption (:class:`repro.core.pipeline.TagBreathe`): seeded,
chainable column transforms that perturb a
:class:`~repro.reader.batch.ReportBatch` capture with the failures a
deployed RFID installation actually sees — report loss (i.i.d. and
bursty), tag dropout and permanent death, antenna-port outages, phase
glitches and pi-ambiguity flips, timestamp jitter, duplicate and
out-of-order delivery, interference bursts, and gross
subject-motion bursts.

Every injector is severity-parameterised with a guaranteed identity at
severity 0, and every chain is reproducible under a fixed seed.  See
DESIGN.md "Failure modes & degradation" for the injector -> paper
phenomenon -> pipeline counter map.
"""

from .chain import FaultChain, InjectionStats
from .injectors import (
    ALL_INJECTORS,
    AntennaOutage,
    BurstyDrop,
    DuplicateReports,
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

__all__ = [
    "FaultChain",
    "InjectionStats",
    "FaultInjector",
    "ALL_INJECTORS",
    "ReportDrop",
    "BurstyDrop",
    "InterferenceBurst",
    "TagDropout",
    "TagDeath",
    "AntennaOutage",
    "PhaseOutliers",
    "PhasePiFlips",
    "TimestampJitter",
    "DuplicateReports",
    "OutOfOrderDelivery",
    "MotionBurst",
]
