"""The common scenario-pack harness: replay, tick, score.

Every pack (:mod:`repro.sim.scenarios.packs`) reduces to one
:class:`PackSpec` — a scenario plus capture overrides, a tick cadence,
one or more engine configurations to compare, and the ground-truth event
windows the scoring needs.  :func:`evaluate_pack` runs the capture once,
replays it through each engine serve-style (``feed_batch`` up to each
cadence point + ``estimate_user`` ticks, the deployment shape), and
scores every tick against the paper's Eq. 8 accuracy and the alarm
bookkeeping:

* **confident** — confidence >= :data:`CONFIDENT_CONFIDENCE` and the
  estimate is neither motion-gated nor motion-flagged.  A confident
  estimate is one a downstream consumer would act on unexamined.
* **wrong** — Eq. 8 accuracy below :data:`WRONG_ACCURACY`.
* **in motion** — the tick's analysis window overlaps a ground-truth
  motion window by at least :data:`MIN_MOTION_OVERLAP_S` (shorter
  overlaps give the binned detector nothing to see).
* **false alarm** — a motion flag on a tick whose window contains no
  ground-truth motion at all.
* **missed alarm** — an in-motion tick that is neither gated nor
  flagged.

The headline contract (guarded by ``tools/check_bench_regression.py``):
``confident_wrong_in_motion`` must be **zero** — during gross motion the
pipeline may refuse, gate, flag, or even be wrong *quietly*, but it must
never be confidently wrong.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...config import EstimatorConfig, MotionConfig
from ...core.degradation import REASON_MOTION
from ...core.pipeline import TagBreathe
from ...errors import DegradedEstimateWarning, InsufficientDataError
from ...metrics.accuracy import breathing_rate_accuracy
from ...rf.noise import PhaseNoiseModel
from ..engine import SimulationResult, run_scenario
from ..scenario import Scenario

#: Confidence at or above which an un-flagged estimate counts as
#: "confident" — matches ``RobustnessConfig.warn_confidence``.
CONFIDENT_CONFIDENCE = 0.7

#: Eq. 8 accuracy below which an estimate counts as "wrong" (a 20 %
#: relative rate error — 2.4 bpm at the Table I default 12 bpm).
WRONG_ACCURACY = 0.8

#: Least ground-truth motion inside a tick's window for the tick to
#: count as "in motion" (the detector needs ``min_run_bins`` half-second
#: bins of coherent shift to have anything to flag).
MIN_MOTION_OVERLAP_S = 1.5


@dataclass(frozen=True)
class PackSpec:
    """One scenario pack, fully specified.

    Attributes:
        name: registry key (``repro bench --suite scenarios`` id).
        title: human title for tables.
        description: one-line synopsis.
        scenario: subjects (plus any contending tags) to inventory.
        duration_s: capture length.
        window_s: analysis-window length passed to every tick.
        warmup_s: stream time before the first tick.
        cadence_s: stream time between ticks.
        engines: label -> estimator configuration; each label becomes a
            scored case over the *same* capture.
        motion_windows: user -> ground-truth gross-motion ``(start,
            end)`` spans (empty when the pack has none).
        apnea_windows: user -> ground-truth apnea holds, for the event
            bookkeeping of the apnea/overnight packs.
        phase_noise: optional capture-time phase-noise override (the
            ward pack's degraded-phase regime).
        motion: optional motion-detector override shared by all engines.
    """

    name: str
    title: str
    description: str
    scenario: Scenario
    duration_s: float
    window_s: float
    warmup_s: float
    cadence_s: float
    engines: Mapping[str, EstimatorConfig]
    motion_windows: Mapping[int, Tuple[Tuple[float, float], ...]] = \
        field(default_factory=dict)
    apnea_windows: Mapping[int, Tuple[Tuple[float, float], ...]] = \
        field(default_factory=dict)
    phase_noise: Optional[PhaseNoiseModel] = None
    motion: Optional[MotionConfig] = None


def _overlap_s(lo: float, hi: float,
               spans: Sequence[Tuple[float, float]]) -> float:
    """Total seconds of ``[lo, hi]`` covered by ``spans``."""
    total = 0.0
    for s, e in spans:
        total += max(0.0, min(hi, e) - max(lo, s))
    return total


def _case_metrics(spec: PackSpec, capture: SimulationResult,
                  est_config: EstimatorConfig) -> Dict:
    """Replay the capture through one engine config and score every tick."""
    user_ids = sorted(capture.scenario.monitored_user_ids)
    engine = TagBreathe(user_ids=set(user_ids), estimators=est_config,
                        motion=spec.motion)
    reports = capture.reports
    truth = capture.ground_truth

    ticks = insufficient = 0
    estimator_ticks: Dict[str, int] = {}
    transitions = 0
    previous: Dict[int, str] = {}
    accuracies: List[float] = []        # insufficient scored as 0.0
    clean_accuracies: List[float] = []  # ticks with no event overlap
    confident_wrong = 0
    confident_wrong_in_motion = 0
    in_motion_ticks = missed_alarms = 0
    quiet_ticks = false_alarms = 0
    gated_ticks = flagged_ticks = 0

    # A tick falls due at the first report at or past it, once that
    # report is fed: feed the capture in slices ending at those reports.
    times = reports.t
    next_tick = float(times[0]) + spec.warmup_s if len(reports) else None
    fed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        while next_tick is not None:
            due = np.flatnonzero(times[fed:] >= next_tick)
            if not due.size:
                break
            end = fed + int(due[0]) + 1
            engine.feed_batch(reports[fed:end])
            fed = end
            t = next_tick
            next_tick += spec.cadence_s
            for uid in user_ids:
                ticks += 1
                lo = max(0.0, t - spec.window_s)
                motion_s = _overlap_s(lo, t,
                                      spec.motion_windows.get(uid, ()))
                event_s = motion_s + _overlap_s(
                    lo, t, spec.apnea_windows.get(uid, ()))
                in_motion = motion_s >= MIN_MOTION_OVERLAP_S
                in_motion_ticks += in_motion
                quiet = motion_s == 0.0
                quiet_ticks += quiet
                try:
                    est = engine.estimate_user(uid, window_s=spec.window_s)
                except InsufficientDataError:
                    insufficient += 1
                    accuracies.append(0.0)
                    if event_s == 0.0:
                        clean_accuracies.append(0.0)
                    continue
                accuracy = breathing_rate_accuracy(
                    est.rate_bpm, truth.rate_bpm(uid, lo, t))
                accuracies.append(accuracy)
                if event_s == 0.0:
                    clean_accuracies.append(accuracy)
                estimator_ticks[est.estimator] = \
                    estimator_ticks.get(est.estimator, 0) + 1
                if uid in previous and previous[uid] != est.estimator:
                    transitions += 1
                previous[uid] = est.estimator
                flagged = REASON_MOTION in est.degraded_reasons
                flagged_ticks += flagged
                gated_ticks += est.motion_gated
                confident = (est.confidence >= CONFIDENT_CONFIDENCE
                             and not est.motion_gated and not flagged)
                wrong = accuracy < WRONG_ACCURACY
                if confident and wrong:
                    confident_wrong += 1
                    if in_motion:
                        confident_wrong_in_motion += 1
                if in_motion and not (flagged or est.motion_gated):
                    missed_alarms += 1
                if quiet and (flagged or est.motion_gated):
                    false_alarms += 1

    return {
        "ticks": ticks,
        "insufficient": insufficient,
        "mean_accuracy": (float(np.mean(accuracies))
                          if accuracies else 0.0),
        "mean_accuracy_clean": (float(np.mean(clean_accuracies))
                                if clean_accuracies else 0.0),
        "estimator_ticks": estimator_ticks,
        "estimator_transitions": transitions,
        "gated_ticks": gated_ticks,
        "flagged_ticks": flagged_ticks,
        "confident_wrong": confident_wrong,
        "confident_wrong_in_motion": confident_wrong_in_motion,
        "in_motion_ticks": in_motion_ticks,
        "missed_alarms": missed_alarms,
        "missed_alarm_rate": (missed_alarms / in_motion_ticks
                              if in_motion_ticks else 0.0),
        "quiet_ticks": quiet_ticks,
        "false_alarms": false_alarms,
        "false_alarm_rate": (false_alarms / quiet_ticks
                             if quiet_ticks else 0.0),
    }


def evaluate_pack(spec: PackSpec, seed: int = 0) -> Dict:
    """Capture ``spec``'s scenario once and score every engine case.

    Returns:
        JSON-ready summary: capture facts, ground-truth event counts,
        and one metrics dict per engine label under ``"cases"``.
    """
    capture = run_scenario(spec.scenario, duration_s=spec.duration_s,
                           seed=seed, phase_noise=spec.phase_noise)
    cases = {
        label: _case_metrics(spec, capture, est_config)
        for label, est_config in spec.engines.items()
    }
    return {
        "title": spec.title,
        "description": spec.description,
        "users": len(spec.scenario.monitored_user_ids),
        "duration_s": spec.duration_s,
        "window_s": spec.window_s,
        "cadence_s": spec.cadence_s,
        "reports": len(capture.reports),
        "motion_windows": sum(len(v) for v in spec.motion_windows.values()),
        "apnea_windows": sum(len(v) for v in spec.apnea_windows.values()),
        "cases": cases,
    }
