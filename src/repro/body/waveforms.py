"""Breathing waveform generators — the synthetic chest.

The paper paces volunteers with "a breathing metronome application" at
known rates of 5–20 bpm (Section VI-A); the waveform classes here play
that role.  All waveforms report chest-wall *displacement* in metres as a
function of time, positive = chest expanded (inhaled).

Typical quiet-breathing chest excursion is a few millimetres to a
centimetre; the default amplitude of 5 mm sits in that range.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from ..errors import BodyModelError
from ..units import TWO_PI, bpm_to_hz

#: Default peak chest-wall displacement [m] during quiet breathing.
#: Clinical studies put quiet-breathing anterior chest/abdomen excursion
#: at roughly 4-12 mm; 10 mm is a typical adult value.
DEFAULT_AMPLITUDE_M = 0.010


class BreathingWaveform(ABC):
    """Abstract chest-displacement-vs-time model.

    Subclasses must be deterministic functions of time after construction
    (the simulation engine evaluates them at arbitrary, repeated instants).
    """

    @abstractmethod
    def displacement(self, t: float) -> float:
        """Chest-wall displacement [m] at time ``t`` (0 = fully exhaled rest)."""

    @abstractmethod
    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        """Ground-truth average breathing rate [bpm] over a window."""

    def displacement_array(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`displacement` (default: a Python loop)."""
        return np.array([self.displacement(float(t)) for t in times])

    def peak_displacement_m(self) -> Optional[float]:
        """A bound [m] the displacement never exceeds, or ``None``.

        Every shipped waveform stays within ``[0, bound]`` at every
        instant, on the scalar and the array path alike.  The reader uses
        the bound to decide most link checks without evaluating the
        trajectory; a waveform that answers ``None`` (the default) has its
        tags probed exactly at every slot.
        """
        return None


class SinusoidalBreathing(BreathingWaveform):
    """Pure sinusoidal breathing at a fixed rate — the idealised metronome.

    Args:
        rate_bpm: breathing rate in breaths per minute.
        amplitude_m: peak chest displacement.
        phase_rad: starting phase.

    Raises:
        BodyModelError: on non-positive rate or negative amplitude.
    """

    def __init__(self, rate_bpm: float, amplitude_m: float = DEFAULT_AMPLITUDE_M,
                 phase_rad: float = 0.0) -> None:
        if rate_bpm <= 0:
            raise BodyModelError(f"rate_bpm must be > 0, got {rate_bpm}")
        if amplitude_m < 0:
            raise BodyModelError("amplitude must be >= 0")
        self._rate_hz = bpm_to_hz(rate_bpm)
        self._rate_bpm = float(rate_bpm)
        self._amp = float(amplitude_m)
        self._phase = float(phase_rad)

    @property
    def rate_bpm(self) -> float:
        """The fixed breathing rate."""
        return self._rate_bpm

    def displacement(self, t: float) -> float:
        # Raised sinusoid so displacement stays in [0, amplitude]:
        # breathing oscillates between exhaled rest and full inhalation.
        return self._amp * 0.5 * (1.0 - math.cos(TWO_PI * self._rate_hz * t + self._phase))

    def displacement_array(self, times: np.ndarray) -> np.ndarray:
        return self._amp * 0.5 * (1.0 - np.cos(TWO_PI * self._rate_hz * times + self._phase))

    def peak_displacement_m(self) -> float:
        return self._amp

    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        return self._rate_bpm


class AsymmetricBreathing(BreathingWaveform):
    """Realistic breathing: inhalation is faster than exhalation.

    Each cycle spends ``inhale_fraction`` of its period inhaling (raised
    half-cosine up) and the rest exhaling (raised half-cosine down), giving
    the skewed sawtooth-ish shape of real respiration traces.

    Args:
        rate_bpm: breathing rate.
        amplitude_m: peak chest displacement.
        inhale_fraction: fraction of the cycle spent inhaling (typically
            ~0.4; exhalation is the longer phase at rest).

    Raises:
        BodyModelError: on invalid rate, amplitude, or fraction.
    """

    def __init__(self, rate_bpm: float, amplitude_m: float = DEFAULT_AMPLITUDE_M,
                 inhale_fraction: float = 0.4) -> None:
        if rate_bpm <= 0:
            raise BodyModelError(f"rate_bpm must be > 0, got {rate_bpm}")
        if amplitude_m < 0:
            raise BodyModelError("amplitude must be >= 0")
        if not 0.05 <= inhale_fraction <= 0.95:
            raise BodyModelError("inhale_fraction must be in [0.05, 0.95]")
        self._rate_bpm = float(rate_bpm)
        self._period = 60.0 / rate_bpm
        self._amp = float(amplitude_m)
        self._frac = float(inhale_fraction)

    @property
    def rate_bpm(self) -> float:
        """The fixed breathing rate."""
        return self._rate_bpm

    def displacement(self, t: float) -> float:
        u = (t % self._period) / self._period
        if u < self._frac:  # inhaling: 0 -> amplitude
            x = u / self._frac
            return self._amp * 0.5 * (1.0 - math.cos(math.pi * x))
        x = (u - self._frac) / (1.0 - self._frac)  # exhaling: amplitude -> 0
        return self._amp * 0.5 * (1.0 + math.cos(math.pi * x))

    def displacement_array(self, times: np.ndarray) -> np.ndarray:
        u = (np.asarray(times, dtype=float) % self._period) / self._period
        x_in = u / self._frac
        x_out = (u - self._frac) / (1.0 - self._frac)
        return np.where(
            u < self._frac,
            self._amp * 0.5 * (1.0 - np.cos(np.pi * x_in)),
            self._amp * 0.5 * (1.0 + np.cos(np.pi * x_out)),
        )

    def peak_displacement_m(self) -> float:
        return self._amp

    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        return self._rate_bpm


class IrregularBreathing(BreathingWaveform):
    """Breathing with cycle-to-cycle rate jitter and optional pauses.

    Models the intro's observation that "people may have irregular
    breathing patterns alternating between fast and slow with occasional
    pauses".  Cycle durations are drawn once (seeded) at construction, so
    the waveform is a deterministic function of time afterwards.

    Args:
        base_rate_bpm: nominal rate around which cycles jitter.
        amplitude_m: peak chest displacement.
        rate_jitter: relative sigma of per-cycle duration jitter.
        pause_probability: chance a cycle is followed by a breath hold.
        pause_duration_s: mean hold length (exponentially distributed).
        seed: RNG seed for the cycle schedule.
        horizon_s: schedule length; queries beyond it raise.

    Raises:
        BodyModelError: on invalid parameters.
    """

    def __init__(self, base_rate_bpm: float,
                 amplitude_m: float = DEFAULT_AMPLITUDE_M,
                 rate_jitter: float = 0.08,
                 pause_probability: float = 0.0,
                 pause_duration_s: float = 2.0,
                 seed: int = 0,
                 horizon_s: float = 600.0) -> None:
        if base_rate_bpm <= 0:
            raise BodyModelError("base_rate_bpm must be > 0")
        if amplitude_m < 0:
            raise BodyModelError("amplitude must be >= 0")
        if not 0.0 <= rate_jitter < 0.5:
            raise BodyModelError("rate_jitter must be in [0, 0.5)")
        if not 0.0 <= pause_probability <= 1.0:
            raise BodyModelError("pause_probability must be in [0, 1]")
        if pause_duration_s < 0:
            raise BodyModelError("pause_duration_s must be >= 0")
        self._amp = float(amplitude_m)
        self._horizon = float(horizon_s)
        rng = np.random.default_rng(seed)
        base_period = 60.0 / base_rate_bpm
        # Pre-draw the cycle schedule: list of (start, breath_duration,
        # pause_after) covering the horizon.
        self._cycles: List[Tuple[float, float, float]] = []
        t = 0.0
        while t < self._horizon:
            duration = base_period * max(0.3, 1.0 + rng.normal(0.0, rate_jitter))
            pause = 0.0
            if pause_probability > 0 and rng.random() < pause_probability:
                pause = float(rng.exponential(pause_duration_s))
            self._cycles.append((t, duration, pause))
            t += duration + pause
        self._starts = np.array([c[0] for c in self._cycles])

    def displacement(self, t: float) -> float:
        if t < 0 or t > self._horizon:
            raise BodyModelError(
                f"time {t} outside schedule horizon [0, {self._horizon}]"
            )
        idx = int(np.searchsorted(self._starts, t, side="right")) - 1
        idx = max(0, idx)
        start, duration, _pause = self._cycles[idx]
        u = t - start
        if u >= duration:  # inside the pause after this cycle: hold at rest
            return 0.0
        return self._amp * 0.5 * (1.0 - math.cos(TWO_PI * u / duration))

    def displacement_array(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if times.size and (times.min() < 0 or times.max() > self._horizon):
            raise BodyModelError(
                f"times outside schedule horizon [0, {self._horizon}]"
            )
        idx = np.maximum(0, np.searchsorted(self._starts, times, side="right") - 1)
        starts = self._starts[idx]
        durations = np.array([self._cycles[i][1] for i in idx])
        u = times - starts
        disp = self._amp * 0.5 * (1.0 - np.cos(TWO_PI * u / durations))
        return np.where(u >= durations, 0.0, disp)

    def peak_displacement_m(self) -> float:
        return self._amp

    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        """Cycles completed per minute within the window.

        Counts cycle *durations* (excluding holds) overlapping the window,
        the same quantity a human scorer counting breaths would report.

        Raises:
            BodyModelError: on an empty window.
        """
        if t_end <= t_start:
            raise BodyModelError("window must have positive duration")
        breaths = 0.0
        for start, duration, _pause in self._cycles:
            if start >= t_end or start + duration <= t_start:
                continue
            overlap = min(t_end, start + duration) - max(t_start, start)
            breaths += overlap / duration
        return breaths / (t_end - t_start) * 60.0


class ApneaSighBreathing(BreathingWaveform):
    """Clinically eventful breathing: apnea holds and sigh breaths.

    The intro's "occasional pauses" taken to their clinical extreme — the
    pattern an overnight ward monitor exists to catch.  The schedule is a
    sequence of raised-cosine cycles around ``base_rate_bpm``; seeded
    events perturb it two ways:

    * **apnea** — after a cycle, breathing *stops* for a uniform
      ``[apnea_min_s, apnea_max_s]`` hold (clinical apneas run 10 s and
      up).  The chest sits at exhaled rest for the whole hold.
    * **sigh** — a cycle's amplitude is multiplied by ``sigh_gain`` and
      its duration stretched 1.5x, the deep augmented breath healthy
      sleepers take a few times an hour.

    The schedule is drawn once at construction, so the waveform is a
    deterministic function of time afterwards, and the ground-truth
    event times are exposed for scenario-pack scoring via
    :attr:`apnea_windows` and :attr:`sigh_times`.

    Args:
        base_rate_bpm: nominal rate between events.
        amplitude_m: peak chest displacement of a normal cycle.
        apnea_per_minute: mean apnea events per minute (Poisson-ish:
            each cycle ends in a hold with the matching probability).
        apnea_min_s / apnea_max_s: hold-duration bounds.
        sigh_probability: per-cycle chance of a sigh.
        sigh_gain: amplitude multiplier of a sigh cycle.
        seed: RNG seed for the event schedule.
        horizon_s: schedule length; queries beyond it raise.

    Raises:
        BodyModelError: on invalid parameters.
    """

    def __init__(self, base_rate_bpm: float,
                 amplitude_m: float = DEFAULT_AMPLITUDE_M,
                 apnea_per_minute: float = 0.5,
                 apnea_min_s: float = 10.0,
                 apnea_max_s: float = 25.0,
                 sigh_probability: float = 0.03,
                 sigh_gain: float = 2.5,
                 seed: int = 0,
                 horizon_s: float = 600.0) -> None:
        if base_rate_bpm <= 0:
            raise BodyModelError("base_rate_bpm must be > 0")
        if amplitude_m < 0:
            raise BodyModelError("amplitude must be >= 0")
        if apnea_per_minute < 0:
            raise BodyModelError("apnea_per_minute must be >= 0")
        if not 0.0 < apnea_min_s <= apnea_max_s:
            raise BodyModelError("need 0 < apnea_min_s <= apnea_max_s")
        if not 0.0 <= sigh_probability <= 1.0:
            raise BodyModelError("sigh_probability must be in [0, 1]")
        if sigh_gain < 1.0:
            raise BodyModelError("sigh_gain must be >= 1")
        self._amp = float(amplitude_m)
        self._horizon = float(horizon_s)
        rng = np.random.default_rng(seed)
        base_period = 60.0 / base_rate_bpm
        hold_probability = min(1.0, apnea_per_minute * base_period / 60.0)
        # Pre-draw the schedule: (start, breath_duration, hold_after, gain).
        self._cycles: List[Tuple[float, float, float, float]] = []
        self._apnea_windows: List[Tuple[float, float]] = []
        self._sigh_times: List[float] = []
        t = 0.0
        while t < self._horizon:
            duration = base_period * max(0.3, 1.0 + rng.normal(0.0, 0.06))
            gain = 1.0
            if rng.random() < sigh_probability:
                gain = float(sigh_gain)
                duration *= 1.5
                self._sigh_times.append(t)
            hold = 0.0
            if rng.random() < hold_probability:
                hold = float(rng.uniform(apnea_min_s, apnea_max_s))
                self._apnea_windows.append((t + duration, t + duration + hold))
            self._cycles.append((t, duration, hold, gain))
            t += duration + hold
        self._starts = np.array([c[0] for c in self._cycles])
        self._durations = np.array([c[1] for c in self._cycles])
        self._gains = np.array([c[3] for c in self._cycles])

    @property
    def apnea_windows(self) -> List[Tuple[float, float]]:
        """Ground-truth ``(start, end)`` of every scheduled apnea hold."""
        return list(self._apnea_windows)

    @property
    def sigh_times(self) -> List[float]:
        """Ground-truth onset times of every scheduled sigh cycle."""
        return list(self._sigh_times)

    def displacement(self, t: float) -> float:
        if t < 0 or t > self._horizon:
            raise BodyModelError(
                f"time {t} outside schedule horizon [0, {self._horizon}]"
            )
        idx = max(0, int(np.searchsorted(self._starts, t, side="right")) - 1)
        start, duration, _hold, gain = self._cycles[idx]
        u = t - start
        if u >= duration:  # inside the apnea hold: chest at exhaled rest
            return 0.0
        return self._amp * gain * 0.5 * (1.0 - math.cos(TWO_PI * u / duration))

    def displacement_array(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if times.size and (times.min() < 0 or times.max() > self._horizon):
            raise BodyModelError(
                f"times outside schedule horizon [0, {self._horizon}]"
            )
        idx = np.maximum(0, np.searchsorted(self._starts, times, side="right") - 1)
        u = times - self._starts[idx]
        durations = self._durations[idx]
        disp = (self._amp * self._gains[idx] * 0.5
                * (1.0 - np.cos(TWO_PI * u / durations)))
        return np.where(u >= durations, 0.0, disp)

    def peak_displacement_m(self) -> float:
        """The amplitude times the largest gain in the schedule (a sigh's)."""
        return self._amp * max((c[3] for c in self._cycles), default=1.0)

    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        """Cycles completed per minute within the window (holds excluded).

        Raises:
            BodyModelError: on an empty window.
        """
        if t_end <= t_start:
            raise BodyModelError("window must have positive duration")
        breaths = 0.0
        for start, duration, _hold, _gain in self._cycles:
            if start >= t_end or start + duration <= t_start:
                continue
            overlap = min(t_end, start + duration) - max(t_start, start)
            breaths += overlap / duration
        return breaths / (t_end - t_start) * 60.0


class MetronomeBreathing(AsymmetricBreathing):
    """Metronome-paced breathing as in the paper's evaluation protocol.

    A human following a metronome still exhibits small cycle-to-cycle
    deviations; this waveform wraps :class:`AsymmetricBreathing` with a
    slow sinusoidal rate wander of relative magnitude ``compliance_jitter``
    to capture the imperfect pacing that makes even the paper's 1 m
    accuracy 98 % rather than 100 %.

    Args:
        rate_bpm: the metronome setting — the experiment ground truth.
        amplitude_m: peak chest displacement.
        compliance_jitter: relative magnitude of the human's rate wander.
        wander_period_s: period of the slow wander.

    Raises:
        BodyModelError: on invalid jitter.
    """

    def __init__(self, rate_bpm: float, amplitude_m: float = DEFAULT_AMPLITUDE_M,
                 compliance_jitter: float = 0.03,
                 wander_period_s: float = 37.0) -> None:
        super().__init__(rate_bpm, amplitude_m)
        if not 0.0 <= compliance_jitter < 0.5:
            raise BodyModelError("compliance_jitter must be in [0, 0.5)")
        if wander_period_s <= 0:
            raise BodyModelError("wander_period_s must be > 0")
        self._jitter = float(compliance_jitter)
        self._wander_hz = 1.0 / wander_period_s

    def displacement(self, t: float) -> float:
        # Warp time with a slow sinusoid: the instantaneous rate wanders
        # +/- jitter around the metronome, averaging back to it.
        warp = t + self._jitter / (TWO_PI * self._wander_hz) * (
            1.0 - math.cos(TWO_PI * self._wander_hz * t)
        )
        return super().displacement(warp)

    def displacement_array(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        warp = times + self._jitter / (TWO_PI * self._wander_hz) * (
            1.0 - np.cos(TWO_PI * self._wander_hz * times)
        )
        return super().displacement_array(warp)

    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        # The wander integrates to (almost) zero over a window; ground
        # truth remains the metronome setting, as the paper treats it.
        return self.rate_bpm
