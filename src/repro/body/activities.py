"""Non-breathing body activity: transient motion bursts.

The paper's evaluation keeps subjects still, but real users shift in
their chairs, lean forward, reach for things.  Those transients are far
larger than breathing (centimetres vs millimetres) and briefly swamp the
phase signal; a robust monitor must survive them.  This module wraps any
breathing waveform with occasional smooth motion bursts so robustness
can be tested and the rate tracker's outlier gating exercised.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..errors import BodyModelError
from .waveforms import BreathingWaveform


class TransientMotion:
    """Pre-drawn schedule of smooth displacement bursts.

    Each burst is a raised-cosine excursion: the body leans out by
    ``amplitude`` and returns over ``duration`` seconds.  The schedule is
    drawn once (seeded) so evaluation stays reproducible.

    Args:
        rate_per_minute: average bursts per minute (Poisson).
        amplitude_m: peak excursion per burst.
        duration_s: burst length.
        horizon_s: schedule length.
        seed: RNG seed.

    Raises:
        BodyModelError: on invalid parameters.
    """

    def __init__(self, rate_per_minute: float = 2.0,
                 amplitude_m: float = 0.05,
                 duration_s: float = 1.5,
                 horizon_s: float = 600.0,
                 seed: Optional[int] = None) -> None:
        if rate_per_minute < 0:
            raise BodyModelError("rate_per_minute must be >= 0")
        if amplitude_m < 0:
            raise BodyModelError("amplitude_m must be >= 0")
        if duration_s <= 0:
            raise BodyModelError("duration_s must be > 0")
        if horizon_s <= 0:
            raise BodyModelError("horizon_s must be > 0")
        self._amp = float(amplitude_m)
        self._dur = float(duration_s)
        self._horizon = float(horizon_s)
        rng = np.random.default_rng(seed)
        self._bursts: List[float] = []
        if rate_per_minute > 0:
            t = 0.0
            mean_gap = 60.0 / rate_per_minute
            while t < horizon_s:
                t += float(rng.exponential(mean_gap))
                if t < horizon_s:
                    self._bursts.append(t)

    @property
    def amplitude_m(self) -> float:
        """Peak excursion of one burst; displacement stays in [0, this]."""
        return self._amp

    @property
    def burst_times(self) -> List[float]:
        """Scheduled burst onset times."""
        return list(self._bursts)

    def displacement(self, t: float) -> float:
        """Transient displacement [m] at time ``t``."""
        for start in self._bursts:
            if start <= t < start + self._dur:
                u = (t - start) / self._dur
                return self._amp * 0.5 * (1.0 - math.cos(2.0 * math.pi * u))
        return 0.0

    def displacement_array(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`displacement` over a time vector.

        Replicates the scalar path's first-match rule bit for bit (when
        two drawn bursts overlap, the earlier-scheduled one wins), so
        batched and per-instant trajectory synthesis agree exactly.
        """
        times = np.asarray(times, dtype=float)
        disp = np.zeros(times.shape)
        taken = np.zeros(times.shape, dtype=bool)
        for start in self._bursts:
            u = (times - start) / self._dur
            active = (u >= 0.0) & (u < 1.0) & ~taken
            disp[active] = self._amp * 0.5 * (
                1.0 - np.cos(2.0 * np.pi * u[active]))
            taken |= active
        return disp

    def is_active(self, t: float) -> bool:
        """True while a burst is in progress at ``t``."""
        return any(start <= t < start + self._dur for start in self._bursts)

    def active_windows(self) -> List[Tuple[float, float]]:
        """Ground-truth ``(start, end)`` of every scheduled burst."""
        return [(start, start + self._dur) for start in self._bursts]


class RestlessBreathing(BreathingWaveform):
    """A breathing waveform plus transient motion bursts.

    Wraps any :class:`~repro.body.waveforms.BreathingWaveform`; the
    ground-truth rate remains the wrapped waveform's (the bursts are
    interference, not breathing).

    Args:
        breathing: the underlying waveform.
        transients: the burst schedule.
    """

    def __init__(self, breathing: BreathingWaveform,
                 transients: TransientMotion) -> None:
        self._breathing = breathing
        self._transients = transients

    @property
    def transients(self) -> TransientMotion:
        """The wrapped burst schedule."""
        return self._transients

    def displacement(self, t: float) -> float:
        return self._breathing.displacement(t) + self._transients.displacement(t)

    def displacement_array(self, times: np.ndarray) -> np.ndarray:
        return (self._breathing.displacement_array(times)
                + self._transients.displacement_array(times))

    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        return self._breathing.true_rate_bpm(t_start, t_end)

    def peak_displacement_m(self) -> Optional[float]:
        """The wrapped waveform's bound plus the burst amplitude."""
        bound = self._breathing.peak_displacement_m()
        return None if bound is None else bound + self._transients.amplitude_m

    def clean_windows(self, t_start: float, t_end: float,
                      min_length_s: float = 10.0) -> List[Tuple[float, float]]:
        """Sub-windows of ``[t_start, t_end]`` free of bursts.

        A monitor that knows motion happened (e.g. from the same phase
        data's large excursions) would restrict analysis to these spans.

        Raises:
            BodyModelError: on an empty window.
        """
        if t_end <= t_start:
            raise BodyModelError("window must have positive duration")
        edges = [t_start]
        for start in self._transients.burst_times:
            if t_start < start < t_end:
                edges.extend([start, min(t_end, start + self._transients._dur)])
        edges.append(t_end)
        windows = []
        for a, b in zip(edges[::2], edges[1::2]):
            if b - a >= min_length_s:
                windows.append((a, b))
        return windows
