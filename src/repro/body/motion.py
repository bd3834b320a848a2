"""Non-breathing body motion: the slow postural sway of a seated person.

Even a person sitting "still" sways by fractions of a millimetre to a few
millimetres at frequencies overlapping the breathing band — one of the
reasons extraction from a single tag is harder than textbook filtering
would suggest, and part of why the paper fuses multiple tags (all tags on
one torso share the sway, but it partially decorrelates between the
antenna-projection of differently-placed tags).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import BodyModelError


class BodySway:
    """Sum-of-sinusoids postural sway displacement [m].

    A deterministic (seeded) quasi-random process: a handful of incommensurate
    low-frequency sinusoids with random phases.  Deterministic evaluation at
    arbitrary ``t`` keeps the simulation engine reproducible.

    Args:
        amplitude_m: total RMS-ish sway amplitude.
        band_hz: sway band (postural sway concentrates below ~0.5 Hz).
        components: number of sinusoids.
        seed: RNG seed for frequencies/phases.

    Raises:
        BodyModelError: on invalid parameters.
    """

    def __init__(self, amplitude_m: float = 0.0006,
                 band_hz: tuple = (0.02, 0.5),
                 components: int = 5,
                 seed: Optional[int] = None) -> None:
        if amplitude_m < 0:
            raise BodyModelError("amplitude must be >= 0")
        lo, hi = band_hz
        if not 0 < lo < hi:
            raise BodyModelError(f"invalid sway band {band_hz}")
        if components < 1:
            raise BodyModelError("need at least one component")
        rng = np.random.default_rng(seed)
        self._freqs = rng.uniform(lo, hi, size=components)
        self._phases = rng.uniform(0.0, 2.0 * math.pi, size=components)
        weights = rng.uniform(0.5, 1.0, size=components)
        norm = math.sqrt(float(np.sum(weights ** 2) / 2.0))
        self._amps = amplitude_m * weights / norm if norm > 0 else weights * 0.0
        # Angular frequencies for the scalar path, which the reader's link
        # check evaluates once per worn-tag slot.
        self._omegas = 2.0 * math.pi * self._freqs

    def displacement(self, t: float) -> float:
        """Sway displacement [m] at time ``t`` (along the line of sight)."""
        return float((self._amps * np.sin(self._omegas * t + self._phases)).sum())

    def displacement_array(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`displacement`."""
        arg = 2.0 * math.pi * np.outer(times, self._freqs) + self._phases
        return (np.sin(arg) * self._amps).sum(axis=1)

    def peak_displacement_m(self) -> float:
        """Sum of the component amplitudes: |displacement| never exceeds it."""
        return float(np.abs(self._amps).sum())
