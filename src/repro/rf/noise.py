"""Measurement-noise models: phase noise vs SNR, RSSI quantisation.

The paper notes phase measurements "are subject to noises" (Section II-B)
and that the COTS reader's RSSI resolution is only 0.5 dBm (Section IV-A-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Phase-estimate noise as a function of receive SNR.

    The sigma floors at ``floor_rad`` (quantisation/oscillator limits of the
    reader) and grows as SNR falls::

        sigma(snr) = floor + ref * 10 ** ((reference_snr_db - snr_db) / 20)

    i.e. inverse-proportional to signal *amplitude*, the standard behaviour
    of an I/Q phase estimator in additive noise.

    Attributes:
        floor_rad: high-SNR noise floor.
        ref_rad: sigma contribution at the reference SNR.
        reference_snr_db: SNR where the SNR-dependent term equals ref_rad.
    """

    floor_rad: float = 0.015
    ref_rad: float = 0.1
    reference_snr_db: float = 20.0

    def __post_init__(self) -> None:
        if self.floor_rad < 0 or self.ref_rad < 0:
            raise ConfigError("noise sigmas must be >= 0")

    def sigma(self, snr_db):
        """Phase-noise sigma [rad] at the given SNR (broadcasts)."""
        if np.ndim(snr_db) == 0:
            return self.floor_rad + self.ref_rad * 10.0 ** ((self.reference_snr_db - snr_db) / 20.0)
        snr = np.asarray(snr_db, dtype=float)
        return self.floor_rad + self.ref_rad * 10.0 ** ((self.reference_snr_db - snr) / 20.0)

    def sample(self, snr_db: float, rng: np.random.Generator) -> float:
        """One phase-noise draw [rad].  Zero sigma consumes no randomness."""
        sigma = self.sigma(snr_db)
        if sigma == 0.0:
            return 0.0
        return float(rng.normal(0.0, sigma))

    def sample_array(self, snr_db: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Independent phase-noise draws, one per SNR value.

        The vectorised twin of :meth:`sample`: each element gets its own
        sigma.  An all-zero sigma vector consumes no randomness, matching
        the scalar gate so RNG-free configurations stay RNG-free.
        """
        sigmas = np.asarray(self.sigma(snr_db), dtype=float)
        if not np.any(sigmas):
            return np.zeros_like(sigmas)
        return rng.normal(0.0, sigmas)


class DynamicMultipath:
    """Slow phase distortion from moving clutter in the environment.

    The paper's office "contains furniture including desks and chairs, and
    electric appliances including laptops and fans" (Section VI-A).  The
    backscatter the reader sees is the direct path plus reflections; when a
    reflector moves (fan sweep, distant person), the composite phase wobbles
    at sub-hertz rates — squarely inside the breathing band.  The relative
    strength of clutter grows with tag distance: the direct two-way path
    weakens as ``d^(2*exponent)`` while room reverberation stays roughly
    constant, so remote tags see proportionally more distortion.  This is
    the dominant reason accuracy degrades with distance in Fig. 12.

    Each (tag, channel, antenna) link gets its own random set of
    interference tones — different channels reflect off the room
    differently — so multi-tag/multi-channel fusion partially averages the
    distortion away, exactly the benefit Section IV-C claims for fusion.

    Args:
        amplitude_at_ref_rad: distortion amplitude at the reference distance.
        reference_m: distance where the reference amplitude applies.
        distance_exponent: amplitude growth power with distance.
        band_hz: frequency band of the clutter motion.
        components: interference tones per link.
        max_amplitude_rad: amplitude cap (phase distortion saturates once
            clutter rivals the direct path).
        rng: random source for per-link tone draws.

    Raises:
        ConfigError: on invalid parameters.
    """

    def __init__(self, amplitude_at_ref_rad: float = 0.03,
                 reference_m: float = 1.0,
                 distance_exponent: float = 1.5,
                 band_hz: tuple = (0.05, 0.6),
                 components: int = 2,
                 max_amplitude_rad: float = 1.0,
                 rng: np.random.Generator = None) -> None:
        if amplitude_at_ref_rad < 0:
            raise ConfigError("amplitude_at_ref_rad must be >= 0")
        if reference_m <= 0:
            raise ConfigError("reference_m must be > 0")
        lo, hi = band_hz
        if not 0 < lo < hi:
            raise ConfigError(f"invalid clutter band {band_hz}")
        if components < 1:
            raise ConfigError("need at least one component")
        if max_amplitude_rad <= 0:
            raise ConfigError("max_amplitude_rad must be > 0")
        self._a_ref = float(amplitude_at_ref_rad)
        self._d_ref = float(reference_m)
        self._exp = float(distance_exponent)
        self._band = (float(lo), float(hi))
        self._k = int(components)
        self._a_max = float(max_amplitude_rad)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._links: dict = {}

    def _components_for(self, link_key) -> tuple:
        entry = self._links.get(link_key)
        if entry is None:
            freqs = self._rng.uniform(*self._band, size=self._k)
            phases = self._rng.uniform(0.0, 2.0 * np.pi, size=self._k)
            raw = self._rng.uniform(0.3, 1.0, size=self._k)
            weights = raw / np.sqrt(float(np.sum(raw ** 2)))
            entry = (freqs, phases, weights)
            self._links[link_key] = entry
        return entry

    def amplitude_rad(self, distance_m):
        """Distortion amplitude [rad] for a link at ``distance_m``.

        Broadcasts over distance arrays.

        Raises:
            ConfigError: on non-positive distance.
        """
        if np.ndim(distance_m) == 0:
            if distance_m <= 0:
                raise ConfigError("distance must be > 0")
            return min(self._a_max,
                       self._a_ref * (distance_m / self._d_ref) ** self._exp)
        d = np.asarray(distance_m, dtype=float)
        if np.any(d <= 0):
            raise ConfigError("distance must be > 0")
        return np.minimum(self._a_max, self._a_ref * (d / self._d_ref) ** self._exp)

    def phase_offset(self, link_key, t: float, distance_m: float) -> float:
        """The link's clutter phase distortion [rad] at time ``t``.

        A zero reference amplitude short-circuits to 0 without drawing the
        link's tone set, so amplitude-free configurations consume no
        randomness.
        """
        if self._a_ref == 0.0:
            return 0.0
        freqs, phases, weights = self._components_for(link_key)
        amp = self.amplitude_rad(distance_m)
        return float(amp * np.sum(
            weights * np.sin(2.0 * np.pi * freqs * t + phases)
        ))

    def ensure_link(self, link_key) -> None:
        """Materialise a link's tone set (no-op at zero reference amplitude).

        The batched reader synthesis calls this at each link's first
        touch, in event order, so lazy per-link draws land in the same
        RNG sequence the per-read scalar path would produce.
        """
        if self._a_ref == 0.0:
            return
        self._components_for(link_key)

    def phase_offsets(self, links: Sequence, link_of: np.ndarray,
                      t: np.ndarray, distance_m: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`phase_offset` for reads of many links.

        The tones of every read are one elementwise pass; each link's
        weighted tone sum stays one matrix-vector product over that
        link's reads in order: BLAS rounds it differently than an
        elementwise sum would, and the synthesised captures are pinned
        to that product.

        Args:
            links: the link keys.
            link_of: per read, the index of its link in ``links``.
            t / distance_m: per read, its time and distance.
        """
        t = np.asarray(t, dtype=float)
        if self._a_ref == 0.0:
            return np.zeros_like(t)
        entries = [self._components_for(link) for link in links]
        freqs = np.array([entry[0] for entry in entries])[link_of]
        phases = np.array([entry[1] for entry in entries])[link_of]
        tones = np.sin(2.0 * np.pi * (t[:, None] * freqs) + phases)
        order = np.argsort(link_of, kind="stable")
        bounds = np.searchsorted(link_of[order],
                                 np.arange(len(entries) + 1)).tolist()
        tones = tones[order]
        sums = np.empty(t.shape[0])
        for li, (_, _, weights) in enumerate(entries):
            lo, hi = bounds[li], bounds[li + 1]
            sums[order[lo:hi]] = tones[lo:hi] @ weights
        return self.amplitude_rad(distance_m) * sums


def quantize_rssi(rssi_dbm, resolution_db: float = 0.5):
    """Quantise an RSSI value to the reader's reporting resolution.

    The paper calls out the 0.5 dBm resolution as the reason RSSI cannot
    resolve subtle chest motion in challenging scenarios (Section IV-A-1).
    Broadcasts over arrays (both paths round half-to-even).

    Raises:
        ValueError: on non-positive resolution.
    """
    if resolution_db <= 0:
        raise ValueError(f"resolution must be > 0, got {resolution_db}")
    if np.ndim(rssi_dbm) == 0:
        return round(rssi_dbm / resolution_db) * resolution_db
    return np.round(np.asarray(rssi_dbm, dtype=float) / resolution_db) * resolution_db
