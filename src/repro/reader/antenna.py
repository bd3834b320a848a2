"""Antenna model and round-robin multi-antenna scheduling.

    "a commodity reader can be connected to multiple antennas (e.g., 4
    antenna ports for one Impinj R420). The reader coordinates the multiple
    antennas with the round-robin scheduling and avoids the inter-antenna
    interference. ... only one antenna will be powered up at a time"
    (Section IV-D-3)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AntennaError

Vec3 = Tuple[float, float, float]

# A cosine off boresight within this of 0 may lie on either side of the
# pattern's jump to the back-lobe floor once positions are rounded.
_COS_SLACK = 1e-9


def _as_vec(v: Sequence[float]) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise AntennaError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Antenna:
    """One reader antenna: position, boresight, and a simple gain pattern.

    The paper's Alien ALR-8696-C is a circularly polarised panel with
    8.5 dBic peak gain and a roughly 70-degree beamwidth; the pattern here
    is the standard cos^k rolloff fitted to that beamwidth.

    Attributes:
        port: 1-based LLRP antenna port.
        position_m: antenna phase-centre position (paper: 1 m above ground).
        boresight: unit-ish vector the panel faces along.
        peak_gain_dbi: gain on boresight.
        beamwidth_deg: full 3 dB beamwidth.
    """

    port: int
    position_m: Vec3 = (0.0, 0.0, 1.0)
    boresight: Vec3 = (1.0, 0.0, 0.0)
    peak_gain_dbi: float = 8.5
    beamwidth_deg: float = 70.0

    def __post_init__(self) -> None:
        if self.port < 1:
            raise AntennaError("antenna port is 1-based")
        if self.beamwidth_deg <= 0 or self.beamwidth_deg > 360:
            raise AntennaError("beamwidth must be in (0, 360] degrees")
        if float(np.linalg.norm(self.boresight)) == 0.0:
            raise AntennaError("boresight must be non-zero")

    def gain_dbi_toward(self, point_m: Sequence[float]) -> float:
        """Gain [dBi] in the direction of ``point_m``.

        Uses the cos^k pattern with k chosen so gain drops 3 dB at half the
        beamwidth; directions behind the panel get a -20 dB back lobe.
        """
        return self.gain_and_distance(point_m)[0]

    def distance_to(self, point_m: Sequence[float]) -> float:
        """Euclidean distance [m] from the antenna to ``point_m``."""
        return self.gain_and_distance(point_m)[1]

    def gain_and_distance(self, point_m: Sequence[float]) -> Tuple[float, float]:
        """``(gain_dbi, distance_m)`` toward ``point_m`` in one evaluation.

        The single scalar evaluation of the cos^k pattern: the link check
        needs both terms per slot, and the geometry (antenna position,
        boresight norm, rolloff exponent) comes from cached properties.
        ``math.sqrt(d.dot(d))`` is what ``np.linalg.norm`` computes for a
        real vector, so the distance is the same float either way.
        """
        direction = _as_vec(point_m) - self._position_vec
        dist = math.sqrt(direction.dot(direction))
        if dist == 0.0:
            return self.peak_gain_dbi, dist
        cos_angle = float(direction @ self._boresight_vec
                          / (dist * self._boresight_norm))
        cos_angle = min(1.0, max(-1.0, cos_angle))
        return self._pattern_gain_dbi(cos_angle), dist

    def _pattern_gain_dbi(self, cos_angle: float) -> float:
        """The cos^k pattern [dBi] at a cosine off boresight in [-1, 1].

        Non-decreasing in ``cos_angle``.  A cosine so small that its square
        underflows to 0 lands on the -20 dB floor without a warning.
        """
        if cos_angle <= 0.0:
            return self.peak_gain_dbi - 20.0
        with np.errstate(divide="ignore"):
            rolloff_db = 10.0 * self._rolloff_exponent * np.log10(cos_angle ** 2)
        return self.peak_gain_dbi + max(rolloff_db, -20.0)

    def gain_and_distance_bounds(self, centre_m: Sequence[float],
                                 radius_m: float
                                 ) -> Optional[Tuple[float, float, float, float]]:
        """``(gain_lo, gain_hi, dist_lo, dist_hi)`` over a ball of points.

        Bounds :meth:`gain_and_distance` for every point within
        ``radius_m`` of ``centre_m``.  The distance lies in
        ``centre distance +/- radius``; the pattern is non-decreasing in the
        cosine off boresight, and the ball's directions span the angle to
        its centre plus or minus ``asin(radius / distance)``.  The bounds
        are the exact real extremes; callers widen them for float rounding.
        At cos = 0 the pattern jumps to the back-lobe floor, where rounding
        is not a small error in dB, so a cosine extreme within
        ``_COS_SLACK`` of 0 is taken on both sides of the jump.

        Returns:
            ``None`` when the ball reaches the antenna, where neither term
            is bounded away from the coincident-point special case.
        """
        direction = _as_vec(centre_m) - self._position_vec
        dist = math.sqrt(direction.dot(direction))
        if not radius_m < dist:
            return None
        boresight = self._boresight_vec / self._boresight_norm
        along = float(direction @ boresight)
        across = float(np.linalg.norm(np.cross(direction, boresight)))
        angle = math.atan2(across, along)
        spread = math.asin(radius_m / dist)
        cos_hi = math.cos(max(0.0, angle - spread))
        cos_lo = math.cos(min(math.pi, angle + spread))
        if cos_lo < _COS_SLACK:
            cos_lo = 0.0
        if abs(cos_hi) < _COS_SLACK:
            cos_hi = _COS_SLACK
        return (self._pattern_gain_dbi(cos_lo), self._pattern_gain_dbi(cos_hi),
                dist - radius_m, dist + radius_m)

    # ------------------------------------------------------------------
    # Cached geometry + vectorised pattern evaluation.  cached_property
    # writes straight into the instance __dict__, which sidesteps the
    # frozen-dataclass __setattr__ guard, so these are safe on Antenna.
    # ------------------------------------------------------------------
    @cached_property
    def _position_vec(self) -> np.ndarray:
        return _as_vec(self.position_m)

    @cached_property
    def _boresight_vec(self) -> np.ndarray:
        return _as_vec(self.boresight)

    @cached_property
    def _boresight_norm(self) -> float:
        return float(np.linalg.norm(self._boresight_vec))

    @cached_property
    def _rolloff_exponent(self) -> float:
        half_bw = np.radians(self.beamwidth_deg / 2.0)
        return float(np.log(0.5) / np.log(np.cos(half_bw) ** 2))

    def distances_to(self, points_m: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`distance_to` over an ``(n, 3)`` point array."""
        deltas = np.asarray(points_m, dtype=float) - self._position_vec
        return np.sqrt(np.einsum("ij,ij->i", deltas, deltas))

    def gain_dbi_toward_array(self, points_m: np.ndarray,
                              distances_m: np.ndarray = None) -> np.ndarray:
        """Vectorised :meth:`gain_dbi_toward` over an ``(n, 3)`` point array.

        Args:
            points_m: target points, one row per query.
            distances_m: precomputed :meth:`distances_to` result, to avoid
                recomputing when the caller already has it.
        """
        points = np.asarray(points_m, dtype=float)
        directions = points - self._position_vec
        if distances_m is None:
            distances_m = np.sqrt(np.einsum("ij,ij->i", directions, directions))
        dist = np.asarray(distances_m, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_angle = (directions @ self._boresight_vec) / (
                dist * self._boresight_norm
            )
        cos_angle = np.clip(np.nan_to_num(cos_angle, nan=1.0), -1.0, 1.0)
        front = cos_angle > 0.0
        # Back lobe / coincident points get the flat values; the cos^k
        # rolloff only ever sees strictly positive cosines.
        safe_cos = np.where(front, cos_angle, 1.0)
        with np.errstate(divide="ignore"):
            rolloff_db = 10.0 * self._rolloff_exponent * np.log10(safe_cos ** 2)
        gains = self.peak_gain_dbi + np.maximum(rolloff_db, -20.0)
        gains = np.where(front, gains, self.peak_gain_dbi - 20.0)
        return np.where(dist == 0.0, self.peak_gain_dbi, gains)


class RoundRobinScheduler:
    """Round-robin antenna activation, one antenna powered at a time.

    Args:
        antennas: the connected antennas, in activation order.
        switch_period_s: residency per antenna before switching.

    Raises:
        AntennaError: on empty antenna list, duplicate ports, or a
            non-positive switch period.
    """

    def __init__(self, antennas: Sequence[Antenna],
                 switch_period_s: float = 0.2) -> None:
        if not antennas:
            raise AntennaError("need at least one antenna")
        ports = [a.port for a in antennas]
        if len(set(ports)) != len(ports):
            raise AntennaError(f"duplicate antenna ports: {ports}")
        if switch_period_s <= 0:
            raise AntennaError("switch_period_s must be > 0")
        self._antennas: List[Antenna] = list(antennas)
        self._period = float(switch_period_s)

    @property
    def antennas(self) -> List[Antenna]:
        """All antennas in activation order."""
        return list(self._antennas)

    @property
    def switch_period_s(self) -> float:
        """Residency per antenna."""
        return self._period

    def active_at(self, t: float) -> Antenna:
        """The single powered antenna at time ``t``.

        Raises:
            AntennaError: for negative times.
        """
        if t < 0:
            raise AntennaError("schedule time must be >= 0")
        slot = int(t / self._period)
        return self._antennas[slot % len(self._antennas)]

    def antenna_indices_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`active_at`, returning activation-order indices.

        Indices address :attr:`antennas`; callers that need the Antenna
        objects gather them once per distinct index instead of calling
        :meth:`active_at` per read.

        Raises:
            AntennaError: for negative times.
        """
        times = np.asarray(times, dtype=float)
        if times.size and times.min() < 0:
            raise AntennaError("schedule time must be >= 0")
        return (times / self._period).astype(int) % len(self._antennas)

    def duty_cycle(self) -> float:
        """Fraction of time each antenna is powered (1/N round-robin)."""
        return 1.0 / len(self._antennas)

    def by_port(self, port: int) -> Antenna:
        """Look up an antenna by its LLRP port.

        Raises:
            AntennaError: if the port is not connected.
        """
        for antenna in self._antennas:
            if antenna.port == port:
                return antenna
        raise AntennaError(f"no antenna on port {port}")
