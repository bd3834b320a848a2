"""Backscatter link budget: path loss, tag power-up, reader RSSI, SNR.

This module models why the paper's figures bend the way they do:

* **Fig. 12** (accuracy vs distance): backscatter power falls with the
  *fourth* power of distance (two traversals of free space), so SNR and the
  per-tag read rate degrade from 1 m to 6 m.
* **Fig. 15(b)** (RSSI / read rate vs orientation): the tag's effective gain
  falls as the user rotates, so the *power-up margin* shrinks and fewer
  interrogation attempts succeed — but the RSSI of the reads that *do*
  succeed stays roughly flat, exactly the selection effect the paper
  observes ("the RSSI of the backscatter signal does not change much" while
  "the reading rate decreases from 50 Hz ... to 10 Hz").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..units import linear_to_db, wavelength


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss with optional small-scale fading.

    Attributes:
        exponent: path-loss exponent per traversal (2.0 = free space; indoor
            office LOS is typically 1.8–2.2).
        fading_sigma_db: sigma of per-attempt lognormal fading (multipath in
            the paper's office: desks, chairs, fans).
        reference_m: reference distance for the log-distance formula.
    """

    exponent: float = 2.2
    fading_sigma_db: float = 3.0
    reference_m: float = 1.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ConfigError("path-loss exponent must be > 0")
        if self.fading_sigma_db < 0:
            raise ConfigError("fading_sigma_db must be >= 0")
        if self.reference_m <= 0:
            raise ConfigError("reference_m must be > 0")

    def one_way_loss_db(self, distance_m, frequency_hz):
        """Deterministic one-way path loss [dB] at ``distance_m``.

        Free-space loss at the reference distance plus log-distance rolloff.
        Broadcasts over arrays of distances and/or frequencies; scalar
        inputs return a plain ``float``.

        Raises:
            ValueError: if any ``distance_m`` is not strictly positive.
        """
        rolloff = self.rolloff_db(distance_m)
        return self.reference_loss_db(frequency_hz) + rolloff

    def reference_loss_db(self, frequency_hz):
        """Free-space loss [dB] over the reference distance (broadcasts).

        Depends only on the frequency, so a caller probing a fixed channel
        plan can table it once per channel.
        """
        lam = wavelength(frequency_hz)
        return 2.0 * linear_to_db(4.0 * np.pi * self.reference_m / lam)

    def rolloff_db(self, distance_m):
        """Log-distance rolloff [dB] beyond the reference distance (broadcasts).

        Raises:
            ValueError: if any ``distance_m`` is not strictly positive.
        """
        if np.ndim(distance_m) == 0:
            if distance_m <= 0:
                raise ValueError(f"distance must be > 0, got {distance_m}")
            return 10.0 * self.exponent * np.log10(distance_m / self.reference_m)
        d = np.asarray(distance_m, dtype=float)
        if np.any(d <= 0):
            raise ValueError("distance must be > 0")
        return 10.0 * self.exponent * np.log10(d / self.reference_m)

    def sample_fading_db(self, rng: np.random.Generator, size=None):
        """Draw(s) of the small-scale fading term [dB].

        With ``size=None`` returns one ``float`` draw; otherwise an array
        of independent draws.  Zero sigma consumes no randomness.
        """
        if self.fading_sigma_db == 0.0:
            return 0.0 if size is None else np.zeros(size)
        if size is None:
            return float(rng.normal(0.0, self.fading_sigma_db))
        return rng.normal(0.0, self.fading_sigma_db, size=size)


@dataclass(frozen=True)
class LinkBudget:
    """End-to-end backscatter link budget for one reader–tag pair.

    Power flows reader -> tag (tag must harvest enough to power up) and
    tag -> reader (reader must decode the backscatter).  For passive UHF
    tags the *forward* link (power-up) is the binding constraint, which is
    why read rate collapses before RSSI does.

    Attributes:
        tx_power_dbm: reader transmit power (Table I: 15–30 dBm).
        reader_gain_dbi: reader antenna gain (8.5 dBic ALR-8696-C).
        tag_gain_dbi: tag antenna peak gain (dipole-ish, ~2 dBi).
        on_body_loss_db: attenuation from mounting the tag on clothing over
            a human body (detuning + absorption).
        polarization_loss_db: circular reader -> linear tag mismatch (3 dB).
        modulation_loss_db: backscatter modulation loss.
        tag_sensitivity_dbm: minimum harvested power for the tag chip to
            respond (Alien Higgs-3 class: about -18 dBm).
        reader_sensitivity_dbm: minimum backscatter power the reader
            decodes (Impinj R420: about -84 dBm).
        noise_floor_dbm: reader receive noise floor for SNR purposes.
        path_loss: the underlying path-loss model.
    """

    tx_power_dbm: float = 30.0
    reader_gain_dbi: float = 8.5
    tag_gain_dbi: float = 2.0
    on_body_loss_db: float = 5.0
    polarization_loss_db: float = 3.0
    modulation_loss_db: float = 6.0
    tag_sensitivity_dbm: float = -18.0
    reader_sensitivity_dbm: float = -84.0
    noise_floor_dbm: float = -80.0
    path_loss: PathLossModel = PathLossModel()

    def __post_init__(self) -> None:
        if not 0.0 <= self.on_body_loss_db <= 40.0:
            raise ConfigError("on_body_loss_db must be within [0, 40] dB")

    # ------------------------------------------------------------------
    # Deterministic budget terms
    # ------------------------------------------------------------------
    def link_powers_dbm(self, distance_m, frequency_hz, extra_loss_db=0.0):
        """``(tag_power_dbm, rx_power_dbm)`` with path loss evaluated once.

        The one copy of the budget arithmetic: :meth:`tag_power_dbm` and
        :meth:`rx_power_dbm` are its two halves, and the hot paths
        (per-slot interrogation, batched report synthesis) that need both
        ends get them for one path-loss evaluation.  Broadcasts over
        arrays.
        """
        return self.powers_from_path_loss_dbm(
            self.path_loss.one_way_loss_db(distance_m, frequency_hz),
            extra_loss_db,
        )

    def powers_from_path_loss_dbm(self, path_loss_db, extra_loss_db=0.0):
        """:meth:`link_powers_dbm` for an already evaluated one-way path loss.

        Lets a caller that tables the free-space term per channel finish
        the budget with the same arithmetic.  Broadcasts over arrays.
        """
        tag_p = (
            self.tx_power_dbm
            + self.reader_gain_dbi
            + self.tag_gain_dbi
            - path_loss_db
            - self.on_body_loss_db
            - self.polarization_loss_db
            - extra_loss_db
        )
        rx_p = (
            tag_p
            - self.modulation_loss_db
            + self.tag_gain_dbi
            + self.reader_gain_dbi
            - path_loss_db
            - self.polarization_loss_db
        )
        return tag_p, rx_p

    def tag_power_dbm(self, distance_m, frequency_hz, extra_loss_db=0.0):
        """Power harvested by the tag chip [dBm] (broadcasts).

        Args:
            distance_m: one-way antenna–tag distance(s).
            frequency_hz: active channel frequency (scalar or array).
            extra_loss_db: scenario-dependent loss (orientation gain
                reduction, body blockage, ...) applied on the forward link.
        """
        return self.link_powers_dbm(distance_m, frequency_hz, extra_loss_db)[0]

    def rx_power_dbm(self, distance_m, frequency_hz, extra_loss_db=0.0):
        """Backscatter power arriving at the reader [dBm] (broadcasts).

        ``extra_loss_db`` is applied on the *forward* link only (via
        :meth:`tag_power_dbm`).  Situational losses — orientation, partial
        shadowing — primarily starve the tag chip of harvest power, while
        the backscatter it does emit reaches the reader through the rich
        multipath of an indoor office.  This matches the paper's Fig. 15
        measurement: RSSI of successful reads "does not change much" from
        0 to 90 degrees even as the read rate collapses.
        """
        return self.link_powers_dbm(distance_m, frequency_hz, extra_loss_db)[1]

    def snr_db(self, distance_m, frequency_hz, extra_loss_db=0.0):
        """Receive SNR [dB] of the backscatter signal (broadcasts)."""
        return self.rx_power_dbm(distance_m, frequency_hz, extra_loss_db) - self.noise_floor_dbm

    # ------------------------------------------------------------------
    # Stochastic per-attempt outcome
    # ------------------------------------------------------------------
    def read_success_probability(self, distance_m, frequency_hz,
                                 extra_loss_db=0.0):
        """Probability one interrogation attempt yields a successful read.

        An attempt succeeds when the faded tag power clears the chip
        sensitivity AND the faded backscatter clears reader sensitivity.
        With Gaussian dB fading both margins give Q-function tails; the
        forward link dominates for passive tags.  Broadcasts over arrays.
        """
        sigma = self.path_loss.fading_sigma_db
        tag_p, rx_p = self.link_powers_dbm(distance_m, frequency_hz, extra_loss_db)
        fwd_margin = tag_p - self.tag_sensitivity_dbm
        rev_margin = rx_p - self.reader_sensitivity_dbm
        p_fwd = _gaussian_clear_probability(fwd_margin, sigma)
        p_rev = _gaussian_clear_probability(rev_margin, sigma)
        return p_fwd * p_rev

    def sample_read(self, distance_m: float, frequency_hz: float,
                    rng: np.random.Generator,
                    extra_loss_db: float = 0.0) -> Optional[float]:
        """Simulate one interrogation attempt.

        Returns:
            The (un-quantised) RSSI in dBm of a successful read, or ``None``
            when the attempt fails.  The returned RSSI includes the fading
            draw that made this attempt succeed — the selection effect that
            keeps observed RSSI flat while the success rate collapses.
        """
        tag_p, rx_p = self.link_powers_dbm(distance_m, frequency_hz, extra_loss_db)
        return self.sample_read_from_powers(tag_p, rx_p, rng)

    def sample_read_from_powers(self, tag_power_dbm: float, rx_power_dbm: float,
                                rng: np.random.Generator) -> Optional[float]:
        """:meth:`sample_read` for a link whose budget is already known.

        Draws the one fading term and applies both sensitivity tests, so a
        caller that tables ``link_powers_dbm`` per link consumes the same
        draw and reaches the same outcome.
        """
        fade = self.path_loss.sample_fading_db(rng)
        if self.misses_sensitivity(tag_power_dbm, rx_power_dbm, fade):
            return None
        return rx_power_dbm + fade

    def misses_sensitivity(self, tag_power_dbm: float, rx_power_dbm: float,
                           fade_db: float) -> bool:
        """Whether an attempt faded by ``fade_db`` fails either test.

        The tag fails to power up, or the reader fails to decode its
        backscatter.  Non-increasing in both powers, so bounds on the
        powers bound the outcome.
        """
        return (tag_power_dbm + fade_db < self.tag_sensitivity_dbm
                or rx_power_dbm + fade_db < self.reader_sensitivity_dbm)


def _gaussian_clear_probability(margin_db, sigma_db):
    """P(margin + N(0, sigma) > 0), broadcasting over ``margin_db``."""
    if np.ndim(margin_db) == 0:
        if sigma_db == 0.0:
            return 1.0 if margin_db > 0 else 0.0
        from math import erf, sqrt

        return 0.5 * (1.0 + erf(margin_db / (sigma_db * sqrt(2.0))))
    margin = np.asarray(margin_db, dtype=float)
    if sigma_db == 0.0:
        return (margin > 0).astype(float)
    from scipy.special import erf

    return 0.5 * (1.0 + erf(margin / (sigma_db * np.sqrt(2.0))))
