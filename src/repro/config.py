"""Configuration dataclasses mirroring the paper's Table I.

Table I ("System parameters and default experiment settings"):

    ==================  =======================  ==========
    Parameter           Range                    Default
    ==================  =======================  ==========
    Channel             channel 1 - channel 10   Hopping
    Tx power            15 - 30 dBm              30 dBm
    Distance            1 m - 6 m                4 m
    Orientation         0 (front) - 180 (back)   front
    Number of users     1 - 4 users              1 user
    Tags per user       1 - 3 tags               3 tags
    Breathing rate      5 - 20 bpm               10 bpm
    Posture             Sitting/Standing/Lying   Sitting
    Propagation path    with/without LOS path    with LOS
    ==================  =======================  ==========

Every dataclass validates its fields in ``__post_init__`` so an invalid
configuration fails at construction time rather than deep inside a
simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .errors import ConfigError

#: Parameter ranges from Table I, used by validation and by the benchmarks.
TX_POWER_RANGE_DBM: Tuple[float, float] = (15.0, 30.0)
DISTANCE_RANGE_M: Tuple[float, float] = (1.0, 6.0)
ORIENTATION_RANGE_DEG: Tuple[float, float] = (0.0, 180.0)
USERS_RANGE: Tuple[int, int] = (1, 4)
TAGS_PER_USER_RANGE: Tuple[int, int] = (1, 3)
BREATHING_RATE_RANGE_BPM: Tuple[float, float] = (5.0, 20.0)
NUM_CHANNELS: int = 10

#: Postures evaluated in the paper (Fig. 17).
POSTURES: Tuple[str, ...] = ("sitting", "standing", "lying")


@dataclass(frozen=True)
class ReaderConfig:
    """Commodity-reader parameters (Impinj Speedway R420 in the paper).

    Attributes:
        tx_power_dbm: transmit power; Table I default 30 dBm.
        num_channels: frequency channels in the hop set (paper Fig. 5: 10).
        channel_dwell_s: residency per channel before hopping (~0.2 s).
        num_antennas: antenna ports used (R420 supports up to 4).
        antenna_gain_dbic: antenna gain (Alien ALR-8696-C: 8.5 dBic).
        base_read_rate_hz: aggregate successful-read rate with a single tag
            in ideal conditions (paper reports ~64 Hz per tag at 2 m).
        rssi_resolution_db: RSSI quantisation step of the COTS reader
            (paper Section IV-A: 0.5 dBm).
    """

    tx_power_dbm: float = 30.0
    num_channels: int = NUM_CHANNELS
    channel_dwell_s: float = 0.2
    num_antennas: int = 1
    antenna_gain_dbic: float = 8.5
    base_read_rate_hz: float = 64.0
    rssi_resolution_db: float = 0.5

    def __post_init__(self) -> None:
        lo, hi = TX_POWER_RANGE_DBM
        if not lo <= self.tx_power_dbm <= hi:
            raise ConfigError(
                f"tx_power_dbm={self.tx_power_dbm} outside Table I range {lo}-{hi} dBm"
            )
        if self.num_channels < 1:
            raise ConfigError("num_channels must be >= 1")
        if self.channel_dwell_s <= 0:
            raise ConfigError("channel_dwell_s must be > 0")
        if not 1 <= self.num_antennas <= 4:
            raise ConfigError("num_antennas must be 1-4 (Impinj R420 has 4 ports)")
        if self.base_read_rate_hz <= 0:
            raise ConfigError("base_read_rate_hz must be > 0")
        if self.rssi_resolution_db <= 0:
            raise ConfigError("rssi_resolution_db must be > 0")


@dataclass(frozen=True)
class PipelineConfig:
    """TagBreathe signal-processing parameters (paper Section IV-B/C).

    Attributes:
        cutoff_hz: low-pass cutoff; paper uses 0.67 Hz (40 bpm).
        highpass_hz: lower band edge.  The paper describes a low-pass
            only, but its displacement tracks are normalised/centred
            before analysis; in any sampled implementation the dwell-
            boundary stitching of Eq. (4) accumulates a slow random walk
            that must be cut below the slowest plausible breathing rate
            (5 bpm = 0.083 Hz).  Set to 0 to disable and match the
            paper's text literally.
        fusion_bin_s: time-bin width Delta-t for raw-data fusion (Eq. 6).
        zero_crossing_buffer: number of buffered zero crossings M in Eq. 5;
            paper buffers 7 crossings (= 3 breaths).
        min_window_s: shortest window accepted for a rate estimate.
        detrend: remove the linear drift of the displacement track before
            filtering (tag drift and reader phase offsets integrate into a
            slow ramp that would otherwise leak through the low-pass band).
        adaptive_band: re-centre the pass band on the displacement
            spectrum's dominant breathing peak (the FFT the paper already
            computes for Fig. 7) before zero-crossing detection.  The
            crossings then refine the rate beyond the FFT's 1/window
            resolution — the coarse/fine split keeps the paper's argument
            for zero crossings intact while making crossing detection
            robust to broadband in-band noise.  Disable for the literal
            fixed-band pipeline of the paper's text.
        band_halfwidth_hz: half-width of the adaptive pass band around the
            detected peak.
    """

    cutoff_hz: float = 0.67
    highpass_hz: float = 0.05
    fusion_bin_s: float = 0.05
    zero_crossing_buffer: int = 7
    min_window_s: float = 10.0
    detrend: bool = True
    adaptive_band: bool = True
    band_halfwidth_hz: float = 0.1

    def __post_init__(self) -> None:
        if self.cutoff_hz <= 0:
            raise ConfigError("cutoff_hz must be > 0")
        if self.highpass_hz < 0:
            raise ConfigError("highpass_hz must be >= 0")
        if self.highpass_hz >= self.cutoff_hz:
            raise ConfigError("highpass_hz must be below cutoff_hz")
        if self.band_halfwidth_hz <= 0:
            raise ConfigError("band_halfwidth_hz must be > 0")
        if self.fusion_bin_s <= 0:
            raise ConfigError("fusion_bin_s must be > 0")
        if self.zero_crossing_buffer < 2:
            raise ConfigError("zero_crossing_buffer must be >= 2 (Eq. 5 needs M >= 2)")
        if self.min_window_s <= 0:
            raise ConfigError("min_window_s must be > 0")


@dataclass(frozen=True)
class RobustnessConfig:
    """Graceful-degradation knobs of the hardened pipeline.

    No analogue in the paper — its captures came from a healthy reader in
    a quiet office.  These parameters govern how
    :class:`~repro.core.pipeline.TagBreathe` survives the failure modes
    :mod:`repro.faults` injects (report loss, dead tags, antenna outages,
    phase glitches, disordered delivery) while still reporting an estimate
    with an honest ``confidence``.  All thresholds default so that a clean
    capture passes through bit-identically: nothing is rejected, demoted,
    or failed over unless a fault signature is actually present.

    Attributes:
        outlier_rejection: run Hampel/MAD outlier rejection on each tag's
            displacement stream before fusion.
        hampel_window: Hampel neighbourhood half-width in samples (the
            local median spans ``2 * hampel_window + 1`` samples).
        hampel_n_sigmas: rejection threshold in MAD-estimated sigmas;
            breathing displacement is smooth, so clean data sits far
            inside 6 sigma while a pi-flip (lambda/4 jump) sits far
            outside.
        stale_stream_s: a tag stream whose newest report lags the user's
            newest report by more than this is considered dead and demoted
            out of fusion (Eq. 6-7 re-weighted over survivors).
        antenna_stale_s: the best-scoring antenna is skipped (failover to
            the next-best live port) when it has been silent this long at
            the end of the analysis window.
        gap_warn_s: a gap in the user's read times longer than this marks
            the estimate degraded ("report_gaps") and lowers confidence.
        outlier_warn_fraction: fraction of rejected displacement samples
            above which the estimate is marked degraded ("phase_outliers").
        warn_confidence: emit :class:`~repro.errors.DegradedEstimateWarning`
            when an estimate's confidence falls below this.
    """

    outlier_rejection: bool = True
    hampel_window: int = 3
    hampel_n_sigmas: float = 6.0
    stale_stream_s: float = 5.0
    antenna_stale_s: float = 2.5
    gap_warn_s: float = 1.0
    outlier_warn_fraction: float = 0.005
    warn_confidence: float = 0.7

    def __post_init__(self) -> None:
        if self.hampel_window < 1:
            raise ConfigError("hampel_window must be >= 1")
        if self.hampel_n_sigmas <= 0:
            raise ConfigError("hampel_n_sigmas must be > 0")
        for name in ("stale_stream_s", "antenna_stale_s", "gap_warn_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if not 0 <= self.outlier_warn_fraction < 1:
            raise ConfigError("outlier_warn_fraction must be in [0, 1)")
        if not 0 <= self.warn_confidence <= 1:
            raise ConfigError("warn_confidence must be in [0, 1]")


@dataclass(frozen=True)
class MotionConfig:
    """Doppler-based gross-motion detection (DESIGN.md §16).

    No analogue in the paper — its subjects sat still.  The reader's
    Doppler column (paper Fig. 3, Eq. 2) is useless for breathing
    (~0.01 Hz signal under ~1.5 Hz noise) but gross body motion
    (walking, turning) moves the tag at walking speed, pushing the
    *bin-averaged* Doppler far outside its noise floor.  The detector
    bins the window's Doppler reports, z-scores each bin mean against a
    MAD-estimated per-report sigma, and flags runs of significant bins.

    All thresholds default so that a clean, still-subject capture never
    flags: the z threshold and the absolute shift floor are both far
    above what averaging pure noise can reach.

    Attributes:
        enabled: run the detector at all (``False`` restores the
            pre-motion-gating pipeline bit-identically).
        bin_s: width of the Doppler averaging bins.
        z_threshold: significance threshold on ``|bin mean| * sqrt(n) /
            sigma`` (sigma MAD-estimated from the window's reports).
        min_shift_hz: absolute floor on a flagged bin's ``|mean|`` —
            guards against a tiny MAD sigma making noise significant.
        min_run_bins: consecutive flagged bins required before the
            window counts as containing motion (single-bin blips are
            interference, not a moving body).
        gate_fraction: gate (suppress confidence toward zero) when at
            least this fraction of the window's bins are flagged.
        gate_recent_s: also gate when any flagged bin overlaps the
            trailing this-many seconds of the window — motion *now*
            invalidates the estimate even if the window average is calm.
    """

    enabled: bool = True
    bin_s: float = 0.5
    z_threshold: float = 4.5
    min_shift_hz: float = 0.75
    min_run_bins: int = 2
    gate_fraction: float = 0.35
    gate_recent_s: float = 5.0

    def __post_init__(self) -> None:
        if self.bin_s <= 0:
            raise ConfigError("bin_s must be > 0")
        if self.z_threshold <= 0:
            raise ConfigError("z_threshold must be > 0")
        if self.min_shift_hz < 0:
            raise ConfigError("min_shift_hz must be >= 0")
        if self.min_run_bins < 1:
            raise ConfigError("min_run_bins must be >= 1")
        if not 0 < self.gate_fraction <= 1:
            raise ConfigError("gate_fraction must be in (0, 1]")
        if self.gate_recent_s < 0:
            raise ConfigError("gate_recent_s must be >= 0")


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator selection and phase-quality fallback (DESIGN.md §16).

    The paper's pipeline is phase-only; Section IV-D.2 sketches RSSI
    and Doppler "enhancement" without committing to a design.  This
    config picks which :class:`~repro.core.estimators.BreathEstimator`
    produces the rate, and — in ``auto`` mode — when to fall back from
    the phase path to the RSS-amplitude path.

    Phase quality is measured as the median absolute sample-to-sample
    step of the fused displacement track: clean captures sit well under
    a millimetre; when phase noise dominates, the track becomes a
    random walk with centimetre-scale steps and the zero-crossing count
    stops meaning breaths.

    Attributes:
        estimator: ``"zero_crossing"`` (the paper's Eq. 5 path),
            ``"spectral"`` (Fig. 7 FFT-peak), ``"rss"`` (per-channel
            demeaned RSSI amplitude, UbiBreathe-style), or ``"auto"``
            (zero-crossing with RSS fallback under degraded phase).
        roughness_enter_m: in ``auto`` mode, switch to the RSS fallback
            when track roughness exceeds this.
        roughness_exit_m: switch back to zero-crossing only when
            roughness drops below this (must be below the enter
            threshold; the dual threshold is the hysteresis band that
            stops a borderline stream from flapping every tick).
    """

    estimator: str = "auto"
    roughness_enter_m: float = 0.004
    roughness_exit_m: float = 0.002

    #: Every estimator name ``estimator`` accepts.
    CHOICES = ("auto", "zero_crossing", "spectral", "rss")

    def __post_init__(self) -> None:
        if self.estimator not in self.CHOICES:
            raise ConfigError(
                f"estimator must be one of {self.CHOICES}, got {self.estimator!r}")
        if self.roughness_enter_m <= 0:
            raise ConfigError("roughness_enter_m must be > 0")
        if not 0 < self.roughness_exit_m <= self.roughness_enter_m:
            raise ConfigError(
                "roughness_exit_m must be in (0, roughness_enter_m]")


@dataclass(frozen=True)
class ScenarioDefaults:
    """Default experiment settings (right column of Table I)."""

    distance_m: float = 4.0
    orientation_deg: float = 0.0
    num_users: int = 1
    tags_per_user: int = 3
    breathing_rate_bpm: float = 10.0
    posture: str = "sitting"
    line_of_sight: bool = True
    trial_duration_s: float = 120.0

    def __post_init__(self) -> None:
        lo, hi = DISTANCE_RANGE_M
        if not lo <= self.distance_m <= hi:
            raise ConfigError(f"distance_m outside Table I range {lo}-{hi} m")
        lo, hi = ORIENTATION_RANGE_DEG
        if not lo <= self.orientation_deg <= hi:
            raise ConfigError(f"orientation_deg outside {lo}-{hi} deg")
        lo, hi = USERS_RANGE
        if not lo <= self.num_users <= hi:
            raise ConfigError(f"num_users outside Table I range {lo}-{hi}")
        lo, hi = TAGS_PER_USER_RANGE
        if not lo <= self.tags_per_user <= hi:
            raise ConfigError(f"tags_per_user outside Table I range {lo}-{hi}")
        lo, hi = BREATHING_RATE_RANGE_BPM
        if not lo <= self.breathing_rate_bpm <= hi:
            raise ConfigError(f"breathing_rate_bpm outside Table I range {lo}-{hi}")
        if self.posture not in POSTURES:
            raise ConfigError(f"posture must be one of {POSTURES}, got {self.posture!r}")
        if self.trial_duration_s <= 0:
            raise ConfigError("trial_duration_s must be > 0")


@dataclass(frozen=True)
class NoiseConfig:
    """Calibration knobs for the synthetic RF substrate.

    These have no analogue in the paper (the paper's noise came from the
    physical world); they are tuned so the reproduced figures match the
    paper's *shapes* — see DESIGN.md Section 2.

    Attributes:
        phase_noise_floor_rad: phase-noise sigma at very high SNR.
        phase_noise_ref_rad: phase-noise sigma at the reference SNR.
        reference_snr_db: SNR at which ``phase_noise_ref_rad`` applies.
        rssi_noise_db: sigma of Gaussian RSSI jitter before quantisation.
        doppler_noise_hz: sigma of the raw Doppler-shift report (paper
            Fig. 3 shows it is very noisy).
        body_sway_amplitude_m: amplitude of non-breathing body sway.
        breathing_rate_jitter: relative sigma of a human's cycle-to-cycle
            deviation from the metronome rate.
    """

    phase_noise_floor_rad: float = 0.015
    phase_noise_ref_rad: float = 0.1
    reference_snr_db: float = 20.0
    rssi_noise_db: float = 0.4
    doppler_noise_hz: float = 1.5
    body_sway_amplitude_m: float = 0.0006
    breathing_rate_jitter: float = 0.03

    def __post_init__(self) -> None:
        for name in (
            "phase_noise_floor_rad",
            "phase_noise_ref_rad",
            "rssi_noise_db",
            "doppler_noise_hz",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.body_sway_amplitude_m < 0:
            raise ConfigError("body_sway_amplitude_m must be >= 0")
        if not 0 <= self.breathing_rate_jitter < 1:
            raise ConfigError("breathing_rate_jitter must be in [0, 1)")


@dataclass(frozen=True)
class SystemConfig:
    """Bundle of all configuration for an end-to-end run."""

    reader: ReaderConfig = field(default_factory=ReaderConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    defaults: ScenarioDefaults = field(default_factory=ScenarioDefaults)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    robustness: RobustnessConfig = field(default_factory=RobustnessConfig)
    motion: MotionConfig = field(default_factory=MotionConfig)
    estimators: EstimatorConfig = field(default_factory=EstimatorConfig)


def default_config() -> SystemConfig:
    """The paper's default configuration (Table I right column)."""
    return SystemConfig()
