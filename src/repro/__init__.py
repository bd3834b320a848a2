"""TagBreathe — breath monitoring with commodity RFID systems.

A full reproduction of *TagBreathe: Monitor Breathing with Commodity RFID
Systems* (Hou, Wang, Zheng — IEEE ICDCS 2017), including every substrate
the paper depends on: a UHF backscatter RF model, an EPC Gen2 MAC
simulator, an Impinj-R420-class reader model with frequency hopping and
multi-antenna round-robin, a breathing-human body model, and the
TagBreathe signal pipeline itself (phase preprocessing, multi-tag raw-data
fusion, FFT low-pass extraction, zero-crossing rate estimation).

Quickstart::

    from repro import Scenario, run_scenario, TagBreathe

    scenario = Scenario.single_user(distance_m=2.0)
    result = run_scenario(scenario, duration_s=30.0, seed=7)
    pipeline = TagBreathe(user_ids={1})
    estimate = pipeline.process(result.reports)[1]
    print(f"breathing rate: {estimate.rate_bpm:.1f} bpm")

See DESIGN.md for the module map and EXPERIMENTS.md for the paper-vs-
reproduction results of every figure.
"""

from .config import (
    NoiseConfig,
    PipelineConfig,
    ReaderConfig,
    RobustnessConfig,
    ScenarioDefaults,
    SystemConfig,
    default_config,
)
from .core import (
    DEGRADED_REASONS,
    FEED_DROP_KEYS,
    BreathExtractor,
    BreathingEstimate,
    FFTPeakEstimator,
    TagBreathe,
    UserEstimate,
    default_frequencies,
    fft_lowpass,
    fft_peak_rate_bpm,
    fir_lowpass,
    rate_series_bpm,
    zero_crossing_times,
)
from .body import (
    AsymmetricBreathing,
    BreathingStyle,
    IrregularBreathing,
    MetronomeBreathing,
    SinusoidalBreathing,
    Subject,
)
from .epc import EPC96, EPCMappingTable
from .errors import DegradedEstimateWarning, FaultInjectionError, ReproError
from .faults import (
    ALL_INJECTORS,
    AntennaOutage,
    BurstyDrop,
    DuplicateReports,
    FaultChain,
    FaultInjector,
    InjectionStats,
    InterferenceBurst,
    OutOfOrderDelivery,
    PhaseOutliers,
    PhasePiFlips,
    ReportDrop,
    TagDeath,
    TagDropout,
    TimestampJitter,
)
from .metrics import (
    AccuracyStats,
    ExperimentRunner,
    breathing_rate_accuracy,
    summarize_accuracies,
)
from .reader import Antenna, LLRPClient, Reader, ROSpec, TagReport
from .sim import GroundTruth, Scenario, SimulationResult, run_scenario
from .streams import TimeSeries

__version__ = "1.0.0"

__all__ = [
    # configuration
    "NoiseConfig", "PipelineConfig", "ReaderConfig", "RobustnessConfig",
    "ScenarioDefaults", "SystemConfig", "default_config",
    # core pipeline
    "TagBreathe", "UserEstimate", "BreathExtractor", "BreathingEstimate",
    "default_frequencies", "fft_lowpass", "fir_lowpass",
    "zero_crossing_times", "rate_series_bpm", "fft_peak_rate_bpm",
    "FFTPeakEstimator",
    "DEGRADED_REASONS", "FEED_DROP_KEYS",
    # fault injection
    "FaultChain", "FaultInjector", "InjectionStats", "ALL_INJECTORS",
    "ReportDrop", "BurstyDrop", "InterferenceBurst", "TagDropout",
    "TagDeath", "AntennaOutage", "PhaseOutliers", "PhasePiFlips",
    "TimestampJitter", "DuplicateReports", "OutOfOrderDelivery",
    # body models
    "Subject", "BreathingStyle", "SinusoidalBreathing", "AsymmetricBreathing",
    "IrregularBreathing", "MetronomeBreathing",
    # EPC
    "EPC96", "EPCMappingTable",
    # reader
    "Reader", "TagReport", "Antenna", "LLRPClient", "ROSpec",
    # simulation
    "Scenario", "SimulationResult", "run_scenario", "GroundTruth",
    # metrics
    "breathing_rate_accuracy", "summarize_accuracies", "AccuracyStats",
    "ExperimentRunner",
    # streams
    "TimeSeries",
    # errors
    "ReproError", "FaultInjectionError", "DegradedEstimateWarning",
    "__version__",
]
