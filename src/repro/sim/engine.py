"""The simulation engine: one call from scenario to low-level data capture.

``run_scenario`` is the reproduction's equivalent of "switch on the reader
and record LLRP reports for two minutes".  Everything is seeded, so an
experiment is exactly repeatable, and all stochastic state (hop sequence,
MAC slot draws, fading, phase noise, per-link offsets) hangs off one
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..config import ReaderConfig
from ..epc.gen2 import Gen2Config
from ..epc.select import SelectCommand
from ..errors import ScenarioError
from ..faults import FaultChain
from ..reader.antenna import Antenna
from ..reader.batch import ReportBatch
from ..reader.reader import Reader
from ..rf.noise import DynamicMultipath, PhaseNoiseModel
from ..rf.propagation import LinkBudget
from .ground_truth import GroundTruth
from .scenario import Scenario


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulated trial.

    Attributes:
        scenario: the environment that was inventoried.
        reports: every tag read, in timestamp order (the LLRP capture),
            as one :class:`~repro.reader.batch.ReportBatch` (a
            read-only sequence of ``TagReport``).
        duration_s: trial length.
        ground_truth: per-user true breathing rates.
    """

    scenario: Scenario
    reports: ReportBatch
    duration_s: float
    ground_truth: GroundTruth = field(init=False)

    def __post_init__(self) -> None:
        self.ground_truth = GroundTruth(self.scenario)

    def reports_for_user(self, user_id: int) -> ReportBatch:
        """Reads whose EPC carries ``user_id`` in its high 64 bits."""
        return self.reports.select(self.reports.user_id == user_id)

    def per_tag_read_rate_hz(self) -> Dict[tuple, float]:
        """Average successful-read rate per (user_id, tag_id) stream."""
        return {stream: c / self.duration_s
                for stream, c in self.reports.stream_counts().items()}

    def aggregate_read_rate_hz(self) -> float:
        """Successful reads per second across every tag in the field."""
        return len(self.reports) / self.duration_s


def run_scenario(
    scenario: Scenario,
    duration_s: float = 25.0,
    seed: Optional[int] = None,
    reader_config: Optional[ReaderConfig] = None,
    antennas: Optional[List[Antenna]] = None,
    link_budget: Optional[LinkBudget] = None,
    phase_noise: Optional[PhaseNoiseModel] = None,
    multipath: Optional[DynamicMultipath] = None,
    gen2: Optional[Gen2Config] = None,
    select: Optional[SelectCommand] = None,
    faults: Optional[FaultChain] = None,
) -> SimulationResult:
    """Inventory ``scenario`` for ``duration_s`` seconds and capture reports.

    Args:
        scenario: subjects + contending tags.
        duration_s: trial length (the paper's trials run 25 s for the
            characterisation and 120 s for the accuracy evaluation).
        seed: master seed; identical seeds give identical captures.
        reader_config: reader parameters (Table I defaults when omitted).
        antennas: explicit antenna set (default: one panel at 1 m height).
        link_budget / phase_noise / multipath / gen2: substrate overrides
            for ablations.
        select: optional Gen2 Select restricting which tags participate
            in the inventory (MAC-level filtering, repro.epc.select).
        faults: optional :class:`~repro.faults.FaultChain` applied to the
            capture before it is returned — models delivery-path faults
            (drops, outages, corruption) the RF substrate does not, while
            the chain's own seed keeps the trial repeatable.

    Returns:
        The full capture plus ground truth.

    Raises:
        ScenarioError: unless ``duration_s`` is positive and finite.
    """
    if not 0.0 < duration_s < math.inf:
        raise ScenarioError(f"duration_s must be positive and finite, got {duration_s}")
    with obs.span("scenario", users=len(scenario.monitored_user_ids),
                  tags=scenario.total_tag_count(), duration_s=duration_s,
                  seed=seed) as span:
        rng = np.random.default_rng(seed)
        reader = Reader(
            config=reader_config,
            antennas=antennas,
            link_budget=link_budget,
            phase_noise=phase_noise,
            multipath=multipath,
            gen2=gen2,
            rng=rng,
        )
        reports = reader.run(scenario, duration_s, select=select)
        if faults is not None:
            n_before = len(reports)
            reports = faults.apply(reports)
            if obs.enabled():
                obs.event("faults.apply", reports_in=n_before,
                          reports_out=len(reports))
        span.set(reports=len(reports))
    return SimulationResult(scenario=scenario, reports=reports, duration_s=duration_s)
