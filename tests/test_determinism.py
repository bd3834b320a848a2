"""Determinism: same scenario + seed => byte-identical telemetry.

The observability layer promises that a seeded run is replayable — span
IDs are sequential in emission order, ``wall_s`` is opt-in, and metric
snapshots order instruments deterministically.  These tests run the same
capture twice in one process and demand *byte* equality of the JSONL
event stream and value equality of the non-volatile metric snapshot.
"""

from __future__ import annotations

import warnings

from repro import obs
from repro.body import MetronomeBreathing, Subject
from repro.core.pipeline import TagBreathe
from repro.errors import DegradedEstimateWarning
from repro.obs.export import events_to_jsonl, to_prometheus
from repro.sim.engine import run_scenario
from repro.sim.scenario import Scenario
from repro.sim.sweep import run_scenarios


def _scenario() -> Scenario:
    subjects = [
        Subject(user_id=1, distance_m=2.0,
                breathing=MetronomeBreathing(15.0), sway_seed=3),
        Subject(user_id=2, distance_m=2.4, lateral_offset_m=0.5,
                breathing=MetronomeBreathing(21.0), sway_seed=4),
    ]
    return Scenario(subjects).with_contending_tags(3, seed=3)


def _capture_telemetry(detail: str = "round"):
    """One fully traced run; returns (jsonl bytes, metric snapshot, prom)."""
    with obs.capture(detail=detail) as (tracer, registry):
        result = run_scenario(_scenario(), duration_s=6.0, seed=11)
        pipeline = TagBreathe(user_ids={1, 2})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            pipeline.process_detailed(result.reports)
        jsonl = events_to_jsonl(tracer.events).encode()
        snapshot = registry.snapshot(include_volatile=False)
        # Stage-timing histograms are wall-clock and legitimately vary;
        # everything else in the exposition must replay byte-for-byte.
        prom = to_prometheus(registry, include_volatile=False)
    return jsonl, snapshot, prom


class TestRunDeterminism:
    def test_event_stream_byte_identical(self):
        first, _, _ = _capture_telemetry()
        second, _, _ = _capture_telemetry()
        assert first == second

    def test_metric_snapshot_identical(self):
        _, first, first_prom = _capture_telemetry()
        _, second, second_prom = _capture_telemetry()
        assert first == second
        assert first_prom == second_prom

    def test_slot_detail_also_deterministic(self):
        first, _, _ = _capture_telemetry(detail="slot")
        second, _, _ = _capture_telemetry(detail="slot")
        assert first == second


class TestSweepDeterminism:
    def test_parallel_sweep_telemetry_deterministic(self):
        """Worker merge order is input order, not completion order."""

        def one_sweep():
            with obs.capture(detail="round") as (tracer, registry):
                run_scenarios([_scenario(), _scenario()], duration_s=4.0,
                              base_seed=5, parallel=True, max_workers=2)
                return (events_to_jsonl(tracer.events).encode(),
                        registry.snapshot(include_volatile=False))

        first_events, first_metrics = one_sweep()
        second_events, second_metrics = one_sweep()
        assert first_events == second_events
        assert first_metrics == second_metrics
