"""Stage timers and event counters, and their wiring into reader + pipeline.

Every :func:`repro.obs.span` observes its wall time into
``repro_stage_seconds{stage=<span name>}``, and named event tallies are
``repro_events_total{name=...}`` counters — both in the live obs
session, tracing on or off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.pipeline import TagBreathe
from repro.reader.reader import Reader
from repro.sim.scenario import Scenario


@pytest.fixture
def registry():
    """An isolated untraced session; yields its registry."""
    with obs.capture() as (tracer, registry):
        tracer.configure(enabled=False)
        yield registry


def stage(registry, name):
    """The stage timer ``name`` (created empty when it never ran)."""
    return registry.histogram(obs.STAGE_METRIC, volatile=True, stage=name)


def events(registry):
    """``repro_events_total`` tallies by name."""
    return {dict(labels)["name"]: value for labels, value
            in registry.values("repro_events_total").items()}


class TestPerfRecorder:
    def test_stage_accumulates_time_and_calls(self, registry):
        for _ in range(3):
            with obs.span("work"):
                pass
        assert stage(registry, "work").count == 3
        assert stage(registry, "work").sum >= 0.0

    def test_stage_records_on_exception(self, registry):
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        assert stage(registry, "boom").count == 1

    def test_counters_and_rate(self, registry):
        with obs.span("synth"):
            obs.counter("repro_events_total", name="reads").inc(10)
            obs.counter("repro_events_total", name="reads").inc(5)
        assert events(registry)["reads"] == 15
        assert events(registry)["reads"] / stage(registry, "synth").sum > 0.0

    def test_snapshot_shape(self, registry):
        with obs.span("a"):
            obs.counter("repro_events_total", name="n").inc(2)
        snap = obs.snapshot()
        assert snap["events"] == []
        [timer] = snap["metrics"]["histograms"]
        assert timer["name"] == obs.STAGE_METRIC
        assert timer["labels"] == {"stage": "a"}
        assert timer["count"] == 1 and timer["volatile"] is True
        [counter] = snap["metrics"]["counters"]
        assert counter["labels"] == {"name": "n"} and counter["value"] == 2

    def test_reset(self, registry):
        with obs.span("a"):
            obs.counter("repro_events_total", name="n").inc()
        obs.reset()
        assert obs.snapshot()["metrics"] == {
            "counters": [], "gauges": [], "histograms": []}


class TestGlobalRecorder:
    def test_module_helpers_feed_global(self):
        with obs.capture() as (_tracer, registry):
            with obs.span("g"):
                obs.counter("repro_events_total", name="events").inc(4)
        assert stage(registry, "g").count == 1
        assert events(registry)["events"] == 4
        assert "events" not in events(obs.get_registry())


class TestWiring:
    def test_reader_run_records_stages(self, registry):
        scenario = Scenario.single_user(2.0, sway_seed=1)
        reader = Reader(rng=np.random.default_rng(0))
        reports = reader.run(scenario, duration_s=2.0)
        assert stage(registry, "reader.mac").count == 1
        assert stage(registry, "reader.synthesize").count == 1
        assert events(registry)["reader.reads_synthesized"] == len(reports)
        assert stage(registry, "reader.synthesize").sum > 0.0

    def test_pipeline_process_records_stages(self, registry):
        scenario = Scenario.single_user(2.0, sway_seed=1)
        reader = Reader(rng=np.random.default_rng(0))
        reports = reader.run(scenario, duration_s=12.0)
        obs.reset()
        TagBreathe(user_ids={1}).process_detailed(reports)
        assert stage(registry, "pipeline.process").count == 1
        assert events(registry)["pipeline.reports_processed"] == len(reports)
        assert "pipeline.users_estimated" in events(registry)

    def test_streaming_tick_records_computed_ticks_only(self, registry):
        scenario = Scenario.single_user(2.0, sway_seed=1)
        reader = Reader(rng=np.random.default_rng(0))
        engine = TagBreathe(user_ids={1})
        engine.feed_batch(reader.run(scenario, duration_s=30.0))
        engine.estimate_user(1)
        engine.estimate_user(1)  # memoized: no new rows, no computed tick
        assert stage(registry, "pipeline.tick").count == 1
