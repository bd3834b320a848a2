"""The parallel scenario-sweep runner: ordering and seed guarantees."""

from __future__ import annotations

import pytest

from repro import obs
from repro.config import ReaderConfig
from repro.errors import ScenarioError
from repro.sim import Scenario, run_scenarios
from repro.sim.sweep import _run_one


def _scenarios(n: int = 3):
    return [Scenario.single_user(2.0 + i, sway_seed=i) for i in range(n)]


class TestOrdering:
    def test_results_in_input_order(self):
        scenarios = _scenarios()
        results = run_scenarios(scenarios, duration_s=3.0)
        assert len(results) == len(scenarios)
        for scenario, result in zip(scenarios, results):
            # Each result carries the scenario it ran — input order holds
            # regardless of which worker finished first.
            assert result.scenario.subjects[0].distance_m == \
                scenario.subjects[0].distance_m

    def test_empty_sweep(self):
        assert run_scenarios([]) == []


class TestSeeding:
    def test_parallel_matches_serial(self):
        scenarios = _scenarios()
        parallel = run_scenarios(scenarios, duration_s=3.0, base_seed=7)
        serial = run_scenarios(scenarios, duration_s=3.0, base_seed=7,
                               parallel=False)
        for a, b in zip(parallel, serial):
            assert a.reports == b.reports

    def test_explicit_seeds_reproduce_slice(self):
        scenarios = _scenarios(2)
        full = run_scenarios(scenarios, duration_s=3.0, base_seed=20,
                             parallel=False)
        # Re-running just the second trial with its explicit seed gives
        # the same capture: trials are scheduling-independent.
        redo = run_scenarios([scenarios[1]], duration_s=3.0, seeds=[21],
                             parallel=False)
        assert redo[0].reports == full[1].reports

    def test_seed_count_mismatch_raises(self):
        with pytest.raises(ScenarioError):
            run_scenarios(_scenarios(2), seeds=[1])


class TestKwargsForwarding:
    def test_reader_config_forwarded(self):
        # The default reader has one antenna; port 2 appears only when
        # the forwarded config reaches every trial's reader.
        results = run_scenarios(_scenarios(2), duration_s=3.0,
                                parallel=False,
                                reader_config=ReaderConfig(num_antennas=2))
        for result in results:
            assert 2 in set(result.reports.antenna.tolist())


class TestWorkerFunction:
    def test_run_one_is_picklable_module_level(self):
        import pickle

        assert pickle.loads(pickle.dumps(_run_one)) is _run_one

    def test_run_one_returns_index(self):
        settings = {"enabled": False, "detail": "round", "wall_clock": False}
        job = (4, _scenarios(1)[0], 2.0, 11, {}, settings)
        index, result, telemetry = _run_one(job)
        assert index == 4
        assert result.duration_s == 2.0
        assert set(telemetry) == {"events", "metrics"}


def _stage_calls(registry):
    """Stage timer call counts by stage name."""
    return {labels["stage"]: inst.count
            for _kind, metric, labels, inst in registry.instruments()
            if metric == obs.STAGE_METRIC}


class TestTelemetryRoundTrip:
    """Regression: worker stage/trace data must reach the parent session.

    Before the observability layer, ``run_scenarios`` discarded
    everything the worker processes recorded — stage timers and
    counters silently vanished whenever the pool was used.
    """

    @staticmethod
    def _assert_worker_telemetry_merged(registry):
        counters = registry.values("repro_events_total")
        # Reads were synthesized inside workers, yet the parent sees them.
        assert counters.get((("name", "reader.reads_synthesized"),), 0) > 0
        assert counters[(("name", "sweep.trials"),)] == 2
        calls = _stage_calls(registry)
        assert calls["reader.mac"] == 2 and calls["scenario"] == 2
        assert calls["sweep.run_scenarios"] == 1
        assert registry.histogram(obs.STAGE_METRIC, volatile=True,
                                  stage="reader.mac").sum > 0.0

    def test_worker_perf_counters_merged_into_parent(self):
        with obs.capture() as (tracer, registry):
            run_scenarios(_scenarios(2), duration_s=3.0, parallel=True)
        self._assert_worker_telemetry_merged(registry)
        assert tracer.events

    def test_untraced_worker_stages_merged_into_parent(self):
        with obs.capture() as (tracer, registry):
            tracer.configure(enabled=False)
            run_scenarios(_scenarios(2), duration_s=3.0, parallel=True)
        self._assert_worker_telemetry_merged(registry)
        assert tracer.events == []

    def test_parallel_and_serial_merge_same_counters(self):
        with obs.capture() as (_tracer, par_registry):
            par = run_scenarios(_scenarios(2), duration_s=3.0,
                                base_seed=3, parallel=True)
        with obs.capture() as (_tracer, ser_registry):
            ser = run_scenarios(_scenarios(2), duration_s=3.0,
                                base_seed=3, parallel=False)
        assert par[0].reports == ser[0].reports
        assert (par_registry.values("repro_events_total")
                == ser_registry.values("repro_events_total"))
        assert _stage_calls(par_registry) == _stage_calls(ser_registry)

    def test_worker_trace_events_absorbed_with_trial_attr(self):
        with obs.capture() as (tracer, _registry):
            run_scenarios(_scenarios(2), duration_s=3.0, parallel=True)
            events = list(tracer.events)
        scenario_starts = [e for e in events
                          if e.get("name") == "scenario"
                          and e["event"] == "span_start"]
        assert sorted(e["attrs"]["trial"] for e in scenario_starts) == [0, 1]
        # Worker spans are re-parented under the sweep span, and IDs stay
        # unique after the offset re-basing.
        ids = [e["span"] for e in events if e["event"] == "span_start"]
        assert len(ids) == len(set(ids))
