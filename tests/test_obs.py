"""The observability layer: tracer, metrics registry, exporters, manifests."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    events_to_jsonl,
    read_events_jsonl,
    run_manifest,
    strip_volatile,
    to_prometheus,
)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer") as span:
            span.set(x=1)
            tracer.event("ping")
        assert tracer.events == []

    def test_span_ids_sequential_in_emission_order(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            tracer.event("p")
        with tracer.span("b"):
            pass
        ids = [e["span"] for e in tracer.events if e["event"] != "span_end"]
        assert ids == [1, 2, 3]

    def test_nesting_sets_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("leaf")
        by_name = {e["name"]: e for e in tracer.events
                   if e["event"] != "span_end"}
        assert "parent" not in by_name["outer"]
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["leaf"]["parent"] == by_name["inner"]["span"]

    def test_handle_attrs_land_on_span_end(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", phase=1) as span:
            span.set(result=42)
        start, end = tracer.events
        assert start["attrs"] == {"phase": 1}
        assert end["attrs"] == {"result": 42}

    def test_exception_closes_span_and_stamps_error(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        end = tracer.events[-1]
        assert end["event"] == "span_end"
        assert end["error"] == "ValueError"
        # The stack unwound: new spans are root spans again.
        with tracer.span("after"):
            pass
        assert "parent" not in tracer.events[-2]

    def test_wall_clock_opt_in(self):
        silent = Tracer(enabled=True, wall_clock=False)
        with silent.span("a"):
            pass
        assert "wall_s" not in silent.events[-1]
        timed = Tracer(enabled=True, wall_clock=True)
        with timed.span("a"):
            pass
        assert timed.events[-1]["wall_s"] >= 0.0

    def test_numpy_attrs_coerced_to_json_types(self):
        # Attributes are stored as passed and made JSON types at export.
        tracer = Tracer(enabled=True)
        tracer.event("e", n=np.int64(3), x=np.float64(0.5),
                     y=np.float32(0.25), pair=(1, np.int64(2)))
        [record] = read_events_jsonl(io.StringIO(
            events_to_jsonl(tracer.events)))
        assert record["attrs"] == {"n": 3, "x": 0.5, "y": 0.25,
                                   "pair": [1, 2]}
        with pytest.raises(TypeError):
            events_to_jsonl([{"attrs": {"bad": object()}}])

    def test_point_records_the_same_event_as_event(self):
        eager, lazy = Tracer(enabled=True), Tracer(enabled=True)
        for tracer in (eager, lazy):
            def record():
                if tracer is eager:
                    eager.event("gen2.round", t=0.5, q=np.int64(2), reads=1)
                else:
                    lazy.point("gen2.round", ("t", "q", "reads"),
                               (0.5, np.int64(2), 1))
            record()  # a root event: no parent
            with tracer.span("reader.mac"):
                record()
                with tracer.span("inner"):
                    pass
                record()
        assert lazy.events == eager.events
        assert events_to_jsonl(lazy.events) == events_to_jsonl(eager.events)
        assert "parent" not in lazy.events[0]
        # Events recorded after a read are built on the next read.
        lazy.point("late", ("n",), (1,))
        assert lazy.events[-1] == {"event": "point", "span": 6,
                                   "name": "late", "attrs": {"n": 1}}
        off = Tracer(enabled=False)
        off.point("x", ("n",), (1,))
        assert off.events == []
        lazy.clear()
        assert lazy.events == []

    def test_detail_validation(self):
        with pytest.raises(ValueError):
            Tracer(detail="nope")
        tracer = Tracer(enabled=True, detail="slot")
        assert tracer.slot_detail
        assert not Tracer(enabled=False, detail="slot").slot_detail

    def test_absorb_rebases_and_reparents(self):
        worker = Tracer(enabled=True)
        with worker.span("scenario"):
            worker.event("gen2.round")
        parent = Tracer(enabled=True)
        with parent.span("sweep") as _:
            parent.absorb(worker.events, trial=7)
        events = parent.events
        absorbed = [e for e in events if e.get("attrs", {}).get("trial") == 7]
        assert len(absorbed) == len(worker.events)
        # Worker's root span hangs under the sweep span; IDs are unique.
        scenario_start = next(e for e in absorbed if e["name"] == "scenario"
                              and e["event"] == "span_start")
        assert scenario_start["parent"] == 1
        ids = [e["span"] for e in events if e["event"] == "span_start"]
        assert len(ids) == len(set(ids))
        # The counter advanced past absorbed IDs: no future collision.
        with parent.span("later"):
            pass
        later = [e for e in parent.events if e["name"] == "later"][0]
        assert later["span"] > max(e["span"] for e in absorbed)

    def test_clear_resets_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        tracer.clear()
        with tracer.span("b"):
            pass
        assert tracer.events[0]["span"] == 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("reads_total", tag="x")
        b = reg.counter("reads_total", tag="x")
        c = reg.counter("reads_total", tag="y")
        assert a is b and a is not c
        a.inc(2)
        assert reg.values("reads_total") == {(("tag", "x"),): 2.0,
                                             (("tag", "y"),): 0.0}

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("c").inc(-1)

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("bad name")
        with pytest.raises(ObservabilityError):
            reg.counter("ok", **{"bad-label": "v"})

    def test_invalid_names_raise_on_every_use_of_every_kind(self):
        # Names are checked when an instrument is created; an invalid one
        # is never stored, so a repeated lookup raises again.
        reg = MetricsRegistry()
        for make in (reg.counter, reg.gauge, reg.histogram):
            for _ in range(2):
                with pytest.raises(ObservabilityError):
                    make("bad name")
                with pytest.raises(ObservabilityError):
                    make("ok_total", **{"bad-label": "v"})
                with pytest.raises(ObservabilityError):
                    make("ok_total", good="v", **{"9bad": "v"})
        assert reg.snapshot() == {"counters": [], "gauges": [],
                                  "histograms": []}

    def test_label_values_are_keyed_as_strings_in_any_order(self):
        reg = MetricsRegistry()
        a = reg.counter("reads_total", tag=1, antenna="2")
        assert reg.counter("reads_total", antenna=2, tag="1") is a
        assert reg.gauge("g", port=3) is reg.gauge("g", port="3")

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", bounds=(1.0, 2.0))
        hist.observe_many([0.5, 1.5, 99.0])
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == pytest.approx(101.0)

    def test_histogram_bad_bounds(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.histogram("h", bounds=())
        with pytest.raises(ObservabilityError):
            reg.histogram("h", bounds=(2.0, 1.0))
        reg.histogram("ok", bounds=(1.0, 2.0))
        with pytest.raises(ObservabilityError):
            reg.histogram("ok", bounds=(1.0, 3.0))  # incompatible re-register

    def test_snapshot_deterministic_order(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a", tag="2").inc()
        reg.counter("a", tag="1").inc()
        names = [(r["name"], tuple(sorted(r["labels"].items())))
                 for r in reg.snapshot()["counters"]]
        assert names == sorted(names)

    def test_snapshot_excludes_volatile_on_request(self):
        reg = MetricsRegistry()
        reg.counter("stable").inc()
        reg.histogram("timer", volatile=True).observe(0.5)
        full = reg.snapshot(include_volatile=True)
        det = reg.snapshot(include_volatile=False)
        assert len(full["histograms"]) == 1
        assert det["histograms"] == []
        assert len(det["counters"]) == 1

    def test_merge_adds_counters_and_histograms(self):
        a = MetricsRegistry()
        a.counter("c", k="v").inc(2)
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        a.gauge("g").set(1.0)
        b = MetricsRegistry()
        b.counter("c", k="v").inc(3)
        b.histogram("h", bounds=(1.0,)).observe(5.0)
        b.gauge("g").set(9.0)
        a.merge(b.snapshot())
        assert a.counter("c", k="v").value == 5.0
        hist = a.histogram("h", bounds=(1.0,))
        assert hist.count == 2 and hist.counts == [1, 1]
        assert a.gauge("g").value == 9.0  # last-merge-wins

    def test_merge_malformed_raises(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().merge({"counters": [{"name": "x"}]})

    def test_merge_is_idempotent_on_empty(self):
        reg = MetricsRegistry()
        reg.merge(MetricsRegistry().snapshot())
        assert reg.snapshot() == {"counters": [], "gauges": [],
                                  "histograms": []}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("a", n=1):
            tracer.event("p", x=0.5)
        path = tmp_path / "trace.jsonl"
        n = obs.write_events_jsonl(tracer.events, path)
        assert n == 3
        assert read_events_jsonl(path) == tracer.events

    def test_jsonl_is_compact_sorted_and_newline_terminated(self):
        text = events_to_jsonl([{"b": 1, "a": 2}])
        assert text == '{"a":2,"b":1}\n'
        assert events_to_jsonl([]) == ""

    def test_strip_volatile_removes_wall_clock(self):
        events = [{"event": "span_end", "span": 1, "wall_s": 0.25}]
        stripped = strip_volatile(events)
        assert stripped == [{"event": "span_end", "span": 1}]
        assert "wall_s" in events[0]  # original untouched

    def test_prometheus_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("reads_total", tag="(1, 1)").inc(5)
        reg.gauge("q_now").set(2.5)
        text = to_prometheus(reg)
        assert "# TYPE reads_total counter" in text
        assert 'reads_total{tag="(1, 1)"} 5' in text
        assert "q_now 2.5" in text

    def test_prometheus_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(1.0, 2.0))
        hist.observe_many([0.5, 1.5, 9.0])
        text = to_prometheus(reg)
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_prometheus_type_header_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("c", tag="a").inc()
        reg.counter("c", tag="b").inc()
        text = to_prometheus(reg)
        assert text.count("# TYPE c counter") == 1

    def test_manifest_contents_and_hash_stability(self):
        from repro.config import PipelineConfig

        m1 = run_manifest(config=PipelineConfig(), seeds=[1, 2],
                          command=["repro", "obs"])
        m2 = run_manifest(config=PipelineConfig(), seeds=[1, 2],
                          command=["repro", "obs"])
        assert m1["schema"] == 1
        assert m1["command"] == ["repro", "obs"]
        assert m1["seeds"] == [1, 2]
        assert m1["config_sha256"] == m2["config_sha256"]
        assert "python" in m1["versions"] and "numpy" in m1["versions"]
        changed = run_manifest(config=PipelineConfig(cutoff_hz=0.9))
        assert changed["config_sha256"] != m1["config_sha256"]

    def test_write_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        written = obs.write_manifest(path, seeds=[3])
        on_disk = json.loads(path.read_text())
        assert on_disk["seeds"] == [3]
        assert on_disk["config_sha256"] == written["config_sha256"]


# ----------------------------------------------------------------------
# Global session: stage timers, counters, nested sessions
# ----------------------------------------------------------------------
class TestGlobalSession:
    def test_capture_isolates_and_restores(self):
        before = obs.get_registry()
        with obs.capture() as (tracer, registry):
            assert obs.get_tracer() is tracer
            assert obs.enabled()
            obs.event("inside")
        assert obs.get_registry() is before
        assert not obs.enabled()
        assert tracer.events[0]["name"] == "inside"

    def test_perf_follows_session_swap(self):
        probe = (("name", "probe"),)
        with obs.capture() as (_tracer, registry):
            obs.counter("repro_events_total", name="probe").inc(4)
            assert obs.get_registry().values("repro_events_total") == {
                probe: 4}
        # Outside the capture the probe counter is gone from view.
        assert probe not in obs.get_registry().values("repro_events_total")
        rows = registry.snapshot()["counters"]
        assert any(r["labels"].get("name") == "probe" and r["value"] == 4
                   for r in rows)

    def test_telemetry_scope_collects_events_and_metrics(self):
        with obs.capture() as (_outer, outer_registry):
            with obs.span("outer.stage"):
                with obs.capture():
                    obs.event("w")
                    obs.counter("repro_events_total", name="inner").inc(2)
                    collected = obs.snapshot()
            # Restored: the outer capture session is live again.
            obs.event("outer")
        assert collected["events"][0]["name"] == "w"
        assert any(r["labels"].get("name") == "inner" and r["value"] == 2
                   for r in collected["metrics"]["counters"])
        # The span opened in the outer session is timed there, not in
        # the nested session that was live when it closed.
        assert not collected["metrics"]["histograms"]
        assert outer_registry.histogram(obs.STAGE_METRIC, volatile=True,
                                        stage="outer.stage").count == 1

    def test_untraced_span_times_without_an_event(self):
        with obs.capture() as (tracer, registry):
            tracer.configure(enabled=False)
            with obs.span("x") as span:
                span.set(ignored=True)
        [row] = registry.snapshot()["histograms"]
        assert row["name"] == "repro_stage_seconds"
        assert row["labels"] == {"stage": "x"}
        assert row["count"] == 1 and row["volatile"] is True
        assert tracer.events == []

    def test_traced_span_times_and_emits_events(self):
        with obs.capture() as (tracer, registry):
            with obs.span("x", n=1):
                pass
        assert [e["event"] for e in tracer.events] == ["span_start",
                                                       "span_end"]
        assert registry.histogram(obs.STAGE_METRIC, volatile=True,
                                  stage="x").count == 1

    def test_obs_snapshot_shape(self):
        with obs.capture():
            obs.counter("c").inc()
            obs.event("e")
            snap = obs.snapshot()
        assert set(snap) == {"events", "metrics"}
        assert len(snap["events"]) == 1
