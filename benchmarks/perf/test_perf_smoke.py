"""CI smoke test for the perf harness.

Runs the abbreviated benchmark grid and checks the *harness* — schema,
stage timings, JSON serialisability.  It
deliberately asserts nothing about absolute times or speedup ratios:
CI machines are noisy and shared, so performance regressions are judged
from the uploaded ``BENCH_*.json`` artifacts, not pass/fail here.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import QUICK_GRID, run_benchmarks


@pytest.fixture(scope="module")
def bench_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    results = run_benchmarks(quick=True, seed=0, out_dir=str(out))
    return results, out


def test_simulation_suite_schema(bench_results):
    results, _out = bench_results
    sim = results["simulation"]
    assert sim["quick"] is True
    assert len(sim["cases"]) == len(QUICK_GRID)
    for case in sim["cases"]:
        assert case["reports"] > 0
        assert case["seconds"] > 0
        assert case["mac_s"] > 0
        assert case["synthesize_s"] > 0
    headline = sim["headline"]
    assert headline["users"] == max(u for u, _ in QUICK_GRID)
    assert headline["seconds"] == max(
        sim["cases"], key=lambda c: (c["users"], c["duration_s"]))["seconds"]


def test_pipeline_suite_schema(bench_results):
    results, _out = bench_results
    pipe = results["pipeline"]
    assert len(pipe["cases"]) == len(QUICK_GRID)
    for case in pipe["cases"]:
        assert case["reports"] > 0
        assert case["process_s"] > 0
        assert case["users_estimated"] >= 1


def test_streaming_batched_feed_schema(bench_results):
    results, _out = bench_results
    streaming = results["pipeline"]["streaming"]
    for case in streaming["cases"]:
        assert case["feed_batch_s"] > 0
        assert case["feed_batch_reports_per_s"] > 0
        assert case["feed_batch_cost_kernels"] > 0
        # Bit-exactness is a correctness contract, not a timing — it
        # must hold on any machine, noisy or not.
        assert case["batch_state_equal"] is True
        assert case["batch_max_rate_diff_bpm"] == 0.0
        assert case["serve_state_equal"] is True
        assert case["serve_staging_speedup"] > 0
    assert streaming["headline"]["batch_state_equal"] is True
    assert streaming["headline"]["serve_state_equal"] is True


def test_wire_suite_schema(bench_results):
    results, _out = bench_results
    wire = results["pipeline"]["wire"]
    modes = {case["mode"] for case in wire["cases"]}
    assert modes == {"column"}
    for case in wire["cases"]:
        assert case["acked"] == case["sent"] == case["reports"]
        assert case["bytes_per_report"] > 0
    # Frame size is a format property, machine-independent: 48 data
    # bytes plus an 8-byte sequence number per report.
    assert 56.0 <= wire["headline"]["column_bytes_per_report"] <= 60.0
    assert wire["headline"]["acked_equal_sent"] is True


def test_bench_files_written_and_json_clean(bench_results):
    _results, out = bench_results
    for name in ("BENCH_simulation.json", "BENCH_pipeline.json"):
        payload = json.loads((out / name).read_text())
        assert payload["cases"]
        assert payload["machine"]["cpus"] >= 1
