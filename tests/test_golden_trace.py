"""Golden-trace regression: a seeded end-to-end run must keep emitting
exactly the trace (and breathing estimates) committed under ``tests/data``.

The scenario is one user breathing at a metronomic 24 bpm for 12 s —
the shortest capture that clears both pipeline floors (>= 10 s of track,
>= 7 zero crossings) with margin.  The trace lives in
``golden_trace_vectorized.jsonl`` and the estimate under the
``"vectorized"`` key of ``golden_trace_expected.json``.

Comparison is on parsed JSON with floats rounded to 6 decimals —
byte-exactness across platforms/BLAS builds is not promised by the
substrate, but the event structure, ordering, IDs, and values to a
micro-unit are.  (Same-process byte determinism is asserted separately
in ``test_determinism.py``.)

Regenerate after an intentional trace-schema or estimator change::

    PYTHONPATH=src python tests/test_golden_trace.py

then review the diff like any other behaviour change.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.body import MetronomeBreathing, Subject
from repro.core.pipeline import TagBreathe
from repro.errors import DegradedEstimateWarning
from repro.obs.export import events_to_jsonl
from repro.sim.engine import run_scenario
from repro.sim.scenario import Scenario

DATA_DIR = Path(__file__).parent / "data"
EXPECTED_PATH = DATA_DIR / "golden_trace_expected.json"
GOLDEN_PATH = DATA_DIR / "golden_trace_vectorized.jsonl"
EXPECTED_KEY = "vectorized"

SEED = 7
DURATION_S = 12.0
RATE_BPM = 24.0


def _golden_scenario() -> Scenario:
    subject = Subject(user_id=1, distance_m=2.0,
                      breathing=MetronomeBreathing(RATE_BPM),
                      sway_seed=SEED)
    return Scenario([subject])


def _run():
    """One traced end-to-end run; returns (events, estimates, failures)."""
    with obs.capture(detail="round") as (tracer, _registry):
        result = run_scenario(_golden_scenario(), duration_s=DURATION_S,
                              seed=SEED)
        pipeline = TagBreathe(user_ids={1})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            estimates, failures = pipeline.process_detailed(result.reports)
        events = list(tracer.events)
    return events, estimates, failures


def _canonical(jsonl_text: str):
    """Parse a JSONL trace into comparable rows with floats rounded."""

    def rounded(value):
        if isinstance(value, float):
            return round(value, 6)
        if isinstance(value, list):
            return [rounded(v) for v in value]
        if isinstance(value, dict):
            return {k: rounded(v) for k, v in value.items()}
        return value

    return [rounded(json.loads(line))
            for line in jsonl_text.splitlines() if line]


class TestGoldenTrace:
    def test_trace_matches_committed_golden(self):
        events, _estimates, _failures = _run()
        actual = _canonical(events_to_jsonl(events))
        golden = _canonical(GOLDEN_PATH.read_text())
        assert len(actual) == len(golden), (
            f"event count drifted: {len(actual)} != {len(golden)} — if the "
            "trace schema changed intentionally, regenerate with "
            "`PYTHONPATH=src python tests/test_golden_trace.py`"
        )
        for i, (a, g) in enumerate(zip(actual, golden)):
            assert a == g, f"trace diverges at event {i}: {a!r} != {g!r}"

    def test_estimates_match_committed_golden(self):
        _events, estimates, failures = _run()
        expected = json.loads(EXPECTED_PATH.read_text())[EXPECTED_KEY]
        assert failures == {}
        assert set(estimates) == {1}
        est = estimates[1]
        assert est.rate_bpm == pytest.approx(expected["rate_bpm"], abs=1e-6)
        assert est.confidence == pytest.approx(expected["confidence"],
                                               abs=1e-6)
        # The estimate must also be *right*: within the paper's ~0.5 bpm
        # error envelope of the metronome truth.
        assert est.rate_bpm == pytest.approx(RATE_BPM, abs=1.0)


def regenerate() -> None:
    """Rewrite the golden files from the current implementation."""
    DATA_DIR.mkdir(exist_ok=True)
    events, estimates, failures = _run()
    assert failures == {}, failures
    GOLDEN_PATH.write_text(events_to_jsonl(events))
    est = estimates[1]
    expected = {EXPECTED_KEY: {"rate_bpm": est.rate_bpm,
                               "confidence": est.confidence}}
    print(f"{GOLDEN_PATH.name}: {len(events)} events, "
          f"rate={est.rate_bpm:.4f} bpm conf={est.confidence:.4f}")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True)
                             + "\n")
    print(f"{EXPECTED_PATH.name}: written")


if __name__ == "__main__":
    regenerate()
