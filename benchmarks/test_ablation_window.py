"""Ablation — analysis window length (accuracy vs latency trade-off).

The paper's characterisation uses a 25 s window; its accuracy evaluation
computes averages over two-minute trials.  This ablation quantifies the
trade-off a realtime deployment faces: a longer window makes both the
FFT coarse-search and the crossing statistics more reliable but delays
the first estimate; a window too short cannot buffer Eq. (5)'s seven
crossings at slow rates at all.
"""

import numpy as np

from repro import Scenario, TagBreathe, run_scenario
from repro.body import MetronomeBreathing, Subject

from conftest import print_reproduction

WINDOWS_S = (15.0, 25.0, 40.0, 60.0)
RATES = (8.0, 12.0, 18.0)


def sweep_windows():
    captures = []
    for i, rate in enumerate(RATES):
        scenario = Scenario([Subject(user_id=1, distance_m=4.0,
                                     breathing=MetronomeBreathing(rate),
                                     sway_seed=i)])
        captures.append((rate, run_scenario(scenario, duration_s=65.0,
                                            seed=811 + i)))
    out = {}
    for window in WINDOWS_S:
        errors, failures = [], 0
        for rate, result in captures:
            pipeline = TagBreathe(user_ids={1})
            pipeline.feed_batch(result.reports)
            try:
                estimate = pipeline.estimate_user(1, window_s=window)
                errors.append(abs(estimate.rate_bpm - rate))
            except Exception:
                failures += 1
        out[window] = (
            float(np.mean(errors)) if errors else float("nan"),
            failures,
        )
    return out


def test_ablation_window(benchmark, capsys):
    results = benchmark.pedantic(sweep_windows, rounds=1, iterations=1)
    rows = [
        (f"{w:.0f} s" + (" (paper char.)" if w == 25.0 else ""),
         f"{results[w][0]:.2f} bpm" if not np.isnan(results[w][0]) else "-",
         results[w][1])
        for w in WINDOWS_S
    ]
    print_reproduction(
        capsys, "Ablation: analysis window length",
        ("window", "mean |error|", "failures"), rows,
        paper_note="25 s suffices for adult rates; longer windows refine, "
                   "shorter ones cannot buffer 7 crossings at 8 bpm",
    )
    # The paper's 25 s window estimates what it can estimate accurately;
    # the slowest Table I rates are marginal there (8 bpm needs ~26 s to
    # buffer 7 crossings), which is exactly the latency trade-off.
    assert results[25.0][0] < 1.5
    assert results[25.0][1] <= 1
    # 40 s and longer hold the whole adult range with no failures.
    assert results[40.0][1] == 0
    assert results[60.0][1] == 0
    assert results[60.0][0] <= results[40.0][0] + 0.3
    # Shorter windows fail more often than longer ones.
    assert results[15.0][1] >= results[25.0][1] >= results[40.0][1]
