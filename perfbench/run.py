"""Benchmark of the TagBreathe monitoring path.

Run from the repository root::

    python3 perfbench/run.py --workload ward --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``ward`` (paced ward, open loop),
``bulk`` (backlog ingest, closed loop), ``churn`` (visits to a mostly
hibernated population, closed loop) and ``offline`` (the paper's
simulate-and-estimate trials).

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``p50_ms`` of
the workload's operation latency, ``reports_per_s`` over the measured
window, and ``setup_s``, the median of the run's set-ups, every time
scaled to the nominal host (``reference.py``).  With ``--trace 1`` the
layers are wrapped from outside (``waterfall.py``) and the metrics are
the per-layer ones; the full waterfall also goes to
``perfbench/out/<workload>-<seed>.json``.  A summary, with the latency
tail and the unscaled figures, goes to standard error.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


#: ``p50_ms`` is the median of the latency medians of this many
#: consecutive slices of the operations, so that one burst of host
#: stalls moves it less.
SLICES = 4


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _sliced_median(values) -> float:
    size = -(-len(values) // SLICES)
    return statistics.median(statistics.median(values[i:i + size])
                             for i in range(0, len(values), size))


def _layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "1/kreport" if name.endswith("_per_kreport") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from waterfall import Waterfall
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    waterfall = Waterfall() if args.trace else None
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, waterfall)
    if not outcome.latencies_s:
        print("error: no operation completed", file=sys.stderr)
        return 1

    raw_ms = [1e3 * s for s in outcome.latencies_s]
    latencies_ms = [ms * scale for ms, scale in zip(raw_ms, outcome.scales)]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(latencies_ms),
        "percentiles_ms": {q: _percentile(latencies_ms, q)
                           for q in (90, 95, 99, 100)},
        "raw_percentiles_ms": {q: _percentile(raw_ms, q)
                               for q in (50, 90, 99)},
        "setup_runs_s": outcome.setup_s,
        "problems": outcome.problems[:20],
        **outcome.detail,
    }
    if waterfall is None:
        if outcome.paced:
            rate = outcome.reports / outcome.wall_s
        else:
            rate = outcome.reports / (1e-3 * sum(latencies_ms))
        metrics = {
            "p50_ms": (_sliced_median(latencies_ms), "ms"),
            "reports_per_s": (rate, "1/s"),
            "setup_s": (statistics.median(outcome.setup_s), "s"),
        }
    else:
        mean_s = sum(outcome.latencies_s) / len(outcome.latencies_s)
        metrics = {name: (value, _layer_unit(name))
                   for name, value in waterfall.metrics(
                       mean_s, outcome.reports).items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        detail = dict(summary, window_s=waterfall.window_s,
                      self_s=dict(waterfall.self_s),
                      calls=dict(waterfall.calls),
                      metrics={k: v for k, (v, _u) in metrics.items()})
        (out_dir / f"{args.workload}-{args.seed}.json").write_text(
            json.dumps(detail, indent=2, sort_keys=True) + "\n")
    for name, (value, unit) in metrics.items():
        summary[name] = value
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
