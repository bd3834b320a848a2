"""Exporters: JSONL event sink, Prometheus text exposition, run manifests.

Three ways telemetry leaves the process:

* **JSONL** — one event per line, compact separators, sorted keys, so a
  seeded run's trace file is byte-reproducible and line-diffable (the
  golden-trace test diffs exactly this serialisation with volatile
  fields stripped).
* **Prometheus text exposition** (version 0.0.4) — counters, gauges,
  and histograms from a :class:`~repro.obs.metrics.MetricsRegistry`,
  ready for a ``/metrics`` endpoint or textfile collector.
* **Run manifest** — the reproducibility sidecar written next to
  results: config + its hash, seeds, package versions, git revision.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from .metrics import Histogram, MetricsRegistry

#: Event keys whose values depend on wall clocks, not on the seed.
VOLATILE_EVENT_KEYS = ("wall_s",)

#: Manifest schema version, bumped on incompatible layout changes.
MANIFEST_SCHEMA = 1


# ----------------------------------------------------------------------
# JSONL events
# ----------------------------------------------------------------------
def strip_volatile(events: Iterable[dict]) -> List[dict]:
    """Copies of ``events`` with wall-clock fields removed.

    This is the canonical "timestamps stripped" view the golden-trace
    regression compares: everything left is a pure function of the seed.
    """
    out = []
    for event in events:
        record = {k: v for k, v in event.items() if k not in VOLATILE_EVENT_KEYS}
        out.append(record)
    return out


def _json_scalar(value: Any) -> Any:
    """The JSON type of a numpy scalar event attribute (json ``default``).

    Tuples need no hook (JSON writes them as arrays) and ``np.float64``
    is a float, so only the other numpy scalars land here.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"event attribute {value!r} is not JSON serialisable")


def events_to_jsonl(events: Iterable[dict], strip: bool = False) -> str:
    """Serialise events as JSON Lines (compact, sorted keys, trailing \\n).

    Args:
        events: event dicts from a :class:`~repro.obs.trace.Tracer`.
        strip: drop volatile (wall-clock) fields first.
    """
    if strip:
        events = strip_volatile(events)
    lines = [json.dumps(event, sort_keys=True, separators=(",", ":"),
                        default=_json_scalar)
             for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def write_events_jsonl(events: Iterable[dict], path: Union[str, os.PathLike],
                       strip: bool = False) -> int:
    """Write events to ``path`` as JSONL; returns the number of lines."""
    text = events_to_jsonl(events, strip=strip)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text.count("\n")


def read_events_jsonl(source: Union[str, os.PathLike, IO[str]]) -> List[dict]:
    """Parse a JSONL trace back into event dicts (blank lines skipped)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_prometheus(registry: MetricsRegistry,
                  include_volatile: bool = True) -> str:
    """Render a registry in the Prometheus text exposition format.

    Instruments are grouped by metric name with ``# TYPE`` headers;
    histograms expand into cumulative ``_bucket{le=...}`` series plus
    ``_sum`` and ``_count``, per the exposition spec.  Pass
    ``include_volatile=False`` to drop wall-clock-derived families (stage
    timings) and keep the exposition deterministic under a fixed seed.
    """
    lines: List[str] = []
    seen_types: Dict[str, str] = {}
    for kind, name, labels, inst in registry.instruments():
        if not include_volatile and inst.volatile:
            continue
        prom_kind = {"counter": "counter", "gauge": "gauge",
                     "histogram": "histogram"}[kind]
        if name not in seen_types:
            lines.append(f"# TYPE {name} {prom_kind}")
            seen_types[name] = prom_kind
        if isinstance(inst, Histogram):
            cumulative = 0
            for bound, count in zip(inst.bounds, inst.counts):
                cumulative += count
                label_str = _format_labels(labels, f'le="{_format_value(bound)}"')
                lines.append(f"{name}_bucket{label_str} {cumulative}")
            cumulative += inst.counts[-1]
            label_str = _format_labels(labels, 'le="+Inf"')
            lines.append(f"{name}_bucket{label_str} {cumulative}")
            lines.append(f"{name}_sum{_format_labels(labels)} "
                         f"{_format_value(inst.sum)}")
            lines.append(f"{name}_count{_format_labels(labels)} {inst.count}")
        else:
            lines.append(f"{name}{_format_labels(labels)} "
                         f"{_format_value(inst.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry,
                     path: Union[str, os.PathLike]) -> None:
    """Write the registry's text exposition to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_prometheus(registry))


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
def _config_to_dict(config: Any) -> Any:
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    return config


def _git_revision() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _package_versions() -> Dict[str, str]:
    versions = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        module = sys.modules.get(name)
        if module is None:
            try:
                module = __import__(name)
            except ImportError:  # pragma: no cover - both are hard deps
                continue
        versions[name] = getattr(module, "__version__", "unknown")
    return versions


def run_manifest(config: Any = None,
                 seeds: Optional[Sequence[Optional[int]]] = None,
                 command: Optional[Sequence[str]] = None,
                 extra: Optional[Dict[str, Any]] = None) -> dict:
    """Build the reproducibility manifest for one run.

    Args:
        config: any dataclass (``SystemConfig``, ``ReaderConfig``, ...)
            or JSON-ready mapping; embedded verbatim and hashed.
        seeds: every seed the run consumed, in consumption order.
        command: the invoking argv (defaults to ``sys.argv``).
        extra: free-form caller additions (scenario shape, out paths).

    Returns:
        A JSON-ready dict with ``config_sha256`` — two runs with equal
        hashes and seeds are byte-reproducible modulo wall clocks.
    """
    config_dict = _config_to_dict(config)
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"),
                           default=str)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "created_unix_s": time.time(),
        "command": list(command if command is not None else sys.argv),
        "config": config_dict,
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seeds": list(seeds) if seeds is not None else [],
        "versions": _package_versions(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: Union[str, os.PathLike], **kwargs: Any) -> dict:
    """Build a manifest (see :func:`run_manifest`) and write it to ``path``."""
    manifest = run_manifest(**kwargs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, default=str)
        handle.write("\n")
    return manifest
