"""``repro.obs`` — structured observability: traces, metrics, exporters.

The runtime-visibility substrate of the reproduction (DESIGN.md §10):

* :mod:`repro.obs.trace` — hierarchical spans and point events with
  deterministic IDs (scenario → reader round → inventory slot →
  pipeline stage → per-user estimate);
* :mod:`repro.obs.metrics` — a labelled counter/gauge/histogram
  registry;
* :mod:`repro.obs.export` — JSONL event sink, Prometheus text
  exposition, and run manifests.

This module holds the **process-global session**: one tracer + one
registry that the reader, Gen2 MAC, pipeline, and simulation engine feed
through the helpers below.  :func:`span` is the one stage timer: every
span observes its wall time into ``repro_stage_seconds{stage=<name>}``
whether tracing is on or off.  Tracing is *off* by default — span and
point events are recorded only once :func:`configure` (or the ``repro
obs`` CLI) switches it on.  Sweep workers run each trial inside
:func:`capture` and ship its :func:`snapshot` back to the parent.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from .export import (
    events_to_jsonl,
    read_events_jsonl,
    run_manifest,
    strip_volatile,
    to_prometheus,
    write_events_jsonl,
    write_manifest,
    write_prometheus,
)
from .metrics import (
    DURATION_BUCKETS,
    UNIT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import _NULL_SPAN, DETAIL_LEVELS, SpanHandle, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Tracer", "SpanHandle", "DETAIL_LEVELS", "STAGE_METRIC",
    "DURATION_BUCKETS", "UNIT_BUCKETS",
    "events_to_jsonl", "read_events_jsonl", "strip_volatile",
    "to_prometheus", "write_events_jsonl", "write_prometheus",
    "run_manifest", "write_manifest",
    "get_tracer", "get_registry", "configure", "enabled", "reset",
    "span", "event", "counter", "gauge", "histogram", "snapshot",
    "capture", "install_session",
]

_TRACER = Tracer()
_REGISTRY = MetricsRegistry()

#: Histogram family every :func:`span` observes its wall time into
#: (label: ``stage``, the span name).  Volatile: wall time differs run
#: to run, so determinism checks leave it out.
STAGE_METRIC = "repro_stage_seconds"


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def install_session(tracer: Tracer, registry: MetricsRegistry
                    ) -> Tuple[Tracer, MetricsRegistry]:
    """Swap in a new global (tracer, registry); returns the old pair.

    Used by :func:`capture` to give a block (a sweep trial, a benchmark
    run) an isolated session.  Most code should never call this
    directly.
    """
    global _TRACER, _REGISTRY
    old = (_TRACER, _REGISTRY)
    _TRACER, _REGISTRY = tracer, registry
    return old


def configure(enabled: Optional[bool] = None, detail: Optional[str] = None,
              wall_clock: Optional[bool] = None) -> None:
    """Reconfigure the global tracer (any subset of its knobs)."""
    _TRACER.configure(enabled=enabled, detail=detail, wall_clock=wall_clock)


def enabled() -> bool:
    """True when the global tracer is recording."""
    return _TRACER.enabled


def reset() -> None:
    """Clear all recorded events and metrics (settings are kept)."""
    _TRACER.clear()
    _REGISTRY.reset()


@contextmanager
def span(name: str, **attrs) -> Iterator[SpanHandle]:
    """Time a block as stage ``name``, and trace it when tracing is on.

    The block's wall time lands in ``repro_stage_seconds{stage=name}``
    of the session the span opened in, also when the block raises.  The
    span's start and end events (see :meth:`Tracer.span`) are recorded
    only while the tracer is enabled.
    """
    tracer, registry = _TRACER, _REGISTRY
    t0 = time.perf_counter()
    try:
        if tracer.enabled:
            with tracer.span(name, **attrs) as handle:
                yield handle
        else:
            yield _NULL_SPAN
    finally:
        registry.histogram(STAGE_METRIC, volatile=True, stage=name).observe(
            time.perf_counter() - t0)


def event(name: str, **attrs) -> None:
    """Record a point event on the global tracer."""
    _TRACER.event(name, **attrs)


def counter(metric: str, **labels) -> Counter:
    """A counter on the global registry."""
    return _REGISTRY.counter(metric, **labels)


def gauge(metric: str, **labels) -> Gauge:
    """A gauge on the global registry."""
    return _REGISTRY.gauge(metric, **labels)


def histogram(metric: str, bounds=DURATION_BUCKETS, **labels) -> Histogram:
    """A histogram on the global registry."""
    return _REGISTRY.histogram(metric, bounds=bounds, **labels)


def snapshot(include_volatile: bool = True) -> dict:
    """``{"events": [...], "metrics": {...}}`` for the global session."""
    events = (_TRACER.events if include_volatile
              else strip_volatile(_TRACER.events))
    return {
        "events": list(events),
        "metrics": _REGISTRY.snapshot(include_volatile=include_volatile),
    }


@contextmanager
def capture(detail: str = "round", wall_clock: bool = False
            ) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Record one observed session: fresh state, tracing on, then restore.

    ``with obs.capture() as (tracer, registry): run_scenario(...)`` is
    the test/tooling idiom — the previous global session (events,
    metrics, and settings) is untouched afterwards.
    """
    tracer = Tracer(enabled=True, detail=detail, wall_clock=wall_clock)
    registry = MetricsRegistry()
    old = install_session(tracer, registry)
    try:
        yield tracer, registry
    finally:
        install_session(*old)
