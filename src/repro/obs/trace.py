"""Hierarchical trace spans with deterministic IDs and JSONL-ready events.

The span taxonomy (DESIGN.md §10) follows the simulation's own nesting:

    scenario                       one run_scenario call
      sweep.trial                  (under sweep.run_scenarios in sweeps)
      reader.run                   one inventory session
        reader.mac                 MAC arbitration
          gen2.round               one ALOHA round (point event)
            gen2.slot              one slot (point event, detail="slot")
        reader.synthesize          report synthesis
      pipeline.process             one batch-processing call
        pipeline.user              per-user fusion + estimate

Span IDs are sequential integers assigned in emission order, so the
event stream of a seeded run is fully deterministic — the property the
golden-trace and determinism tests lock down.  Wall-clock durations are
*opt-in* (``wall_clock=True`` adds ``wall_s`` to span-end events); with
the default off, two runs of the same seed produce byte-identical
streams with no stripping required.

Attributes are stored as the call site passed them (numpy scalars and
tuples included); :func:`repro.obs.export.events_to_jsonl` makes them
JSON types once, at export, so recording an event stays cheap.  The
per-round call site goes further: :meth:`Tracer.point` stores its
values as one tuple and the event dict is built when ``events`` is
read.

The tracer records events only; :func:`repro.obs.span` wraps
:meth:`Tracer.span` to also time every span into the session's
``repro_stage_seconds`` histogram, tracing on or off.

The tracer is intentionally not thread-safe: one tracer per process (or
per sweep trial via :func:`repro.obs.capture`), matching the
single-threaded simulation engine.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: Trace detail levels, coarse to fine.  "round" (default) emits one
#: point event per MAC round; "slot" additionally emits one per ALOHA
#: slot — an order of magnitude more events, for protocol debugging.
DETAIL_LEVELS = ("round", "slot")


class SpanHandle:
    """Live handle to an open span; lets the body attach result attrs.

    Attributes added via :meth:`set` are emitted on the span-end event —
    the natural home for values only known at the end (estimate bpm,
    report counts, confidence).
    """

    __slots__ = ("span_id", "name", "attrs")

    def __init__(self, span_id: int, name: str) -> None:
        self.span_id = span_id
        self.name = name
        self.attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span's end event."""
        self.attrs.update(attrs)


class _NullSpan:
    """The no-op handle a disabled tracer yields (zero allocation)."""

    __slots__ = ()
    span_id = 0
    name = ""

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span and point events with deterministic ordering.

    Args:
        enabled: record events (default off — instrumented call sites
            stay near-free until observability is switched on).
        detail: trace granularity, one of :data:`DETAIL_LEVELS`.
        wall_clock: add ``wall_s`` (monotonic duration) to span ends.
    """

    def __init__(self, enabled: bool = False, detail: str = "round",
                 wall_clock: bool = False) -> None:
        # Event dicts, plus the tuples :meth:`point` stores; ``events``
        # turns tuples past ``_built`` into dicts when it is read.
        self._events: List[Union[dict, tuple]] = []
        self._built = 0
        self._stack: List[int] = []
        self._next_id = 1
        self._enabled = enabled
        self.wall_clock = wall_clock
        self.detail = detail

    @property
    def enabled(self) -> bool:
        """True when events are being recorded."""
        return self._enabled

    @property
    def events(self) -> List[dict]:
        """Every recorded event as a dict, in emission order."""
        events = self._events
        for i in range(self._built, len(events)):
            record = events[i]
            if type(record) is tuple:
                event_id, parent, name, fields, values = record
                events[i] = record = {
                    "event": "point", "span": event_id, "name": name,
                    "parent": parent, "attrs": dict(zip(fields, values))}
                if not parent:
                    del record["parent"]
        self._built = len(events)
        return events

    @property
    def detail(self) -> str:
        """The granularity level in force."""
        return self._detail

    @detail.setter
    def detail(self, level: str) -> None:
        if level not in DETAIL_LEVELS:
            raise ValueError(
                f"detail must be one of {DETAIL_LEVELS}, got {level!r}")
        self._detail = level

    def configure(self, enabled: Optional[bool] = None,
                  detail: Optional[str] = None,
                  wall_clock: Optional[bool] = None) -> None:
        """Update any subset of (enabled, detail, wall_clock)."""
        if enabled is not None:
            self._enabled = enabled
        if detail is not None:
            self.detail = detail
        if wall_clock is not None:
            self.wall_clock = wall_clock

    @property
    def slot_detail(self) -> bool:
        """True when slot-level MAC events should be emitted."""
        return self._enabled and self._detail == "slot"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanHandle]:
        """Open a span around a block: ``with tracer.span("reader.run"): ...``.

        Yields a :class:`SpanHandle`; attributes set on it land on the
        span-end event.  An exception inside the block still closes the
        span and stamps it with the exception type under ``error``.
        """
        if not self._enabled:
            yield _NULL_SPAN
            return
        span_id = self._next_id
        self._next_id += 1
        start = {"event": "span_start", "span": span_id, "name": name}
        if self._stack:
            start["parent"] = self._stack[-1]
        if attrs:
            start["attrs"] = attrs
        self._events.append(start)
        self._stack.append(span_id)
        handle = SpanHandle(span_id, name)
        t0 = time.perf_counter() if self.wall_clock else 0.0
        error: Optional[str] = None
        try:
            yield handle
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            end = {"event": "span_end", "span": span_id, "name": name}
            if handle.attrs:
                end["attrs"] = handle.attrs
            if error is not None:
                end["error"] = error
            if self.wall_clock:
                end["wall_s"] = time.perf_counter() - t0
            self._events.append(end)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant (point) event under the current span."""
        if not self._enabled:
            return
        event_id = self._next_id
        self._next_id += 1
        record = {"event": "point", "span": event_id, "name": name}
        if self._stack:
            record["parent"] = self._stack[-1]
        if attrs:
            record["attrs"] = attrs
        self._events.append(record)

    def point(self, name: str, fields: Tuple[str, ...],
              values: Tuple[Any, ...]) -> None:
        """Record a point event with attrs ``dict(zip(fields, values))``.

        The same event as :meth:`event`, for call sites that fire once
        per MAC round: it appends one tuple and leaves the record and
        attribute dicts to the next read of :attr:`events`.
        """
        if not self._enabled:
            return
        event_id = self._next_id
        self._next_id += 1
        self._events.append((event_id, self._stack[-1] if self._stack else 0,
                             name, fields, values))

    # ------------------------------------------------------------------
    # Merging (sweep workers) / lifecycle
    # ------------------------------------------------------------------
    def absorb(self, events: Sequence[dict], **extra_attrs: Any) -> None:
        """Fold a worker tracer's event list into this one.

        Span/parent IDs are re-based past this tracer's counter so merged
        streams never collide; events with no parent are re-parented
        under the currently open span (the sweep span).  ``extra_attrs``
        (e.g. ``trial=3``) are stamped onto every absorbed event's attrs.
        Merging in input order keeps the combined stream deterministic
        regardless of worker completion order.
        """
        if not self._enabled or not events:
            return
        offset = self._next_id - 1
        top = self._stack[-1] if self._stack else None
        max_id = 0
        for src in events:
            record = dict(src)
            span_id = record["span"] + offset
            max_id = max(max_id, span_id)
            record["span"] = span_id
            if "parent" in record:
                record["parent"] = record["parent"] + offset
            elif top is not None:
                record["parent"] = top
            if extra_attrs:
                merged = dict(record.get("attrs", {}))
                merged.update(extra_attrs)
                record["attrs"] = merged
            self._events.append(record)
        self._next_id = max_id + 1

    def clear(self) -> None:
        """Drop all recorded events and reset the ID counter."""
        self._events.clear()
        self._built = 0
        self._stack.clear()
        self._next_id = 1
