"""The metrics registry: counters, gauges, and histograms with labels.

No analogue in the paper — this is the production-observability substrate
the ROADMAP's "millions of users" north star needs.  The design follows
the Prometheus data model (the de-facto standard for RF/sensing fleet
monitoring, cf. per-link RSS quality tracking in *Catch a Breath*):

* an **instrument** is identified by a metric *name* plus a sorted tuple
  of *labels* (``reads_total{tag="(1, 2)"}``);
* **counters** only go up, **gauges** hold the latest value, and
  **histograms** bucket observations against fixed bounds;
* a registry **snapshot** is a JSON-ready, deterministically ordered
  structure that a worker process can ship back to its parent, where
  :meth:`MetricsRegistry.merge` folds it in — the mechanism that fixes
  the sweep-worker telemetry loss.

Instruments whose values are wall-clock dependent (stage timers) are
flagged ``volatile`` so determinism tests can compare everything else
bit for bit across runs.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import ObservabilityError

#: Prometheus-compatible metric/label name pattern.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram bounds for duration-style observations [seconds].
DURATION_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Default histogram bounds for unit-interval observations (confidence).
UNIT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0,
)

#: Internal instrument key: (metric name, sorted (label, value) pairs).
_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    """The sorted ``(label, str(value))`` pairs of an instrument key."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _validate(name: str, labels: Dict[str, str]) -> None:
    """Check a new instrument's metric and label names."""
    if not _NAME_RE.match(name):
        raise ObservabilityError(f"invalid metric name {name!r}")
    for label in labels:
        if not _NAME_RE.match(label):
            raise ObservabilityError(f"invalid label name {label!r}")


class Counter:
    """A monotonically increasing value (events, reads, rejections)."""

    __slots__ = ("value", "volatile")

    def __init__(self, volatile: bool = False) -> None:
        self.value = 0.0
        self.volatile = volatile

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be >= 0) to the counter.

        Raises:
            ObservabilityError: on a negative increment.
        """
        if n < 0:
            raise ObservabilityError(f"counter increment must be >= 0, got {n}")
        self.value += n


class Gauge:
    """A point-in-time value (per-antenna SNR, queue depth, current Q)."""

    __slots__ = ("value", "volatile")

    def __init__(self, volatile: bool = False) -> None:
        self.value = 0.0
        self.volatile = volatile

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        """Adjust the gauge by ``n`` (may be negative)."""
        self.value += n

    @contextmanager
    def track(self, n: float = 1.0) -> Iterator["Gauge"]:
        """Hold the gauge ``n`` higher for the duration of a block.

        The in-flight/occupancy idiom (active connections, live
        sessions, concurrent workers)::

            with registry.gauge("repro_serve_active_connections").track():
                handle(connection)

        The decrement runs even when the block raises, so a crashed
        handler never leaks occupancy.
        """
        self.inc(n)
        try:
            yield self
        finally:
            self.inc(-n)


class Histogram:
    """Observations bucketed against fixed upper bounds.

    Attributes:
        bounds: finite bucket upper bounds; an implicit +Inf bucket
            catches everything above the last bound.
        counts: per-bucket observation counts (len = len(bounds) + 1),
            *non*-cumulative internally; exposition cumulates.
        sum: total of all observed values.
        count: total number of observations.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "volatile")

    def __init__(self, bounds: Sequence[float] = DURATION_BUCKETS,
                 volatile: bool = False) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise ObservabilityError(
                f"histogram bounds must be non-empty and increasing, got {bounds}"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.volatile = volatile

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations (one pass per bucket)."""
        for value in values:
            self.observe(float(value))

    def add(self, total: float, count: int, counts: Sequence[int]) -> None:
        """Fold in pre-aggregated observations (snapshot merging).

        Raises:
            ObservabilityError: if ``counts`` has the wrong length.
        """
        if count <= 0:
            return
        if len(counts) != len(self.counts):
            raise ObservabilityError(
                f"cannot merge histogram with {len(counts)} buckets "
                f"into {len(self.counts)}"
            )
        self.sum += total
        self.count += count
        for i, n in enumerate(counts):
            self.counts[i] += int(n)


class MetricsRegistry:
    """Get-or-create instrument store with deterministic snapshots.

    One registry per telemetry session; the process-global one lives in
    :mod:`repro.obs`.  Names are validated when an instrument is
    created, so a lookup of an existing one costs one key and one dict
    probe; an invalid name is never stored, so every use of it raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[_Key, Counter] = {}
        self._gauges: Dict[_Key, Gauge] = {}
        self._histograms: Dict[_Key, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, metric: str, volatile: bool = False, **labels: str) -> Counter:
        """The counter for ``metric`` + ``labels`` (created on first use)."""
        key = (metric, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            _validate(metric, labels)
            inst = self._counters[key] = Counter(volatile=volatile)
        return inst

    def gauge(self, metric: str, volatile: bool = False, **labels: str) -> Gauge:
        """The gauge for ``metric`` + ``labels`` (created on first use)."""
        key = (metric, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            _validate(metric, labels)
            inst = self._gauges[key] = Gauge(volatile=volatile)
        return inst

    def histogram(self, metric: str,
                  bounds: Sequence[float] = DURATION_BUCKETS,
                  volatile: bool = False, **labels: str) -> Histogram:
        """The histogram for ``metric`` + ``labels`` (created on first use).

        Raises:
            ObservabilityError: if the instrument exists with different
                bucket bounds.
        """
        key = (metric, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            _validate(metric, labels)
            inst = self._histograms[key] = Histogram(bounds, volatile=volatile)
        elif (inst.bounds != bounds
              and inst.bounds != tuple(float(b) for b in bounds)):
            raise ObservabilityError(
                f"histogram {metric!r} already registered with bounds {inst.bounds}"
            )
        return inst

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def instruments(self) -> Iterator[Tuple[str, str, Dict[str, str], object]]:
        """Every instrument as ``(kind, name, labels, instrument)``,
        deterministically ordered by (kind, name, labels)."""
        for kind, store in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            for (name, labels) in sorted(store):
                yield kind, name, dict(labels), store[(name, labels)]

    def values(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], float]:
        """All counter/gauge values recorded under ``name``, by label set."""
        out: Dict[Tuple[Tuple[str, str], ...], float] = {}
        for store in (self._counters, self._gauges):
            for (metric, labels), inst in store.items():
                if metric == name:
                    out[labels] = inst.value
        return out

    def remove(self, name: str) -> int:
        """Drop every instrument registered under ``name``; returns count."""
        removed = 0
        for store in (self._counters, self._gauges, self._histograms):
            for key in [k for k in store if k[0] == name]:
                del store[key]
                removed += 1
        return removed

    def reset(self) -> None:
        """Drop every instrument (start a fresh measurement window)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self, include_volatile: bool = True) -> dict:
        """A JSON-ready, deterministically ordered view of all instruments.

        Args:
            include_volatile: ``False`` omits wall-clock-dependent
                instruments (stage timers), leaving only values that must
                be bit-identical across runs of the same seed.
        """

        def rows(store: Dict[_Key, object]) -> List[dict]:
            out = []
            for (name, labels) in sorted(store):
                inst = store[(name, labels)]
                if inst.volatile and not include_volatile:
                    continue
                row = {"name": name, "labels": dict(labels)}
                if isinstance(inst, Histogram):
                    row.update({
                        "bounds": list(inst.bounds),
                        "counts": list(inst.counts),
                        "sum": inst.sum,
                        "count": inst.count,
                        "volatile": inst.volatile,
                    })
                else:
                    row["value"] = inst.value
                    row["volatile"] = inst.volatile
                out.append(row)
            return out

        return {
            "counters": rows(self._counters),
            "gauges": rows(self._gauges),
            "histograms": rows(self._histograms),
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms add; gauges take the incoming value
        (last-merge-wins, documented for sweep workers whose gauges are
        per-trial anyway).

        Raises:
            ObservabilityError: on a malformed snapshot.
        """
        try:
            for row in snapshot.get("counters", ()):
                self.counter(row["name"], volatile=row.get("volatile", False),
                             **row["labels"]).inc(row["value"])
            for row in snapshot.get("gauges", ()):
                self.gauge(row["name"], volatile=row.get("volatile", False),
                           **row["labels"]).set(row["value"])
            for row in snapshot.get("histograms", ()):
                hist = self.histogram(
                    row["name"], bounds=row["bounds"],
                    volatile=row.get("volatile", False), **row["labels"])
                hist.add(row["sum"], row["count"], row["counts"])
        except (KeyError, TypeError) as exc:
            raise ObservabilityError(f"malformed metrics snapshot: {exc}") from exc
