"""Framed-slotted-ALOHA inventory with the Gen2 Q algorithm.

This is the MAC substrate behind three of the paper's evaluation results:

* **Fig. 13** — 4 users x 3 tags still read fast enough: the aggregate
  successful-read throughput of slotted ALOHA *grows* with a handful of
  tags (more occupied slots per round) before per-tag rates dilute.
* **Fig. 14** — contending item tags dilute the per-tag read rate of the
  3 monitoring tags, degrading accuracy gently down to ~91 % at 30
  contending tags.
* The single-tag sampling rate of ~64 Hz (Section IV-A) — a lone tag is
  limited by per-round protocol overhead, not slot time.

The simulator is event-driven over MAC time: each inventory round issues a
Query with the current Q, every energised tag draws a slot, and slots
resolve to empty / collision / attempted-read.  An attempted read succeeds
only if the physical link cooperates, which the caller supplies as a
callback (wired to :class:`repro.rf.LinkBudget` by the simulation engine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import ConfigError


class SlotOutcome(Enum):
    """Resolution of one ALOHA slot."""

    EMPTY = "empty"
    COLLISION = "collision"
    READ = "read"
    LINK_FAIL = "link_fail"


@dataclass(frozen=True)
class Gen2Config:
    """Timing and Q-algorithm parameters of the MAC simulation.

    Slot/overhead durations are calibrated so a single tag in good
    conditions is read at roughly the 64 Hz the paper reports, and an
    inventory of a dozen tags sustains a realistic 150-250 aggregate
    reads/s for an Impinj R420-class reader.

    Attributes:
        t_success_s: duration of a slot carrying a successful tag reply
            (RN16 + ACK + EPC backscatter).
        t_collision_s: duration of a collided slot (RN16 garbled, no ACK).
        t_empty_s: duration of an empty slot.
        t_round_overhead_s: per-round overhead (Query/QueryAdjust, session
            housekeeping, receiver settling).
        q_initial: starting Q exponent (frame size 2**Q).
        q_min / q_max: clamp range for Q.
        q_step: Qfp adjustment constant C of the Q algorithm.
    """

    t_success_s: float = 2.5e-3
    t_collision_s: float = 0.8e-3
    t_empty_s: float = 0.3e-3
    t_round_overhead_s: float = 12.0e-3
    q_initial: int = 0
    q_min: int = 0
    q_max: int = 15
    q_step: float = 0.35

    def __post_init__(self) -> None:
        for name in ("t_success_s", "t_collision_s", "t_empty_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.t_round_overhead_s < 0:
            raise ConfigError("t_round_overhead_s must be >= 0")
        if not 0 <= self.q_min <= self.q_initial <= self.q_max <= 15:
            raise ConfigError("require 0 <= q_min <= q_initial <= q_max <= 15")
        if self.q_step <= 0:
            raise ConfigError("q_step must be > 0")


@dataclass
class RoundStats:
    """Per-round accounting, useful for tests and MAC-level benchmarks."""

    q: int = 0
    slots: int = 0
    empties: int = 0
    collisions: int = 0
    reads: int = 0
    link_failures: int = 0
    duration_s: float = 0.0


#: Attribute names of a ``gen2.round`` trace event: the round's start
#: time, then its :class:`RoundStats` fields.
ROUND_EVENT_FIELDS = ("t", "q", "slots", "empties", "collisions", "reads",
                      "link_failures", "duration_s")


#: A successful read event: (mac_time_s, tag_key).
ReadEvent = Tuple[float, Hashable]

#: Link callback: (tag_key, mac_time_s) -> True if the physical link
#: delivers the read.  Energisation is decided separately via
#: ``population``; this models decode success of a singleton slot.
LinkCallback = Callable[[Hashable, float], bool]

#: Population callback: round start time (MAC seconds) -> the tags that
#: power up and take part in that round, in tag-key order.  Slot draws are
#: assigned in the returned order; the list is read, never modified.
PopulationCallback = Callable[[float], Sequence[Hashable]]


def _always(_tag: Hashable, _t: float) -> bool:
    return True


def record_round_metrics(registry: obs.MetricsRegistry,
                         rounds: Sequence[RoundStats], q: int) -> None:
    """Add MAC rounds to the traced-only Gen2 metrics in ``registry``.

    One call per inventory run sums its rounds, so a traced run pays a
    handful of instrument updates rather than several per round.  ``q``
    is the Q in force after the last round (the ``repro_gen2_q`` gauge).
    """
    registry.counter("repro_gen2_rounds_total").inc(len(rounds))
    for outcome, field in (("empty", "empties"), ("collision", "collisions"),
                           ("read", "reads"),
                           ("link_fail", "link_failures")):
        registry.counter("repro_gen2_slots_total", outcome=outcome).inc(
            sum(map(attrgetter(field), rounds)))
    registry.gauge("repro_gen2_q").set(q)


class Gen2Inventory:
    """Event-driven framed-slotted-ALOHA inventory loop.

    Args:
        tag_keys: identities of the tag population in the field.
        config: MAC timing/Q parameters.
        rng: random source (slot draws).
        link_ok: per-attempt physical decode callback (default: always).
        population: per-round power-up callback (default: every tag).  A
            tag left out of a round neither replies nor collides — this is
            how full LOS blockage (orientation > 90 deg, Fig. 15) silences
            a tag entirely.

    Raises:
        ConfigError: if the tag population is empty.
    """

    def __init__(
        self,
        tag_keys: Sequence[Hashable],
        config: Optional[Gen2Config] = None,
        rng: Optional[np.random.Generator] = None,
        link_ok: LinkCallback = _always,
        population: Optional[PopulationCallback] = None,
    ) -> None:
        if not tag_keys:
            raise ConfigError("tag population must be non-empty")
        if len(set(tag_keys)) != len(tag_keys):
            raise ConfigError("tag keys must be unique")
        self._tags: List[Hashable] = list(tag_keys)
        self._cfg = config if config is not None else Gen2Config()
        self._rng = rng if rng is not None else np.random.default_rng()
        self._link_ok = link_ok
        self._population: PopulationCallback = (
            population if population is not None else self._every_tag
        )
        self._qfp = float(self._cfg.q_initial)
        self._round_log: List[RoundStats] = []

    def _every_tag(self, _t: float) -> List[Hashable]:
        return self._tags

    @property
    def config(self) -> Gen2Config:
        """The MAC configuration in force."""
        return self._cfg

    @property
    def current_q(self) -> int:
        """The integer Q the next round will use."""
        return int(round(min(max(self._qfp, self._cfg.q_min), self._cfg.q_max)))

    @property
    def round_log(self) -> List[RoundStats]:
        """Statistics of every simulated round so far."""
        return list(self._round_log)

    # ------------------------------------------------------------------
    # Core simulation
    # ------------------------------------------------------------------
    def run_round(self, t_start: float) -> Tuple[List[ReadEvent], RoundStats]:
        """Simulate one inventory round starting at MAC time ``t_start``.

        Returns:
            (read events in time order, round statistics).  MAC time
            advances by the realistic duration of every slot the reader
            actually spends.
        """
        cfg = self._cfg
        q = self.current_q
        n_slots = 1 << q
        t = t_start + cfg.t_round_overhead_s

        active = self._population(t_start)
        # One batched draw for the whole population.  For a power-of-two
        # upper bound (n_slots = 2**q always is) the generator's masked
        # rejection never rejects, so the batch is bit-identical to the
        # per-tag draws it replaces — seeded captures are unchanged.
        slots = self._rng.integers(0, n_slots, size=len(active))
        # Per-slot occupancy as two flat lists: how many tags drew the
        # slot, and (for a singleton) which one.
        counts = [0] * n_slots
        holder: List[Hashable] = [None] * n_slots
        for key, slot in zip(active, slots.tolist()):
            counts[slot] += 1
            holder[slot] = key

        tracer = obs.get_tracer()
        slot_detail = tracer.slot_detail
        link_ok = self._link_ok
        t_empty, t_collision, t_success = (
            cfg.t_empty_s, cfg.t_collision_s, cfg.t_success_s)
        empties = collisions = reads = link_failures = 0

        events: List[ReadEvent] = []
        for slot in range(n_slots):
            contenders = counts[slot]
            if contenders == 0:
                empties += 1
                t += t_empty
                if slot_detail:
                    tracer.event("gen2.slot", slot=slot, outcome="empty")
            elif contenders > 1:
                collisions += 1
                t += t_collision
                if slot_detail:
                    tracer.event("gen2.slot", slot=slot, outcome="collision",
                                 contenders=contenders)
            else:
                tag = holder[slot]
                if link_ok(tag, t):
                    reads += 1
                    t += t_success
                    events.append((t, tag))
                    if slot_detail:
                        tracer.event("gen2.slot", slot=slot, outcome="read",
                                     tag=str(tag), t=t)
                else:
                    link_failures += 1
                    t += t_collision
                    if slot_detail:
                        tracer.event("gen2.slot", slot=slot,
                                     outcome="link_fail", tag=str(tag))

        stats = RoundStats(q=q, slots=n_slots, empties=empties,
                           collisions=collisions, reads=reads,
                           link_failures=link_failures)
        self._adapt_q(stats)
        stats.duration_s = t - t_start
        self._round_log.append(stats)

        if tracer.enabled:
            tracer.point("gen2.round", ROUND_EVENT_FIELDS, (
                t_start, q, n_slots, empties, collisions, reads,
                link_failures, stats.duration_s))
        return events, stats

    def run_for(self, duration_s: float, t_start: float = 0.0) -> List[ReadEvent]:
        """Run rounds back-to-back until ``duration_s`` of MAC time elapses.

        Raises:
            ConfigError: unless ``duration_s`` is positive and finite and
                ``t_start`` is finite.
        """
        if not 0.0 < duration_s < math.inf:
            raise ConfigError(f"duration must be positive and finite, got {duration_s}")
        if not math.isfinite(t_start):
            raise ConfigError(f"t_start must be finite, got {t_start}")
        events: List[ReadEvent] = []
        first_round = len(self._round_log)
        t = t_start
        t_end = t_start + duration_s
        while t < t_end:
            round_events, stats = self.run_round(t)
            events.extend(ev for ev in round_events if ev[0] < t_end)
            t += stats.duration_s
        if obs.enabled():
            record_round_metrics(obs.get_registry(),
                                 self._round_log[first_round:], self.current_q)
        return events

    def iter_reads(self, t_start: float = 0.0) -> Iterator[ReadEvent]:
        """Endless generator of read events (for streaming consumers)."""
        t = t_start
        while True:
            round_events, stats = self.run_round(t)
            if obs.enabled():
                record_round_metrics(obs.get_registry(), [stats],
                                     self.current_q)
            yield from round_events
            t += stats.duration_s

    # ------------------------------------------------------------------
    # Q adaptation (Gen2 Annex D style)
    # ------------------------------------------------------------------
    def _adapt_q(self, stats: RoundStats) -> None:
        """Nudge Qfp toward the frame size matching the tag population.

        Collisions inflate Q, empties deflate it; singleton reads leave it
        alone.  Link failures count as collisions — from the reader's view
        both are garbled slots.
        """
        cfg = self._cfg
        garbled = stats.collisions + stats.link_failures
        self._qfp += cfg.q_step * garbled - cfg.q_step * stats.empties
        self._qfp = min(max(self._qfp, float(cfg.q_min)), float(cfg.q_max))
