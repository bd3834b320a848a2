"""Frequency-hop schedule — the behaviour behind the paper's Fig. 5.

    "the reader hops among 10 frequency channels and resides in each
    channel for around 0.2 s"  (Section IV-A-3)

FCC rules require pseudo-random hopping; the schedule here draws a random
permutation per sweep so every channel is visited once per sweep (as
Fig. 5's uniformly scattered indices show) without immediate repeats.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import ConfigError
from ..rf.channel import Channel, ChannelPlan


class HopSchedule:
    """Deterministic (seeded) pseudo-random hop sequence over a channel plan.

    Args:
        plan: the channel set to hop over.
        dwell_s: residency per channel (~0.2 s on the R420).
        rng: random source; the schedule is materialised lazily sweep by
            sweep, so two schedules with the same seed agree forever.

    Raises:
        ConfigError: on non-positive dwell.
    """

    def __init__(self, plan: ChannelPlan, dwell_s: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        if dwell_s <= 0:
            raise ConfigError("dwell_s must be > 0")
        self._plan = plan
        self._dwell = float(dwell_s)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._sequence: List[int] = []

    @property
    def plan(self) -> ChannelPlan:
        """The underlying channel plan."""
        return self._plan

    @property
    def dwell_s(self) -> float:
        """Per-channel residency time."""
        return self._dwell

    def _extend_to(self, hop_index: int) -> None:
        """Materialise the hop sequence up to ``hop_index`` inclusive."""
        n = len(self._plan)
        while len(self._sequence) <= hop_index:
            sweep = list(self._rng.permutation(n))
            # Avoid an immediate repeat across sweep boundaries (the FCC
            # forbids dwelling on one frequency for two dwell periods).
            if n > 1 and self._sequence and sweep[0] == self._sequence[-1]:
                sweep[0], sweep[-1] = sweep[-1], sweep[0]
            self._sequence.extend(sweep)

    def channel_index_at(self, t: float) -> int:
        """Active channel index at absolute time ``t`` (t=0 starts hop 0).

        Raises:
            ConfigError: for negative times.
        """
        if t < 0:
            raise ConfigError("schedule time must be >= 0")
        hop = int(t / self._dwell)
        self._extend_to(hop)
        return self._sequence[hop]

    def channel_at(self, t: float) -> Channel:
        """Active :class:`Channel` at time ``t``."""
        return self._plan[self.channel_index_at(t)]

    def channel_indices_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`channel_index_at` over a time vector.

        Materialises the hop sequence once up to the latest hop, then
        answers every lookup with one fancy-index — same values as the
        scalar method, without a Python call per read.

        Raises:
            ConfigError: for negative times.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            return np.zeros(0, dtype=int)
        if times.min() < 0:
            raise ConfigError("schedule time must be >= 0")
        hops = (times / self._dwell).astype(int)
        self._extend_to(int(hops.max()))
        return np.asarray(self._sequence, dtype=int)[hops]

    def known_channel_indices_at(self, times: np.ndarray) -> np.ndarray:
        """:meth:`channel_indices_at` over the hops materialised so far.

        Draws nothing: a time whose hop lies past the materialised
        sequence gets ``-1``, and only :meth:`channel_index_at` (or
        :meth:`channel_indices_at`) extends the sequence to it.

        Raises:
            ConfigError: for negative times.
        """
        times = np.asarray(times, dtype=float)
        if times.size and times.min() < 0:
            raise ConfigError("schedule time must be >= 0")
        hops = (times / self._dwell).astype(int)
        known = np.asarray(self._sequence, dtype=int)
        out = np.full(hops.shape, -1, dtype=int)
        inside = hops < known.shape[0]
        out[inside] = known[hops[inside]]
        return out

    def hop_boundaries(self, t_start: float, t_end: float) -> List[float]:
        """Hop instants within ``(t_start, t_end)``.

        Useful for tests asserting that phase discontinuities (Fig. 4)
        coincide exactly with hops.
        """
        if t_end <= t_start:
            return []
        first = int(np.floor(t_start / self._dwell)) + 1
        last = int(np.ceil(t_end / self._dwell))
        return [k * self._dwell for k in range(first, last)
                if t_start < k * self._dwell < t_end]
