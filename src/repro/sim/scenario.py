"""Scenario: the tag environment a reader inventories.

Aggregates breathing :class:`~repro.body.subject.Subject` instances and
static item-labelling :class:`ContendingTag` tags into one implementation
of the :class:`~repro.reader.reader.TagEnvironment` protocol.

    "we label daily items with RFID tags and place the RFID-labeled items
    in the communication range of the commodity reader. Same as the breath
    monitoring tags attached to users, the item-labeling tags in the
    communication range contend for wireless channels following the
    standard EPC protocol."  (Section VI-B-3)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..epc.codec import EPC96, TAG_ID_BITS
from ..errors import ScenarioError
from ..body.subject import Subject
from ..reader.antenna import Antenna


@dataclass(frozen=True)
class ContendingTag:
    """A static item-labelling tag that contends for MAC airtime.

    Attributes:
        index: 1-based item index.
        epc: factory EPC (not in any monitored user's ID space).
        position_m: where the labelled item sits.
        extra_loss_db: fixed situational loss (shelving, item material).
    """

    index: int
    epc: EPC96
    position_m: Tuple[float, float, float]
    extra_loss_db: float = 0.0

    @property
    def key(self) -> Hashable:
        """Environment key for this tag."""
        return ("item", self.index)


#: High-64-bit prefix used for contending tags' factory EPCs, far away
#: from the small user IDs TagBreathe assigns.
_ITEM_EPC_PREFIX = 0xFFFF_FFFF_0000_0000


class Scenario:
    """A complete experiment environment: subjects + contending item tags.

    Args:
        subjects: the breathing users under monitoring.
        contending_tags: explicit item tags; see :meth:`with_contending_tags`
            for randomly placed ones.

    Raises:
        ScenarioError: on duplicate user IDs or no tags at all.
    """

    def __init__(self, subjects: Sequence[Subject],
                 contending_tags: Sequence[ContendingTag] = ()) -> None:
        user_ids = [s.user_id for s in subjects]
        if len(set(user_ids)) != len(user_ids):
            raise ScenarioError(f"duplicate user IDs: {user_ids}")
        self.subjects: List[Subject] = list(subjects)
        self.contending_tags: List[ContendingTag] = list(contending_tags)
        if not self.subjects and not self.contending_tags:
            raise ScenarioError("scenario contains no tags")
        self._subject_by_user: Dict[int, Subject] = {s.user_id: s for s in self.subjects}
        self._items_by_key: Dict[Hashable, ContendingTag] = {
            c.key: c for c in self.contending_tags
        }
        if len(self._items_by_key) != len(self.contending_tags):
            raise ScenarioError("duplicate contending-tag indices")
        # Situational loss in this environment is time-invariant (item
        # losses are fixed; a subject's orientation loss depends only on
        # static geometry), so probes can be answered from a cache — see
        # situational_loss_db_static.
        self._static_loss_cache: Dict[Tuple[Hashable, Antenna], float] = {}

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def single_user(cls, distance_m: float = 4.0, **subject_kwargs) -> "Scenario":
        """The Table I default: one user at ``distance_m``, 3 tags."""
        return cls([Subject(user_id=1, distance_m=distance_m, **subject_kwargs)])

    def with_contending_tags(self, count: int, seed: Optional[int] = None,
                             area_m: Tuple[float, float] = (1.0, 5.0)) -> "Scenario":
        """A copy of this scenario plus ``count`` randomly placed item tags.

        Items land at uniform-random range/bearing/height within the
        reader's coverage, with a small random situational loss.

        Raises:
            ScenarioError: on negative count.
        """
        if count < 0:
            raise ScenarioError("count must be >= 0")
        rng = np.random.default_rng(seed)
        lo, hi = area_m
        items = list(self.contending_tags)
        start = len(items) + 1
        for i in range(count):
            r = float(rng.uniform(lo, hi))
            bearing = float(rng.uniform(-math.pi / 3, math.pi / 3))
            height = float(rng.uniform(0.3, 1.5))
            epc = EPC96(
                ((_ITEM_EPC_PREFIX | (start + i)) << TAG_ID_BITS) | (start + i)
            )
            items.append(
                ContendingTag(
                    index=start + i,
                    epc=epc,
                    position_m=(r * math.cos(bearing), r * math.sin(bearing), height),
                    extra_loss_db=float(rng.uniform(0.0, 3.0)),
                )
            )
        return Scenario(self.subjects, items)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def monitored_user_ids(self) -> List[int]:
        """User IDs whose breathing is under monitoring."""
        return [s.user_id for s in self.subjects]

    def subject(self, user_id: int) -> Subject:
        """Look up a subject by user ID.

        Raises:
            ScenarioError: for unknown users.
        """
        subject = self._subject_by_user.get(user_id)
        if subject is None:
            raise ScenarioError(f"no subject with user_id {user_id}")
        return subject

    def total_tag_count(self) -> int:
        """Every tag in the field: monitoring + contending."""
        return sum(len(s.tags) for s in self.subjects) + len(self.contending_tags)

    # ------------------------------------------------------------------
    # TagEnvironment protocol
    # ------------------------------------------------------------------
    def tag_keys(self) -> List[Hashable]:
        """All tag keys: subjects' (user_id, tag_id) pairs + item keys."""
        keys: List[Hashable] = []
        for subject in self.subjects:
            keys.extend(tag.key for tag in subject.tags)
        keys.extend(item.key for item in self.contending_tags)
        return keys

    def epc(self, key: Hashable) -> EPC96:
        """EPC backscattered by the tag with ``key``."""
        item = self._items_by_key.get(key)
        if item is not None:
            return item.epc
        user_id, tag_id = self._split_subject_key(key)
        return self._subject_by_user[user_id].tag_by_id(tag_id).epc

    def position_m(self, key: Hashable, t: float) -> np.ndarray:
        """Instantaneous tag position (breathing included for worn tags)."""
        item = self._items_by_key.get(key)
        if item is not None:
            return np.asarray(item.position_m, dtype=float)
        user_id, tag_id = self._split_subject_key(key)
        return self._subject_by_user[user_id].tag_position_m(tag_id, t)

    def position_m_array(self, key: Hashable, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`position_m`: ``(len(times), 3)`` positions.

        Static item tags broadcast their fixed position; worn tags ride
        the vectorised trajectory of
        :meth:`~repro.body.subject.Subject.tag_position_m_array`.
        """
        times = np.asarray(times, dtype=float)
        item = self._items_by_key.get(key)
        if item is not None:
            return np.broadcast_to(
                np.asarray(item.position_m, dtype=float), (times.size, 3)
            ).copy()
        user_id, tag_id = self._split_subject_key(key)
        return self._subject_by_user[user_id].tag_position_m_array(tag_id, times)

    def position_envelope_m(self, key: Hashable
                            ) -> Optional[Tuple[np.ndarray, float]]:
        """``(centre, radius)`` of a ball the tag never leaves, or ``None``.

        A contending item tag sits still: its envelope is its position
        with radius 0.  A worn tag's is its mounting point and the bound
        of its breathing and sway
        (:meth:`~repro.body.subject.Subject.tag_position_envelope_m`),
        ``None`` when the subject's waveform declares no bound.

        Raises:
            ScenarioError: for unknown keys.
        """
        item = self._items_by_key.get(key)
        if item is not None:
            return np.asarray(item.position_m, dtype=float), 0.0
        user_id, tag_id = self._split_subject_key(key)
        return self._subject_by_user[user_id].tag_position_envelope_m(tag_id)

    def extra_loss_db(self, key: Hashable, t: float, antenna: Antenna) -> float:
        """Situational loss (orientation/blockage for worn tags)."""
        item = self._items_by_key.get(key)
        if item is not None:
            return item.extra_loss_db
        user_id, tag_id = self._split_subject_key(key)
        return self._subject_by_user[user_id].extra_loss_db(tag_id, t, antenna)

    def extra_loss_db_array(self, key: Hashable, times: np.ndarray,
                            antenna: Antenna) -> np.ndarray:
        """Vectorised :meth:`extra_loss_db` over a time vector.

        Situational loss in this environment is time-invariant, so this is
        the static per-link value broadcast across ``times``.
        """
        times = np.asarray(times, dtype=float)
        return np.full(times.shape, self.situational_loss_db_static(key, antenna))

    def situational_loss_db_static(self, key: Hashable,
                                   antenna: Antenna) -> Optional[float]:
        """The time-invariant situational loss for a (tag, antenna) link.

        This environment's losses depend only on static geometry
        (item placement, subject orientation relative to the antenna), so
        a constant per link is exact.  Environments whose loss genuinely
        varies with time return ``None`` here (the default when the method
        is absent), which makes the reader fall back to per-probe
        :meth:`extra_loss_db` calls.
        """
        cached = self._static_loss_cache.get((key, antenna))
        if cached is None:
            item = self._items_by_key.get(key)
            if item is not None:
                cached = item.extra_loss_db
            else:
                user_id, tag_id = self._split_subject_key(key)
                cached = self._subject_by_user[user_id].extra_loss_db(
                    tag_id, 0.0, antenna
                )
            self._static_loss_cache[(key, antenna)] = cached
        return cached

    # ------------------------------------------------------------------
    def _split_subject_key(self, key: Hashable) -> Tuple[int, int]:
        try:
            user_id, tag_id = key  # type: ignore[misc]
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"unknown tag key {key!r}") from exc
        if user_id not in self._subject_by_user:
            raise ScenarioError(f"unknown tag key {key!r}")
        return int(user_id), int(tag_id)
