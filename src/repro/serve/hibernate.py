"""Compressed cold storage for idle monitoring sessions.

Real fleets are idle-heavy: of a million registered users only a few
percent are breathing into the system at any instant, yet each session
would otherwise keep its window index of stored reports resident
forever.  The :class:`HibernationStore` parks an idle session as its
session record (:mod:`repro.serve.record`), a few KB (~27 B a buffered
row) where the resident engine holds two to three orders of magnitude
more — what makes the 1M-registered / 1%-active scenario of
``run_idle_economics_benchmark`` fit on one machine.  The record *is*
the session: it rides checkpoints and shard migration as the same
bytes, and the user's next report reads it back into a live session
with one ``feed_batch``, bit-identical to an uninterrupted one
(``tests/test_lifecycle.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Estimated per-entry bookkeeping bytes beyond the record itself: the
#: bytes-object header (~33 B), the boxed int key (~28 B), and the
#: amortised dict slot (~100 B).  Folded into :meth:`resident_bytes` so
#: the idle-economics numbers reflect what the process actually holds.
ENTRY_OVERHEAD_BYTES = 160


class HibernationStore:
    """Per-shard map of ``user_id -> parked session record``.

    Mutated only from the owning shard's asyncio worker context, like
    the live session dict it shadows — no locking.
    """

    def __init__(self) -> None:
        self._records: Dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._records

    def put(self, user_id: int, record: bytes) -> None:
        """Park one session record."""
        self._records[user_id] = record

    def record(self, user_id: int) -> bytes:
        """One parked user's record (not inflated)."""
        return self._records[user_id]

    def pop(self, user_id: int) -> Optional[bytes]:
        """Remove one parked record and return it; None when absent."""
        return self._records.pop(user_id, None)

    def user_ids(self) -> List[int]:
        """Parked users, sorted."""
        return sorted(self._records)

    def resident_bytes(self) -> int:
        """Approximate bytes this store keeps resident (records + entries)."""
        return sum(len(record) + ENTRY_OVERHEAD_BYTES
                   for record in self._records.values())
