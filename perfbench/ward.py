"""Seeded benchmark inputs: a ward of rooms, each room one reader capture.

A room is one simulated reader capture of ``patients`` breathing users
(the subjects of ``repro.bench.benchmark_scenario``: staggered
distances, metronome rates) and no other tags, so every room's read
rate is the reader's own and a ward's input rate hardly depends on the
seed.  A handful of distinct captures is simulated; further rooms
reuse them under their own user ids and their own reader clock offset,
so every room reads like an independent reader.

The stream is endless: after one period the same rows repeat, shifted
by the period, so a run of any length (or a faster program) never runs
out of input.  Every row set is a deterministic function of the seed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench import benchmark_scenario
from repro.reader.batch import COLUMNS, ReportBatch
from repro.serve.checkpoint import save_checkpoint, session_state_to_doc
from repro.serve.session import SessionConfig, UserSession
from repro.sim import engine
from repro.sim.scenario import Scenario

#: Distinct room captures simulated per ward; the other rooms replay
#: them under their own user ids and clock offsets.  Enough that one
#: seed's captures do not set the cost of a whole ward.
DISTINCT_CAPTURES = 5

#: Spread of the rooms' reader clock offsets (seconds).
ROOM_OFFSET_S = 1.0

#: Margin (seconds) of the row search around a bound: wider than any
#: rounding of a shifted time.  The rows found are then cut exactly.
_SLACK_S = 1e-6

_Columns = Dict[str, np.ndarray]


def _stack(parts: List[_Columns]) -> _Columns:
    """Concatenate column dicts and sort the rows by time (stable)."""
    cols = {name: np.concatenate([p[name] for p in parts])
            for name, _ in COLUMNS}
    order = np.argsort(cols["t"], kind="stable")
    return {name: col[order] for name, col in cols.items()}


def _select(cols: _Columns, rows) -> _Columns:
    return {name: col[rows] for name, col in cols.items()}


class WardStream:
    """An endless, seeded report stream of ``rooms * patients`` users.

    Args:
        seed: the input seed.
        rooms: reader captures in the ward.
        patients: monitored users per room.
        period_s: simulated capture length; the stream repeats after it.
        stagger_s: each user's first report is delayed by a seeded
            offset in ``[0, stagger_s)``, one user per equal slice of it
            in a seeded order, so sessions opened together reach their
            estimate cadence spread evenly instead of in a burst.
    """

    def __init__(self, seed: int, rooms: int, patients: int,
                 period_s: float, stagger_s: float = 0.0) -> None:
        rng = np.random.default_rng(seed)
        self.patients = patients
        self.user_ids = list(range(1, rooms * patients + 1))
        #: Metronome rate of every user (the capture's ground truth).
        self.truth_bpm: Dict[int, float] = {}
        captures: List[Tuple[_Columns, Dict[int, float]]] = []
        for capture_seed in rng.integers(1, 2**31,
                                         size=min(rooms, DISTINCT_CAPTURES)):
            scenario = Scenario(
                benchmark_scenario(patients, seed=int(capture_seed)).subjects)
            result = engine.run_scenario(scenario, duration_s=period_s,
                                         seed=int(capture_seed))
            batch = ReportBatch.from_reports(result.reports)
            captures.append((
                {name: getattr(batch, name) for name, _ in COLUMNS},
                result.ground_truth.all_rates_bpm(0.0, period_s)))
        rooms_cols = []
        for room in range(rooms):
            cols, truth = captures[room % len(captures)]
            cols = dict(cols)
            cols["t"] = cols["t"] + rng.uniform(0.0, ROOM_OFFSET_S)
            cols["user_id"] = cols["user_id"] + np.uint64(room * patients)
            rooms_cols.append(cols)
            for uid, rate in truth.items():
                self.truth_bpm[room * patients + uid] = rate
        full = _stack(rooms_cols)
        self.period_s = float(math.ceil(full["t"][-1] + 0.5))
        users = len(self.user_ids)
        slices = np.concatenate(([0], rng.permutation(users)))
        starts = ((slices + rng.uniform(0.0, 1.0, users + 1))
                  / users * stagger_s)
        keep = full["t"] >= starts[full["user_id"].astype(np.int64)]
        #: Period 0 (staggered starts) and every later period (full).
        self._periods = (_select(full, keep), full)
        self._by_user: Dict[int, Tuple[_Columns, _Columns]] = {}

    def _user_periods(self, user_id: int) -> Tuple[_Columns, _Columns]:
        periods = self._by_user.get(user_id)
        if periods is None:
            periods = tuple(_select(p, p["user_id"] == np.uint64(user_id))
                            for p in self._periods)
            self._by_user[user_id] = periods
        return periods

    def between(self, lo: float, hi: float,
                user_id: Optional[int] = None) -> ReportBatch:
        """The rows with ``lo < t <= hi`` (one user's, or everyone's)."""
        periods = (self._periods if user_id is None
                   else self._user_periods(user_id))
        parts = []
        first = max(0, int(math.floor(lo / self.period_s)))
        last = max(first, int(math.floor(hi / self.period_s)))
        for k in range(first, last + 1):
            cols = periods[min(k, 1)]
            shift = k * self.period_s
            # The bounds are compared with the shifted times themselves:
            # (t + shift) - shift need not equal t, so a search on
            # unshifted times could drop or repeat a row at a bound.
            a, b = np.searchsorted(cols["t"], (lo - shift - _SLACK_S,
                                               hi - shift + _SLACK_S),
                                   side="right")
            part = _select(cols, slice(a, b))
            part["t"] = part["t"] + shift
            keep = (part["t"] > lo) & (part["t"] <= hi)
            if keep.any():
                parts.append(_select(part, keep))
        if not parts:
            return ReportBatch(*(np.empty(0, dtype=dt) for _, dt in COLUMNS))
        return ReportBatch(*(np.concatenate([p[name] for p in parts])
                             for name, _ in COLUMNS))


def write_checkpoint(stream: WardStream, path, config: SessionConfig,
                     upto_t: float, hibernated: bool = False) -> None:
    """Checkpoint every user's session as fed with the rows up to ``upto_t``.

    This is the state a ward server would hold after running that long;
    workloads start their server from it, as a restarted ward would.
    With ``upto_t`` at the sessions' warm-up, no user is due an estimate
    yet, so after the restart each user's estimate clock runs in its
    own phase, set by its staggered start.  With ``hibernated`` the
    sessions are stored as cold-tier documents, the way an idle
    population is parked.
    """
    states = []
    docs = []
    for uid in stream.user_ids:
        session = UserSession(uid, config)
        session.ingest_batch(stream.between(-1.0, upto_t, user_id=uid))
        if hibernated:
            doc = session_state_to_doc(session.state())
            doc["hibernated"] = True
            docs.append(doc)
        else:
            states.append(session.state())
    save_checkpoint(path, states, {}, hibernated_docs=docs)
