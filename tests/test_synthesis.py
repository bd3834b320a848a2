"""Report synthesis is bit-exact with the per-read reference.

``Reader.run`` synthesises a run's reads in whole-run passes into one
time-ordered ``ReportBatch``.  ``tests/synthesis_reference.py`` keeps
the per-read form it replaced (a pre-pass over every read, a phase
computation per link, one ``TagReport`` per read).  Two readers built
from the same seed must produce the same columns, byte for byte: the
same lazy draws at the same stream positions and the same floats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import benchmark_scenario
from repro.body.subject import Subject
from repro.config import ReaderConfig
from repro.epc.select import select_user
from repro.reader.antenna import Antenna
from repro.reader.batch import COLUMNS, ReportBatch
from repro.reader.reader import Reader
from repro.sim.scenario import Scenario

from .synthesis_reference import build_reports, mac_events, reference_run
from .test_vectorized_equivalence import _WalkingTag

#: Two panels on opposite walls facing each other.
_FACING_WALLS = [
    Antenna(port=1, position_m=(0.0, 0.0, 1.0), boresight=(1.0, 0.0, 0.0)),
    Antenna(port=2, position_m=(6.0, 0.5, 1.0), boresight=(-1.0, 0.0, 0.0)),
]


def _reader(seed: int, antennas=None) -> Reader:
    config = ReaderConfig(num_antennas=len(antennas) if antennas else 1)
    return Reader(config=config, antennas=antennas,
                  rng=np.random.default_rng(seed))


def _assert_columns_equal(got: ReportBatch, want: ReportBatch) -> None:
    assert isinstance(got, ReportBatch)
    assert len(got) == len(want)
    for name, dtype in COLUMNS:
        column = getattr(got, name)
        assert column.dtype == dtype, name
        assert column.tobytes() == getattr(want, name).tobytes(), name


def _check(make_env, seed: int, duration_s: float, antennas=None,
           select=None, runs: int = 1) -> ReportBatch:
    """Run both readers ``runs`` times back to back; compare every run."""
    reader, oracle = _reader(seed, antennas), _reader(seed, antennas)
    got = want = None
    for i in range(runs):
        t_start = i * duration_s
        got = reader.run(make_env(), duration_s, t_start=t_start,
                         select=select)
        want = ReportBatch.from_reports(reference_run(
            oracle, make_env(), duration_s, t_start=t_start, select=select))
        _assert_columns_equal(got, want)
    return got


class TestBitExactSynthesis:
    @pytest.mark.parametrize("users", [1, 3, 6])
    def test_benchmark_scenarios(self, users):
        for seed in range(8):
            got = _check(lambda: benchmark_scenario(users, seed=seed),
                         seed, 25.0)
            assert len(got) > 500

    def test_subject_turned_away_from_one_antenna(self):
        def make():
            subject = Subject(user_id=1, distance_m=2.5, sway_seed=4)
            return Scenario([subject]).with_contending_tags(6, seed=5)

        got = _check(make, 7, 10.0, antennas=_FACING_WALLS)
        assert set(got.antenna.tolist()) == {1, 2}

    def test_contending_item_tags(self):
        got = _check(lambda: Scenario.single_user(distance_m=3.0, sway_seed=2)
                     .with_contending_tags(25, seed=4), 11, 15.0)
        assert len(set(got.user_id.tolist())) > 1

    def test_select(self):
        got = _check(lambda: Scenario.single_user(sway_seed=1)
                     .with_contending_tags(25, seed=1), 9, 15.0,
                     select=select_user(1))
        assert len(got) > 100
        assert set(got.user_id.tolist()) == {1}

    def test_select_matching_nothing(self):
        got = _check(Scenario.single_user, 3, 5.0, select=select_user(42))
        assert len(got) == 0

    def test_walking_tag(self):
        got = _check(_WalkingTag, 3, 10.0)
        assert len(got) > 100

    def test_reads_past_the_materialised_hops(self):
        # The MAC materialises hops up to its last probe; a read stamped
        # later extends the sequence itself, and its draws must land
        # between the first touches around it in event order.  Here one
        # such read sits mid-stream and two end it, one a sweep further.
        scenario = benchmark_scenario(2, seed=3)
        reader, oracle = _reader(3), _reader(3)
        events = mac_events(reader, scenario, 5.0)
        assert events == mac_events(oracle, scenario, 5.0)
        keys = scenario.tag_keys()
        hops = reader.hop_schedule
        grid = (np.arange(1000) + 0.5) * hops.dwell_s
        edge = np.count_nonzero(hops.known_channel_indices_at(grid) >= 0) \
            * hops.dwell_s  # the first time past the materialised hops
        assert edge > max(t for t, _ in events)
        late = [(edge + 0.01, keys[0]), (edge + 0.05, keys[-1]),
                (edge + 2.5, keys[1])]
        mid = len(events) // 2
        events = events[:mid] + late[:1] + events[mid:] + late[1:]

        got = reader._build_reports_batched(scenario, events)
        want = build_reports(oracle, scenario, events)
        want.sort(key=lambda r: r.timestamp_s)
        _assert_columns_equal(got, ReportBatch.from_reports(want))
        assert (reader._rng.bit_generator.state
                == oracle._rng.bit_generator.state)

    def test_consecutive_runs_share_the_link_state(self):
        # The second run finds the first run's links already drawn.
        _check(lambda: benchmark_scenario(2, seed=5), 5, 8.0, runs=2)
