"""Scalar-vs-vectorized equivalence of the report-synthesis paths.

The determinism contract (DESIGN.md, "Performance architecture"):

* With per-read noise disabled, both paths consume identical RNG streams
  — lazy per-link state (multipath tones, circuit offsets, static fades,
  ripple phases) is materialised through the same draws in the same
  order — so they emit *identical* report streams for a given seed.
  Timestamps and integer fields match exactly; float physics matches to
  1e-9 (math-vs-numpy associativity).
* With noise enabled, each path is deterministic per seed, both see the
  same read-event stream, and end-to-end estimates agree to 0.1 bpm.
* The vectorized MAC probes read per-run link tables; they decide every
  slot as the scalar probes do, so the read-event skeleton (timestamp,
  EPC, channel, antenna) is the same whatever the environment declares
  static.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.bench import benchmark_scenario
from repro.body.subject import Subject
from repro.config import ReaderConfig
from repro.core.pipeline import TagBreathe
from repro.epc.codec import EPC96
from repro.epc.gen2 import Gen2Config
from repro.errors import DegradedEstimateWarning
from repro.reader.antenna import Antenna
from repro.reader.reader import Reader
from repro.rf.noise import PhaseNoiseModel
from repro.sim.scenario import Scenario


def _scenario(users: int = 1, contending: int = 5) -> Scenario:
    subjects = [
        Subject(user_id=uid, distance_m=2.0 + 0.5 * uid,
                lateral_offset_m=0.6 * (uid - 1), sway_seed=uid)
        for uid in range(1, users + 1)
    ]
    scenario = Scenario(subjects)
    if contending:
        scenario = scenario.with_contending_tags(contending, seed=3)
    return scenario


def _run(vectorized: bool, scenario: Scenario, seed: int = 42,
         duration_s: float = 5.0, noise_free: bool = True,
         num_antennas: int = 1):
    kwargs = {}
    if noise_free:
        kwargs["phase_noise"] = PhaseNoiseModel(floor_rad=0.0, ref_rad=0.0)
    reader = Reader(
        config=ReaderConfig(vectorized=vectorized, num_antennas=num_antennas),
        rng=np.random.default_rng(seed),
        **kwargs,
    )
    if noise_free:
        reader.RSSI_JITTER_DB = 0.0
    return reader.run(scenario, duration_s=duration_s)


def _assert_reports_equivalent(a, b, float_tol: float = 1e-9) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.timestamp_s == y.timestamp_s
        assert x.epc == y.epc
        assert x.channel_index == y.channel_index
        assert x.antenna_port == y.antenna_port
        assert x.phase_rad == pytest.approx(y.phase_rad, abs=float_tol)
        assert x.rssi_dbm == pytest.approx(y.rssi_dbm, abs=float_tol)
        assert x.doppler_hz == pytest.approx(y.doppler_hz, abs=float_tol)


class TestExactEquivalence:
    """RNG-free per-read noise: identical streams, lazy draws and all."""

    def test_single_user_with_contention(self):
        scenario = _scenario()
        vec = _run(True, scenario)
        ref = _run(False, scenario)
        assert len(vec) > 100
        _assert_reports_equivalent(vec, ref)

    def test_multi_user(self):
        scenario = _scenario(users=3, contending=0)
        _assert_reports_equivalent(
            _run(True, scenario), _run(False, scenario)
        )

    def test_multi_antenna(self):
        scenario = _scenario(users=2)
        vec = _run(True, scenario, num_antennas=2)
        ref = _run(False, scenario, num_antennas=2)
        assert {r.antenna_port for r in vec} == {1, 2}
        _assert_reports_equivalent(vec, ref)

    def test_items_only_environment(self):
        items = Scenario.single_user(2.0, sway_seed=0) \
            .with_contending_tags(6, seed=9).contending_tags
        scenario = Scenario([], items)
        _assert_reports_equivalent(
            _run(True, scenario), _run(False, scenario)
        )


class TestNoisyPath:
    """Default noise models: per-seed determinism + shared event stream."""

    def test_vectorized_deterministic_per_seed(self):
        scenario = _scenario()
        a = _run(True, scenario, noise_free=False)
        b = _run(True, scenario, noise_free=False)
        assert a == b

    def test_scalar_deterministic_per_seed(self):
        scenario = _scenario()
        a = _run(False, scenario, noise_free=False)
        b = _run(False, scenario, noise_free=False)
        assert a == b

    def test_same_event_stream_across_paths(self):
        # MAC arbitration consumes identical draws on both paths, so the
        # (timestamp, EPC, channel, antenna) skeleton is shared even
        # though per-read noise values differ.
        scenario = _scenario(users=2)
        vec = _run(True, scenario, noise_free=False)
        ref = _run(False, scenario, noise_free=False)
        assert [(r.timestamp_s, r.epc, r.channel_index, r.antenna_port)
                for r in vec] == \
               [(r.timestamp_s, r.epc, r.channel_index, r.antenna_port)
                for r in ref]

    def test_end_to_end_estimates_within_tolerance(self):
        # Different noise interleaving must not move the breathing-rate
        # estimate: both paths' captures agree to 0.1 bpm per user.
        scenario = _scenario(users=2, contending=5)
        estimates = {}
        for vectorized in (True, False):
            reports = _run(vectorized, scenario, duration_s=40.0,
                           noise_free=False)
            pipeline = TagBreathe(user_ids={1, 2})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedEstimateWarning)
                estimates[vectorized] = pipeline.process(reports)
        assert set(estimates[True]) == set(estimates[False])
        for uid in estimates[True]:
            assert estimates[True][uid].rate_bpm == pytest.approx(
                estimates[False][uid].rate_bpm, abs=0.1
            )


def _skeleton(reports):
    return [(r.timestamp_s, r.epc, r.channel_index, r.antenna_port)
            for r in reports]


#: Two panels on opposite walls facing each other: a subject facing the
#: first one turns its back (180 degrees) on the second.
_FACING_WALLS = [
    Antenna(port=1, position_m=(0.0, 0.0, 1.0), boresight=(1.0, 0.0, 0.0)),
    Antenna(port=2, position_m=(6.0, 0.5, 1.0), boresight=(-1.0, 0.0, 0.0)),
]


class _ProbedEnvironment:
    """A scenario seen only through the four required protocol methods.

    Hiding ``situational_loss_db_static`` and ``static_position_m`` makes
    the vectorized reader filter each round's population and probe every
    link per slot instead of reading its per-run tables.
    """

    def __init__(self, scenario: Scenario) -> None:
        self._scenario = scenario

    def tag_keys(self):
        return self._scenario.tag_keys()

    def epc(self, key):
        return self._scenario.epc(key)

    def position_m(self, key, t):
        return self._scenario.position_m(key, t)

    def extra_loss_db(self, key, t, antenna):
        return self._scenario.extra_loss_db(key, t, antenna)


class _WalkingTag:
    """One tag walking straight away from the antenna, plus a still one.

    Both links declare a static situational loss, but only the still tag
    declares a static position, so the walker's budget must be worked out
    at every probe: its read rate falls as it leaves range.
    """

    _EPCS = {"walker": EPC96.from_user_tag(1, 1), "still": EPC96.from_user_tag(2, 1)}

    def tag_keys(self):
        return ["walker", "still"]

    def epc(self, key):
        return self._EPCS[key]

    def position_m(self, key, t):
        x = 1.0 + 1.5 * t if key == "walker" else 2.0
        return np.array([x, 0.0, 1.0])

    def extra_loss_db(self, key, t, antenna):
        return 0.0

    def situational_loss_db_static(self, key, antenna):
        return 0.0

    def static_position_m(self, key):
        return self.position_m(key, 0.0) if key == "still" else None


def _turned_away_scenario() -> Scenario:
    subject = Subject(user_id=1, distance_m=2.5, sway_seed=4)
    return Scenario([subject]).with_contending_tags(6, seed=5)


def _run_with(vectorized: bool, env, seed: int, duration_s: float,
              antennas=None):
    config = ReaderConfig(vectorized=vectorized,
                          num_antennas=len(antennas) if antennas else 1)
    reader = Reader(config=config, antennas=antennas,
                    rng=np.random.default_rng(seed))
    return reader.run(env, duration_s=duration_s)


class TestMacExactness:
    """The per-run link tables decide every slot as the scalar probes do."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_shape_two_antennas(self, seed):
        scenario = benchmark_scenario(3, seed=seed)
        vec = _run_with(True, scenario, seed, 25.0, _FACING_WALLS)
        ref = _run_with(False, scenario, seed, 25.0, _FACING_WALLS)
        assert len(vec) > 1000
        assert {r.antenna_port for r in vec} == {1, 2}
        assert _skeleton(vec) == _skeleton(ref)

    def test_subject_turned_away_from_one_antenna(self):
        scenario = _turned_away_scenario()
        subject = scenario.subjects[0]
        assert subject.extra_loss_db(1, 0.0, _FACING_WALLS[1]) == math.inf
        vec = _run_with(True, scenario, 7, 10.0, _FACING_WALLS)
        ref = _run_with(False, scenario, 7, 10.0, _FACING_WALLS)
        # The worn tags leave port 2's round population.  A read that port
        # 1 started can still end just after the switch: events are
        # stamped at the end of their slot and take the port in force then.
        dwell = ReaderConfig().channel_dwell_s  # each antenna's residency
        worn_on_2 = [r.timestamp_s for r in vec
                     if r.user_id == 1 and r.antenna_port == 2]
        assert sum(r.user_id == 1 for r in vec) > 100
        assert all(0.0 <= t % (2 * dwell) - dwell <= Gen2Config().t_success_s
                   for t in worn_on_2)
        assert {r.antenna_port for r in vec} == {1, 2}
        assert _skeleton(vec) == _skeleton(ref)

    def test_moving_tag_budget_follows_the_tag(self):
        env = _WalkingTag()
        vec = _run_with(True, env, 3, 10.0)
        ref = _run_with(False, env, 3, 10.0)
        assert _skeleton(vec) == _skeleton(ref)
        walker = EPC96.from_user_tag(1, 1)
        early = sum(r.epc == walker and r.timestamp_s < 2.0 for r in vec)
        late = sum(r.epc == walker and r.timestamp_s >= 8.0 for r in vec)
        assert early > 50
        assert late < early / 4

    def test_probed_environment_matches_tabled(self):
        scenario = _turned_away_scenario()
        probed = _ProbedEnvironment(scenario)
        vec = _run_with(True, probed, 7, 10.0, _FACING_WALLS)
        ref = _run_with(False, probed, 7, 10.0, _FACING_WALLS)
        tabled = _run_with(True, scenario, 7, 10.0, _FACING_WALLS)
        assert len(vec) > 300
        assert _skeleton(vec) == _skeleton(ref) == _skeleton(tabled)


class TestConfigFlag:
    def test_vectorized_defaults_on(self):
        assert ReaderConfig().vectorized is True

    def test_scalar_fallback_selectable(self):
        assert ReaderConfig(vectorized=False).vectorized is False
