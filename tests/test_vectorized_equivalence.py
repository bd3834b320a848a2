"""The reader against its per-read oracle, ``scalar_run``.

``tests/synthesis_reference.py::scalar_run`` probes every singleton slot
with ``LinkBudget.sample_read`` and builds every read on its own.  The
determinism contract (DESIGN.md, "Performance architecture"):

* With per-read noise disabled, ``Reader.run`` and the oracle consume
  identical RNG streams — lazy per-link state (multipath tones, circuit
  offsets, static fades, ripple phases) is materialised through the same
  draws in the same order — so they emit *identical* report streams for
  a given seed.  Timestamps and integer fields match exactly; float
  physics matches to 1e-9 (math-vs-numpy associativity).
* With noise enabled, each is deterministic per seed, both see the same
  read-event stream, and end-to-end estimates agree to 0.1 bpm.
* The reader's MAC probes read per-run link tables; they decide every
  slot as the oracle's probes do, so the read-event skeleton (timestamp,
  EPC, channel, antenna) is the same whatever the environment declares
  static.  Most probes are decided from power bounds over each tag's
  position envelope; the captures are the same with the envelope hidden.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.bench import benchmark_scenario
from repro.body.activities import RestlessBreathing, TransientMotion
from repro.body.subject import Subject
from repro.body.waveforms import (
    ApneaSighBreathing,
    BreathingWaveform,
    MetronomeBreathing,
    SinusoidalBreathing,
)
from repro.config import ReaderConfig
from repro.core.pipeline import TagBreathe
from repro.epc.codec import EPC96
from repro.epc.gen2 import Gen2Config, Gen2Inventory
from repro.errors import DegradedEstimateWarning
from repro.reader.antenna import Antenna
from repro.reader.reader import Reader, _LinkTable
from repro.rf.noise import PhaseNoiseModel
from repro.rf.propagation import LinkBudget, PathLossModel
from repro.sim.scenario import Scenario

from .synthesis_reference import scalar_run


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


def _run(run, scenario: Scenario, seed: int = 42,
         duration_s: float = 5.0, noise_free: bool = True,
         num_antennas: int = 1):
    """One capture by ``run``: ``Reader.run`` or the ``scalar_run`` oracle."""
    kwargs = {}
    if noise_free:
        kwargs["phase_noise"] = PhaseNoiseModel(floor_rad=0.0, ref_rad=0.0)
    reader = Reader(
        config=ReaderConfig(num_antennas=num_antennas),
        rng=np.random.default_rng(seed),
        **kwargs,
    )
    if noise_free:
        reader.RSSI_JITTER_DB = 0.0
    return run(reader, scenario, duration_s)


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
        vec = _run(Reader.run, scenario)
        ref = _run(scalar_run, scenario)
        assert len(vec) > 100
        _assert_reports_equivalent(vec, ref)

    def test_multi_user(self):
        scenario = _scenario(users=3, contending=0)
        _assert_reports_equivalent(
            _run(Reader.run, scenario), _run(scalar_run, scenario)
        )

    def test_multi_antenna(self):
        scenario = _scenario(users=2)
        vec = _run(Reader.run, scenario, num_antennas=2)
        ref = _run(scalar_run, scenario, num_antennas=2)
        assert {r.antenna_port for r in vec} == {1, 2}
        _assert_reports_equivalent(vec, ref)

    def test_items_only_environment(self):
        items = Scenario.single_user(2.0, sway_seed=0) \
            .with_contending_tags(6, seed=9).contending_tags
        scenario = Scenario([], items)
        _assert_reports_equivalent(
            _run(Reader.run, scenario), _run(scalar_run, scenario)
        )


class TestNoisyPath:
    """Default noise models: per-seed determinism + shared event stream."""

    def test_vectorized_deterministic_per_seed(self):
        scenario = _scenario()
        a = _run(Reader.run, scenario, noise_free=False)
        b = _run(Reader.run, scenario, noise_free=False)
        assert a == b

    def test_scalar_deterministic_per_seed(self):
        # The oracle itself replays per seed, or comparing against it
        # would prove nothing.
        scenario = _scenario()
        a = _run(scalar_run, scenario, noise_free=False)
        b = _run(scalar_run, scenario, noise_free=False)
        assert a == b

    def test_same_event_stream_across_paths(self):
        # MAC arbitration consumes identical draws in the reader and the
        # oracle, so the (timestamp, EPC, channel, antenna) skeleton is
        # shared even though per-read noise values differ.
        scenario = _scenario(users=2)
        vec = _run(Reader.run, scenario, noise_free=False)
        ref = _run(scalar_run, scenario, noise_free=False)
        assert [(r.timestamp_s, r.epc, r.channel_index, r.antenna_port)
                for r in vec] == \
               [(r.timestamp_s, r.epc, r.channel_index, r.antenna_port)
                for r in ref]

    def test_end_to_end_estimates_within_tolerance(self):
        # Different noise interleaving must not move the breathing-rate
        # estimate: the reader's and the oracle's captures agree to
        # 0.1 bpm per user.
        scenario = _scenario(users=2, contending=5)
        estimates = []
        for run in (Reader.run, scalar_run):
            reports = _run(run, scenario, duration_s=40.0, noise_free=False)
            pipeline = TagBreathe(user_ids={1, 2})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedEstimateWarning)
                estimates.append(pipeline.process(reports))
        got, want = estimates
        assert set(got) == set(want)
        for uid in got:
            assert got[uid].rate_bpm == pytest.approx(want[uid].rate_bpm,
                                                      abs=0.1)


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

    Hiding ``situational_loss_db_static`` and ``position_envelope_m`` makes
    the reader filter each round's population and probe every
    link exactly per slot instead of reading its per-run tables.
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
    declares an envelope (radius 0), so the walker's budget must be worked
    out at every probe: its read rate falls as it leaves range.
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

    def position_envelope_m(self, key):
        return (self.position_m(key, 0.0), 0.0) if key == "still" else None


class _EnvelopeHidden:
    """A scenario with every optional method but ``position_envelope_m``.

    Its links keep their static losses, so each probe is decided exactly:
    the reference the envelope-decided captures must equal.
    """

    def __init__(self, scenario: Scenario) -> None:
        self._scenario = scenario

    def __getattr__(self, name):
        if name == "position_envelope_m":
            raise AttributeError(name)
        return getattr(self._scenario, name)


class _Unbounded(BreathingWaveform):
    """A custom waveform that declares no displacement bound."""

    def displacement(self, t: float) -> float:
        return 0.005 * (1.0 - math.cos(1.3 * t))

    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        return 60.0 * 1.3 / (2.0 * math.pi)


def _turned_away_scenario() -> Scenario:
    subject = Subject(user_id=1, distance_m=2.5, sway_seed=4)
    return Scenario([subject]).with_contending_tags(6, seed=5)


def _reader(seed: int, antennas=None, link_budget=None, rng=None) -> Reader:
    config = ReaderConfig(num_antennas=len(antennas) if antennas else 1)
    return Reader(config=config, antennas=antennas, link_budget=link_budget,
                  rng=rng if rng is not None else np.random.default_rng(seed))


def _run_with(run, env, seed: int, duration_s: float, antennas=None,
              link_budget=None):
    """One capture by ``run``: ``Reader.run`` or the ``scalar_run`` oracle."""
    return run(_reader(seed, antennas, link_budget), env, duration_s)


def _probe_counts(env, seed: int, duration_s: float, antennas=None):
    """Per-tag ``[probes, exact probes]`` of one tabled MAC pass.

    Drives the run's link table through the Gen2 MAC as ``Reader.run``
    does, counting each tag's probes and those decided exactly.
    """
    rng = np.random.default_rng(seed)
    reader = _reader(seed, antennas, rng=rng)
    keys = list(env.tag_keys())
    links = _LinkTable(env, keys, reader.antenna_scheduler,
                       reader.hop_schedule, reader.link_budget, rng)
    counts = {key: [0, 0] for key in keys}

    def link_ok(key, t):
        before = links.exact_probes
        ok = links.link_ok(key, t)
        counts[key][0] += 1
        counts[key][1] += links.exact_probes - before
        return ok

    Gen2Inventory(keys, config=Gen2Config(), rng=rng, link_ok=link_ok,
                  population=links.population).run_for(duration_s)
    return counts


def _worn(counts, user_ids=None):
    """Summed ``[probes, exact]`` over the worn tags (of ``user_ids``)."""
    rows = [c for key, c in counts.items()
            if key[0] != "item" and (user_ids is None or key[0] in user_ids)]
    return [sum(c[0] for c in rows), sum(c[1] for c in rows)]


class TestMacExactness:
    """The per-run link tables decide every slot as the oracle's probes do."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_shape_two_antennas(self, seed):
        scenario = benchmark_scenario(3, seed=seed)
        vec = _run_with(Reader.run, scenario, seed, 25.0, _FACING_WALLS)
        ref = _run_with(scalar_run, scenario, seed, 25.0, _FACING_WALLS)
        assert len(vec) > 1000
        assert {r.antenna_port for r in vec} == {1, 2}
        assert _skeleton(vec) == _skeleton(ref)

    def test_subject_turned_away_from_one_antenna(self):
        scenario = _turned_away_scenario()
        subject = scenario.subjects[0]
        assert subject.extra_loss_db(1, 0.0, _FACING_WALLS[1]) == math.inf
        vec = _run_with(Reader.run, scenario, 7, 10.0, _FACING_WALLS)
        ref = _run_with(scalar_run, scenario, 7, 10.0, _FACING_WALLS)
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
        vec = _run_with(Reader.run, env, 3, 10.0)
        ref = _run_with(scalar_run, env, 3, 10.0)
        assert _skeleton(vec) == _skeleton(ref)
        walker = EPC96.from_user_tag(1, 1)
        early = sum(r.epc == walker and r.timestamp_s < 2.0 for r in vec)
        late = sum(r.epc == walker and r.timestamp_s >= 8.0 for r in vec)
        assert early > 50
        assert late < early / 4

    def test_lying_posture(self):
        subjects = [Subject(user_id=1, distance_m=2.0, posture="lying",
                            sway_seed=2),
                    Subject(user_id=2, distance_m=3.0, posture="lying",
                            orientation_deg=40.0, lateral_offset_m=0.6,
                            sway_seed=3)]
        scenario = Scenario(subjects).with_contending_tags(6, seed=2)
        vec = _run_with(Reader.run, scenario, 5, 15.0, _FACING_WALLS)
        ref = _run_with(scalar_run, scenario, 5, 15.0, _FACING_WALLS)
        assert sum(r.user_id in (1, 2) for r in vec) > 300
        assert _skeleton(vec) == _skeleton(ref)

    def test_apnea_sigh_breathing(self):
        breathing = ApneaSighBreathing(14.0, apnea_per_minute=2.0,
                                       sigh_probability=0.3, seed=6)
        assert breathing.peak_displacement_m() > 0.02  # a sigh was drawn
        scenario = Scenario([Subject(user_id=1, distance_m=2.5,
                                     breathing=breathing, sway_seed=6)]
                            ).with_contending_tags(6, seed=6)
        vec = _run_with(Reader.run, scenario, 6, 20.0)
        ref = _run_with(scalar_run, scenario, 6, 20.0)
        assert sum(r.user_id == 1 for r in vec) > 300
        assert _skeleton(vec) == _skeleton(ref)

    def test_ball_reaching_the_antenna_forces_the_exact_path(self):
        # A 0.6 m "breath" 0.4 m from the panel: every tag's envelope
        # reaches the antenna, so no bound is tabled for its links.
        near = Subject(user_id=1, distance_m=0.4, sway_seed=8,
                       breathing=SinusoidalBreathing(12.0, amplitude_m=0.6))
        far = Subject(user_id=2, distance_m=2.5, lateral_offset_m=0.5,
                      sway_seed=9)
        scenario = Scenario([near, far]).with_contending_tags(4, seed=8)
        antenna = Antenna(port=1)
        for tag in near.tags:
            assert antenna.gain_and_distance_bounds(
                *near.tag_position_envelope_m(tag.tag_id)) is None
        vec = _run_with(Reader.run, scenario, 8, 10.0)
        ref = _run_with(scalar_run, scenario, 8, 10.0)
        assert sum(r.user_id == 1 for r in vec) > 100
        assert _skeleton(vec) == _skeleton(ref)
        counts = _probe_counts(scenario, 8, 10.0)
        probes, exact = _worn(counts, {1})
        assert probes > 100 and exact == probes
        probes, exact = _worn(counts, {2})
        assert probes > 100 and exact < probes / 100

    def test_fading_free_budget(self):
        budget = LinkBudget(path_loss=PathLossModel(fading_sigma_db=0.0))
        scenario = benchmark_scenario(3, seed=4)
        vec = _run_with(Reader.run, scenario, 4, 10.0, link_budget=budget)
        ref = _run_with(scalar_run, scenario, 4, 10.0, link_budget=budget)
        assert len(vec) > 500
        assert _skeleton(vec) == _skeleton(ref)

    def test_unbounded_waveform_takes_the_exact_probe(self):
        scenario = Scenario([
            Subject(user_id=1, distance_m=2.0, breathing=_Unbounded(),
                    sway_seed=1),
            Subject(user_id=2, distance_m=2.5, lateral_offset_m=0.5,
                    sway_seed=2),
        ]).with_contending_tags(4, seed=1)
        vec = _run_with(Reader.run, scenario, 2, 10.0)
        ref = _run_with(scalar_run, scenario, 2, 10.0)
        assert _skeleton(vec) == _skeleton(ref)
        counts = _probe_counts(scenario, 2, 10.0)
        probes, exact = _worn(counts, {1})
        assert probes > 100 and exact == probes
        probes, exact = _worn(counts, {2})
        assert probes > 100 and exact < probes / 100

    def test_probed_environment_matches_tabled(self):
        scenario = _turned_away_scenario()
        probed = _ProbedEnvironment(scenario)
        vec = _run_with(Reader.run, probed, 7, 10.0, _FACING_WALLS)
        ref = _run_with(scalar_run, probed, 7, 10.0, _FACING_WALLS)
        tabled = _run_with(Reader.run, scenario, 7, 10.0, _FACING_WALLS)
        assert len(vec) > 300
        assert _skeleton(vec) == _skeleton(ref) == _skeleton(tabled)


def _restless_at_range(seed: int) -> Scenario:
    """Three users near the edge of range, shifting in their chairs.

    Their links sit a few dB above sensitivity and 8 cm bursts widen each
    envelope, so many fading draws land between the power bounds.
    """
    subjects = [
        Subject(user_id=uid, distance_m=5.6 + 0.2 * uid,
                lateral_offset_m=0.5 * (uid - 2),
                orientation_deg=30.0 * (uid - 1), sway_seed=10 * seed + uid,
                breathing=RestlessBreathing(
                    MetronomeBreathing(12.0),
                    TransientMotion(rate_per_minute=12.0, amplitude_m=0.08,
                                    seed=10 * seed + uid)))
        for uid in (1, 2, 3)
    ]
    return Scenario(subjects).with_contending_tags(4, seed=seed)


def _lying_apnea(seed: int) -> Scenario:
    subjects = [
        Subject(user_id=uid, distance_m=1.5 + uid, posture="lying",
                lateral_offset_m=0.6 * (uid - 1), sway_seed=10 * seed + uid,
                breathing=ApneaSighBreathing(12.0, sigh_probability=0.3,
                                             seed=10 * seed + uid))
        for uid in (1, 2)
    ]
    return Scenario(subjects).with_contending_tags(4, seed=seed)


class TestEnvelopeDecidedProbes:
    """The envelope decides most probes and moves no capture."""

    @pytest.mark.parametrize("users", [1, 3, 6])
    def test_captures_equal_with_the_envelope_hidden(self, users):
        for seed in range(8):
            scenario = benchmark_scenario(users, seed=seed)
            decided = _run_with(Reader.run, scenario, seed, 10.0)
            exact = _run_with(Reader.run, _EnvelopeHidden(scenario), seed, 10.0)
            assert decided == exact

    def test_captures_equal_at_the_edge_of_range(self):
        exact_probes = 0
        for seed in range(8):
            scenario = _restless_at_range(seed)
            decided = _run_with(Reader.run, scenario, seed, 10.0)
            exact = _run_with(Reader.run, _EnvelopeHidden(scenario), seed, 10.0)
            assert decided == exact
            exact_probes += _worn(_probe_counts(scenario, seed, 10.0))[1]
        assert exact_probes > 50  # the exact path really ran

    @pytest.mark.parametrize("make", [benchmark_scenario, _restless_at_range,
                                      _lying_apnea])
    def test_every_exact_budget_lies_within_its_bounds(self, make):
        scenario = make(3) if make is benchmark_scenario else make(1)
        reader = _reader(1, _FACING_WALLS)
        keys = scenario.tag_keys()
        links = _LinkTable(scenario, keys, reader.antenna_scheduler,
                           reader.hop_schedule, reader.link_budget,
                           np.random.default_rng(1))
        times = np.linspace(0.0, 60.0, 241)
        bounded = 0
        for key in keys:
            for ai, antenna in enumerate(_FACING_WALLS):
                situational = scenario.situational_loss_db_static(key, antenna)
                if math.isinf(situational):
                    continue
                for ci in range(len(reader.hop_schedule.plan)):
                    lo_tag, hi_tag, lo_rx, hi_rx = links._power_bounds(
                        key, ai, ci, situational)
                    bounded += 1
                    for t in times:
                        tag_p, rx_p = links._link_powers(key, ai, ci, float(t),
                                                         situational)
                        assert lo_tag <= tag_p <= hi_tag
                        assert lo_rx <= rx_p <= hi_rx
        assert bounded > 100

    def test_exact_probes_are_rare_on_the_benchmark_shape(self):
        counts = _probe_counts(benchmark_scenario(3, seed=1), 1, 25.0)
        probes, exact = _worn(counts)
        assert probes > 1000
        assert exact < 0.01 * probes

