"""Tests for the scenario packs (repro.sim.scenarios).

The full packs are exercised (and their numbers published) by the
regenerating benchmark ``benchmarks/test_scenario_packs.py`` and gated
in CI; tier-1 keeps to the cheap contracts — registry behaviour, spec
determinism, ground-truth windows coming straight from the schedules,
and the scoring harness itself on a small purpose-built pack.
"""

import pytest

from repro.body import MetronomeBreathing, Subject
from repro.config import EstimatorConfig
from repro.errors import ScenarioError
from repro.sim.scenario import Scenario
from repro.sim.scenarios import (PACKS, PackSpec, build_pack, evaluate_pack,
                                 pack_names)

EXPECTED_PACKS = ("motion_bursts", "apnea_sigh", "ward", "overnight")


class TestRegistry:
    def test_pack_names(self):
        assert tuple(pack_names()) == EXPECTED_PACKS
        assert set(PACKS) == set(EXPECTED_PACKS)

    def test_unknown_pack_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario pack"):
            build_pack("karaoke_night")

    @pytest.mark.parametrize("name", EXPECTED_PACKS)
    def test_builders_return_specs(self, name):
        spec = build_pack(name, quick=True)
        assert isinstance(spec, PackSpec)
        assert spec.name == name
        assert spec.duration_s > spec.warmup_s > 0
        assert spec.engines  # at least one engine configuration

    @pytest.mark.parametrize("name", EXPECTED_PACKS)
    def test_quick_is_shorter(self, name):
        assert (build_pack(name, quick=True).duration_s
                < build_pack(name, quick=False).duration_s)


class TestSpecContents:
    def test_motion_packs_carry_schedule_windows(self):
        for name in ("motion_bursts", "overnight"):
            spec = build_pack(name, quick=True)
            assert spec.motion_windows
            for spans in spec.motion_windows.values():
                for lo, hi in spans:
                    assert 0.0 <= lo < hi <= spec.duration_s

    def test_event_packs_carry_apnea_windows(self):
        for name in ("apnea_sigh", "overnight"):
            spec = build_pack(name, quick=True)
            assert spec.apnea_windows
            for spans in spec.apnea_windows.values():
                for lo, hi in spans:
                    assert lo < hi

    def test_ward_has_control_arms(self):
        spec = build_pack("ward", quick=True)
        assert set(spec.engines) == {"auto", "phase_only", "rss"}
        assert spec.phase_noise is not None
        assert spec.phase_noise.floor_rad >= 1.0

    @pytest.mark.parametrize("name", EXPECTED_PACKS)
    def test_builders_deterministic(self, name):
        a = build_pack(name, quick=True, seed=4)
        b = build_pack(name, quick=True, seed=4)
        assert a.motion_windows == b.motion_windows
        assert a.apnea_windows == b.apnea_windows
        assert a.duration_s == b.duration_s

    def test_seed_changes_schedules(self):
        a = build_pack("motion_bursts", quick=True, seed=0)
        b = build_pack("motion_bursts", quick=True, seed=1)
        assert a.motion_windows != b.motion_windows


@pytest.fixture(scope="module")
def tiny_pack():
    """A purpose-built cheap pack so the harness itself stays tier-1."""
    subject = Subject(user_id=1, distance_m=1.5,
                      breathing=MetronomeBreathing(12.0), sway_seed=3)
    return PackSpec(
        name="tiny", title="tiny", description="harness smoke pack",
        scenario=Scenario([subject]),
        duration_s=45.0, window_s=20.0, warmup_s=25.0, cadence_s=5.0,
        engines={"auto": EstimatorConfig()},
    )


class TestEvaluate:
    def test_metrics_shape_and_sanity(self, tiny_pack):
        result = evaluate_pack(tiny_pack, seed=0)
        assert result["users"] == 1
        assert result["reports"] > 0
        case = result["cases"]["auto"]
        for key in ("ticks", "insufficient", "mean_accuracy",
                    "mean_accuracy_clean", "estimator_ticks",
                    "gated_ticks", "flagged_ticks", "confident_wrong",
                    "confident_wrong_in_motion", "in_motion_ticks",
                    "missed_alarms", "missed_alarm_rate", "quiet_ticks",
                    "false_alarms", "false_alarm_rate"):
            assert key in case, key
        assert case["ticks"] > 0
        # A clean metronome subject: accurate, never flagged or gated.
        assert case["mean_accuracy"] > 0.85
        assert case["gated_ticks"] == 0
        assert case["false_alarms"] == 0
        assert case["confident_wrong"] == 0

    def test_evaluation_deterministic(self, tiny_pack):
        assert evaluate_pack(tiny_pack, seed=2) == evaluate_pack(
            tiny_pack, seed=2)

    def test_seed_changes_capture(self, tiny_pack):
        a = evaluate_pack(tiny_pack, seed=0)
        b = evaluate_pack(tiny_pack, seed=5)
        assert a["reports"] != b["reports"] or a["cases"] != b["cases"]
