"""Tests for the end-to-end simulation testbed (repro.sim)."""

import numpy as np
import pytest

from repro.body import MetronomeBreathing, Subject
from repro.errors import ScenarioError
from repro.reader import Antenna
from repro.sim import GroundTruth, Scenario, run_scenario
from repro.epc import EPC96


class TestScenario:
    def test_single_user_builder(self):
        scenario = Scenario.single_user(distance_m=3.0)
        assert scenario.monitored_user_ids == [1]
        assert scenario.total_tag_count() == 3

    def test_tag_keys_cover_everything(self):
        scenario = Scenario.single_user().with_contending_tags(5, seed=0)
        keys = scenario.tag_keys()
        assert len(keys) == 8
        assert ("item", 1) in keys
        assert (1, 1) in keys

    def test_duplicate_users_rejected(self):
        subjects = [Subject(user_id=1, distance_m=2.0),
                    Subject(user_id=1, distance_m=3.0)]
        with pytest.raises(ScenarioError):
            Scenario(subjects)

    def test_empty_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario([])

    def test_contending_tags_have_foreign_epcs(self):
        scenario = Scenario.single_user().with_contending_tags(10, seed=1)
        monitored = set(scenario.monitored_user_ids)
        for item in scenario.contending_tags:
            assert item.epc.user_id not in monitored

    def test_contending_positions_in_coverage(self):
        scenario = Scenario.single_user().with_contending_tags(20, seed=2)
        for item in scenario.contending_tags:
            x, y, z = item.position_m
            assert 0.0 < (x ** 2 + y ** 2) ** 0.5 <= 5.5
            assert 0.0 < z < 2.0

    def test_with_contending_preserves_original(self):
        base = Scenario.single_user()
        extended = base.with_contending_tags(5, seed=0)
        assert len(base.contending_tags) == 0
        assert len(extended.contending_tags) == 5

    def test_negative_count_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.single_user().with_contending_tags(-1)

    def test_position_static_for_items(self):
        scenario = Scenario.single_user().with_contending_tags(1, seed=0)
        key = ("item", 1)
        p0 = scenario.position_m(key, 0.0)
        p1 = scenario.position_m(key, 10.0)
        np.testing.assert_array_equal(p0, p1)

    def test_position_breathes_for_subjects(self):
        scenario = Scenario.single_user(
            breathing=MetronomeBreathing(10.0), sway_seed=0
        )
        p0 = scenario.position_m((1, 1), 0.0)
        p1 = scenario.position_m((1, 1), 3.0)
        assert not np.allclose(p0, p1)

    def test_unknown_key_rejected(self):
        scenario = Scenario.single_user()
        with pytest.raises(ScenarioError):
            scenario.position_m(("nope", 1), 0.0)
        with pytest.raises(ScenarioError):
            scenario.epc((9, 9))

    def test_subject_lookup(self):
        scenario = Scenario.single_user()
        assert scenario.subject(1).user_id == 1
        with pytest.raises(ScenarioError):
            scenario.subject(5)

    def test_epc_for_subject_tags(self):
        scenario = Scenario.single_user()
        epc = scenario.epc((1, 2))
        assert epc == EPC96.from_user_tag(1, 2)

    def test_extra_loss_for_items(self):
        scenario = Scenario.single_user().with_contending_tags(1, seed=0)
        antenna = Antenna(port=1)
        loss = scenario.extra_loss_db(("item", 1), 0.0, antenna)
        assert 0.0 <= loss <= 3.0


class TestRunScenario:
    def test_returns_reports_and_ground_truth(self):
        result = run_scenario(Scenario.single_user(distance_m=2.0),
                              duration_s=10.0, seed=0)
        assert result.duration_s == 10.0
        assert len(result.reports) > 300
        assert result.ground_truth.rate_bpm(1, 0, 10) == 10.0

    def test_seeded_reproducibility(self):
        scenario_a = Scenario.single_user(distance_m=2.0, sway_seed=1)
        scenario_b = Scenario.single_user(distance_m=2.0, sway_seed=1)
        r1 = run_scenario(scenario_a, duration_s=5.0, seed=42)
        r2 = run_scenario(scenario_b, duration_s=5.0, seed=42)
        assert len(r1.reports) == len(r2.reports)
        assert all(a.phase_rad == b.phase_rad
                   for a, b in zip(r1.reports[:30], r2.reports[:30]))

    def test_different_seeds_differ(self):
        scenario = Scenario.single_user(distance_m=2.0, sway_seed=1)
        r1 = run_scenario(scenario, duration_s=5.0, seed=1)
        r2 = run_scenario(scenario, duration_s=5.0, seed=2)
        assert [r.phase_rad for r in r1.reports[:10]] != \
            [r.phase_rad for r in r2.reports[:10]]

    def test_reports_for_user(self):
        scenario = Scenario.single_user().with_contending_tags(3, seed=0)
        result = run_scenario(scenario, duration_s=8.0, seed=0)
        user_reports = result.reports_for_user(1)
        assert user_reports
        assert all(r.user_id == 1 for r in user_reports)
        assert len(user_reports) < len(result.reports)

    def test_rate_accounting(self):
        result = run_scenario(Scenario.single_user(distance_m=2.0),
                              duration_s=10.0, seed=0)
        per_tag = result.per_tag_read_rate_hz()
        assert set(per_tag) == {(1, 1), (1, 2), (1, 3)}
        assert result.aggregate_read_rate_hz() == pytest.approx(
            sum(per_tag.values()), rel=1e-9
        )

    def test_bad_duration_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario(Scenario.single_user(), duration_s=0.0)

    @pytest.mark.parametrize("duration_s", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration_s):
        with pytest.raises(ScenarioError):
            run_scenario(Scenario.single_user(), duration_s=duration_s)


class TestGroundTruth:
    def test_all_rates(self):
        subjects = [
            Subject(user_id=1, distance_m=2.0, breathing=MetronomeBreathing(8.0)),
            Subject(user_id=2, distance_m=3.0, breathing=MetronomeBreathing(14.0)),
        ]
        truth = GroundTruth(Scenario(subjects))
        assert truth.all_rates_bpm(0, 60) == {1: 8.0, 2: 14.0}

    def test_windowed_rates(self):
        truth = GroundTruth(Scenario.single_user())
        rates = truth.windowed_rates_bpm(1, [(0, 30), (30, 60)])
        assert rates == [10.0, 10.0]

    def test_empty_windows_rejected(self):
        truth = GroundTruth(Scenario.single_user())
        with pytest.raises(ScenarioError):
            truth.windowed_rates_bpm(1, [])

    def test_unknown_user(self):
        truth = GroundTruth(Scenario.single_user())
        with pytest.raises(ScenarioError):
            truth.rate_bpm(7, 0, 10)


class TestContendingTagEffects:
    def test_contention_dilutes_monitor_rate(self):
        """The Fig. 14 mechanism end-to-end."""
        base = run_scenario(Scenario.single_user(distance_m=2.0),
                            duration_s=10.0, seed=5)
        crowded = run_scenario(
            Scenario.single_user(distance_m=2.0).with_contending_tags(20, seed=5),
            duration_s=10.0, seed=5,
        )
        base_rate = len(base.reports_for_user(1)) / 10.0
        crowded_rate = len(crowded.reports_for_user(1)) / 10.0
        assert crowded_rate < 0.6 * base_rate
