"""End-to-end integration tests spanning all subsystems.

Each test exercises the full path: breathing body -> phase physics ->
Gen2 MAC -> reader reports -> preprocessing -> fusion -> extraction ->
rate estimate, compared against the metronome ground truth.
"""

import numpy as np
import pytest

from repro import (
    LLRPClient,
    Reader,
    ROSpec,
    Scenario,
    TagBreathe,
    breathing_rate_accuracy,
    run_scenario,
)
from repro.body import (
    BreathingStyle,
    IrregularBreathing,
    MetronomeBreathing,
    Subject,
)
from repro.epc import EPCMappingTable
from repro.reader.batch import ReportBatch


class TestSingleUserEndToEnd:
    @pytest.mark.parametrize("rate", [5.0, 10.0, 15.0, 20.0])
    def test_table1_rate_range(self, rate):
        """Accuracy across the paper's full 5-20 bpm metronome range."""
        scenario = Scenario([Subject(user_id=1, distance_m=3.0,
                                     breathing=MetronomeBreathing(rate),
                                     sway_seed=int(rate))])
        result = run_scenario(scenario, duration_s=45.0, seed=int(rate * 7))
        estimate = TagBreathe(user_ids={1}).process(result.reports)[1]
        assert breathing_rate_accuracy(estimate.rate_bpm, rate) > 0.9

    @pytest.mark.parametrize("posture", ["sitting", "standing", "lying"])
    def test_fig17_postures(self, posture):
        """Fig. 17: accuracy above 90 % for every posture."""
        scenario = Scenario([Subject(user_id=1, distance_m=3.0, posture=posture,
                                     breathing=MetronomeBreathing(12.0),
                                     sway_seed=3)])
        result = run_scenario(scenario, duration_s=45.0, seed=17)
        estimate = TagBreathe(user_ids={1}).process(result.reports)[1]
        assert breathing_rate_accuracy(estimate.rate_bpm, 12.0) > 0.9

    @pytest.mark.parametrize("style", list(BreathingStyle))
    def test_breathing_styles(self, style):
        """Chest and abdominal breathers both work (Section IV-D-1)."""
        scenario = Scenario([Subject(user_id=1, distance_m=3.0, style=style,
                                     breathing=MetronomeBreathing(10.0),
                                     sway_seed=4)])
        result = run_scenario(scenario, duration_s=45.0, seed=23)
        estimate = TagBreathe(user_ids={1}).process(result.reports)[1]
        assert breathing_rate_accuracy(estimate.rate_bpm, 10.0) > 0.9

    @pytest.mark.parametrize("tags", [1, 2, 3])
    def test_tags_per_user_range(self, tags):
        scenario = Scenario([Subject(user_id=1, distance_m=2.0, num_tags=tags,
                                     breathing=MetronomeBreathing(12.0),
                                     sway_seed=5)])
        result = run_scenario(scenario, duration_s=45.0, seed=29)
        estimate = TagBreathe(user_ids={1}).process(result.reports)[1]
        assert estimate.tags_fused == tags
        assert breathing_rate_accuracy(estimate.rate_bpm, 12.0) > 0.85

    def test_irregular_breathing_tracked(self):
        """Beyond the paper: irregular rates are still estimated sensibly."""
        waveform = IrregularBreathing(12.0, rate_jitter=0.1, seed=6)
        scenario = Scenario([Subject(user_id=1, distance_m=2.0,
                                     breathing=waveform, sway_seed=6)])
        result = run_scenario(scenario, duration_s=60.0, seed=31)
        estimate = TagBreathe(user_ids={1}).process(result.reports)[1]
        truth = waveform.true_rate_bpm(0.0, 60.0)
        assert breathing_rate_accuracy(estimate.rate_bpm, truth) > 0.8


class TestMultiUserEndToEnd:
    def test_four_users_simultaneously(self):
        """The headline claim: simultaneous multi-user monitoring."""
        rates = {1: 6.0, 2: 10.0, 3: 14.0, 4: 18.0}
        subjects = [
            Subject(user_id=uid, distance_m=4.0,
                    lateral_offset_m=(uid - 2.5) * 0.8,
                    breathing=MetronomeBreathing(rate), sway_seed=uid)
            for uid, rate in rates.items()
        ]
        result = run_scenario(Scenario(subjects), duration_s=60.0, seed=37)
        estimates = TagBreathe(user_ids=set(rates)).process(result.reports)
        assert set(estimates) == set(rates)
        for uid, rate in rates.items():
            assert breathing_rate_accuracy(estimates[uid].rate_bpm, rate) > 0.85

    def test_users_do_not_interfere(self):
        """Adding a second user barely moves the first user's estimate."""
        alone = Scenario([Subject(user_id=1, distance_m=3.0,
                                  breathing=MetronomeBreathing(10.0),
                                  sway_seed=1)])
        together = Scenario([
            Subject(user_id=1, distance_m=3.0,
                    breathing=MetronomeBreathing(10.0), sway_seed=1),
            Subject(user_id=2, distance_m=3.0, lateral_offset_m=1.0,
                    breathing=MetronomeBreathing(17.0), sway_seed=2),
        ])
        r_alone = run_scenario(alone, duration_s=45.0, seed=41)
        r_together = run_scenario(together, duration_s=45.0, seed=41)
        e_alone = TagBreathe(user_ids={1}).process(r_alone.reports)[1]
        e_together = TagBreathe(user_ids={1, 2}).process(r_together.reports)[1]
        assert e_together.rate_bpm == pytest.approx(e_alone.rate_bpm, abs=1.0)


class TestContendingEndToEnd:
    def test_thirty_contending_tags(self):
        """Fig. 14 end-to-end: 91 %-class accuracy with 30 item tags."""
        scenario = Scenario.single_user(
            distance_m=4.0, breathing=MetronomeBreathing(10.0), sway_seed=7,
        ).with_contending_tags(30, seed=7)
        result = run_scenario(scenario, duration_s=60.0, seed=43)
        estimate = TagBreathe(user_ids={1}).process(result.reports)[1]
        assert breathing_rate_accuracy(estimate.rate_bpm, 10.0) > 0.85

    def test_mapping_table_identifies_monitor_tags(self):
        """The Section IV-C fallback: classify reads via a mapping table
        instead of the user-ID filter."""
        scenario = Scenario.single_user(
            distance_m=3.0, breathing=MetronomeBreathing(12.0), sway_seed=8,
        ).with_contending_tags(5, seed=8)
        result = run_scenario(scenario, duration_s=40.0, seed=47)
        table = EPCMappingTable()
        for tag in scenario.subjects[0].tags:
            table.register(tag.epc, tag.user_id, tag.tag_id)
        monitored = [r for r in result.reports if table.is_monitoring_tag(r.epc)]
        assert 0 < len(monitored) < len(result.reports)
        estimate = TagBreathe(user_ids={1}).process(monitored)[1]
        assert breathing_rate_accuracy(estimate.rate_bpm, 12.0) > 0.9


class TestLLRPPath:
    def test_streaming_via_llrp_facade(self):
        """The paper's software architecture: LTK subscription feeding the
        realtime pipeline."""
        scenario = Scenario([Subject(user_id=1, distance_m=2.0,
                                     breathing=MetronomeBreathing(12.0),
                                     sway_seed=9)])
        reader = Reader(rng=np.random.default_rng(53))
        client = LLRPClient(reader, scenario)
        pipeline = TagBreathe(user_ids={1})
        client.connect()
        client.add_rospec(ROSpec(duration_s=40.0))
        received = []
        client.subscribe(received.append)
        client.start()
        pipeline.feed_batch(ReportBatch.from_reports(received))
        estimate = pipeline.estimate_user(1, window_s=30.0)
        assert breathing_rate_accuracy(estimate.rate_bpm, 12.0) > 0.9


class TestFusionBenefit:
    def test_fusion_helps_at_long_range(self):
        """Section IV-C's claim: raw-data fusion of 3 tags beats a single
        tag, especially for weak signals (long range)."""
        def accuracy(num_tags, seed):
            scenario = Scenario([Subject(
                user_id=1, distance_m=6.0, num_tags=num_tags,
                breathing=MetronomeBreathing(10.0), sway_seed=seed,
            )])
            result = run_scenario(scenario, duration_s=45.0, seed=seed)
            estimates = TagBreathe(user_ids={1}).process(result.reports)
            if 1 not in estimates:
                return 0.0
            return breathing_rate_accuracy(estimates[1].rate_bpm, 10.0)
        single = np.mean([accuracy(1, s) for s in range(4)])
        fused = np.mean([accuracy(3, s) for s in range(4)])
        # Few-trial smoke check: the decisive comparison (more trials,
        # longer captures) lives in benchmarks/test_ablation_fusion.py,
        # where 3 tags beat 1 tag by ~16 points at 6 m.
        assert fused >= single - 0.08
        assert fused > 0.85
