"""Tests for the EPC codec (Fig. 9) and the Gen2 MAC simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.epc import (
    EPC96,
    EPCMappingTable,
    Gen2Config,
    Gen2Inventory,
    decode_user_tag,
    encode_user_tag,
    expected_aggregate_read_rate,
    expected_per_tag_rate,
    expected_round_stats,
)
from repro.epc.codec import EPC_BITS, TAG_ID_BITS, USER_ID_BITS
from repro.epc.inventory import breathing_nyquist_margin, optimal_q
from repro.errors import ConfigError, EPCFormatError


class TestEPCCodec:
    def test_bit_layout(self):
        assert USER_ID_BITS + TAG_ID_BITS == EPC_BITS == 96

    def test_encode_decode_roundtrip(self):
        value = encode_user_tag(1234, 5678)
        assert decode_user_tag(value) == (1234, 5678)

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_roundtrip_property(self, user_id, tag_id):
        assert decode_user_tag(encode_user_tag(user_id, tag_id)) == (user_id, tag_id)

    def test_user_id_overflow(self):
        with pytest.raises(EPCFormatError):
            encode_user_tag(1 << 64, 0)

    def test_tag_id_overflow(self):
        with pytest.raises(EPCFormatError):
            encode_user_tag(0, 1 << 32)

    def test_negative_rejected(self):
        with pytest.raises(EPCFormatError):
            encode_user_tag(-1, 0)

    def test_epc96_hex_roundtrip(self):
        epc = EPC96.from_user_tag(7, 3)
        assert EPC96.from_hex(epc.to_hex()) == epc

    def test_hex_length(self):
        assert len(EPC96(0).to_hex()) == 24

    def test_from_hex_tolerates_separators(self):
        epc = EPC96.from_user_tag(7, 3)
        spaced = " ".join([epc.to_hex()[i:i + 4] for i in range(0, 24, 4)])
        assert EPC96.from_hex(spaced) == epc

    def test_from_hex_rejects_wrong_length(self):
        with pytest.raises(EPCFormatError):
            EPC96.from_hex("abcd")

    def test_from_hex_rejects_non_hex(self):
        with pytest.raises(EPCFormatError):
            EPC96.from_hex("z" * 24)

    def test_split_matches_fields(self):
        epc = EPC96.from_user_tag(42, 9)
        assert epc.split() == (42, 9)
        assert epc.user_id == 42
        assert epc.tag_id == 9

    def test_value_overflow_rejected(self):
        with pytest.raises(EPCFormatError):
            EPC96(1 << 96)


class TestMappingTable:
    def test_register_and_lookup(self):
        table = EPCMappingTable()
        factory = EPC96.from_hex("0123456789abcdef01234567")
        table.register(factory, user_id=5, tag_id=2)
        assert table.lookup(factory) == (5, 2)
        assert table.is_monitoring_tag(factory)

    def test_unregistered_lookup(self):
        table = EPCMappingTable()
        assert table.lookup(EPC96(99)) is None
        assert not table.is_monitoring_tag(EPC96(99))

    def test_idempotent_register(self):
        table = EPCMappingTable()
        table.register(EPC96(1), 1, 1)
        table.register(EPC96(1), 1, 1)  # same mapping: fine
        assert len(table) == 1

    def test_conflicting_remap_rejected(self):
        table = EPCMappingTable()
        table.register(EPC96(1), 1, 1)
        with pytest.raises(EPCFormatError):
            table.register(EPC96(1), 2, 2)

    def test_identity_collision_rejected(self):
        table = EPCMappingTable()
        table.register(EPC96(1), 1, 1)
        with pytest.raises(EPCFormatError):
            table.register(EPC96(2), 1, 1)


class TestGen2Config:
    def test_defaults_valid(self):
        Gen2Config()

    def test_rejects_bad_timing(self):
        with pytest.raises(ConfigError):
            Gen2Config(t_success_s=0.0)

    def test_rejects_bad_q_range(self):
        with pytest.raises(ConfigError):
            Gen2Config(q_initial=5, q_min=6)


class TestGen2Inventory:
    def test_single_tag_read_every_round(self):
        inv = Gen2Inventory(["t1"], rng=np.random.default_rng(0))
        events, stats = inv.run_round(0.0)
        assert len(events) == 1
        assert stats.reads == 1
        assert stats.collisions == 0

    def test_single_tag_rate_near_64hz(self):
        """The paper reports ~64 Hz for a lone tag (Section IV-A)."""
        inv = Gen2Inventory(["t1"], rng=np.random.default_rng(0))
        events = inv.run_for(10.0)
        rate = len(events) / 10.0
        assert 50.0 <= rate <= 85.0

    def test_many_tags_all_get_read(self):
        keys = [f"t{i}" for i in range(12)]
        inv = Gen2Inventory(keys, rng=np.random.default_rng(1))
        events = inv.run_for(5.0)
        seen = {k for _, k in events}
        assert seen == set(keys)

    def test_q_adapts_upward_for_population(self):
        keys = [f"t{i}" for i in range(30)]
        inv = Gen2Inventory(keys, rng=np.random.default_rng(2))
        inv.run_for(3.0)
        assert inv.current_q >= 3

    def test_per_tag_rate_dilutes_with_population(self):
        """Fig. 14's mechanism: contending tags dilute per-tag rate."""
        def per_tag_rate(n):
            inv = Gen2Inventory([f"t{i}" for i in range(n)],
                                rng=np.random.default_rng(3))
            events = inv.run_for(8.0)
            return len(events) / 8.0 / n
        assert per_tag_rate(1) > per_tag_rate(6) > per_tag_rate(24)

    def test_aggregate_rate_grows_then_saturates(self):
        def agg(n):
            inv = Gen2Inventory([f"t{i}" for i in range(n)],
                                rng=np.random.default_rng(4))
            return len(inv.run_for(8.0)) / 8.0
        assert agg(6) > agg(1)  # more tags fill more slots per round

    def test_unenergized_tag_never_reads(self):
        inv = Gen2Inventory(
            ["a", "b"],
            rng=np.random.default_rng(5),
            population=lambda t: ["a"],
        )
        events = inv.run_for(3.0)
        assert all(k == "a" for _, k in events)

    def test_link_failure_blocks_read(self):
        inv = Gen2Inventory(
            ["a"], rng=np.random.default_rng(6),
            link_ok=lambda key, t: False,
        )
        events, stats = inv.run_round(0.0)
        assert events == []
        assert stats.link_failures == 1

    def test_timestamps_increase(self):
        inv = Gen2Inventory([f"t{i}" for i in range(5)],
                            rng=np.random.default_rng(7))
        events = inv.run_for(4.0)
        times = [t for t, _ in events]
        assert times == sorted(times)

    def test_events_respect_duration(self):
        inv = Gen2Inventory(["a"], rng=np.random.default_rng(8))
        events = inv.run_for(2.0, t_start=1.0)
        assert all(1.0 <= t < 3.0 for t, _ in events)

    def test_rejects_empty_population(self):
        with pytest.raises(ConfigError):
            Gen2Inventory([])

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ConfigError):
            Gen2Inventory(["a", "a"])

    def test_rejects_bad_duration(self):
        inv = Gen2Inventory(["a"])
        with pytest.raises(ConfigError):
            inv.run_for(0.0)

    @pytest.mark.parametrize("duration_s, t_start", [
        (float("nan"), 0.0), (float("inf"), 0.0), (1.0, float("nan")),
    ])
    def test_rejects_non_finite_window(self, duration_s, t_start):
        inv = Gen2Inventory(["a"])
        with pytest.raises(ConfigError):
            inv.run_for(duration_s, t_start=t_start)

    def test_population_asked_once_per_round(self):
        starts = []

        def population(t):
            starts.append(t)
            return ["a", "b"]

        inv = Gen2Inventory(["a", "b", "c"], rng=np.random.default_rng(3),
                            population=population)
        events = inv.run_for(1.0)
        assert {k for _, k in events} == {"a", "b"}
        assert len(starts) == len(inv.round_log)
        assert starts[0] == 0.0
        assert starts[1] == inv.round_log[0].duration_s

    def test_default_population_is_every_tag(self):
        keys = [f"t{i}" for i in range(6)]
        default = Gen2Inventory(keys, rng=np.random.default_rng(11))
        explicit = Gen2Inventory(keys, rng=np.random.default_rng(11),
                                 population=lambda t: keys)
        assert default.run_for(2.0) == explicit.run_for(2.0)

    def test_round_log_accumulates(self):
        inv = Gen2Inventory(["a"], rng=np.random.default_rng(9))
        inv.run_for(1.0)
        assert len(inv.round_log) > 10
        for stats in inv.round_log:
            assert stats.duration_s > 0


class TestAnalyticInventory:
    def test_expected_counts_sum_to_slots(self):
        stats = expected_round_stats(10, 4)
        total = stats.expected_singles + stats.expected_empties + stats.expected_collisions
        assert total == pytest.approx(stats.slots, rel=1e-9)

    def test_single_tag_single_slot(self):
        stats = expected_round_stats(1, 0)
        assert stats.expected_singles == 1.0
        assert stats.expected_collisions == 0.0

    def test_two_tags_one_slot_always_collide(self):
        stats = expected_round_stats(2, 0)
        assert stats.expected_singles == 0.0
        assert stats.expected_collisions == 1.0

    def test_optimal_q_grows_with_population(self):
        assert optimal_q(1) <= optimal_q(10) <= optimal_q(100)

    def test_per_tag_rate_monotone_decreasing(self):
        rates = [expected_per_tag_rate(n) for n in (1, 3, 12, 33)]
        assert rates == sorted(rates, reverse=True)

    def test_analytic_matches_simulation_at_frozen_q(self):
        """With Q frozen at the analytic optimum, the event-driven
        simulator reproduces the closed-form throughput."""
        n = 12
        q = optimal_q(n)
        config = Gen2Config(q_initial=q, q_min=q, q_max=q)
        inv = Gen2Inventory([f"t{i}" for i in range(n)], config=config,
                            rng=np.random.default_rng(10))
        sim_rate = len(inv.run_for(20.0)) / 20.0
        stats = expected_round_stats(n, q)
        assert sim_rate == pytest.approx(stats.reads_per_second, rel=0.15)

    def test_adaptive_q_within_factor_of_optimum(self):
        """The Q algorithm oscillates but stays within ~2x of optimal."""
        n = 12
        inv = Gen2Inventory([f"t{i}" for i in range(n)],
                            rng=np.random.default_rng(10))
        sim_rate = len(inv.run_for(20.0)) / 20.0
        analytic = expected_aggregate_read_rate(n)
        assert analytic / 2.5 < sim_rate <= analytic * 1.1

    def test_link_success_scales_rate(self):
        full = expected_aggregate_read_rate(5, link_success=1.0)
        half = expected_aggregate_read_rate(5, link_success=0.5)
        assert half < full

    def test_link_success_validation(self):
        with pytest.raises(ConfigError):
            expected_aggregate_read_rate(5, link_success=1.5)

    def test_nyquist_margin(self):
        # 7 Hz per-tag sampling vs 20 bpm breathing: ample margin.
        assert breathing_nyquist_margin(7.0, 20.0) == pytest.approx(10.5)

    def test_nyquist_margin_validation(self):
        with pytest.raises(ConfigError):
            breathing_nyquist_margin(7.0, 0.0)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=8))
    @settings(max_examples=40)
    def test_expected_counts_nonnegative(self, n, q):
        stats = expected_round_stats(n, q)
        assert stats.expected_singles >= 0
        assert stats.expected_empties >= 0
        assert stats.expected_collisions >= 0
        assert stats.expected_duration_s > 0
