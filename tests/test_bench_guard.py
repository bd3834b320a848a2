"""Tests for tools/check_bench_regression.py (the CI perf guard)."""

import importlib.util
import json
from pathlib import Path


_TOOL = Path(__file__).resolve().parent.parent / "tools" \
    / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression",
                                               _TOOL)
guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(guard)


def bench_doc(cases, fabric_cases=None, wire=None, idle=None):
    doc = {"suite": "pipeline", "streaming": {"cases": cases}}
    doc["fabric_scale"] = {"cases": [fabric_case()]
                           if fabric_cases is None else fabric_cases}
    doc["wire"] = wire_suite() if wire is None else wire
    doc["idle"] = idle_suite() if idle is None else idle
    return doc


def case(users, duration_s, tick_cost, diff=0.0, batch_cost=1.5,
         batch_state_equal=True, batch_diff=0.0, serve_speedup=2.0,
         serve_state_equal=True):
    return {"users": users, "duration_s": duration_s,
            "tick_cost_kernels": tick_cost, "max_rate_diff_bpm": diff,
            "feed_batch_cost_kernels": batch_cost,
            "batch_state_equal": batch_state_equal,
            "batch_max_rate_diff_bpm": batch_diff,
            "serve_staging_speedup": serve_speedup,
            "serve_state_equal": serve_state_equal}


def wire_suite(bytes_per_report=56.1, acked_equal_sent=True):
    return {"cases": [{"mode": "column"}],
            "headline": {"column_bytes_per_report": bytes_per_report,
                         "acked_equal_sent": acked_equal_sent}}


def idle_suite(registered=20_000, ratio=200.0, wake_verified=True,
               wake_p99_ms=2.0, ceiling=1.01, bytes_per_active=None,
               blob_bytes_per_report=24.7):
    if bytes_per_active is None:
        bytes_per_active = 2600.0 * ratio
    return {"steady_state": {"blob_bytes_per_report": blob_bytes_per_report},
            "headline": {"registered_users": registered,
                         "active_users": registered // 100,
                         "bytes_per_idle_user": 2600.0,
                         "bytes_per_active_user": bytes_per_active,
                         "idle_active_ratio": ratio,
                         "wake_p99_ms": wake_p99_ms,
                         "wake_verified": wake_verified,
                         "soak_ceiling_ratio": ceiling}}


def fabric_case(users=100, settled=None, migrated=7, restarts=0,
                workers_initial=4, workers_final=5,
                acked_equal_sent=True, users_per_machine=None):
    settled = users if settled is None else settled
    return {"users": users,
            "settled_sessions": settled,
            "migrated_sessions": migrated,
            "worker_restarts": restarts,
            "workers_initial": workers_initial,
            "workers_final": workers_final,
            "acked_equal_sent": acked_equal_sent,
            "users_per_machine": (settled / workers_final
                                  if users_per_machine is None
                                  else users_per_machine)}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


#: A tick cost well under every ceiling.
CHEAP = 2.0

#: The retired recompute tick's median cost in reference-kernel runs
#: (16 runs on the last commit that had it; see TICK_COST_CEILINGS).
RECOMPUTE_1U = 30.53
RECOMPUTE_5U = 21.45

#: The retired per-report feed's lowest cost in reference-kernel runs
#: per 1,000 reports (runs on the last commit that had it; see
#: FEED_BATCH_COST_CEILINGS).
PER_REPORT_FEED_1U = 16.4
PER_REPORT_FEED_5U = 35.0


class TestCompare:
    def test_passes_within_threshold(self):
        ceiling = guard.TICK_COST_CEILINGS[(1, 25.0)]
        base = {(1, 25.0): case(1, 25.0, CHEAP)}
        cand = {(1, 25.0): case(1, 25.0, ceiling)}
        assert guard.compare(base, cand) == []

    def test_fails_beyond_threshold(self):
        ceiling = guard.TICK_COST_CEILINGS[(5, 25.0)]
        base = {(5, 25.0): case(5, 25.0, CHEAP)}
        cand = {(5, 25.0): case(5, 25.0, ceiling * 1.01)}
        problems = guard.compare(base, cand)
        assert len(problems) == 1
        assert "tick_cost_kernels" in problems[0]

    def test_ceilings_no_looser_than_old_ratio_floors(self):
        """Each ceiling lies below the retired floor's tick cost: the
        recompute tick's cost in kernel runs (measured on the commit
        that retired it) over 0.75x the committed tick_speedup."""
        retired = {(1, 25.0): (RECOMPUTE_1U, 2.09517258744157),
                   (5, 25.0): (RECOMPUTE_5U, 1.7104812271779573)}
        assert set(guard.TICK_COST_CEILINGS) == set(retired)
        for key, (recompute, speedup) in retired.items():
            assert guard.TICK_COST_CEILINGS[key] <= recompute / (
                0.75 * speedup)

    def test_missing_tick_cost_fails(self):
        cand_case = case(1, 25.0, CHEAP)
        del cand_case["tick_cost_kernels"]
        problems = guard.compare({(1, 25.0): case(1, 25.0, CHEAP)},
                                 {(1, 25.0): cand_case})
        assert any("no tick_cost_kernels" in p for p in problems)

    def test_only_shared_cases_compared(self):
        base = {(1, 25.0): case(1, 25.0, CHEAP),
                (15, 120.0): case(15, 120.0, CHEAP)}
        cand = {(1, 25.0): case(1, 25.0, CHEAP)}
        assert guard.compare(base, cand) == []

    def test_full_grid_case_has_no_ceiling(self):
        base = {(15, 120.0): case(15, 120.0, CHEAP)}
        cand = {(15, 120.0): case(15, 120.0, 1e6)}
        assert guard.compare(base, cand) == []

    def test_no_shared_cases_is_an_error(self):
        base = {(15, 120.0): case(15, 120.0, CHEAP)}
        cand = {(1, 25.0): case(1, 25.0, CHEAP)}
        assert guard.compare(base, cand) != []

    def test_nonzero_rate_diff_fails(self):
        base = {(1, 25.0): case(1, 25.0, CHEAP)}
        cand = {(1, 25.0): case(1, 25.0, CHEAP, diff=0.3)}
        problems = guard.compare(base, cand)
        assert any("diverged" in p for p in problems)

    def test_batch_cost_over_ceiling_fails(self):
        for key, ceiling in guard.FEED_BATCH_COST_CEILINGS.items():
            base = {key: case(*key, CHEAP)}
            assert guard.compare(base, {key: case(
                *key, CHEAP, batch_cost=ceiling)}) == []
            problems = guard.compare(base, {key: case(
                *key, CHEAP, batch_cost=ceiling * 1.01)})
            assert len(problems) == 1
            assert "feed_batch_cost_kernels" in problems[0]

    def test_batch_cost_ceilings_no_looser_than_old_speedup_floor(self):
        """Each ceiling lies at or below the retired 4.0x floor's chunked
        feed cost: the per-report feed's cost in kernel runs per 1,000
        reports (lowest of the runs measured on the commit that
        retired it) over 4.0."""
        retired = {(1, 25.0): PER_REPORT_FEED_1U,
                   (5, 25.0): PER_REPORT_FEED_5U}
        assert set(guard.FEED_BATCH_COST_CEILINGS) == set(retired)
        for key, per_report in retired.items():
            assert guard.FEED_BATCH_COST_CEILINGS[key] <= per_report / 4.0

    def test_batch_cost_ceiling_skips_full_grid_case(self):
        base = {(15, 120.0): case(15, 120.0, CHEAP)}
        cand = {(15, 120.0): case(15, 120.0, CHEAP, batch_cost=1e6)}
        assert guard.compare(base, cand) == []

    def test_missing_batch_measurement_fails(self):
        base = {(1, 25.0): case(1, 25.0, CHEAP)}
        cand_case = case(1, 25.0, CHEAP)
        del cand_case["feed_batch_cost_kernels"]
        problems = guard.compare(base, {(1, 25.0): cand_case})
        assert any("no feed_batch_cost_kernels" in p for p in problems)

    def test_batch_state_mismatch_fails(self):
        base = {(1, 25.0): case(1, 25.0, CHEAP)}
        cand = {(1, 25.0): case(1, 25.0, CHEAP, batch_state_equal=False)}
        problems = guard.compare(base, cand)
        assert any("state" in p for p in problems)

    def test_batch_rate_divergence_fails(self):
        base = {(1, 25.0): case(1, 25.0, CHEAP)}
        cand = {(1, 25.0): case(1, 25.0, CHEAP, batch_diff=0.2)}
        problems = guard.compare(base, cand)
        assert any("batch" in p and "diverge" in p for p in problems)

    def test_serve_speedup_below_floor_fails(self):
        base = {(5, 25.0): case(5, 25.0, CHEAP)}
        cand = {(5, 25.0): case(5, 25.0, CHEAP, serve_speedup=1.0)}
        problems = guard.compare(base, cand)
        assert len(problems) == 1
        assert "serve_staging_speedup" in problems[0]

    def test_serve_speedup_floor_skips_low_rate_full_grid_case(self):
        base = {(15, 120.0): case(15, 120.0, CHEAP)}
        cand = {(15, 120.0): case(15, 120.0, CHEAP, serve_speedup=1.0)}
        assert guard.compare(base, cand) == []

    def test_missing_serve_measurement_fails(self):
        base = {(1, 25.0): case(1, 25.0, CHEAP)}
        cand_case = case(1, 25.0, CHEAP)
        del cand_case["serve_staging_speedup"]
        problems = guard.compare(base, {(1, 25.0): cand_case})
        assert any("no serve_staging_speedup" in p for p in problems)

    def test_serve_state_mismatch_fails(self):
        base = {(15, 120.0): case(15, 120.0, CHEAP)}
        cand = {(15, 120.0): case(15, 120.0, CHEAP, serve_state_equal=False)}
        problems = guard.compare(base, cand)
        assert any("serve_state_equal" in p for p in problems)


class TestFabricSuite:
    """check_fabric_suite: candidate-only count invariants, no baseline."""

    def test_clean_soak_passes(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc([case(1, 25.0, CHEAP)]))
        assert guard.check_fabric_suite(path) == []

    def test_missing_suite_is_a_failure(self, tmp_path):
        doc = bench_doc([case(1, 25.0, CHEAP)])
        del doc["fabric_scale"]
        path = write(tmp_path, "cand.json", doc)
        assert any("no fabric_scale soak suite" in p
                   for p in guard.check_fabric_suite(path))

    def test_legacy_fabric_key_is_not_accepted(self, tmp_path):
        doc = bench_doc([case(1, 25.0, CHEAP)])
        doc["fabric"] = doc.pop("fabric_scale")
        path = write(tmp_path, "cand.json", doc)
        assert any("no fabric_scale soak suite" in p
                   for p in guard.check_fabric_suite(path))

    def test_ack_mismatch_fails(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], [fabric_case(acked_equal_sent=False)]))
        assert any("acked != sent" in p
                   for p in guard.check_fabric_suite(path))

    def test_missing_per_machine_capacity_fails(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], [fabric_case(users_per_machine=0.0)]))
        assert any("users_per_machine" in p
                   for p in guard.check_fabric_suite(path))

    def test_lost_sessions_fail(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], [fabric_case(users=100, settled=99)]))
        assert any("settled 99" in p for p in guard.check_fabric_suite(path))

    def test_rebalance_must_move_sessions(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], [fabric_case(migrated=0)]))
        assert any("moved 0 sessions" in p
                   for p in guard.check_fabric_suite(path))

    def test_fault_free_soak_must_not_restart_workers(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], [fabric_case(restarts=2)]))
        assert any("restart" in p for p in guard.check_fabric_suite(path))

    def test_worker_count_must_grow(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)],
            [fabric_case(workers_initial=4, workers_final=4)]))
        assert any("no rebalance happened" in p
                   for p in guard.check_fabric_suite(path))


class TestWireSuite:
    """check_wire_suite: format-property invariants, no baseline."""

    def test_clean_suite_passes(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc([case(1, 25.0, CHEAP)]))
        assert guard.check_wire_suite(path) == []

    def test_missing_suite_is_a_failure(self, tmp_path):
        doc = bench_doc([case(1, 25.0, CHEAP)])
        del doc["wire"]
        path = write(tmp_path, "cand.json", doc)
        assert any("no wire benchmark suite" in p
                   for p in guard.check_wire_suite(path))

    def test_bytes_per_report_over_ceiling_fails(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], wire=wire_suite(bytes_per_report=61.0)))
        assert any("bytes per report" in p
                   for p in guard.check_wire_suite(path))

    def test_missing_bytes_per_report_fails(self, tmp_path):
        wire = wire_suite()
        del wire["headline"]["column_bytes_per_report"]
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], wire=wire))
        assert any("bytes per report" in p
                   for p in guard.check_wire_suite(path))

    def test_ack_mismatch_fails(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], wire=wire_suite(acked_equal_sent=False)))
        assert any("acked != sent" in p
                   for p in guard.check_wire_suite(path))


class TestIdleSuite:
    """check_idle_suite: same-run ratios and counts, no baseline."""

    def test_clean_suite_passes(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc([case(1, 25.0, CHEAP)]))
        assert guard.check_idle_suite(path) == []

    def test_missing_suite_is_a_failure(self, tmp_path):
        doc = bench_doc([case(1, 25.0, CHEAP)])
        del doc["idle"]
        path = write(tmp_path, "cand.json", doc)
        assert any("no idle economics suite" in p
                   for p in guard.check_idle_suite(path))

    def test_population_floor(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle=idle_suite(registered=500)))
        assert any("registered users" in p
                   for p in guard.check_idle_suite(path))

    def test_low_idle_active_ratio_fails(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle=idle_suite(ratio=6.0)))
        assert any("ratio 6.0x" in p for p in guard.check_idle_suite(path))

    def test_costly_active_user_fails(self, tmp_path):
        # The quick figure while per-stream report buffers duplicated
        # the window index: a higher idle/active ratio, yet too costly.
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)],
            idle=idle_suite(ratio=467.0, bytes_per_active=1_044_428.0)))
        assert any("bytes_per_active_user" in p
                   for p in guard.check_idle_suite(path))

    def test_missing_active_bytes_fails(self, tmp_path):
        idle = idle_suite()
        del idle["headline"]["bytes_per_active_user"]
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle=idle))
        assert any("bytes_per_active_user" in p
                   for p in guard.check_idle_suite(path))

    def test_bigger_parked_blob_fails(self, tmp_path):
        # The base64 JSON blob deflated at level 6 measured 25.65 B a
        # report; a blob past 1.10x the raw level-1 figure fails.
        path = write(tmp_path, "c.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle=idle_suite(
                blob_bytes_per_report=27.5)))
        assert any("blob_bytes_per_report" in p
                   for p in guard.check_idle_suite(path))

    def test_missing_blob_bytes_per_report_fails(self, tmp_path):
        idle = idle_suite()
        del idle["steady_state"]
        path = write(tmp_path, "c.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle=idle))
        assert any("blob_bytes_per_report" in p
                   for p in guard.check_idle_suite(path))

    def test_unverified_wake_fails(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle=idle_suite(wake_verified=False)))
        assert any("bit-exact" in p for p in guard.check_idle_suite(path))

    def test_slow_wake_fails(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle=idle_suite(wake_p99_ms=400.0)))
        assert any("wake p99" in p for p in guard.check_idle_suite(path))

    def test_growing_memory_ceiling_fails(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle=idle_suite(ceiling=2.4)))
        assert any("ceiling ratio" in p
                   for p in guard.check_idle_suite(path))

    def test_missing_fields_fail_not_pass(self, tmp_path):
        path = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle={"headline": {"quick": True}}))
        assert len(guard.check_idle_suite(path)) >= 4


def simulation_doc(overhead=0.03, grid=True):
    """The committed BENCH_simulation.json with its overhead replaced."""
    doc = json.loads((_TOOL.parent.parent / "BENCH_simulation.json")
                     .read_text())
    doc["observability"] = {"users": 5, "duration_s": 25.0,
                            "overhead_fraction": overhead}
    if overhead is None:
        del doc["observability"]["overhead_fraction"]
    if not grid:
        doc = {"scenarios": doc["scenarios"]}
    return doc


class TestObsOverhead:
    def test_within_budget_passes(self, tmp_path):
        path = write(tmp_path, "sim.json", simulation_doc(0.049))
        assert guard.check_obs_overhead(path) == []

    def test_over_budget_fails(self, tmp_path):
        path = write(tmp_path, "sim.json", simulation_doc(0.051))
        [problem] = guard.check_obs_overhead(path)
        assert "5.1%" in problem

    def test_missing_figure_fails_not_passes(self, tmp_path):
        path = write(tmp_path, "sim.json", simulation_doc(None))
        assert guard.check_obs_overhead(path)
        doc = simulation_doc()
        del doc["observability"]
        path = write(tmp_path, "sim.json", doc)
        assert guard.check_obs_overhead(path)

    def test_scenario_only_file_has_no_figure_to_gate(self, tmp_path):
        path = write(tmp_path, "sim.json", simulation_doc(None, grid=False))
        assert guard.check_obs_overhead(path) == []

    def test_gated_through_simulation_flag(self, tmp_path, capsys):
        ok = write(tmp_path, "ok.json", simulation_doc(0.03))
        assert guard.main(["--simulation", str(ok)]) == 0
        assert "tracing-overhead budget hold" in capsys.readouterr().out
        bad = write(tmp_path, "bad.json", simulation_doc(0.08))
        assert guard.main(["--simulation", str(bad)]) == 1


class TestMain:
    def test_end_to_end_pass(self, tmp_path, capsys):
        base = write(tmp_path, "base.json",
                     bench_doc([case(1, 25.0, CHEAP), case(5, 25.0, CHEAP)]))
        cand = write(tmp_path, "cand.json",
                     bench_doc([case(1, 25.0, CHEAP)]))
        assert guard.main(["--baseline", str(base),
                           "--candidate", str(cand)]) == 0
        assert "1 shared case(s)" in capsys.readouterr().out

    def test_end_to_end_regression(self, tmp_path):
        base = write(tmp_path, "base.json", bench_doc([case(1, 25.0, CHEAP)]))
        cand = write(tmp_path, "cand.json", bench_doc([case(1, 25.0, 100.0)]))
        assert guard.main(["--baseline", str(base),
                           "--candidate", str(cand)]) == 1

    def test_fabric_violation_fails_end_to_end(self, tmp_path):
        base = write(tmp_path, "base.json", bench_doc([case(1, 25.0, CHEAP)]))
        cand = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], [fabric_case(users=100, settled=98)]))
        assert guard.main(["--baseline", str(base),
                           "--candidate", str(cand)]) == 1

    def test_idle_violation_fails_end_to_end(self, tmp_path):
        base = write(tmp_path, "base.json", bench_doc([case(1, 25.0, CHEAP)]))
        cand = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], idle=idle_suite(ratio=3.0)))
        assert guard.main(["--baseline", str(base),
                           "--candidate", str(cand)]) == 1

    def test_missing_streaming_suite_fails(self, tmp_path):
        base = write(tmp_path, "base.json", {"suite": "pipeline"})
        cand = write(tmp_path, "cand.json", bench_doc([case(1, 25.0, CHEAP)]))
        assert guard.main(["--baseline", str(base),
                           "--candidate", str(cand)]) == 1

    def test_missing_file_fails_cleanly(self, tmp_path):
        base = write(tmp_path, "base.json", bench_doc([case(1, 25.0, CHEAP)]))
        assert guard.main(["--baseline", str(base),
                           "--candidate", str(tmp_path / "nope.json")]) == 1

    def test_fabric_only_pass(self, tmp_path, capsys):
        cand = write(tmp_path, "cand.json", bench_doc([case(1, 25.0, CHEAP)]))
        assert guard.main(["--fabric", str(cand)]) == 0
        assert "fabric_scale soak invariants hold" in capsys.readouterr().out

    def test_fabric_only_violation_fails(self, tmp_path):
        cand = write(tmp_path, "cand.json", bench_doc(
            [case(1, 25.0, CHEAP)], [fabric_case(acked_equal_sent=False)]))
        assert guard.main(["--fabric", str(cand)]) == 1

    def test_no_inputs_rejected(self):
        assert guard.main([]) == 2
