"""Tests for the chaos harness (repro.serve.chaos).

One short seeded experiment through the real multi-process fabric:
faults are injected, the recovery must be *observed* (worker restarts
in the report), and the streamed-equals-batch invariant must hold.
Kept deliberately small — the CI ``chaos-smoke`` job runs the larger
configuration — but this is a real fault-injection run, not a mock.
"""

import random

import numpy as np
import pytest

from repro.errors import CheckpointCorruptError
from repro.serve import (
    CHECKPOINT_MAGIC,
    ChaosConfig,
    ChaosReport,
    SessionConfig,
    UserSession,
    load_checkpoint,
    run_chaos,
    save_checkpoint,
)
from repro.reader.batch import ReportBatch
from repro.serve.chaos import _corrupt_file


class TestChaosReport:
    def test_summary_lines_cover_verdict_and_notes(self):
        report = ChaosReport(users=2, reports=100, kills=1,
                             restarts_observed=1, compared_users=2,
                             max_delta_bpm=0.0, ok=True)
        lines = report.summary_lines()
        assert any("verdict: OK" in line for line in lines)
        report.ok = False
        report.notes.append("something broke")
        lines = report.summary_lines()
        assert any("verdict: FAILED" in line for line in lines)
        assert any("something broke" in line for line in lines)


class TestCorruptFile:
    def _checkpoint(self, path):
        n = 50
        session = UserSession(1, SessionConfig())
        session.ingest_batch(ReportBatch(
            np.arange(n) * 0.1, np.linspace(0.0, 6.0, n), np.full(n, -50.0),
            np.zeros(n), np.zeros(n, dtype=np.int64),
            np.ones(n, dtype=np.int64), np.ones(n, dtype=np.uint64),
            np.zeros(n, dtype=np.uint64)))
        save_checkpoint(path, [session.state()], {"frames_total": 1})
        return path.read_bytes()

    def test_every_mode_leaves_a_corrupt_checkpoint(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        seen = set()
        for seed in range(12):
            data = self._checkpoint(path)
            mode = _corrupt_file(path, random.Random(seed))
            seen.add(mode)
            damaged = path.read_bytes()
            if mode == "flip":
                # One bit, past the magic and version byte.
                diff = [i for i, (a, b) in enumerate(zip(data, damaged))
                        if a != b]
                assert len(damaged) == len(data) and len(diff) == 1
                assert diff[0] > len(CHECKPOINT_MAGIC)
                assert bin(data[diff[0]] ^ damaged[diff[0]]).count("1") == 1
            with pytest.raises(CheckpointCorruptError):
                load_checkpoint(path, allow_fallback=False)
        assert seen == {"truncate", "scribble", "flip"}

    def test_missing_file_is_left_alone(self, tmp_path):
        assert _corrupt_file(tmp_path / "absent.ckpt",
                             random.Random(0)) is None


class TestChaosRun:
    def test_seeded_chaos_run_recovers_and_matches_batch(self, tmp_path):
        config = ChaosConfig(users=2, duration_s=30.0, seed=5,
                             workers=2, kills=1, stalls=0, corruptions=1,
                             fault_interval_s=1.5, speed=5.0)
        report = run_chaos(config, state_dir=tmp_path)
        assert report.ok, "\n".join(report.summary_lines())
        # Faults landed and the recovery is visible, not assumed:
        assert report.kills + report.corruptions >= 1
        assert report.restarts_observed >= 1
        # The invariant held for every subject:
        assert report.compared_users == config.users
        assert not report.missing_users
        assert report.max_delta_bpm <= config.tolerance_bpm

    def test_router_kill_fails_over_to_standby_and_matches_batch(
            self, tmp_path):
        """Acceptance: SIGKILL the active router mid-replay; the warm
        standby must promote, the client must reconnect through it, and
        streamed estimates must still match batch within tolerance."""
        config = ChaosConfig(users=2, duration_s=30.0, seed=11,
                             workers=2, router_kill=True,
                             fault_interval_s=1.5, speed=5.0)
        report = run_chaos(config, state_dir=tmp_path)
        assert report.ok, "\n".join(report.summary_lines())
        # The fault landed and the failover is visible, not assumed:
        assert report.router_kills == 1
        assert report.failovers >= 1
        assert report.retries >= 1  # the client actually reconnected
        # The invariant held for every subject across the failover:
        assert report.compared_users == config.users
        assert not report.missing_users
        assert report.max_delta_bpm <= config.tolerance_bpm
