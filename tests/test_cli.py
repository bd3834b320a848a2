"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.users == 1
        assert args.distance == 3.0
        assert args.duration == 60.0

    def test_record_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["record"])

    def test_faults_defaults(self):
        # None (not 0.0): an explicit ``--drop 0`` must be distinguishable
        # from an absent flag, so zero severities are honoured as no-ops.
        args = build_parser().parse_args(["faults"])
        assert args.drop is None
        assert args.bursty_drop is None
        assert args.fault_seed == 0

    def test_faults_bad_severity_fails_before_simulation(self, capsys):
        assert main(["faults", "--bursty-drop", "1.5"]) == 2
        captured = capsys.readouterr()
        assert "severity must be in [0, 1]" in captured.err
        assert "simulating" not in captured.out

    def test_serve_config_error_is_friendly(self, capsys):
        assert main(["serve", "--window", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: window_s must be")
        assert "serving on" not in captured.out

    def test_serve_worker_bad_join_is_friendly(self, tmp_path, capsys):
        assert main(["serve-worker", "--join", "127.0.0.1:port",
                     "--state-dir", str(tmp_path / "w")]) == 2
        captured = capsys.readouterr()
        assert "error: --join: address '127.0.0.1:port'" in captured.err
        assert "joining" not in captured.out

    def test_faults_explicit_zero_severity_is_noop(self, capsys):
        code = main(["faults", "--duration", "30", "--seed", "3",
                     "--drop", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "severity=0" in out
        # The zero-severity chain is a no-op: the data row shows the same
        # bpm for the clean and the faulted run.
        row = [ln for ln in out.splitlines() if ln.startswith("1 ")][0]
        _, _, clean_bpm, faulted_bpm = row.split()[:4]
        assert clean_bpm == faulted_bpm


class TestCommands:
    def test_regions(self, capsys):
        assert main(["regions"]) == 0
        out = capsys.readouterr().out
        assert "FCC" in out and "ETSI" in out
        assert "hopping" in out

    def test_demo_single_user(self, capsys):
        code = main(["demo", "--duration", "30", "--rate", "12",
                     "--distance", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimate" in out
        assert "bpm" in out
        assert "accuracy" in out

    def test_faults_explicit_chain(self, capsys):
        code = main(["faults", "--duration", "30", "--rate", "12",
                     "--distance", "2", "--seed", "3",
                     "--bursty-drop", "0.3", "--tag-death", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "injected faults" in out
        assert "bursty_drop" in out and "tag_death" in out
        assert "clean bpm" in out and "faulted bpm" in out
        assert "conf" in out

    def test_faults_default_chain(self, capsys):
        code = main(["faults", "--duration", "45", "--distance", "2",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bursty_drop" in out  # the representative default chain

    def test_demo_multi_user(self, capsys):
        code = main(["demo", "--users", "2", "--duration", "30",
                     "--distance", "2", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        # Two user rows with estimates.
        assert out.count("bpm") >= 2

    def test_record_then_analyze(self, tmp_path, capsys):
        trace = tmp_path / "capture.csv"
        assert main(["record", "--duration", "30", "--distance", "2",
                     "--seed", "5", "--out", str(trace)]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "reports over" in out
        assert "bpm" in out

    def test_analyze_custom_cutoff(self, tmp_path, capsys):
        trace = tmp_path / "capture.csv"
        main(["record", "--duration", "30", "--distance", "2",
              "--rate", "18", "--seed", "6", "--out", str(trace)])
        capsys.readouterr()
        assert main(["analyze", str(trace), "--cutoff-hz", "1.0"]) == 0
