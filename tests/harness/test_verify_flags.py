"""Verification/fault flags: CLI parsing and config threading."""
from repro.harness.cli import _build_parser, main
from repro.harness.experiment import WATCHDOG_INTERVAL, experiment_config
from repro.harness.options import RunOptions


class TestParser:
    def test_defaults(self):
        args = _build_parser().parse_args(["table1"])
        assert args.check_invariants is True
        assert args.fault_rate == 0.0
        assert args.fault_seed == 1

    def test_no_check_invariants(self):
        args = _build_parser().parse_args(["table1", "--no-check-invariants"])
        assert args.check_invariants is False

    def test_fault_flags(self):
        args = _build_parser().parse_args(
            ["fig8", "--fault-rate", "25.5", "--fault-seed", "7"]
        )
        assert args.fault_rate == 25.5
        assert args.fault_seed == 7


class TestConfigThreading:
    def test_experiment_config_defaults(self):
        cfg = experiment_config(d_distance=4)
        assert cfg.verify.check_invariants is True
        assert cfg.verify.watchdog_interval == WATCHDOG_INTERVAL
        assert not cfg.faults.active

    def test_experiment_config_faults(self):
        cfg = experiment_config(
            d_distance=0,
            options=RunOptions(check_invariants=False, fault_rate=50.0,
                               fault_seed=9, fault_policy="log"),
        )
        assert cfg.verify.check_invariants is False
        assert cfg.faults.cache_rate == 50.0
        assert cfg.faults.seed == 9
        assert cfg.faults.policy == "log"
        assert cfg.faults.active


def test_negative_fault_rate_rejected(capsys):
    import pytest
    with pytest.raises(SystemExit):
        main(["table1", "--fault-rate", "-5"])
    assert "--fault-rate must be >= 0" in capsys.readouterr().err


def test_cli_runs_with_flags(capsys):
    assert main(["table1", "--no-check-invariants", "--fault-rate", "0"]) == 0
    assert "Table 1" in capsys.readouterr().out
