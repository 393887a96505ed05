"""Fault-sweep driver: table structure and fault-free baseline."""
import pytest

from repro.faults.sweep import FaultSweepResult, fault_sweep, main


def test_sweep_table_shape_and_baseline():
    result = fault_sweep(
        "histogram", num_threads=2, scale=0.05, rates=(0.0, 2000.0),
    )
    assert isinstance(result, FaultSweepResult)
    # fault-free row: every configuration reproduces the exact output
    for label in ("mesi", "gw d=4", "gw d=8"):
        error, crashes, runs = result.cells[(0.0, label)]
        assert error == 0.0 and crashes == 0 and runs == 1
    # every (rate, config) cell is present and accounted for
    assert len(result.cells) == 2 * 3
    text = result.render()
    assert "flips/Mcycle" in text
    assert "mesi" in text and "gw d=4" in text and "gw d=8" in text
    assert "histogram" in text and "MPE" in text


def test_faulty_cells_record_error_or_crash():
    result = fault_sweep(
        "histogram", num_threads=2, scale=0.05, rates=(5000.0,),
    )
    for label in ("mesi", "gw d=4", "gw d=8"):
        error, crashes, runs = result.cells[(5000.0, label)]
        # at this rate something must have happened: either the output
        # degraded or the run crashed on corrupted control data
        assert crashes > 0 or error is not None
        assert runs == 1


def test_unknown_workload_rejected_up_front():
    # must not be silently tallied as per-run "crash" cells
    with pytest.raises(KeyError, match="unknown workload 'nonesuch'"):
        fault_sweep("nonesuch", rates=(0.0,))
    with pytest.raises(SystemExit):
        main(["--workload", "nonesuch", "--rates", "0"])


def test_cli_prints_table(capsys):
    rc = main(["--threads", "2", "--scale", "0.05", "--rates", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "flips/Mcycle" in out


@pytest.mark.parametrize("flag, value", [
    ("--jobs", "0"), ("--retries", "-1"), ("--point-timeout", "-1"),
    ("--seeds-per-cell", "0"), ("--threads", "0"), ("--rates", "-1"),
    ("--scale", "0"),
])
def test_bad_values_are_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "--scale", "0.05", "--rates", "0",
              flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be" in capsys.readouterr().err
