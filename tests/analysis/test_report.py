"""Tests for the text-report helpers."""
import pytest

from repro.analysis.report import format_table, run_summary, traffic_summary
from repro.isa.instructions import Compute, Load, Store

from tests.conftest import build_machine, run_scripts

BLK = 0x4000


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "long_header"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        # columns aligned: header rule as wide as widest cell
        assert len(lines[1].split()[0]) == 3  # "333"

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out


class TestSummaries:
    def _machine(self):
        m = build_machine(2, d_distance=0)

        def a():
            yield Store(BLK, 1)
            yield Load(BLK)

        def b():
            yield Compute(100)
            yield Load(BLK)

        run_scripts(m, a(), b())
        return m

    def test_run_summary_fields(self):
        out = run_summary(self._machine())
        assert "cycles" in out
        assert "L1 accesses" in out
        assert "miss rate" in out
        assert "NoC messages" in out

    def test_traffic_summary_adds_up(self):
        m = self._machine()
        out = traffic_summary(m)
        assert "GETS" in out and "total" in out
        total_line = [l for l in out.splitlines() if l.startswith("total")][0]
        assert str(m.network.stats.messages) in total_line
