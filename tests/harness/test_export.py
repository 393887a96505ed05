"""Tests for figure data export."""
import csv
import json

import pytest

from repro.harness import figures as F
from repro.harness.cli import _ALL, _EXTRA_FIGS
from repro.harness.export import export_result, records_for, write_csv


class TestRecords:
    def test_table1_records(self):
        recs = records_for("table1", F.table1())
        assert recs[0]["Parameter"] == "Cores"
        assert "24 in-order cores" in recs[0]["Values"]

    def test_fig1_records(self):
        res = F.fig1(thread_counts=(1, 2), n_points=128, seed=1)
        recs = records_for("fig1", res)
        assert recs[0] == {
            "threads": 1, "naive_speedup": 1.0, "private_speedup": 1.0,
        }

    def test_fig12_records(self):
        res = F.fig12(timeouts=(128,), num_threads=4, n_points=128, seed=1)
        recs = records_for("fig12", res)
        assert recs[0]["timeout_cycles"] == 128
        assert set(recs[0]) == {"timeout_cycles", "gi_serviced_pct",
                                "error_mpe_pct"}

    def test_topology_records(self):
        res = F.fig_topology(("mesh", "ring"), (4,), n_points=128, seed=1)
        recs = records_for("topology", res)
        assert [(r["topology"], r["cores"]) for r in recs] == [
            ("mesh", 4), ("ring", 4)]
        assert list(recs[0]) == [
            "topology", "cores", "dir_hops", "cycles", "gs_serviced_pct",
            "gi_serviced_pct", "gi_flashes_per_kcycle", "flit_hops",
            "hops_per_flit", "error_pct"]
        assert recs[0]["cycles"] == res.rows[0].cycles

    @pytest.mark.parametrize("name", _ALL + _EXTRA_FIGS)
    def test_every_cli_figure_has_an_exporter(self, name):
        """An exporter reads its result; only a missing one raises
        ``KeyError`` before it does."""
        class Reached(Exception):
            pass

        class Probe:
            def __getattr__(self, attr):
                raise Reached(attr)

        with pytest.raises(Reached):
            records_for(name, Probe())

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            records_for("fig99", None)


class TestFiles:
    def test_roundtrip_csv_json(self, tmp_path):
        res = F.table2(4)
        paths = export_result("table2", res, tmp_path)
        assert [p.name for p in paths] == ["table2.csv", "table2.json"]
        with open(paths[0]) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["Application"] == "histogram"
        with open(paths[1]) as fh:
            data = json.load(fh)
        assert len(data) == len(rows)

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "x.csv")

    def test_cli_out_flag(self, tmp_path, capsys):
        from repro.harness.cli import main
        assert main(["table1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
        assert "exported" in capsys.readouterr().out
