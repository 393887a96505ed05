"""Tests for the command-line interface."""
import re

import pytest

from repro.harness.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "[table1:" in out

    def test_table2(self, capsys):
        assert main(["table2", "--threads", "4"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_fig12_small(self, capsys):
        assert main(["fig12", "--threads", "4"]) == 0
        assert "Fig. 12" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_profile_prints_top_functions(self, capsys):
        assert main(["table1", "--profile", "5"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        # pstats writes its report to stderr, sorted by cumulative time
        assert "cumulative" in captured.err
        assert "function calls" in captured.err

    def test_negative_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--profile", "-1"])

    def test_fig10_small_machine(self, capsys):
        assert main(["fig10", "--threads", "4", "--scale", "0.1"]) == 0
        assert "Fig. 10" in capsys.readouterr().out

    def test_backend_batch_runs_the_figure_sweep(self, capsys,
                                                 monkeypatch):
        import repro.harness.batch as batch

        calls = []
        real = batch.batch_fan_out

        def counting(points, **kwargs):
            calls.append(len(points))
            return real(points, **kwargs)
        monkeypatch.setattr(batch, "batch_fan_out", counting)
        assert main(["fig7", "--threads", "4", "--scale", "0.1",
                     "--backend", "batch"]) == 0
        assert calls
        assert "Fig. 7" in capsys.readouterr().out

    @pytest.mark.parametrize("figure,points", [("fig1", 4), ("fig12", 3)])
    def test_store_banner_reports_every_grid_figure(self, capsys, tmp_path,
                                                    figure, points):
        db = str(tmp_path / "sweep.db")
        argv = [figure, "--threads", "2", "--store", db]
        assert main(argv) == 0
        assert (f"[store {db}: 0/{points} hits (0%), {points} committed]"
                in capsys.readouterr().out)
        assert main(argv) == 0
        assert (f"[store {db}: {points}/{points} hits (100%), 0 committed]"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("flags,label", [
        (["--jobs", "1"], "serial"),
        (["--jobs", "2"], "2 worker processes"),
        (["--backend", "batch"], "batch"),
    ])
    def test_prefetch_banner_names_how_the_sweep_ran(self, capsys, flags,
                                                     label):
        assert main(["fig7", "--threads", "2", "--scale", "0.05",
                     *flags]) == 0
        banners = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("[sweep prefetch")]
        assert len(banners) == 1
        # CI strips timing banners from its --jobs diff by this pattern
        assert re.fullmatch(r"\[.*[0-9]s\]", banners[0])
        assert banners[0].startswith(f"[sweep prefetch, {label}: ")

    def test_backend_batch_rejects_jobs(self):
        with pytest.raises(SystemExit):
            main(["fig7", "--backend", "batch", "--jobs", "2"])
