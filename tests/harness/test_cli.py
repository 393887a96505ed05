"""Tests for the command-line interface."""
import json
import re

import pytest

from repro.harness.cli import main
from repro.workloads.base import Workload
from repro.workloads.registry import PAPER_WORKLOADS
from repro.obs.timeline import load_merged


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

    def test_profile_covers_the_simulations(self, capsys):
        # without --jobs a profiled run is serial, so the profile shows
        # the simulations, not a supervisor waiting on worker pipes
        assert main(["fig12", "--threads", "2", "--profile", "30"]) == 0
        assert re.search(r"engine\.py:\d+\(run\)", capsys.readouterr().err)

    @pytest.mark.parametrize("flags,checked", [
        ([], "True"), (["--no-check-invariants"], "False"),
    ])
    def test_worker_runs_keep_invariant_checks(self, monkeypatch, tmp_path,
                                               flags, checked):
        # forked workers inherit the spy; each appends its own line
        log = tmp_path / "checks.txt"
        collect = Workload.collect

        def spy(self, machine, cfg):
            with open(log, "a") as f:
                f.write(f"{cfg.verify.check_invariants}\n")
            return collect(self, machine, cfg)

        monkeypatch.setattr(Workload, "collect", spy)
        assert main(["all", "--threads", "2", "--scale", "0.05",
                     "--jobs", "2", *flags]) == 0
        assert log.read_text().split() == [checked] * 25

    def test_negative_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--profile", "-1"])

    def test_zero_threads_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--threads", "0"])

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
        # the banner of the one grid every figure's points run in
        banners = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("[grid")]
        assert len(banners) == 1
        # CI strips timing banners from its --jobs diff by this pattern
        assert re.fullmatch(r"\[.*[0-9]s\]", banners[0])
        assert banners[0].startswith(f"[grid of 12 runs, {label}: ")

    def test_backend_batch_rejects_jobs(self):
        with pytest.raises(SystemExit):
            main(["fig7", "--backend", "batch", "--jobs", "2"])

    @pytest.mark.parametrize("figure,labels", [
        ("fig12", [f"fig12.gi_timeout={t}" for t in (128, 512, 1024)]),
        ("fig1", [f"fig1.{w}.threads={t}"
                  for w in ("bad_dot_product", "private_dot_product")
                  for t in (1, 2)]),
        ("fig2", [f"fig2.{app}" for app in PAPER_WORKLOADS]),
    ])
    def test_trace_out_exports_every_traced_run(self, capsys, tmp_path,
                                                figure, labels):
        # figures that run their own grid (not the shared sweep) export
        # each traced run, labelled figure.point
        out = tmp_path / "trace"
        assert main([figure, "--threads", "2", "--scale", "0.05",
                     "--trace-events", "--trace-out", str(out)]) == 0
        runs = [json.loads(line)["run"] for line in
                (out / "events.jsonl").read_text().splitlines()]
        assert list(dict.fromkeys(runs)) == labels
        assert list(load_merged(out / "timeline.npz")) == labels
        report = (out / "report.txt").read_text()
        assert all(f"=== {label} ===" in report for label in labels)
        assert "[trace: " in capsys.readouterr().out

    def test_trace_bundle_identical_across_jobs(self, tmp_path):
        bundles = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["fig12", "--threads", "2", "--jobs", jobs,
                         "--trace-events", "--trace-out", str(out)]) == 0
            bundles.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert set(bundles[0]) == {"events.jsonl", "timeline.npz",
                                   "report.txt"}
        assert bundles[0] == bundles[1]
