"""Tests for the per-figure drivers (small machines, fast settings)."""
import numpy as np
import pytest

from repro.common.types import MessageClass
from repro.harness import figures as F
from repro.harness.experiment import run_workload
from repro.harness.options import RunOptions
from repro.workloads.base import Workload

THREADS = 6
SCALE = 0.12


@pytest.fixture(scope="module")
def cache():
    c = F.SweepCache(num_threads=THREADS, scale=SCALE, seed=99)
    return c


@pytest.fixture
def collected(monkeypatch):
    """(check_invariants, policy base) of every run that reaches
    ``Workload.collect``."""
    seen = []
    collect = Workload.collect

    def spy(self, machine, cfg):
        seen.append((cfg.verify.check_invariants, machine.policy.base))
        return collect(self, machine, cfg)

    monkeypatch.setattr(Workload, "collect", spy)
    return seen


class TestTables:
    def test_table1_renders(self):
        out = F.table1().render()
        assert "Table 1" in out
        assert "24 in-order cores" in out

    def test_table2_renders(self):
        out = F.table2(THREADS).render()
        assert "Table 2" in out
        assert "jpeg" in out


class TestSweepCache:
    def test_memoizes(self, cache):
        r1 = cache.row("pca", 0)
        r2 = cache.row("pca", 0)
        assert r1 is r2

    def test_distinct_settings_distinct_rows(self, cache):
        assert cache.row("pca", 0) is not cache.row("pca", 8)


class TestFig1:
    def test_speedups_relative_to_first(self):
        res = F.fig1(thread_counts=(1, 2, 4), n_points=512, seed=5)
        assert res.naive_speedup[0] == pytest.approx(1.0)
        assert res.private_speedup[0] == pytest.approx(1.0)
        assert res.private_speedup[-1] > 1.2
        assert "Fig. 1" in res.render()

    def test_topology_option_shapes_the_machine(self):
        ring = RunOptions(topology="ring")
        res = F.fig1(thread_counts=(1, 4), n_points=512, seed=5, options=ring)

        def cycles(name, threads, **kw):
            return run_workload(name, d_distance=0, num_threads=threads,
                                scale=1.0, seed=5, n_points=512,
                                options=ring, **kw).cycles

        naive = [cycles("bad_dot_product", t, approximate=False)
                 for t in (1, 4)]
        private = [cycles("private_dot_product", t) for t in (1, 4)]
        assert res.naive_speedup == [1.0, naive[0] / naive[1]]
        assert res.private_speedup == [1.0, private[0] / private[1]]
        mesh = F.fig1(thread_counts=(1, 4), n_points=512, seed=5)
        assert mesh.naive_speedup != res.naive_speedup

    @pytest.mark.parametrize("options,seen", [
        (RunOptions(check_invariants=False), (False, "mesi")),
        (RunOptions(protocol="moesi"), (True, "moesi")),
    ], ids=["check_invariants", "protocol"])
    def test_options_reach_every_run(self, collected, options, seen):
        F.fig1(thread_counts=(1, 2), n_points=256, seed=5, options=options)
        assert collected == [seen] * 4

    @pytest.mark.parametrize("protocol,base", [
        ("ghostwriter", "MESI"), ("moesi", "MOESI"),
        ("ghostwriter-moesi", "MOESI"),
    ])
    def test_title_names_the_precise_base(self, protocol, base):
        res = F.fig1(thread_counts=(1, 2), n_points=256, seed=5,
                     options=RunOptions(protocol=protocol))
        assert f"(baseline {base})" in res.render().splitlines()[0]


class TestFig2:
    def test_profiles_cover_apps(self):
        res = F.fig2(num_threads=THREADS, scale=SCALE, seed=99)
        assert set(res.profiles) == set(F.PAPER_WORKLOADS)
        for prof in res.profiles.values():
            assert prof.cdf[-1] == pytest.approx(1.0)
        assert 0.0 <= res.suite_average_within("Phoenix", 8) <= 1.0
        assert "Fig. 2" in res.render()

    def test_check_invariants_option_reaches_every_run(self, collected):
        F.fig2(num_threads=2, scale=0.05, seed=99,
               options=RunOptions(check_invariants=False))
        assert collected == [(False, "mesi")] * len(F.PAPER_WORKLOADS)


class TestSweepFigures:
    def test_fig7_shapes(self, cache):
        res = F.fig7(cache)
        for app in F.PAPER_WORKLOADS:
            for d in (4, 8):
                assert 0.0 <= res.gs_pct[(app, d)] <= 100.0
                assert 0.0 <= res.gi_pct[(app, d)] <= 100.0
        assert "Fig. 7" in res.render()

    def test_fig8_baseline_normalized(self, cache):
        res = F.fig8(cache)
        for app in F.PAPER_WORKLOADS:
            assert res.total(app, 0) == pytest.approx(1.0)
            split = res.normalized[(app, 0)]
            assert set(split) == {
                MessageClass.OTHER, MessageClass.DATA, MessageClass.GETS,
                MessageClass.UPGRADE, MessageClass.GETX,
            }
        assert isinstance(res.average_reduction_pct(8), float)
        assert "Fig. 8" in res.render()

    def test_fig9_consistency(self, cache):
        res = F.fig9(cache)
        for key, total in res.combined_pct.items():
            assert total <= 100.0
        assert "Fig. 9" in res.render()

    def test_fig10_average(self, cache):
        res = F.fig10(cache)
        avg = res.average(8)
        vals = [res.speedup_pct[(a, 8)] for a in F.PAPER_WORKLOADS]
        assert avg == pytest.approx(float(np.mean(vals)))
        assert "Fig. 10" in res.render()

    def test_fig11_baseline_exact(self, cache):
        res = F.fig11(cache)
        assert all(v == 0.0 for v in res.baseline_error_pct.values())
        assert "Fig. 11" in res.render()


class TestFig12:
    def test_timeout_sweep(self):
        res = F.fig12(timeouts=(128, 1024), num_threads=THREADS,
                      n_points=512, seed=99)
        assert res.timeouts == [128, 1024]
        assert len(res.gi_serviced_pct) == 2
        assert all(0 <= e <= 100 for e in res.error_pct)
        assert "Fig. 12" in res.render()


def test_sweep_figure_titles_name_the_precise_base():
    moesi = F.SweepCache(num_threads=2, scale=0.05, seed=99,
                         protocol="ghostwriter-moesi")
    for fig in (F.fig8, F.fig9, F.fig10):
        title = fig(moesi).render().splitlines()[0]
        assert "baseline MOESI" in title
