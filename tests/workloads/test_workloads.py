"""Integration tests over every workload (Table 2 + microbenchmarks).

The heavy invariants, per workload:
* the baseline (MESI) run is *exact* — zero output error,
* the Ghostwriter run completes, stays protocol-consistent, and its
  error is bounded,
* reference outputs are deterministic for a fixed seed.

Small thread counts / scales keep each case fast.
"""
import numpy as np
import pytest

from repro.harness.experiment import experiment_config
from repro.workloads.registry import (
    ALL_WORKLOADS, MICROBENCHMARKS, PAPER_WORKLOADS, create, table2_rows,
)

THREADS = 8
SCALE = 0.25


def _run(name, *, d=8, **kw):
    cfg = experiment_config(d_distance=d, num_cores=THREADS)
    w = create(name, num_threads=THREADS, scale=SCALE, **kw)
    result = w.run(cfg)
    result.machine.check_coherence_invariants()
    return w, result


class TestBaselineExactness:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_baseline_is_exact(self, name):
        _w, result = _run(name, d=0)
        assert result.error_pct == 0.0, (
            f"{name}: baseline produced error {result.error_pct}"
        )

    @pytest.mark.parametrize("name", sorted(PAPER_WORKLOADS))
    def test_reference_deterministic(self, name):
        w1 = create(name, num_threads=THREADS, scale=SCALE, seed=7)
        w2 = create(name, num_threads=THREADS, scale=SCALE, seed=7)
        assert np.allclose(w1.reference_output(), w2.reference_output())

    @pytest.mark.parametrize("name", sorted(PAPER_WORKLOADS))
    def test_reference_changes_with_seed(self, name):
        w1 = create(name, num_threads=THREADS, scale=SCALE, seed=7)
        w2 = create(name, num_threads=THREADS, scale=SCALE, seed=8)
        assert not np.allclose(w1.reference_output(), w2.reference_output())


class TestGhostwriterRuns:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_completes_with_bounded_error(self, name):
        _w, result = _run(name)
        assert 0.0 <= result.error_pct <= 100.0

    @pytest.mark.parametrize("name", sorted(PAPER_WORKLOADS))
    def test_never_slower_than_baseline(self, name):
        _w, base = _run(name, d=0)
        _w2, gw = _run(name)
        assert gw.cycles <= base.cycles * 1.05

    @pytest.mark.parametrize("name", sorted(PAPER_WORKLOADS))
    def test_error_monotone_in_d(self, name):
        errs = []
        for d in (2, 8):
            _w, r = _run(name, d=d)
            errs.append(r.error_pct)
        assert errs[1] >= errs[0] - 1e-9


class TestWorkloadMetadata:
    def test_table2_covers_all_paper_apps(self):
        rows = table2_rows(THREADS)
        assert [r[0] for r in rows] == list(PAPER_WORKLOADS)

    def test_registry_create_unknown(self):
        with pytest.raises(KeyError):
            create("nope", num_threads=2)

    def test_workload_single_use(self):
        w = create("bad_dot_product", num_threads=2, scale=0.1)
        cfg = experiment_config(d_distance=0, num_cores=2)
        w.run(cfg)
        with pytest.raises(RuntimeError):
            w.run(cfg)

    def test_thread_count_validated(self):
        w = create("histogram", num_threads=16, scale=0.1)
        cfg = experiment_config(d_distance=0, num_cores=8)
        with pytest.raises(ValueError):
            w.run(cfg)

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_metadata_populated(self, name):
        w = create(name, num_threads=2, scale=0.1)
        assert w.name == name
        assert w.error_metric in ("MPE", "NRMSE")
        assert w.domain != "?"
        assert w.input_desc != "?"

    def test_collect_before_run_raises(self):
        w = create("pca", num_threads=2, scale=0.1)
        with pytest.raises(RuntimeError):
            w.collect_output()


class TestMicrobenchmarks:
    def test_listing1_slower_than_listing2(self):
        """The Fig. 1 premise at 8 threads."""
        _w1, naive = _run("bad_dot_product", d=0,
                          approximate=False)
        _w2, priv = _run("private_dot_product", d=0)
        assert naive.cycles > priv.cycles * 2

    def test_partials_match_reference_exactly(self):
        w, result = _run("bad_dot_product", d=0)
        assert list(result.output) == list(result.reference)

    def test_store_through_variant_exact_in_baseline(self):
        _w, result = _run("store_through_dot_product", d=0)
        assert result.error_pct == 0.0
