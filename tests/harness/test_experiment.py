"""Tests for the experiment runner and RunRow derivations."""
import pytest

from repro.common.types import MessageClass
from repro.harness.experiment import (
    RunRow, experiment_config, run_pair, run_workload,
)
from repro.energy.accounting import EnergyReport


class TestExperimentConfig:
    def test_matches_table1(self):
        cfg = experiment_config(d_distance=8)
        assert cfg.num_cores == 24
        assert cfg.l1.size_bytes == 32 * 1024
        assert cfg.l2.size_bytes == 128 * 1024
        assert cfg.ghostwriter.d_distance == 8
        assert cfg.ghostwriter.enabled

    def test_baseline_flag(self):
        cfg = experiment_config(d_distance=0)
        assert not cfg.ghostwriter.enabled

    def test_timeout_and_cores_forwarded(self):
        cfg = experiment_config(d_distance=4, gi_timeout=128, num_cores=8)
        assert cfg.ghostwriter.gi_timeout == 128
        assert cfg.num_cores == 8


def _row(**kw):
    defaults = dict(
        workload="x", d_distance=4, cycles=100, error_pct=0.0,
        energy=EnergyReport(1, 1, 1, 1),
        traffic={k: 0 for k in MessageClass},
        gs_serviced=0, gi_serviced=0, gs_store_hits=0, gi_store_hits=0,
        store_miss_on_s=0, store_miss_on_i=0,
        loads=0, stores=0, load_misses=0, store_misses=0,
    )
    defaults.update(kw)
    return RunRow(**defaults)


class TestRunRowDerivations:
    def test_gs_pct(self):
        row = _row(gs_serviced=20, gs_store_hits=30, store_miss_on_s=50)
        assert row.gs_serviced_pct == pytest.approx(50.0)

    def test_gi_pct(self):
        row = _row(gi_serviced=10, gi_store_hits=0, store_miss_on_i=30)
        assert row.gi_serviced_pct == pytest.approx(25.0)

    def test_pct_with_no_events(self):
        assert _row().gs_serviced_pct == 0.0
        assert _row().gi_serviced_pct == 0.0

    def test_total_traffic(self):
        traffic = {k: 0 for k in MessageClass}
        traffic[MessageClass.GETS] = 3
        traffic[MessageClass.DATA] = 4
        assert _row(traffic=traffic).total_traffic == 7


class TestRunners:
    def test_run_workload_d0_is_baseline(self):
        row = run_workload("bad_dot_product", d_distance=0, num_threads=4,
                           scale=0.1)
        assert row.d_distance == 0
        assert row.error_pct == 0.0
        assert row.gs_serviced == 0 and row.gi_serviced == 0

    def test_run_pair_same_workload_inputs(self):
        base, gw = run_pair("bad_dot_product", d_distance=4, num_threads=4,
                            scale=0.1)
        # same program/inputs: identical op counts either way
        assert base.loads == gw.loads
        assert base.stores == gw.stores

    def test_run_pair_batch_backend_goes_through_run_grid(self,
                                                          monkeypatch):
        import repro.harness.batch as batch
        from repro.harness.options import RunOptions

        calls = []
        real = batch.batch_fan_out

        def counting(points, **kwargs):
            calls.append(len(points))
            return real(points, **kwargs)
        monkeypatch.setattr(batch, "batch_fan_out", counting)
        kw = dict(d_distance=4, num_threads=4, scale=0.1)
        batched = run_pair("bad_dot_product",
                           options=RunOptions(backend="batch"), **kw)
        assert calls == [2]
        assert batched == run_pair("bad_dot_product", **kw)

    def test_workload_kwargs_forwarded(self):
        row = run_workload("bad_dot_product", d_distance=0, num_threads=2,
                           scale=1.0, n_points=64)
        assert row.stores > 0
