"""End-to-end pipeline smoke tests crossing subsystem boundaries.

Each test exercises a realistic multi-module flow a downstream user
would run: record -> classify -> replay -> compare; sweep -> export;
tune -> verify; the full figure path under MOESI.
"""
import csv

from repro.harness.autotune import tune_d_distance
from repro.harness.experiment import experiment_config, run_workload
from repro.harness.export import export_result
from repro.harness import figures as F
from repro.harness.options import RunOptions
from repro.sim.machine import Machine
from repro.trace import TraceRecorder, false_sharing_candidates, replay_trace
from repro.workloads.registry import create

THREADS = 4


def test_record_classify_replay_pipeline(tmp_path):
    """The find_false_sharing.py workflow, persisted through disk."""
    cfg = experiment_config(d_distance=0, num_cores=THREADS)
    w = create("bad_dot_product", num_threads=THREADS, n_points=256,
               max_value=7)
    m = Machine(cfg)
    w.build(m)
    snap = m.backing.memory_image()
    rec = TraceRecorder(m)
    m.run()
    m.check_quiescent()

    # persist + reload the trace
    trace_path = tmp_path / "run.npz"
    rec.trace().save(trace_path)
    from repro.trace import Trace
    trace = Trace.load(trace_path)

    # the classifier finds the paper's structure
    hits = false_sharing_candidates(trace)
    assert hits and hits[0].writers == THREADS

    # replay under Ghostwriter cuts traffic on exactly that structure
    gw = replay_trace(
        trace, experiment_config(d_distance=8,
                                 num_cores=THREADS),
        initial_memory=snap,
    )
    base = replay_trace(
        trace, experiment_config(d_distance=0, num_cores=THREADS),
        initial_memory=snap,
    )
    assert gw.network.stats.messages < base.network.stats.messages


def test_figure_export_pipeline(tmp_path):
    """One sweep figure, rendered and exported, with consistent data."""
    cache = F.SweepCache(num_threads=THREADS, scale=0.1, seed=11)
    result = F.fig10(cache)
    paths = export_result("fig10", result, tmp_path)
    with open(paths[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 6 apps x 2 d values
    by_key = {(r["app"], int(r["d"])): float(r["speedup_pct"])
              for r in rows}
    for (app, d), v in result.speedup_pct.items():
        assert abs(by_key[(app, d)] - v) < 1e-9


def test_tune_then_verify_pipeline():
    """The auto-tuner's chosen d reproduces its promised error."""
    res = tune_d_distance(
        "bad_dot_product", 5.0, d_candidates=(2, 4, 8),
        num_threads=THREADS, scale=1.0, n_points=256, max_value=7, seed=3,
    )
    if res.chosen_d > 0:
        rerun = run_workload(
            "bad_dot_product", d_distance=res.chosen_d,
            num_threads=THREADS, scale=1.0, n_points=256, max_value=7,
            seed=3,
        )
        assert rerun.error_pct == res.chosen_row.error_pct  # deterministic
        assert rerun.error_pct <= 5.0


def test_moesi_figure_pipeline():
    """The sweep figures run end to end on the MOESI-based variant."""
    cache = F.SweepCache(num_threads=THREADS, scale=0.1, seed=11,
                         options=RunOptions(protocol="ghostwriter-moesi"))
    f10 = F.fig10(cache)
    f11 = F.fig11(cache)
    for app in F.PAPER_WORKLOADS:
        assert f10.speedup_pct[(app, 8)] > -1.0
        assert f11.baseline_error_pct[app] == 0.0
