"""Smoke test for the perf microbenchmark suite.

Asserts the suite executes end to end in check-only mode and that the
emitted ``BENCH_perf.json`` is schema-valid — no timing thresholds, so
the test is robust on loaded CI runners.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def run_perf():
    """The run_perf module, loaded by path (benchmarks/ is not a package)."""
    path = Path(__file__).with_name("run_perf.py")
    spec = importlib.util.spec_from_file_location("run_perf", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_check_only_emits_valid_report(run_perf, tmp_path):
    out = tmp_path / "BENCH_perf.json"
    assert run_perf.main(["--check-only", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    run_perf.validate_report(report)  # must not raise
    assert report["mode"] == "check"
    names = [row["name"] for row in report["benchmarks"]]
    assert "engine_same_cycle_dispatch" in names
    assert "scribe_check_observe" in names
    assert "workload_false_sharing" in names


def test_obs_benchmarks_present(run_perf, tmp_path):
    out = tmp_path / "BENCH_perf.json"
    assert run_perf.main(["--check-only", "--out", str(out)]) == 0
    names = [row["name"] for row in
             json.loads(out.read_text())["benchmarks"]]
    assert "event_bus_emit" in names
    assert "workload_obs_tracing" in names


def test_untraced_machine_pays_no_structural_obs_cost():
    """Tracing off means *no* obs objects exist: the hot paths see a
    single ``is None`` attribute check and nothing else."""
    from repro.harness.experiment import experiment_config
    from repro.sim.machine import Machine

    m = Machine(experiment_config(d_distance=4, num_cores=2))
    assert m.bus is None
    assert m.recorder is None
    assert m.flight is None
    assert m.timeline is None
    for l1 in m.l1s:
        assert l1.bus is None
        assert l1.scribe.bus is None
    assert m.network.bus is None


def test_obs_overhead_is_bounded():
    """A fully traced run may cost more, but only by a sane factor; the
    bound is deliberately generous so loaded CI runners stay green."""
    import time

    from repro.harness.experiment import run_workload
    from repro.harness.options import RunOptions

    kwargs = dict(d_distance=4, num_threads=4, seed=12345, n_points=512,
                  max_value=7)
    traced = RunOptions(trace_events=True, timeline_interval=1024)

    def best_of(opts, n=2):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            run_workload("bad_dot_product", options=opts, **kwargs)
            times.append(time.perf_counter() - t0)
        return min(times)

    best_of(RunOptions())                 # warm imports/caches
    t_off = best_of(RunOptions())
    t_on = best_of(traced)
    assert t_on < 25 * t_off, (t_off, t_on)


def test_protocol_benchmarks_present(run_perf, tmp_path):
    out = tmp_path / "BENCH_perf.json"
    assert run_perf.main(["--check-only", "--out", str(out)]) == 0
    names = [row["name"] for row in
             json.loads(out.read_text())["benchmarks"]]
    assert "l1_hit_path_mesi" in names
    assert "l1_hit_path_ghostwriter" in names
    assert "workload_protocol_mesi" in names
    assert "workload_protocol_update_hybrid" in names


def test_policy_indirection_under_five_percent(run_perf):
    """The pluggable-policy refactor's perf budget: routing L1 decisions
    through the injected ``ProtocolPolicy`` costs < 5% on the pure hit
    loop vs the precise MESI baseline.  Both thunks run the identical
    load-hit loop, so the only difference is policy-derived state; the
    ratio is taken over min-of-many trials and the whole measurement
    retries to shrug off scheduler noise on loaded CI runners."""
    import time

    n = 20_000
    mesi_thunk, _ = run_perf.bench_l1_hit_path("mesi")(n)
    gw_thunk, _ = run_perf.bench_l1_hit_path("ghostwriter")(n)

    def best_of(thunk, trials=7):
        best = float("inf")
        for _ in range(trials):
            t0 = time.perf_counter()
            thunk()
            best = min(best, time.perf_counter() - t0)
        return best

    best_of(mesi_thunk, 2)  # warm both code paths before comparing
    best_of(gw_thunk, 2)
    for attempt in range(3):
        t_mesi = best_of(mesi_thunk)
        t_gw = best_of(gw_thunk)
        if t_gw <= t_mesi * 1.05:
            return
    pytest.fail(f"policy indirection over budget: mesi={t_mesi:.4f}s "
                f"ghostwriter={t_gw:.4f}s ({t_gw / t_mesi:.3f}x)")


def test_validator_rejects_bad_reports(run_perf):
    good = run_perf.run_suite(check_only=True, repeats=1)
    run_perf.validate_report(good)

    with pytest.raises(ValueError):
        run_perf.validate_report({})
    bad_version = dict(good, schema_version=99)
    with pytest.raises(ValueError):
        run_perf.validate_report(bad_version)
    missing_bench = dict(good, benchmarks=good["benchmarks"][:-1])
    with pytest.raises(ValueError):
        run_perf.validate_report(missing_bench)
    negative_time = dict(good, benchmarks=[
        dict(good["benchmarks"][0], best_seconds=-1.0)
    ] + good["benchmarks"][1:])
    with pytest.raises(ValueError):
        run_perf.validate_report(negative_time)


def test_compiled_benchmarks_present(run_perf, tmp_path):
    out = tmp_path / "BENCH_perf.json"
    assert run_perf.main(["--check-only", "--out", str(out)]) == 0
    names = [row["name"] for row in
             json.loads(out.read_text())["benchmarks"]]
    assert "core_step_loop" in names
    assert "sweep_wall_clock" in names
    assert "sweep_wall_clock_batch" in names


@pytest.fixture(scope="module")
def check_regression():
    """The regression-guard module, loaded by path."""
    path = Path(__file__).with_name("check_regression.py")
    spec = importlib.util.spec_from_file_location("check_regression", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _report(ops, mode="full"):
    return {"mode": mode,
            "benchmarks": [{"name": n, "ops_per_second": v}
                           for n, v in ops.items()]}


def test_regression_guard_flags_only_real_drops(check_regression):
    names = check_regression.KEY_BENCHES
    base = _report({n: 100.0 for n in names})
    ok = check_regression.check(
        _report({n: 80.0 for n in names}), base)
    assert ok == []
    dropped = {n: 200.0 for n in names}
    dropped["core_step_loop"] = 60.0
    problems = check_regression.check(_report(dropped), base)
    assert len(problems) == 1 and "core_step_loop" in problems[0]


def test_regression_guard_fails_on_missing_guarded_bench(check_regression):
    """A guarded bench absent from the fresh report is a failure, not a
    silent skip — deleting or renaming a key benchmark must not turn
    its guard off."""
    names = check_regression.KEY_BENCHES
    base = _report({n: 100.0 for n in names})
    cur = {n: 100.0 for n in names}
    del cur["sweep_wall_clock_batch"]
    problems = check_regression.check(_report(cur), base)
    assert len(problems) == 1
    assert "sweep_wall_clock_batch" in problems[0]
    assert "missing" in problems[0]


def test_regression_guard_tolerates_new_bench_and_rejects_check_mode(
        check_regression):
    names = check_regression.KEY_BENCHES
    # missing only from the *baseline*: the bench was added after the
    # baseline was committed — nothing to compare against yet
    assert check_regression.check(
        _report({n: 100.0 for n in names}),
        _report({"core_step_loop": 100.0})) == []
    with pytest.raises(SystemExit):
        check_regression.check(_report({}, mode="check"),
                               _report({n: 100.0 for n in names}))


def test_regression_guard_gates_committed_baseline(check_regression):
    """Every key bench the guard gates on exists in the committed
    BENCH_perf.json (a rename would otherwise silently disable it)."""
    committed = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCH_perf.json")
        .read_text())
    names = {row["name"] for row in committed["benchmarks"]}
    missing = set(check_regression.KEY_BENCHES) - names
    assert not missing, f"key benches missing from baseline: {missing}"
