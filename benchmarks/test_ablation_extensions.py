"""Ablations for the future-work extensions (paper §3.4 / §3.5).

* arithmetic vs bit-wise similarity on linear_regression — the richer
  comparator services strictly more stores (it accepts every bit-wise
  pass plus boundary-crossing pairs like 15->16 and -1->0);
* the approximate-write budget on the adversarial microbenchmark — a
  tightening budget trades benefit back for accuracy (runtime error
  bounding);
* the auto-tuner — finds the largest d meeting an error target and
  reports the resulting speedup.
"""
from dataclasses import replace

from repro.harness.autotune import tune_d_distance
from repro.harness.experiment import experiment_config
from repro.workloads.registry import create

from conftest import BENCH_SCALE, BENCH_SEED, BENCH_THREADS


def _run_linreg(mode: str):
    cfg = experiment_config(d_distance=8)
    cfg = replace(cfg, ghostwriter=replace(cfg.ghostwriter,
                                           similarity_mode=mode))
    w = create("linear_regression", num_threads=BENCH_THREADS,
               scale=BENCH_SCALE, seed=BENCH_SEED)
    return w.run(cfg)


def test_similarity_mode_ablation(benchmark):
    def sweep():
        return _run_linreg("bitwise"), _run_linreg("arithmetic")

    bitwise, arith = benchmark.pedantic(sweep, iterations=1, rounds=1)
    b = bitwise.stats.child("l1")
    a = arith.stats.child("l1")
    b_served = b.total("gs_serviced") + b.total("gi_serviced")
    a_served = a.total("gs_serviced") + a.total("gi_serviced")
    print(
        f"\nsimilarity-mode ablation (linear_regression, d=8):\n"
        f"  bitwise   : {int(b_served):>5} episodes, "
        f"error {bitwise.error_pct:7.3f}%, {bitwise.cycles} cycles\n"
        f"  arithmetic: {int(a_served):>5} episodes, "
        f"error {arith.error_pct:7.3f}%, {arith.cycles} cycles"
    )
    # the arithmetic comparator accepts a superset of value pairs
    assert a_served >= b_served
    assert arith.cycles <= bitwise.cycles * 1.02


def test_write_budget_ablation(benchmark):
    def run(budget):
        cfg = experiment_config(d_distance=4)
        cfg = replace(cfg, ghostwriter=replace(
            cfg.ghostwriter, approx_write_budget=budget))
        w = create("bad_dot_product", num_threads=BENCH_THREADS,
                   n_points=1024, max_value=3, seed=BENCH_SEED)
        return w.run(cfg)

    def sweep():
        return {b: run(b) for b in (None, 16, 4, 1)}

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\napprox-write-budget ablation (bad_dot_product, d=4):")
    for budget, r in rows.items():
        label = "unbounded" if budget is None else f"{budget:>9}"
        print(f"  budget {label}: error {r.error_pct:6.2f}%, "
              f"{r.cycles} cycles")
    errs = [rows[b].error_pct for b in (None, 16, 4, 1)]
    # tightening the budget never increases error, and bounds it hard
    assert errs[1] <= errs[0] + 1e-9
    assert errs[2] <= errs[1] + 1e-9
    assert errs[3] <= errs[2] + 1e-9
    assert errs[3] < errs[0]


def test_autotune_meets_quality_target(benchmark):
    target = 1.0  # percent

    def tune():
        return tune_d_distance(
            "bad_dot_product", target, d_candidates=(1, 2, 4, 8, 16),
            num_threads=BENCH_THREADS, scale=1.0, n_points=1024,
            max_value=7, seed=BENCH_SEED,
        )

    res = benchmark.pedantic(tune, iterations=1, rounds=1)
    print("\n" + res.render())
    assert res.chosen_row.error_pct <= target
    assert res.chosen_d >= 1  # some approximation is affordable
