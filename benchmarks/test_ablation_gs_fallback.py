"""Ablation — GS conventional-fallback design (DESIGN.md design choice).

Compares the two ways a dissimilar scribble can leave GS:

* UPGRADE in place (default): no data transfer; the whole locally
  modified block is published.
* GETX: the divergent copy is discarded; fresh data is fetched and only
  the store's word applied.

Measured on linear_regression (the heaviest GS user).  The bench asserts
the finding the default is based on: in-place UPGRADE is at least as
fast and no worse on error, because the "clobbered" neighbour words are
d-similar by construction while GETX pays a data transfer per fallback.
"""
from dataclasses import replace

from repro.common.config import GhostwriterConfig
from repro.harness.experiment import experiment_config
from repro.workloads.registry import create

from conftest import BENCH_SCALE, BENCH_SEED, BENCH_THREADS


def _run(gs_fallback_getx: bool):
    cfg = experiment_config(d_distance=8)
    cfg = replace(cfg, ghostwriter=GhostwriterConfig(
        d_distance=8, gi_timeout=1024,
        gs_fallback_getx=gs_fallback_getx,
    ))
    w = create("linear_regression", num_threads=BENCH_THREADS,
               scale=BENCH_SCALE, seed=BENCH_SEED)
    return w.run(cfg)


def test_gs_fallback_ablation(benchmark):
    def sweep():
        return _run(False), _run(True)

    upgrade, getx = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print(
        f"\nGS fallback ablation (linear_regression, d=8):\n"
        f"  UPGRADE in place: cycles={upgrade.cycles:>8d} "
        f"error={upgrade.error_pct:7.3f}%\n"
        f"  GETX refetch:     cycles={getx.cycles:>8d} "
        f"error={getx.error_pct:7.3f}%"
    )
    # the finding behind the default: UPGRADE is no slower and no less
    # accurate than the refetching design
    assert upgrade.cycles <= getx.cycles * 1.02
    assert upgrade.error_pct <= getx.error_pct * 1.1 + 0.5
