#!/usr/bin/env python3
"""False-sharing study: Listing 1 vs Listing 2 vs Ghostwriter.

Reproduces the paper's motivating experiment (Fig. 1) and then shows
what the paper proposes instead of rewriting the code: running the naive
version on a Ghostwriter machine recovers a good part of the lost
performance at a small accuracy cost.

Run:  python examples/false_sharing_study.py [--threads N]
"""
import argparse

from repro.harness.experiment import experiment_config
from repro.workloads.registry import create

N_POINTS = 4096


def run(name: str, threads: int, *, d: int, **kw):
    """One run; ``d=0`` is the precise (baseline MESI) machine."""
    cfg = experiment_config(d_distance=d, num_cores=max(threads, 1))
    w = create(name, num_threads=threads, n_points=N_POINTS, **kw)
    return w.run(cfg)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--threads", type=int, default=24)
    args = ap.parse_args()

    counts = [t for t in (1, 2, 4, 8, 16, 24) if t <= args.threads]

    print("Part 1 — the false-sharing cliff (baseline MESI, Fig. 1):")
    print(f"{'threads':>8} {'naive':>12} {'privatized':>12}")
    base_naive = base_priv = None
    naive_cycles = {}
    for t in counts:
        rn = run("bad_dot_product", t, d=0, approximate=False)
        rp = run("private_dot_product", t, d=0)
        naive_cycles[t] = rn.cycles
        if base_naive is None:
            base_naive, base_priv = rn.cycles, rp.cycles
        print(f"{t:>8} {base_naive / rn.cycles:>11.2f}x "
              f"{base_priv / rp.cycles:>11.2f}x")

    print("\nPart 2 — Ghostwriter rescues the naive code (no rewrite):")
    t = counts[-1]
    for d in (4, 8):
        r = run("bad_dot_product", t, d=d, max_value=15)
        rn = run("bad_dot_product", t, d=0, max_value=15)
        speedup = (rn.cycles / r.cycles - 1) * 100
        gs = r.stats.child("l1").total("gs_serviced")
        gi = r.stats.child("l1").total("gi_serviced")
        print(f"  d-distance {d}: {speedup:+6.2f}% speedup, "
              f"output error {r.error_pct:6.2f}% MPE "
              f"(GS entries {int(gs)}, GI entries {int(gi)})")
    print("\nThe fix-by-rewrite (Listing 2) is still fastest — Ghostwriter"
          "\ntargets the code you cannot rewrite.")


if __name__ == "__main__":
    main()
