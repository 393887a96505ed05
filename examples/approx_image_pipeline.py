#!/usr/bin/env python3
"""Approximate image pipeline: the paper's jpeg workload end to end.

Runs the multithreaded DCT+quantization encoder on the simulated 24-core
machine, baseline vs Ghostwriter, and reports exactly what an
application developer would weigh: traffic and energy saved vs the
quality of the reconstructed image (NRMSE and PSNR).

Run:  python examples/approx_image_pipeline.py
"""
import math

import numpy as np

from repro.energy.accounting import EnergyAccountant
from repro.harness.experiment import experiment_config
from repro.workloads.registry import create


def psnr(reference: np.ndarray, measured: np.ndarray) -> float:
    mse = float(np.mean((reference - measured) ** 2))
    if mse == 0:
        return math.inf
    return 10 * math.log10(255.0**2 / mse)


def run(d_distance: int):
    cfg = experiment_config(d_distance=d_distance)
    workload = create("jpeg", num_threads=24, scale=1.0)
    result = workload.run(cfg)
    energy = EnergyAccountant(cfg).report(result.machine)
    return workload, result, energy


def main() -> None:
    print("encoding a 48x48 synthetic photo on the simulated 24-core CMP\n")
    _, base, base_energy = run(0)
    print(f"baseline MESI : {base.cycles:>8} cycles, "
          f"NoC {base_energy.noc_pj / 1e3:8.1f} nJ, "
          f"error {base.error_pct:.4f}%")

    for d in (4, 8):
        w, r, e = run(d)
        n_px = w.edge * w.edge
        ref_img = np.asarray(r.reference[:n_px]).reshape(w.edge, w.edge)
        out_img = np.asarray(r.output[:n_px]).reshape(w.edge, w.edge)
        speedup = (base.cycles / r.cycles - 1) * 100
        saved = e.savings_vs(base_energy)
        print(f"ghostwriter d{d}: {r.cycles:>8} cycles ({speedup:+5.2f}%), "
              f"NoC energy saved {saved.noc_pct:5.1f}%, "
              f"error {r.error_pct:.4f}% NRMSE, "
              f"PSNR {psnr(ref_img, out_img):6.2f} dB")

    print("\nthe reconstruction stays visually identical while the "
          "encoder's\nshared rate-statistics traffic is absorbed by the "
          "approximate states")


if __name__ == "__main__":
    main()
