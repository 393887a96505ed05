"""AxBench ``blackscholes`` — European option pricing.

Each thread prices a contiguous chunk of options with the Black-Scholes
closed form and stores the price into the output array.  The access
pattern is embarrassingly parallel: inputs are read-shared, outputs are
written once to thread-private ranges (block sharing only at chunk
boundaries), so — as the paper reports — coherence misses are ~0.3 % and
Ghostwriter neither helps nor hurts.  The workload is compute-dominated,
which we model with a per-option compute charge.

Float values move through IEEE-754 bit patterns, so d-distance operates
on mantissa bits exactly as in the paper's hardware.  Error metric MPE.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro.isa.instructions import (
    ApproxBegin, ApproxEnd, BarrierWait, Compute, FlushApprox, SetAprx,
)
from repro.sim.machine import Machine
from repro.workloads.base import Workload

__all__ = ["BlackScholes"]

_RISK_FREE = 0.02
_OPTION_COST = 60  # cycles of FP math per option


def _cnd(x: float) -> float:
    """Cumulative standard normal (Abramowitz-Stegun, as AxBench uses)."""
    k = 1.0 / (1.0 + 0.2316419 * abs(x))
    poly = k * (0.319381530 + k * (-0.356563782 + k * (1.781477937
               + k * (-1.821255978 + k * 1.330274429))))
    w = 1.0 - 1.0 / math.sqrt(2 * math.pi) * math.exp(-0.5 * x * x) * poly
    return w if x >= 0 else 1.0 - w


def _bs_price(s: float, k: float, t: float, sigma: float) -> float:
    if t <= 0 or sigma <= 0:
        return max(s - k, 0.0)
    d1 = (math.log(s / k) + (_RISK_FREE + 0.5 * sigma * sigma) * t) / (
        sigma * math.sqrt(t))
    d2 = d1 - sigma * math.sqrt(t)
    return s * _cnd(d1) - k * math.exp(-_RISK_FREE * t) * _cnd(d2)


def _f32(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float32)


class BlackScholes(Workload):
    """The AxBench option-pricing workload (see module docstring)."""
    name = "blackscholes"
    suite = "AxBench"
    domain = "Financial Analysis"
    error_metric = "MPE"

    def __init__(self, num_threads: int, seed: int = 12345,
                 scale: float = 1.0,
                 n_options: int = 2048) -> None:
        super().__init__(num_threads, seed, scale)
        self.n_options = self.scaled(n_options, minimum=num_threads)
        self.input_desc = f"{self.n_options} options"
        rng = self.rng
        self.spot = _f32(rng.uniform(20.0, 120.0, self.n_options))
        self.strike = _f32(rng.uniform(20.0, 120.0, self.n_options))
        self.expiry = _f32(rng.uniform(0.1, 2.0, self.n_options))
        self.vol = _f32(rng.uniform(0.1, 0.6, self.n_options))
        self._collected: list[float] | None = None

    def reference_output(self):
        return [
            float(np.float32(_bs_price(
                float(self.spot[i]), float(self.strike[i]),
                float(self.expiry[i]), float(self.vol[i]),
            )))
            for i in range(self.n_options)
        ]

    def collect_output(self):
        if self._collected is None:
            raise RuntimeError("run() has not completed")
        return self._collected

    def build(self, machine: Machine) -> None:
        mem = self.make_memory(machine)
        spot = mem.alloc_f32(self.n_options, "spot", pad_to_block=True,
                             init=self.spot.tolist())
        strike = mem.alloc_f32(self.n_options, "strike", pad_to_block=True,
                               init=self.strike.tolist())
        expiry = mem.alloc_f32(self.n_options, "expiry", pad_to_block=True,
                               init=self.expiry.tolist())
        vol = mem.alloc_f32(self.n_options, "vol", pad_to_block=True,
                            init=self.vol.tolist())
        mem.block_gap()
        prices = mem.alloc_f32(self.n_options, "prices",
                               init=[0.0] * self.n_options)
        barrier = machine.barrier(self.num_threads)
        collected = [0.0] * self.n_options
        self._collected = collected
        chunks = self.chunks(self.n_options)

        def worker(tid: int):
            yield SetAprx(self.d_distance)
            yield ApproxBegin((prices.byte_range(),))
            for i in chunks[tid]:
                s = yield from spot.load(i)
                k = yield from strike.load(i)
                t = yield from expiry.load(i)
                sg = yield from vol.load(i)
                yield Compute(_OPTION_COST)
                yield from prices.store(i, _bs_price(s, k, t, sg))
            yield ApproxEnd((prices.byte_range(),))
            yield BarrierWait(barrier)
            if tid == 0:
                # thread join / context switch: forfeit this core's
                # approximate lines before reading results (paper 3.5)
                yield FlushApprox()
                for i in range(self.n_options):
                    collected[i] = yield from prices.load(i)

        for tid in range(self.num_threads):
            self.bind_program(machine, tid, partial(worker, tid))
