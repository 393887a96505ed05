"""Phoenix ``linear_regression`` — the paper's headline workload.

Phoenix's pthread linear regression passes each thread a pointer to its
own ``lreg_args`` struct and the thread accumulates five statistics
(SX, SY, SXX, SYY, SXY) *directly into the struct* for every input
point.  The struct is 52 bytes — smaller than a 64-byte block — and the
structs are allocated contiguously, so neighbouring threads' accumulators
share cache blocks: textbook migratory false sharing (paper §4.2: >12 %
of stores miss on shared blocks, 9 % of loads on invalid blocks).

Inputs model the paper's 50 MB text file: (x, y) byte pairs with a
text-like skew toward small values, scaled down.

Output: the five global sums plus the fitted slope/intercept; error
metric MPE (Table 2).
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.isa.instructions import (
    ApproxBegin, ApproxEnd, BarrierWait, Compute, FlushApprox, SetAprx,
)
from repro.sim.machine import Machine
from repro.workloads.base import Workload

__all__ = ["LinearRegression"]

#: word offsets of the accumulator fields inside one lreg_args struct
_SX, _SY, _SXX, _SYY, _SXY = 8, 9, 10, 11, 12
#: struct size in words: 8 words of pointers/bookkeeping + 5 accumulators
#: = 52 bytes, deliberately NOT a divisor of the 64-byte block
_STRUCT_WORDS = 13
_MAC_COST = 4  # cycles for the three multiplies per point


class LinearRegression(Workload):
    """The Phoenix linear-regression workload (see module docstring)."""
    name = "linear_regression"
    suite = "Phoenix"
    domain = "Machine Learning"
    error_metric = "MPE"

    def __init__(self, num_threads: int, seed: int = 12345,
                 scale: float = 1.0,
                 n_points: int = 12288, padded: bool = False) -> None:
        super().__init__(num_threads, seed, scale)
        #: pad each lreg_args struct to its own cache block — the classic
        #: source fix for the false sharing (and the layout §3.1's
        #: compiler padding would produce for annotated data)
        self.padded = padded
        self.n_points = self.scaled(n_points, minimum=num_threads)
        self.input_desc = f"{self.n_points} (x, y) byte pairs"
        # correlated byte pairs (y ~ 2x + 9 + noise), like the Phoenix
        # key-value input file: keeps the regression well-conditioned and
        # the increments small enough to exhibit Fig. 2's value similarity
        self.x_vals = np.minimum(
            self.rng.geometric(0.08, self.n_points), 100
        ).astype(np.int64)
        noise = self.rng.integers(-4, 5, self.n_points)
        self.y_vals = np.clip(2 * self.x_vals + 9 + noise, 0, 255)
        self._collected: list[float] | None = None

    # ------------------------------------------------------------------
    def _exact_sums(self) -> tuple[int, int, int, int, int]:
        x, y = self.x_vals, self.y_vals
        return (
            int(x.sum()), int(y.sum()), int((x * x).sum()),
            int((y * y).sum()), int((x * y).sum()),
        )

    @staticmethod
    def _fit(n: int, sx: float, sy: float, sxx: float, syy: float,
             sxy: float) -> tuple[float, float]:
        denom = n * sxx - sx * sx
        if denom == 0:
            return 0.0, 0.0
        slope = (n * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / n
        return slope, intercept

    def reference_output(self):
        sx, sy, sxx, syy, sxy = self._exact_sums()
        slope, intercept = self._fit(self.n_points, sx, sy, sxx, syy, sxy)
        return [sx, sy, sxx, syy, sxy, slope, intercept]

    def collect_output(self):
        if self._collected is None:
            raise RuntimeError("run() has not completed")
        return self._collected

    # ------------------------------------------------------------------
    def build(self, machine: Machine) -> None:
        mem = self.make_memory(machine)
        xs = mem.alloc_i32(self.n_points, "x", pad_to_block=True,
                           init=self.x_vals.tolist())
        ys = mem.alloc_i32(self.n_points, "y", pad_to_block=True,
                           init=self.y_vals.tolist())
        mem.block_gap()
        if self.padded:
            # one block-aligned struct per thread: no false sharing
            stride = 16  # words per 64-byte block
            args = mem.alloc_i32(self.num_threads * stride, "lreg_args",
                                 pad_to_block=True,
                                 init=[0] * (self.num_threads * stride))
        else:
            # the contiguous array of 52-byte lreg_args structs
            stride = _STRUCT_WORDS
            args = mem.alloc_i32(
                self.num_threads * _STRUCT_WORDS, "lreg_args",
                init=[0] * (self.num_threads * _STRUCT_WORDS),
            )
        barrier = machine.barrier(self.num_threads)
        collected: list[float] = [0.0] * 7
        self._collected = collected
        chunks = self.chunks(self.n_points)

        def field(tid: int, off: int) -> int:
            return tid * stride + off

        def worker(tid: int):
            yield SetAprx(self.d_distance)
            yield ApproxBegin((args.byte_range(),))
            for i in chunks[tid]:
                x = yield from xs.load(i)
                y = yield from ys.load(i)
                yield Compute(_MAC_COST)
                yield from args.add(field(tid, _SX), x)
                yield from args.add(field(tid, _SY), y)
                yield from args.add(field(tid, _SXX), x * x)
                yield from args.add(field(tid, _SYY), y * y)
                yield from args.add(field(tid, _SXY), x * y)
            yield ApproxEnd((args.byte_range(),))
            yield BarrierWait(barrier)
            if tid == 0:
                # thread join / context switch: forfeit this core's
                # approximate lines before reading results (paper 3.5)
                yield FlushApprox()
                sums = [0, 0, 0, 0, 0]
                for t in range(self.num_threads):
                    for k, off in enumerate((_SX, _SY, _SXX, _SYY, _SXY)):
                        sums[k] += yield from args.load(field(t, off))
                slope, intercept = self._fit(self.n_points, *map(float, sums))
                collected[:5] = [float(s) for s in sums]
                collected[5] = slope
                collected[6] = intercept

        for tid in range(self.num_threads):
            self.bind_program(machine, tid, partial(worker, tid))
