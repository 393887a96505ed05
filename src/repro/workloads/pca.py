"""Phoenix ``pca`` — row means + covariance of a matrix.

Phoenix's PCA runs two parallel phases over an N x M integer matrix:
each thread computes the means of its assigned rows, then entries of the
covariance matrix.  Writes land in shared result arrays whose adjacent
entries belong to different threads only at chunk boundaries, so — as the
paper reports (§4.2) — coherence misses are a tiny fraction of accesses
(0.1 %) and Ghostwriter's impact is negligible even though a good share
of the few store misses *are* serviceable by GI (3.7 % at d=4 jumping to
38.9 % at d=8, driven by the update-value distribution).

To model the covariance phase at tractable cost we compute a banded
covariance (each row with its next ``_BAND`` rows), preserving the
access pattern (every pair re-reads two full rows, accumulates into one
shared entry) without the full O(N^2 M) blow-up.  Error metric NRMSE.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.isa.instructions import (
    ApproxBegin, ApproxEnd, BarrierWait, Compute, FlushApprox, SetAprx,
)
from repro.sim.machine import Machine
from repro.workloads.base import Workload

__all__ = ["Pca"]

_BAND = 2     # covariance band width (row r against rows r..r+_BAND-1)
_MAC_COST = 2


class Pca(Workload):
    """The Phoenix PCA workload (see module docstring)."""
    name = "pca"
    suite = "Phoenix"
    domain = "Machine Learning"
    error_metric = "NRMSE"

    def __init__(self, num_threads: int, seed: int = 12345,
                 scale: float = 1.0,
                 n_rows: int = 48, n_cols: int = 24) -> None:
        super().__init__(num_threads, seed, scale)
        self.n_rows = self.scaled(n_rows, minimum=num_threads)
        self.n_cols = self.scaled(n_cols, minimum=4)
        self.input_desc = f"{self.n_rows}x{self.n_cols} matrix"
        self.matrix = self.rng.integers(
            0, 256, size=(self.n_rows, self.n_cols)
        ).astype(np.int64)
        self._collected: list[float] | None = None

    # ------------------------------------------------------------------
    def _exact(self) -> tuple[np.ndarray, np.ndarray]:
        # integer means (truncating), like the C code
        means = self.matrix.sum(axis=1) // self.n_cols
        cov = np.zeros((self.n_rows, _BAND), dtype=np.int64)
        for r in range(self.n_rows):
            for k in range(_BAND):
                r2 = r + k
                if r2 >= self.n_rows:
                    continue
                cov[r, k] = int(
                    ((self.matrix[r] - means[r])
                     * (self.matrix[r2] - means[r2])).sum()
                ) // self.n_cols
        return means, cov

    def reference_output(self):
        means, cov = self._exact()
        return [float(v) for v in means] + [float(v) for v in cov.ravel()]

    def collect_output(self):
        if self._collected is None:
            raise RuntimeError("run() has not completed")
        return self._collected

    # ------------------------------------------------------------------
    def build(self, machine: Machine) -> None:
        mem = self.make_memory(machine)
        mat = mem.alloc_i32(self.n_rows * self.n_cols, "matrix",
                            pad_to_block=True,
                            init=self.matrix.ravel().tolist())
        mem.block_gap()
        means = mem.alloc_i32(self.n_rows, "means", init=[0] * self.n_rows)
        cov = mem.alloc_i32(self.n_rows * _BAND, "cov",
                            init=[0] * (self.n_rows * _BAND))
        phase1 = machine.barrier(self.num_threads)
        phase2 = machine.barrier(self.num_threads)
        collected = [0.0] * (self.n_rows + self.n_rows * _BAND)
        self._collected = collected
        row_chunks = self.chunks(self.n_rows)

        def mat_idx(r: int, c: int) -> int:
            return r * self.n_cols + c

        def worker(tid: int):
            yield SetAprx(self.d_distance)
            approx = (means.byte_range(), cov.byte_range())
            yield ApproxBegin(approx)
            # ---- phase 1: row means (local accumulator, one store per
            # row into the packed shared array, as Phoenix's C does) ----
            for r in row_chunks[tid]:
                acc = 0
                for c in range(self.n_cols):
                    v = yield from mat.load(mat_idx(r, c))
                    yield Compute(1)
                    acc += v
                yield from means.store(r, acc // self.n_cols)
            yield BarrierWait(phase1)
            # ---- phase 2: banded covariance (local accumulation, one
            # store per entry; means of neighbouring rows are re-read
            # through the caches) ----------------------------------------
            for r in row_chunks[tid]:
                mr = yield from means.load(r)
                for k in range(_BAND):
                    r2 = r + k
                    if r2 >= self.n_rows:
                        continue
                    m2 = yield from means.load(r2)
                    acc = 0
                    for c in range(self.n_cols):
                        a = yield from mat.load(mat_idx(r, c))
                        b = yield from mat.load(mat_idx(r2, c))
                        yield Compute(_MAC_COST)
                        acc += (a - mr) * (b - m2)
                    yield from cov.store(r * _BAND + k, acc // self.n_cols)
            yield ApproxEnd(approx)
            yield BarrierWait(phase2)
            if tid == 0:
                # thread join / context switch: forfeit this core's
                # approximate lines before reading results (paper 3.5)
                yield FlushApprox()
                for r in range(self.n_rows):
                    collected[r] = float((yield from means.load(r)))
                for i in range(self.n_rows * _BAND):
                    collected[self.n_rows + i] = float(
                        (yield from cov.load(i))
                    )

        for tid in range(self.num_threads):
            self.bind_program(machine, tid, partial(worker, tid))
