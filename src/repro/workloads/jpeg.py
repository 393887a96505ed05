"""AxBench ``jpeg`` — DCT + quantization image compression.

Threads grab 8x8 tiles round-robin, load the pixels through the caches,
run a 2D DCT, quantize, and store the 64 coefficients.  Two shared
structures give jpeg the paper's "mixture of migratory and
producer-consumer sharing" (§4.2):

* ``rate[tid]`` — per-thread output-byte counters in one packed array,
  updated after every tile: migratory false sharing (like lreg_args);
* ``nz_hist[k][tid]`` — per-thread partials of the per-frequency
  nonzero-coefficient histogram (the encoder's rate-statistics table),
  laid out frequency-major so every block interleaves words owned by
  many threads (the lreg_args pattern), with +1 increments that are
  almost always bit-similar: heavy GS/GI service, exact in the baseline.

Output is the reconstructed (dequantize + inverse-DCT) image *plus* the
encoder's rate metadata (per-thread byte counters and the merged
nonzero histogram), compared against the exact pipeline by NRMSE, so
both corrupted coefficients and dropped statistics updates show up as
output error.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.isa.instructions import (
    ApproxBegin, ApproxEnd, BarrierWait, Compute, FlushApprox, SetAprx,
)
from repro.sim.machine import Machine
from repro.workloads.base import Workload

__all__ = ["Jpeg"]

_T = 8  # tile edge
_TILE_COST = 260  # cycles for the 2D DCT of one tile

# standard JPEG luminance quantization table
_QTABLE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


def _dct_matrix() -> np.ndarray:
    m = np.zeros((_T, _T))
    for k in range(_T):
        for n in range(_T):
            c = np.sqrt(1.0 / _T) if k == 0 else np.sqrt(2.0 / _T)
            m[k, n] = c * np.cos(np.pi * (2 * n + 1) * k / (2 * _T))
    return m


_DCT = _dct_matrix()


def dct2(tile: np.ndarray) -> np.ndarray:
    """Forward 2D DCT of one 8x8 tile."""
    return _DCT @ tile @ _DCT.T


def idct2(coefs: np.ndarray) -> np.ndarray:
    """Inverse 2D DCT of one coefficient tile."""
    return _DCT.T @ coefs @ _DCT


def quantize(coefs: np.ndarray) -> np.ndarray:
    """Quantize with the standard JPEG luminance table."""
    return np.round(coefs / _QTABLE).astype(np.int64)


def dequantize(q: np.ndarray) -> np.ndarray:
    """Invert :func:`quantize` (up to rounding)."""
    return q.astype(np.float64) * _QTABLE


class Jpeg(Workload):
    """The AxBench DCT+quantization workload (see module docstring)."""
    name = "jpeg"
    suite = "AxBench"
    domain = "Image Compression"
    error_metric = "NRMSE"

    def __init__(self, num_threads: int, seed: int = 12345,
                 scale: float = 1.0,
                 image_edge: int = 48) -> None:
        super().__init__(num_threads, seed, scale)
        import math
        edge = self.scaled(image_edge, minimum=_T)
        # keep at least ~one tile per thread so the sharing structure
        # survives aggressive downscaling
        min_edge = _T * max(2, math.ceil(math.sqrt(num_threads)))
        edge = max(edge, min_edge)
        self.edge = (edge // _T) * _T  # multiple of the tile size
        self.input_desc = f"{self.edge}x{self.edge} image"
        # smooth synthetic photo: low-frequency gradients + mild noise
        yy, xx = np.mgrid[0:self.edge, 0:self.edge]
        img = (
            128
            + 70 * np.sin(xx / 9.0) * np.cos(yy / 13.0)
            + 25 * np.sin((xx + yy) / 23.0)
            + self.rng.normal(0, 3.0, (self.edge, self.edge))
        )
        self.image = np.clip(img, 0, 255).astype(np.int64)
        self.tiles_per_edge = self.edge // _T
        self.n_tiles = self.tiles_per_edge ** 2
        self._collected: list[float] | None = None
        self._ref: list[float] | None = None

    # ------------------------------------------------------------------
    def _tile_pixels(self, t: int) -> np.ndarray:
        ty, tx = divmod(t, self.tiles_per_edge)
        return self.image[ty * _T:(ty + 1) * _T, tx * _T:(tx + 1) * _T]

    def reference_output(self):
        if self._ref is None:
            recon = np.zeros((self.edge, self.edge))
            rate = [0] * self.num_threads
            hist = np.zeros(_T * _T, dtype=np.int64)
            for t in range(self.n_tiles):
                q = quantize(dct2(self._tile_pixels(t).astype(np.float64)))
                ty, tx = divmod(t, self.tiles_per_edge)
                recon[ty * _T:(ty + 1) * _T, tx * _T:(tx + 1) * _T] = (
                    idct2(dequantize(q))
                )
                nzmask = (q.ravel() != 0).astype(np.int64)
                hist += nzmask
                rate[t % self.num_threads] += 2 + int(nzmask.sum())
            self._ref = (
                [float(v) for v in recon.ravel()]
                + [float(v) for v in rate]
                + [float(v) for v in hist]
            )
        return self._ref

    def collect_output(self):
        if self._collected is None:
            raise RuntimeError("run() has not completed")
        return self._collected

    # ------------------------------------------------------------------
    def build(self, machine: Machine) -> None:
        mem = self.make_memory(machine)
        n_px = self.edge * self.edge
        pixels = mem.alloc_i32(n_px, "pixels", pad_to_block=True,
                               init=self.image.ravel().tolist())
        mem.block_gap()
        coefs = mem.alloc_i32(self.n_tiles * _T * _T, "coefs",
                              init=[0] * (self.n_tiles * _T * _T))
        # shared rate counters + per-thread histogram partials: the
        # contended structures
        rate = mem.alloc_i32(self.num_threads, "rate",
                             init=[0] * self.num_threads)
        nz_hist = mem.alloc_i32(self.num_threads * _T * _T, "nz_hist",
                                init=[0] * (self.num_threads * _T * _T))
        barrier = machine.barrier(self.num_threads)
        collected = [0.0] * (n_px + self.num_threads + _T * _T)
        self._collected = collected

        def px_index(t: int, r: int, c: int) -> int:
            ty, tx = divmod(t, self.tiles_per_edge)
            return (ty * _T + r) * self.edge + (tx * _T + c)

        def worker(tid: int):
            yield SetAprx(self.d_distance)
            approx = (coefs.byte_range(), rate.byte_range(),
                      nz_hist.byte_range())
            yield ApproxBegin(approx)
            for t in range(tid, self.n_tiles, self.num_threads):
                tile = np.zeros((_T, _T))
                for r in range(_T):
                    for c in range(_T):
                        tile[r, c] = yield from pixels.load(px_index(t, r, c))
                yield Compute(_TILE_COST)
                q = quantize(dct2(tile))
                nz = 0
                for r in range(_T):
                    for c in range(_T):
                        v = int(q[r, c])
                        yield from coefs.store(t * _T * _T + r * _T + c, v)
                        if v != 0:
                            nz += 1
                            yield from nz_hist.add(
                                (r * _T + c) * self.num_threads + tid, 1
                            )
                yield from rate.add(tid, 2 + nz)  # crude byte estimate
            yield ApproxEnd(approx)
            yield BarrierWait(barrier)
            if tid == 0:
                # thread join / context switch: forfeit this core's
                # approximate lines before reading results (paper 3.5)
                yield FlushApprox()
                recon = np.zeros((self.edge, self.edge))
                for t in range(self.n_tiles):
                    q = np.zeros((_T, _T), dtype=np.int64)
                    for r in range(_T):
                        for c in range(_T):
                            q[r, c] = yield from coefs.load(
                                t * _T * _T + r * _T + c
                            )
                    ty, tx = divmod(t, self.tiles_per_edge)
                    recon[ty * _T:(ty + 1) * _T, tx * _T:(tx + 1) * _T] = (
                        idct2(dequantize(q))
                    )
                collected[:n_px] = [float(v) for v in recon.ravel()]
                for t_ in range(self.num_threads):
                    collected[n_px + t_] = float(
                        (yield from rate.load(t_))
                    )
                for k in range(_T * _T):
                    merged = 0
                    for t_ in range(self.num_threads):
                        merged += yield from nz_hist.load(
                            k * self.num_threads + t_
                        )
                    collected[n_px + self.num_threads + k] = float(merged)

        for tid in range(self.num_threads):
            self.bind_program(machine, tid, partial(worker, tid))
