"""Phoenix ``histogram`` — per-channel pixel histograms of an image.

Phoenix's pthread histogram gives every thread a private partial
histogram and merges at the end; prior tools flagged latent false sharing
in its per-thread argument structures (``arg.blue``), but the paper
observed *very little* of it at runtime (§4.2: 0.2 % coherence misses)
and correspondingly no Ghostwriter benefit.  We mirror that structure:
per-thread partial bins packed contiguously (block-boundary sharing
only), a packed args array updated once per strip (the latent, rarely
contended structure), and a sequential merge.

Input models the paper's 400 MB bitmap: synthetic RGB bytes with smooth
spatial correlation, scaled down.  Error metric MPE over merged bins.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.isa.instructions import (
    ApproxBegin, ApproxEnd, BarrierWait, Compute, FlushApprox, SetAprx,
)
from repro.sim.machine import Machine
from repro.workloads.base import Workload

__all__ = ["Histogram"]

_BINS = 64          # scaled-down from 256 (documented in DESIGN.md)
_SHIFT = 2          # pixel byte -> bin index (256 / 64)
_STRIP = 64         # pixels per args-update strip
_ARGS_WORDS = 4     # per-thread progress/bookkeeping fields, packed


class Histogram(Workload):
    """The Phoenix per-channel histogram workload (see module docstring)."""
    name = "histogram"
    suite = "Phoenix"
    domain = "Image Processing"
    error_metric = "MPE"

    def __init__(self, num_threads: int, seed: int = 12345,
                 scale: float = 1.0,
                 n_pixels: int = 6144) -> None:
        super().__init__(num_threads, seed, scale)
        self.n_pixels = self.scaled(n_pixels, minimum=num_threads)
        self.input_desc = f"{self.n_pixels}-pixel RGB image"
        # smooth image: random walk per channel, clipped to bytes
        steps = self.rng.integers(-6, 7, size=(3, self.n_pixels))
        img = np.clip(np.cumsum(steps, axis=1) + 128, 0, 255)
        self.pixels = img.astype(np.int64)  # [channel, pixel]
        self._collected: list[int] | None = None

    def reference_output(self):
        out = []
        for ch in range(3):
            bins = np.bincount(self.pixels[ch] >> _SHIFT, minlength=_BINS)
            out.extend(int(v) for v in bins[:_BINS])
        return out

    def collect_output(self):
        if self._collected is None:
            raise RuntimeError("run() has not completed")
        return self._collected

    def build(self, machine: Machine) -> None:
        mem = self.make_memory(machine)
        chan = [
            mem.alloc_i32(self.n_pixels, f"pix_{c}", pad_to_block=True,
                          init=self.pixels[c].tolist())
            for c in range(3)
        ]
        mem.block_gap()
        # per-thread partial bins, contiguous (boundary sharing only)
        part = mem.alloc_i32(self.num_threads * 3 * _BINS, "partial_bins",
                             init=[0] * (self.num_threads * 3 * _BINS))
        # the latent arg structs, packed like Phoenix's
        args = mem.alloc_i32(self.num_threads * _ARGS_WORDS, "args",
                             init=[0] * (self.num_threads * _ARGS_WORDS))
        mem.block_gap()
        merged = mem.alloc_i32(3 * _BINS, "merged_bins",
                               init=[0] * (3 * _BINS))
        barrier = machine.barrier(self.num_threads)
        collected: list[int] = [0] * (3 * _BINS)
        self._collected = collected
        chunks = self.chunks(self.n_pixels)

        def bin_index(tid: int, ch: int, b: int) -> int:
            return (tid * 3 + ch) * _BINS + b

        def worker(tid: int):
            yield SetAprx(self.d_distance)
            approx_ranges = (part.byte_range(), args.byte_range())
            yield ApproxBegin(approx_ranges)
            for k, i in enumerate(chunks[tid]):
                for ch in range(3):
                    px = yield from chan[ch].load(i)
                    yield Compute(1)
                    yield from part.add(bin_index(tid, ch, px >> _SHIFT), 1)
                if k % _STRIP == 0:
                    # Phoenix-style progress update on the packed struct
                    yield from args.add(tid * _ARGS_WORDS, 1)
            yield ApproxEnd(approx_ranges)
            yield BarrierWait(barrier)
            if tid == 0:
                # thread join / context switch: forfeit this core's
                # approximate lines before reading results (paper 3.5)
                yield FlushApprox()
                # sequential merge, as in Phoenix's final phase
                for ch in range(3):
                    for b in range(_BINS):
                        total = 0
                        for t in range(self.num_threads):
                            total += yield from part.load(bin_index(t, ch, b))
                        yield from merged.store(ch * _BINS + b, total)
                        collected[ch * _BINS + b] = total

        for tid in range(self.num_threads):
            self.bind_program(machine, tid, partial(worker, tid))
