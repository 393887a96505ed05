"""The paper's dot-product microbenchmarks (Listings 1 & 2, Figs. 1, 12).

* :class:`BadDotProduct` — Listing 1: every thread accumulates directly
  into ``total[thread_id]``; the unpadded ``total`` array packs all
  accumulators into one or two cache blocks, so every store false-shares.
  Used for the Fig. 1 slowdown curve and the Fig. 12 timeout sweep (where
  the accumulators are annotated approximate).
* :class:`PrivateDotProduct` — Listing 2: each thread accumulates into a
  register and performs a single final store, eliminating the sharing.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.isa.instructions import (
    ApproxBegin, ApproxEnd, BarrierWait, Compute, FlushApprox, SetAprx,
)
from repro.sim.machine import Machine
from repro.workloads.base import Workload

__all__ = ["BadDotProduct", "PrivateDotProduct", "StoreThroughDotProduct"]

_MUL_COST = 3  # cycles charged for the multiply-accumulate


class _DotProductBase(Workload):
    suite = "micro"
    domain = "Microbenchmark"
    error_metric = "MPE"

    def __init__(self, num_threads: int, seed: int = 12345,
                 scale: float = 1.0,
                 n_points: int = 4096, approximate: bool = True,
                 max_value: int = 255, flush_before_collect: bool = True) -> None:
        super().__init__(num_threads, seed, scale)
        self.n_points = self.scaled(n_points, minimum=num_threads)
        self.approximate = approximate
        #: Listing 1 reads the totals straight after the loop, in the same
        #: function — no context switch, so no approximate-line flush.
        #: The real applications aggregate after a join (flush=True).
        self.flush_before_collect = flush_before_collect
        self.input_desc = f"{self.n_points} integers in [0, {max_value}]"
        self.a_vals = self.rng.integers(0, max_value + 1, self.n_points)
        self.b_vals = self.rng.integers(0, max_value + 1, self.n_points)
        self._collected: list[int] | None = None

    def reference_output(self):
        parts = []
        for chunk in self.chunks(self.n_points):
            parts.append(int(np.dot(
                self.a_vals[chunk.start:chunk.stop],
                self.b_vals[chunk.start:chunk.stop],
            )))
        return parts

    def collect_output(self):
        if self._collected is None:
            raise RuntimeError("run() has not completed")
        return self._collected

    def _setup_arrays(self, machine: Machine):
        mem = self.make_memory(machine)
        a = mem.alloc_i32(self.n_points, "a", pad_to_block=True,
                          init=self.a_vals.tolist())
        b = mem.alloc_i32(self.n_points, "b", pad_to_block=True,
                          init=self.b_vals.tolist())
        mem.block_gap()
        # Listing 1's int total[NUM_THREADS]: deliberately *packed*
        total = mem.alloc_i32(self.num_threads, "total",
                              init=[0] * self.num_threads)
        return a, b, total


class BadDotProduct(_DotProductBase):
    """Listing 1: false-sharing-prone parallel dot product."""

    name = "bad_dot_product"

    def build(self, machine: Machine) -> None:
        a, b, total = self._setup_arrays(machine)
        barrier = machine.barrier(self.num_threads)
        collected: list[int] = [0] * self.num_threads
        self._collected = collected
        chunks = self.chunks(self.n_points)

        def worker(tid: int):
            yield SetAprx(self.d_distance)
            if self.approximate:
                yield ApproxBegin((total.byte_range(),))
            for i in chunks[tid]:
                av = yield from a.load(i)
                bv = yield from b.load(i)
                yield Compute(_MUL_COST)
                yield from total.add(tid, av * bv)
            if self.approximate:
                yield ApproxEnd((total.byte_range(),))
            yield BarrierWait(barrier)
            if tid == 0:
                if self.flush_before_collect:
                    # thread join / context switch: forfeit this core's
                    # approximate lines first (paper 3.5)
                    yield FlushApprox()
                for t in range(self.num_threads):
                    collected[t] = yield from total.load(t)

        for tid in range(self.num_threads):
            self.bind_program(machine, tid, partial(worker, tid))


class PrivateDotProduct(_DotProductBase):
    """Listing 2: privatized accumulation, one store per thread."""

    name = "private_dot_product"

    def build(self, machine: Machine) -> None:
        a, b, total = self._setup_arrays(machine)
        barrier = machine.barrier(self.num_threads)
        collected: list[int] = [0] * self.num_threads
        self._collected = collected
        chunks = self.chunks(self.n_points)

        def worker(tid: int):
            yield SetAprx(self.d_distance)
            acc = 0  # register-allocated local sum
            for i in chunks[tid]:
                av = yield from a.load(i)
                bv = yield from b.load(i)
                yield Compute(_MUL_COST)
                acc += av * bv
            yield from total.store(tid, acc)
            yield BarrierWait(barrier)
            if tid == 0:
                # thread join / context switch: forfeit this core's
                # approximate lines before reading results (paper 3.5)
                yield FlushApprox()
                for t in range(self.num_threads):
                    collected[t] = yield from total.load(t)

        for tid in range(self.num_threads):
            self.bind_program(machine, tid, partial(worker, tid))


class StoreThroughDotProduct(_DotProductBase):
    """Listing 1 as an optimizing compiler emits it: the accumulator lives
    in a register and is *stored through* to ``total[thread_id]`` every
    iteration (for visibility), with a reload of the shared slot at
    loop-carried boundaries every ``reload_every`` iterations (register
    pressure / function-call spill points).

    This is the Fig. 12 driver: the store-through stream enters GI after
    each invalidation/timeout and keeps hitting it, so GI residency — and
    the amount of accumulation lost when a reload rebases the register to
    the stale coherent value — is bounded by the GI timeout period.
    """

    name = "store_through_dot_product"

    def __init__(self, *args, reload_every: int = 96, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reload_every = max(1, reload_every)

    def build(self, machine: Machine) -> None:
        a, b, total = self._setup_arrays(machine)
        barrier = machine.barrier(self.num_threads)
        collected: list[int] = [0] * self.num_threads
        self._collected = collected
        chunks = self.chunks(self.n_points)

        def worker(tid: int):
            yield SetAprx(self.d_distance)
            if self.approximate:
                yield ApproxBegin((total.byte_range(),))
            acc = 0
            for k, i in enumerate(chunks[tid]):
                if k and k % self.reload_every == 0:
                    # spill boundary: rebase the register on the shared slot
                    acc = yield from total.load(tid)
                av = yield from a.load(i)
                bv = yield from b.load(i)
                yield Compute(_MUL_COST)
                acc += av * bv
                yield from total.store(tid, acc)
            if self.approximate:
                yield ApproxEnd((total.byte_range(),))
            yield BarrierWait(barrier)
            if tid == 0:
                if self.flush_before_collect:
                    yield FlushApprox()
                for t in range(self.num_threads):
                    collected[t] = yield from total.load(t)

        for tid in range(self.num_threads):
            self.bind_program(machine, tid, partial(worker, tid))
