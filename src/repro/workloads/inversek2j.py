"""AxBench ``inversek2j`` — inverse kinematics for a 2-joint arm.

The kernel tracks a slowly moving target trajectory over several frames:
every frame recomputes the joint angles for all targets and overwrites
the angle arrays.  Most targets are stationary between frames (only a
segment of the sweep moves), so most re-stores write the *identical*
bit pattern over the resident value — 0-distance similarity, the largest
bucket of the paper's Fig. 2 measurement ("silent stores").  Some
targets are also out of reach, clamping the elbow angle to exactly 0.

A fine-grained static schedule (4 consecutive points per grab) places
words owned by many threads in every output block, so the re-stores land
on S / tag-present-I blocks and Ghostwriter services them with GS/GI —
the moderate, between-linreg-and-blackscholes benefit the paper reports
for this application.

Error metric NRMSE over the final frame's angles (Table 2).
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

__all__ = ["InverseK2J"]

_L1 = 0.5   # link lengths, as in AxBench
_L2 = 0.5
_POINT_COST = 40
_CHUNK = 4          # fine-grained schedule: 4 consecutive points per grab
_FRAMES = 2         # trajectory frames (frame 2 overwrites frame 1)
_MOVING_FRACTION = 0.35  # share of targets that move between frames


def _ik(x: float, y: float) -> tuple[float, float]:
    """Closed-form 2-joint inverse kinematics (elbow-down)."""
    d2 = x * x + y * y
    c2 = (d2 - _L1 * _L1 - _L2 * _L2) / (2 * _L1 * _L2)
    c2 = max(-1.0, min(1.0, c2))
    th2 = math.acos(c2)
    k1 = _L1 + _L2 * c2
    k2 = _L2 * math.sin(th2)
    th1 = math.atan2(y, x) - math.atan2(k2, k1)
    return th1, th2


class InverseK2J(Workload):
    """The AxBench 2-joint inverse-kinematics workload (see module docstring)."""
    name = "inversek2j"
    suite = "AxBench"
    domain = "Robotics"
    error_metric = "NRMSE"

    def __init__(self, num_threads: int, seed: int = 12345,
                 scale: float = 1.0,
                 n_points: int = 1536) -> None:
        super().__init__(num_threads, seed, scale)
        self.n_points = self.scaled(n_points, minimum=num_threads)
        self.input_desc = (
            f"{self.n_points} 2D targets x {_FRAMES} frames"
        )
        t = np.linspace(0, 4 * math.pi, self.n_points)
        radius = 0.55 + 0.55 * np.abs(np.sin(t * 0.37))
        radius += self.rng.normal(0, 0.004, self.n_points)
        # frame 0 targets
        x0 = (radius * np.cos(t)).astype(np.float32)
        y0 = (radius * np.sin(t)).astype(np.float32)
        # frame 1: only a contiguous-ish subset of targets moves
        moving = self.rng.random(self.n_points) < _MOVING_FRACTION
        dx = np.where(moving, 0.01 * np.cos(3 * t), 0.0)
        dy = np.where(moving, 0.01 * np.sin(3 * t), 0.0)
        self.tx = np.stack([x0, (x0 + dx).astype(np.float32)])
        self.ty = np.stack([y0, (y0 + dy).astype(np.float32)])
        self._collected: list[float] | None = None

    def reference_output(self):
        out = []
        last = _FRAMES - 1
        frame = min(last, 1)
        for i in range(self.n_points):
            th1, th2 = _ik(float(self.tx[frame, i]), float(self.ty[frame, i]))
            out.append(float(np.float32(th1)))
            out.append(float(np.float32(th2)))
        return out

    def collect_output(self):
        if self._collected is None:
            raise RuntimeError("run() has not completed")
        return self._collected

    def _interleaved_indices(self, tid: int) -> list[int]:
        """Fine-grained static schedule: round-robin chunks of _CHUNK."""
        idx = []
        n_chunks = -(-self.n_points // _CHUNK)
        for c in range(tid, n_chunks, self.num_threads):
            idx.extend(
                range(c * _CHUNK, min((c + 1) * _CHUNK, self.n_points))
            )
        return idx

    def build(self, machine: Machine) -> None:
        mem = self.make_memory(machine)
        frames_x = [
            mem.alloc_f32(self.n_points, f"tx{f}", pad_to_block=True,
                          init=self.tx[min(f, 1)].tolist())
            for f in range(_FRAMES)
        ]
        frames_y = [
            mem.alloc_f32(self.n_points, f"ty{f}", pad_to_block=True,
                          init=self.ty[min(f, 1)].tolist())
            for f in range(_FRAMES)
        ]
        mem.block_gap()
        th1 = mem.alloc_f32(self.n_points, "theta1",
                            init=[0.0] * self.n_points)
        th2 = mem.alloc_f32(self.n_points, "theta2",
                            init=[0.0] * self.n_points)
        frame_done = [machine.barrier(self.num_threads)
                      for _ in range(_FRAMES)]
        collected = [0.0] * (2 * self.n_points)
        self._collected = collected
        my_indices = {
            tid: self._interleaved_indices(tid)
            for tid in range(self.num_threads)
        }

        def worker(tid: int):
            yield SetAprx(self.d_distance)
            approx = (th1.byte_range(), th2.byte_range())
            yield ApproxBegin(approx)
            for f in range(_FRAMES):
                for i in my_indices[tid]:
                    x = yield from frames_x[f].load(i)
                    y = yield from frames_y[f].load(i)
                    yield Compute(_POINT_COST)
                    a1, a2 = _ik(x, y)
                    yield from th1.store(i, a1)
                    yield from th2.store(i, a2)
                yield BarrierWait(frame_done[f])
            yield ApproxEnd(approx)
            if tid == 0:
                # thread join / context switch: forfeit this core's
                # approximate lines before reading results (paper 3.5)
                yield FlushApprox()
                for i in range(self.n_points):
                    collected[2 * i] = yield from th1.load(i)
                    collected[2 * i + 1] = yield from th2.load(i)

        for tid in range(self.num_threads):
            self.bind_program(machine, tid, partial(worker, tid))
