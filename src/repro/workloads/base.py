"""Workload abstraction.

A :class:`Workload` knows how to (1) allocate and initialize its data
structures in a machine's simulated memory, (2) bind one thread program
per core, (3) compute an exact reference output in plain Python, and
(4) report the output the simulated run actually produced (collected by
the threads themselves through simulated loads, so approximate execution
shows up in the output exactly as it would on the paper's hardware).

Workloads always emit the approximation pragmas; on a machine whose
Ghostwriter protocol is disabled the scribbles degrade to conventional
stores, so a single program serves both the baseline and the approximate
runs — the same way one binary runs on both machines in the paper.
"""
from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from repro.analysis.errors import error_for_metric
from repro.common.config import SimConfig
from repro.isa.compiled import ProgramSpec
from repro.sim.machine import Machine
from repro.workloads.alloc import SharedMemory

__all__ = ["Workload", "WorkloadResult"]


class WorkloadResult:
    """Everything the harness needs from one finished run."""

    __slots__ = ("workload", "cycles", "stats", "machine", "output",
                 "reference", "error_pct")

    def __init__(self, workload: "Workload", machine: Machine,
                 cycles: int) -> None:
        self.workload = workload
        self.machine = machine
        self.cycles = cycles
        self.stats = machine.stats
        self.output = np.asarray(workload.collect_output(), dtype=np.float64)
        self.reference = np.asarray(workload.reference_output(),
                                    dtype=np.float64)
        self.error_pct = error_for_metric(
            workload.error_metric, self.reference, self.output
        )


class Workload(abc.ABC):
    """Base class for every benchmark (Table 2) and microbenchmark."""

    #: registry metadata (Table 2 columns)
    name: str = "?"
    suite: str = "?"
    domain: str = "?"
    input_desc: str = "?"
    error_metric: str = "MPE"  # or "NRMSE"

    #: d-distance the programs' ``SetAprx`` loads into the scribe units:
    #: the bound machine's, set by :meth:`bind_program`
    d_distance: int

    def __init__(self, num_threads: int, seed: int = 12345,
                 scale: float = 1.0) -> None:
        if num_threads < 1:
            raise ValueError("need at least one thread")
        if not 0.0 < scale <= 64.0:
            raise ValueError("scale out of range")
        self.num_threads = num_threads
        self.seed = seed
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self._built = False

    # ------------------------------------------------------------------
    # machinery subclasses implement
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build(self, machine: Machine) -> None:
        """Allocate inputs/outputs and bind one program per thread."""

    @abc.abstractmethod
    def reference_output(self) -> Sequence[float]:
        """Exact output, computed in plain Python."""

    @abc.abstractmethod
    def collect_output(self) -> Sequence[float]:
        """Output observed by the simulated application (post-run)."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def make_memory(self, machine: Machine) -> SharedMemory:
        """A shared-memory allocator bound to the machine's backing store."""
        return SharedMemory(machine.backing, machine.cfg.block_bytes)

    def scaled(self, n: int, minimum: int = 1) -> int:
        """Scale a nominal size by the workload's scale factor."""
        return max(minimum, int(round(n * self.scale)))

    def chunks(self, total: int) -> list[range]:
        """Contiguous per-thread ranges (OpenMP static schedule)."""
        per = -(-total // self.num_threads)
        return [
            range(t * per, min((t + 1) * per, total))
            for t in range(self.num_threads)
        ]

    def bind_program(self, machine: Machine, tid: int,
                     factory: Callable[[], object]) -> None:
        """Bind thread ``tid``'s program, through the program cache when
        the registry attached one to this instance.

        ``factory`` must produce a fresh generator per call (use
        ``functools.partial(self.worker, tid)``, not ``self.worker(tid)``)
        — the compiled layer rebuilds the generator for deoptimization
        and the end-of-run side-effect replay.  Without a cache (direct
        instantiation, unhashable params, ``compile_programs`` off) this
        degrades to the plain generator path.

        The machine config is the single source of truth for the
        d-distance the programs program into the scribe units.
        """
        self.d_distance = machine.cfg.ghostwriter.d_distance
        cache = getattr(self, "_program_cache", None)
        key_base = getattr(self, "_program_key", None)
        if (cache is None or key_base is None
                or not machine.cfg.compile_programs):
            machine.add_thread(tid, factory())
            return
        # block size and d-distance shape the recorded op stream (block
        # alignment, the SetAprx operand); gi-timeout/protocol knobs do
        # not — cross-config divergence is caught by load validation
        key = (*key_base, machine.cfg.block_bytes, self.d_distance, tid)
        machine.add_thread(tid, ProgramSpec(factory, key, cache))

    # ------------------------------------------------------------------
    # one-stop runner
    # ------------------------------------------------------------------
    def prepare(self, cfg: SimConfig) -> Machine:
        """Build a ready-to-run machine: validate, allocate, bind threads.

        The first half of :meth:`run`, exposed separately so the
        checkpoint layer can interpose between construction and
        execution: restore a :class:`~repro.sim.state.MachineCheckpoint`
        into the machine and resume it instead of running from cycle 0.
        """
        if cfg.num_cores < self.num_threads:
            raise ValueError(
                f"{self.name}: {self.num_threads} threads > "
                f"{cfg.num_cores} cores"
            )
        if self._built:
            raise RuntimeError(
                f"{self.name}: a Workload instance can run only once "
                "(construct a fresh one per run)"
            )
        self._built = True
        machine = Machine(cfg)
        self.build(machine)
        return machine

    def collect(self, machine: Machine, cfg: SimConfig) -> WorkloadResult:
        """Bundle a finished machine's results (second half of :meth:`run`)."""
        if cfg.verify.check_invariants:
            machine.check_quiescent()
            machine.check_coherence_invariants()
        # execution time is when the last thread finishes; the queue keeps
        # draining housekeeping events (e.g. a pending GI timeout) after
        # that, which must not count against the protocol
        cycles = max(machine.core_finish_cycles())
        return WorkloadResult(self, machine, cycles)

    def run(self, cfg: SimConfig, max_cycles: int = 500_000_000) -> WorkloadResult:
        """Build a machine with ``cfg``, run to completion, bundle results."""
        machine = self.prepare(cfg)
        machine.run(max_cycles=max_cycles)
        return self.collect(machine, cfg)
