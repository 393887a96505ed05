"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import pytest

from repro.common.config import SimConfig, small_config
from repro.isa.instructions import (
    Compute, Load, Scribble, SetAprx, Store,
)
from repro.obs.events import Event, EventKind
from repro.sim.machine import Machine


class TraceRecorder:
    """Captures L1 coherence transitions (the bus's ``STATE`` events)
    for assertions."""

    def __init__(self) -> None:
        self.events: list[tuple[int, int, int, str, str, str]] = []

    def attach(self, machine: Machine) -> None:
        machine.attach_bus().subscribe(self._record, kinds={EventKind.STATE})

    def _record(self, ev: Event) -> None:
        old, new = ev.what.split("->")
        self.events.append((ev.cycle, ev.node, ev.addr, old, new, ev.info))

    def transitions(self, node: int | None = None) -> list[tuple[str, str]]:
        return [
            (old, new)
            for (_c, n, _b, old, new, _w) in self.events
            if node is None or n == node
        ]

    def has(self, old: str, new: str, node: int | None = None) -> bool:
        return (old, new) in self.transitions(node)


def build_machine(num_cores: int = 2, *, d_distance: int = 4,
                  gi_timeout: int = 1024,
                  protocol: str = "ghostwriter") -> Machine:
    from dataclasses import replace
    cfg = small_config(
        num_cores=num_cores, d_distance=d_distance, gi_timeout=gi_timeout,
    )
    return Machine(replace(cfg, protocol=protocol))


def attach_program_recorder(machine: Machine) -> Machine:
    """Give ``machine`` a checkpoint recorder that never captures, so
    every thread program the program cache misses is recorded and stored
    (only a checkpointing machine records one).  Call before
    ``add_thread``."""
    from repro.sim.state import CheckpointRecorder

    # a period no test run reaches: the recorder captures nothing
    machine.checkpoint_recorder = CheckpointRecorder(1 << 62)
    return machine


def recording_machines():
    """Context in which every machine built records its thread programs
    (:func:`attach_program_recorder` as a construction hook)."""
    from repro.sim.machine import machine_hook

    return machine_hook(attach_program_recorder)


def run_scripts(machine: Machine, *scripts, max_cycles: int = 2_000_000) -> int:
    """Bind generator scripts to cores 0..n-1 and run to completion."""
    for cid, script in enumerate(scripts):
        machine.add_thread(cid, script)
    end = machine.run(max_cycles=max_cycles)
    machine.check_quiescent()
    return end


def simple_writer(addr: int, values) :
    def prog():
        yield SetAprx(4)
        for v in values:
            yield Store(addr, v)
    return prog()


@pytest.fixture
def machine2():
    return build_machine(2)


@pytest.fixture
def machine4():
    return build_machine(4)


@pytest.fixture
def baseline2():
    return build_machine(2, d_distance=0)


__all__ = [
    "TraceRecorder", "build_machine", "run_scripts",
    "Load", "Store", "Scribble", "SetAprx", "Compute",
]
