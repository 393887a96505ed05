#!/usr/bin/env python3
"""Quickstart: build a machine, run threads, watch Ghostwriter work.

Simulates two cores sharing one cache block.  Core 1's approximate store
(a *scribble*) is absorbed by the GS state instead of invalidating
core 0's copy, so core 0's next load still hits — the essence of the
Ghostwriter protocol (paper Fig. 4).

Run:  python examples/quickstart.py
"""
from repro.common.config import small_config
from repro.common.types import MessageClass
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store
from repro.obs.events import Event, EventKind
from repro.sim.machine import Machine


def main() -> None:
    # a small 2-core machine with Ghostwriter enabled at d-distance 4
    cfg = small_config(num_cores=2, d_distance=4)
    machine = Machine(cfg)

    # print every coherence transition as it happens
    def show(ev: Event) -> None:
        old, new = ev.what.split("->")
        print(f"  [cycle {ev.cycle:>4}] core {ev.node}: block {ev.addr:#x} "
              f"{old:>4} -> {new:<4} ({ev.info})")

    machine.attach_bus().subscribe(show, kinds={EventKind.STATE})

    BLOCK = 0x4000

    def core0():
        yield SetAprx(4)                 # program the scribe comparator
        yield Store(BLOCK + 0, 0xA)      # take the block exclusively
        yield Compute(400)               # ... meanwhile core 1 shares it
        value = yield Load(BLOCK + 0)    # still a HIT under Ghostwriter!
        print(f"core 0 read back {value:#x} (expected 0xa) "
              f"without a coherence miss")

    def core1():
        yield SetAprx(4)
        yield Compute(150)
        yield Load(BLOCK + 4)            # join as a sharer (S state)
        yield Scribble(BLOCK + 4, 0xB)   # approximate store -> GS, no
        value = yield Load(BLOCK + 4)    # UPGRADE broadcast
        print(f"core 1 sees its own scribbled value {value:#x} locally")

    machine.add_thread(0, core0())
    machine.add_thread(1, core1())

    print("running...")
    cycles = machine.run()
    machine.check_quiescent()

    counts = machine.network.class_counts()
    print(f"\nfinished in {cycles} cycles")
    print(f"coherence traffic: {counts[MessageClass.GETS]} GETS, "
          f"{counts[MessageClass.GETX]} GETX, "
          f"{counts[MessageClass.UPGRADE]} UPGRADE "
          f"(note: zero UPGRADEs — GS absorbed the scribble)")
    gs = machine.stats.child("l1").total("gs_serviced")
    print(f"stores serviced by the GS state: {int(gs)}")


if __name__ == "__main__":
    main()
