#!/usr/bin/env python3
"""Epoch-by-epoch reproduction of the paper's Figures 4 and 5.

Part 1 (Fig. 4) — migratory false sharing: two cores alternately load
and store different offsets of the same block, first under baseline
MESI (watch the UPGRADE ping-pong) and then under Ghostwriter (watch
the scribble absorb into GS and the epoch-2 load hit).

Part 2 (Fig. 5) — producer-consumer: producers rotate across cores;
under Ghostwriter the second producer's scribble transitions I -> GI
without a GETX, and the consumer still reads offset 0 correctly while
offset 1 is served stale (approximate execution).  The GI timeout then
returns the block to coherency.

Run:  python examples/protocol_walkthrough.py
"""
from repro.common.config import small_config
from repro.common.types import MessageClass
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store
from repro.obs.events import Event, EventKind
from repro.sim.machine import Machine

BLOCK = 0x4000
EPOCH = 400


def _machine(num_cores: int, d: int, gi_timeout: int = 1024):
    """A small machine; ``d=0`` is baseline MESI."""
    cfg = small_config(num_cores=num_cores, d_distance=d,
                       gi_timeout=gi_timeout)
    machine = Machine(cfg)
    machine.attach_bus().subscribe(_show, kinds={EventKind.STATE})
    return machine


def _show(ev: Event) -> None:
    """Print one L1 state transition as it happens."""
    old, new = ev.what.split("->")
    print(f"    [cycle {ev.cycle:>4}] core {ev.node}: {old:>4} -> "
          f"{new:<4} ({ev.info})")


def migratory(d: int) -> None:
    label = "Ghostwriter" if d else "baseline MESI"
    print(f"\n--- Fig. 4: migratory false sharing under {label} ---")
    machine = _machine(2, d)

    def core0():
        yield SetAprx(4)
        print("  epoch 0: core 0 stores <a> at offset 0")
        yield Store(BLOCK + 0, 0xA)
        yield Compute(2 * EPOCH)
        print("  epoch 2: core 0 loads offset 0")
        v = yield Load(BLOCK + 0)
        print(f"    -> core 0 read {v:#x}")

    def core1():
        yield SetAprx(4)
        yield Compute(EPOCH)
        print("  epoch 1: core 1 loads offset 1, then writes <b> there")
        yield Load(BLOCK + 4)
        yield Scribble(BLOCK + 4, 0xB)
        yield Compute(2 * EPOCH)

    machine.add_thread(0, core0())
    machine.add_thread(1, core1())
    machine.run()
    machine.check_quiescent()
    c0 = machine.stats.child("l1").child("c0")
    counts = machine.network.class_counts()
    print(f"  => core 0 coherence load misses: {int(c0.load_misses)}, "
          f"UPGRADE requests on the NoC: {counts[MessageClass.UPGRADE]}")


def producer_consumer() -> None:
    print("\n--- Fig. 5: producer-consumer under Ghostwriter (GI) ---")
    machine = _machine(3, d=4, gi_timeout=6 * EPOCH)

    def core0():  # first producer
        yield SetAprx(4)
        yield Compute(EPOCH // 2)
        print("  epoch 0: core 0 produces <a> at offset 0 (GETX)")
        yield Store(BLOCK + 0, 0xA)
        yield Compute(3 * EPOCH)

    def core1():  # initially holds the block in M; next producer
        yield SetAprx(4)
        yield Store(BLOCK + 4, 0x1)
        yield Compute(EPOCH)
        print("  epoch 1: core 1 produces <b> at offset 1 as a scribble")
        yield Scribble(BLOCK + 4, 0xB)  # I -> GI: no GETX!
        yield Compute(8 * EPOCH)        # epoch 2: GI times out

    def core2():  # consumer
        yield SetAprx(4)
        yield Compute(2 * EPOCH)
        v0 = yield Load(BLOCK + 0)
        v1 = yield Load(BLOCK + 4)
        print(f"  consumer reads offset 0 = {v0:#x} (correct), "
              f"offset 1 = {v1:#x} (stale: core 1's 0xb is hidden)")

    machine.add_thread(0, core0())
    machine.add_thread(1, core1())
    machine.add_thread(2, core2())
    machine.run()
    machine.check_quiescent()
    l1 = machine.stats.child("l1")
    print(f"  => stores serviced by GI: {int(l1.total('gi_serviced'))}, "
          f"GI timeout invalidations: "
          f"{int(l1.total('gi_timeout_invalidations'))}")


def main() -> None:
    migratory(d=0)
    migratory(d=4)
    producer_consumer()


if __name__ == "__main__":
    main()
