"""Progress watchdog: deadlock detection with a structured diagnostic.

The blind ``max_cycles`` abort tells you *that* the simulation hung, not
*why*.  The watchdog polls every ``watchdog_interval`` cycles; if no core
retires any work for :data:`STALL_THRESHOLD` consecutive intervals while
cores are still unfinished, it raises :class:`DeadlockError` carrying
:func:`diagnostic_dump`: per-core blocked op, L1 MSHR and write-back
buffer contents, directory busy entries with their pending queues, and
the NoC messages still in flight — everything needed to localize a
wedged transaction.

The watchdog registers itself with the machine as a periodic event
(tag ``("watchdog",)``), which stays scheduled while unfinished cores
exist, so a drained-but-deadlocked event queue also surfaces as a
watchdog report instead of a bare "core never finished".
"""
from __future__ import annotations

from repro.sim.engine import SimulationError

__all__ = ["DeadlockError", "ProgressWatchdog", "STALL_THRESHOLD",
           "diagnostic_dump"]

_MAX_DUMPED_MESSAGES = 24

#: consecutive no-progress polls tolerated before raising
STALL_THRESHOLD = 2


class DeadlockError(SimulationError):
    """No forward progress for :data:`STALL_THRESHOLD` watchdog
    intervals; the message carries the full diagnostic dump.

    When the hung machine had a checkpoint recorder attached,
    ``Machine.run`` sets :attr:`checkpoint` to the most recent
    :class:`~repro.sim.state.MachineCheckpoint` before re-raising, so
    the hang can be replayed from just before it wedged (the wedged
    state itself is never a safe point — its event queue is full of
    in-flight transaction closures)."""

    checkpoint = None


def diagnostic_dump(machine) -> str:
    """A structured snapshot of everything that can wedge a run."""
    eng = machine.engine
    out = [
        f"=== diagnostic dump @ cycle {eng.now} "
        f"({eng.pending()} events pending) ==="
    ]
    for core in machine.cores:
        if core is None:
            continue
        if core.done:
            status = f"done @ cycle {core.finish_cycle}"
        elif core.blocked_op is not None:
            status = (
                f"BLOCKED on {core.blocked_op} "
                f"since cycle {core._blocked_since}"
            )
        else:
            status = "runnable"
        out.append(f"core {core.cid}: {status}")
    for l1 in machine.l1s:
        entries = l1.mshrs.entries()
        wb = l1.wb_buffer_occupancy()
        if not entries and not wb:
            continue
        for e in entries:
            out.append(
                f"L1 {l1.node}: MSHR {e.kind.value} on {e.block_addr:#x} "
                f"issued @ {e.issued_at}, {len(e.deferred)} deferred msg(s)"
            )
        for block, depth in wb.items():
            out.append(
                f"L1 {l1.node}: write-back buffer holds {block:#x} "
                f"(depth {depth})"
            )
    for agent in machine.agents.values():
        for block, e in agent.busy_entries().items():
            txn = e.txn
            desc = (
                f"dir {agent.node}: busy on {block:#x} "
                f"state={e.state.value} owner={e.owner} "
                f"sharers={sorted(e.sharers)}"
            )
            if txn is not None:
                desc += (
                    f" txn={txn.msg} pending_acks={txn.pending_acks}"
                    f" waiting_chain={txn.waiting_chain}"
                )
            if e.pending:
                desc += f" queued={[str(m) for m in e.pending]}"
            out.append(desc)
    in_flight = machine.network.in_flight()
    for msg in in_flight[:_MAX_DUMPED_MESSAGES]:
        out.append(f"noc in flight: {msg}")
    if len(in_flight) > _MAX_DUMPED_MESSAGES:
        out.append(f"noc: ... and {len(in_flight) - _MAX_DUMPED_MESSAGES} more")
    flight = getattr(machine, "flight", None)
    if flight is not None and len(flight):
        out.append(flight.render_tail())
    return "\n".join(out)


class ProgressWatchdog:
    """Raises :class:`DeadlockError` when retirement stops."""

    def __init__(self, machine, interval: int) -> None:
        if interval < 1:
            raise ValueError("watchdog interval must be >= 1 cycle")
        self.machine = machine
        self.interval = interval
        self._last: tuple | None = None
        self._stalls = 0
        machine.register(("watchdog",), self._fire, interval)

    def _progress(self) -> tuple:
        cores = [c for c in self.machine.cores if c is not None]
        return (
            sum(1 for c in cores if c.done),
            sum(int(c.stats.mem_ops) for c in cores),
            sum(int(c.stats.compute_cycles) for c in cores),
        )

    def _fire(self) -> None:
        unfinished = [c for c in self.machine.cores
                      if c is not None and not c.done]
        if not unfinished:
            return  # run is finishing; let the queue drain naturally
        snap = self._progress()
        if snap == self._last and all(c.blocked_op is not None
                                      for c in unfinished):
            self._stalls += 1
            if self._stalls >= STALL_THRESHOLD:
                raise DeadlockError(
                    f"no op retired in {self._stalls * self.interval} "
                    f"cycles ({len(unfinished)} core(s) unfinished)\n"
                    + diagnostic_dump(self.machine)
                )
        else:
            # a runnable core (e.g. mid-Compute) is forward progress even
            # while the retirement counters sit still
            self._stalls = 0
            self._last = snap

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Restorable stall-tracking state."""
        return {"last": self._last, "stalls": self._stalls}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state."""
        self._last = blob["last"]
        self._stalls = blob["stalls"]
