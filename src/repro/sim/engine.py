"""Deterministic discrete-event simulation kernel.

A single binary-heap event queue keyed by ``(cycle, seq)``; ``seq`` is a
monotonically increasing tie-breaker so same-cycle events fire in the
order they were scheduled, which makes every run bit-reproducible.

The engine knows nothing about caches or cores — components schedule
callbacks.  Long runs are bounded by ``max_cycles`` (deadlock insurance);
exceeding it raises :class:`SimulationTimeout` rather than spinning.
"""
from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["Engine", "SimulationTimeout", "SimulationError",
           "CheckpointUnsupported"]


class SimulationError(RuntimeError):
    """Generic fatal simulator condition.

    When the failing machine had a checkpoint recorder attached,
    ``Machine.run`` sets :attr:`checkpoint` to the most recent
    :class:`~repro.sim.state.MachineCheckpoint` before re-raising, so
    the failure window can be replayed from just before it."""

    checkpoint = None


class SimulationTimeout(SimulationError):
    """The event queue outlived ``max_cycles`` — almost always a protocol
    deadlock or a thread program that never finishes."""


class CheckpointUnsupported(SimulationError):
    """The machine is not at a state the checkpoint layer can capture —
    e.g. the event queue holds an untagged closure (an in-flight
    coherence transaction's continuation).  Callers treat this as "not a
    safe point" and try again later, never as a fatal error."""


class Engine:
    """Minimal event-driven scheduler with a global cycle clock."""

    __slots__ = ("_queue", "_seq", "now", "events_executed", "_running",
                 "timeout_hook", "run_limit", "until_active", "_merged")

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0
        self.events_executed = 0
        self._running = False
        #: optional context provider appended to timeout diagnostics —
        #: the machine installs one reporting per-core finish status for
        #: the duration of each run
        self.timeout_hook: Callable[[], str] | None = None
        #: the active run()'s max_cycles bound; the hit-run fast lane
        #: refuses to merge a step past it so the timeout fires at the
        #: same cycle as scalar execution
        self.run_limit: int | None = None
        #: True while run_until() is dispatching.  Bounded windows place
        #: an implicit event horizon at the cap cycle that the fast
        #: lane's queue peek cannot see, so the lane disables itself
        #: whenever this is set (checkpoint recorder, drain windows).
        self.until_active = False
        self._merged = 0

    def absorb_merged_events(self, n: int) -> None:
        """Account for ``n`` events executed vectorially, not via the queue.

        The hit-run fast lane collapses a chain of ``n + 1`` core-step
        events into one vector application plus one real scheduled
        event.  Bumping ``_seq`` and the merged-event counter here keeps
        ``snapshot()``'s seq and ``events_executed`` — and therefore
        checkpoint fingerprints — bit-identical to scalar execution.
        """
        self._seq += n
        self._merged += n

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, callback))

    def schedule_at(self, cycle: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at an absolute cycle (>= now)."""
        if cycle < self.now:
            raise ValueError(
                f"cannot schedule at absolute cycle {cycle}: it is in the "
                f"past (current cycle is {self.now})"
            )
        self.schedule(cycle - self.now, callback)

    # -- tagged scheduling (checkpoint layer) -------------------------
    # Tagged events carry a picklable identity alongside the callback so
    # the queue can round-trip through a checkpoint: snapshot() stores
    # (cycle, seq, tag), restore() re-binds each tag to a fresh callback.
    # Kept as separate methods (a 4th tuple element, not a kwarg on
    # schedule()) so the untagged hot path stays byte-identical; mixed
    # 3-/4-tuples coexist safely in the heap because seq is unique and
    # tuple comparison never reaches the callback slot.

    def schedule_tagged(self, delay: int, callback: Callable[[], None],
                        tag: tuple) -> None:
        """:meth:`schedule`, with a restorable identity for ``callback``."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue,
                       (self.now + delay, self._seq, callback, tag))

    def schedule_at_tagged(self, cycle: int, callback: Callable[[], None],
                           tag: tuple) -> None:
        """:meth:`schedule_at`, with a restorable identity."""
        if cycle < self.now:
            raise ValueError(
                f"cannot schedule at absolute cycle {cycle}: it is in the "
                f"past (current cycle is {self.now})"
            )
        self.schedule_tagged(cycle - self.now, callback, tag)

    def all_tagged(self) -> bool:
        """True when every queued event carries a restorable tag."""
        return all(len(ev) == 4 for ev in self._queue)

    def snapshot(self) -> dict:
        """Restorable queue state: clock, seq counter, tagged events.

        Raises :class:`CheckpointUnsupported` if any queued event is an
        anonymous closure (untagged) — those are in-flight transaction
        continuations the checkpoint layer cannot rebuild.
        """
        events = []
        for ev in sorted(self._queue):
            if len(ev) != 4:
                raise CheckpointUnsupported(
                    f"untagged event at cycle {ev[0]} (seq {ev[1]}): "
                    "not a checkpointable safe point"
                )
            events.append((ev[0], ev[1], ev[3]))
        return {
            "now": self.now,
            "seq": self._seq,
            "events_executed": self.events_executed,
            "events": events,
        }

    def restore(self, blob: dict, resolve: Callable[[tuple], Callable]) -> None:
        """Rebuild the queue from :meth:`snapshot` output.

        ``resolve(tag)`` maps each event tag back to a live callback
        bound to the restoring machine.  Stale events — recorded cycle
        before the snapshot clock — are rejected deterministically with
        ``ValueError`` (the same contract as :meth:`schedule_at`), so a
        corrupted or hand-edited checkpoint fails loudly instead of
        replaying an event into the past.
        """
        now = blob["now"]
        events = []
        for cycle, seq, tag in blob["events"]:
            if cycle < now:
                raise ValueError(
                    f"cannot restore event {tag!r} at absolute cycle "
                    f"{cycle}: it is in the past (checkpoint clock is {now})"
                )
            events.append((cycle, seq, resolve(tag), tag))
        self.now = now
        self._seq = blob["seq"]
        self.events_executed = blob["events_executed"]
        self._queue = events
        heapq.heapify(self._queue)

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def run(self, max_cycles: int = 500_000_000, max_events: int | None = None) -> int:
        """Drain the queue; returns the final cycle count.

        Re-entrant calls are rejected — a callback must schedule follow-up
        events, never call :meth:`run`.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        self.run_limit = max_cycles
        merged0 = self._merged
        try:
            queue = self._queue
            pop = heapq.heappop
            executed = self.events_executed
            while queue:
                # batch dispatch: advance the clock once per distinct
                # cycle, then drain every event at that cycle (including
                # zero-delay events the callbacks add) in seq order —
                # the limit checks and clock writes leave the per-event
                # inner loop, which is the simulator's hottest path
                cycle = queue[0][0]
                if cycle > max_cycles:
                    self.events_executed = executed
                    raise SimulationTimeout(self._timeout_message(
                        f"simulation exceeded {max_cycles} cycles"
                    ))
                self.now = cycle
                if max_events is None:
                    while queue and queue[0][0] == cycle:
                        executed += 1
                        pop(queue)[2]()
                else:
                    while queue and queue[0][0] == cycle:
                        executed += 1
                        if executed + (self._merged - merged0) > max_events:
                            self.events_executed = executed
                            raise SimulationTimeout(self._timeout_message(
                                f"simulation exceeded {max_events} events"
                            ))
                        pop(queue)[2]()
        finally:
            # merged fast-lane steps count as executed events so the
            # externally visible tally matches scalar execution
            self.events_executed = executed + (self._merged - merged0)
            self._running = False
            self.run_limit = None
        return self.now

    def _timeout_message(self, what: str) -> str:
        """Timeout diagnostics: cycle, event and queue counts, plus
        whatever context the installed :attr:`timeout_hook` provides."""
        msg = (
            f"{what} at cycle {self.now} "
            f"({self.events_executed} events executed, "
            f"{len(self._queue)} events still pending); "
            "likely deadlock or unfinished thread program"
        )
        if self.timeout_hook is not None:
            try:
                msg += "\n" + self.timeout_hook()
            except Exception as exc:  # diagnostics must never mask the timeout
                msg += f"\n(timeout hook failed: {exc!r})"
        return msg

    def run_until(self, cycle: int, max_events: int | None = None, *,
                  advance_clock: bool = True) -> int:
        """Execute events up to and including ``cycle``; later events stay
        queued.  Useful for stepping tests through protocol epochs.

        Dispatches with the same same-cycle batching as :meth:`run` and
        shares its diagnostics: ``max_events`` bounds the number of
        events executed by *this call*, raising :class:`SimulationTimeout`
        through :meth:`_timeout_message` (including any installed
        ``timeout_hook`` context) when exceeded — insurance against a
        zero-delay self-rescheduling loop that would otherwise spin
        forever inside one cycle.

        ``advance_clock=False`` leaves ``now`` at the last executed
        event's cycle instead of forcing it to ``cycle`` — the checkpoint
        recorder steps the run this way so an interrupted run's final
        clock (and every checkpoint stamp) matches the uninterrupted
        run bit for bit.
        """
        if self._running:
            raise SimulationError("Engine.run_until() is not re-entrant")
        self._running = True
        self.until_active = True
        executed = self.events_executed
        budget = None if max_events is None else executed + max_events
        try:
            queue = self._queue
            pop = heapq.heappop
            while queue and queue[0][0] <= cycle:
                evc = queue[0][0]
                self.now = evc
                while queue and queue[0][0] == evc:
                    executed += 1
                    if budget is not None and executed > budget:
                        self.events_executed = executed
                        raise SimulationTimeout(self._timeout_message(
                            f"run_until exceeded {max_events} events"
                        ))
                    pop(queue)[2]()
            if advance_clock and self.now < cycle:
                self.now = cycle
        finally:
            self.events_executed = executed
            self._running = False
            self.until_active = False
        return self.now
