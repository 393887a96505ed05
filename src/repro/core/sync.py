"""Scheduler-level synchronization primitives.

Barriers and locks are runtime services rather than memory-based
spinlocks (see DESIGN.md substitution 5): the paper's figures measure the
kernels' *data* accesses, and modelling pthread internals would only add
unrelated traffic.  Both primitives are deterministic: waiters are
released in arrival order.
"""
from __future__ import annotations

from collections import deque
from typing import Callable

from repro.sim.engine import CheckpointUnsupported, Engine

__all__ = ["Barrier", "Lock"]

#: cycles between the releasing event and a waiter resuming
_WAKE_LATENCY = 1


class Barrier:
    """Reusable (generation-counted) barrier for ``parties`` cores."""

    __slots__ = ("engine", "parties", "_waiting", "generation")

    def __init__(self, engine: Engine, parties: int) -> None:
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.engine = engine
        self.parties = parties
        #: blocked arrivals as (resume, owner) — owner is the arriving
        #: core id (None for anonymous callers), which is what lets a
        #: checkpoint rebuild the waiter list against a fresh machine
        self._waiting: list[tuple[Callable[[], None], int | None]] = []
        self.generation = 0

    def arrive(self, resume: Callable[[], None],
               owner: int | None = None) -> None:
        """Register arrival; ``resume`` fires when the last party arrives."""
        self._waiting.append((resume, owner))
        if len(self._waiting) > self.parties:
            raise RuntimeError("more arrivals than barrier parties")
        if len(self._waiting) == self.parties:
            waiters, self._waiting = self._waiting, []
            self.generation += 1
            for cb, _ in waiters:
                self.engine.schedule(_WAKE_LATENCY, cb)

    @property
    def waiting(self) -> int:
        """Number of parties currently blocked."""
        return len(self._waiting)

    def drop_waiters(self) -> None:
        """Forget every blocked arrival (a failed run's cleanup)."""
        self._waiting.clear()

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Restorable state: generation count plus blocked owner ids
        (arrival order preserved — release order determines wake seq)."""
        for _, owner in self._waiting:
            if owner is None:
                raise CheckpointUnsupported(
                    "barrier has an anonymous waiter (no owner id)"
                )
        return {"generation": self.generation,
                "waiting": [owner for _, owner in self._waiting]}

    def restore(self, blob: dict,
                wake_for: Callable[[int], Callable[[], None]]) -> None:
        """Rebuild waiters; ``wake_for(owner)`` supplies each resume."""
        self.generation = blob["generation"]
        self._waiting = [(wake_for(owner), owner)
                         for owner in blob["waiting"]]


class Lock:
    """FIFO mutex."""

    __slots__ = ("engine", "_held", "_queue", "owner")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._held = False
        self._queue: deque[tuple[int, Callable[[], None]]] = deque()
        self.owner: int | None = None

    def acquire(self, holder: int, resume: Callable[[], None]) -> None:
        """Take the lock or queue; ``resume`` fires once granted."""
        if not self._held:
            self._held = True
            self.owner = holder
            self.engine.schedule(_WAKE_LATENCY, resume)
        else:
            self._queue.append((holder, resume))

    def release(self, holder: int) -> None:
        """Release the lock, waking the next queued acquirer (FIFO)."""
        if not self._held:
            raise RuntimeError("release of an unheld lock")
        if self.owner != holder:
            raise RuntimeError(
                f"core {holder} released a lock held by core {self.owner}"
            )
        if self._queue:
            self.owner, resume = self._queue.popleft()
            self.engine.schedule(_WAKE_LATENCY, resume)
        else:
            self._held = False
            self.owner = None

    @property
    def held(self) -> bool:
        """True while some core holds the lock."""
        return self._held

    def drop_waiters(self) -> None:
        """Forget every queued acquirer (a failed run's cleanup)."""
        self._queue.clear()

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Restorable state: holder plus queued acquirers (FIFO order)."""
        return {"held": self._held, "owner": self.owner,
                "queue": [holder for holder, _ in self._queue]}

    def restore(self, blob: dict,
                wake_for: Callable[[int], Callable[[], None]]) -> None:
        """Rebuild the queue; ``wake_for(holder)`` supplies each resume."""
        self._held = blob["held"]
        self.owner = blob["owner"]
        self._queue = deque(
            (holder, wake_for(holder)) for holder in blob["queue"]
        )
