"""Shared L2 cache slices.

The paper's L2 is physically distributed (one 128 kB slice per core tile)
and logically shared; blocks are address-interleaved across slices.  Our
L2 is *non-inclusive*: it is a data cache between the directories and
DRAM, while the full-map directory (see
:mod:`repro.coherence.directory`) independently tracks every block with
L1 copies.  An L2 eviction therefore never needs to recall L1 copies —
dirty victims are written back to DRAM, and globally coherent data is
always reachable from L2-or-DRAM whenever the directory needs to supply
it (owners supply their own dirty data via forwards).
"""
from __future__ import annotations

from repro.cache.sram import CacheArray, CacheLine
from repro.common.config import CacheConfig
from repro.common.stats import StatGroup
from repro.obs.events import Event, EventKind

__all__ = ["L2Slice", "EvictedBlock"]


class EvictedBlock:
    """A victim block handed back to the caller for DRAM writeback."""
    __slots__ = ("block_addr", "words", "dirty")

    def __init__(self, block_addr: int, words: list[int], dirty: bool) -> None:
        self.block_addr = block_addr
        self.words = words
        self.dirty = dirty


class L2Slice:
    """One address-interleaved slice of the shared L2."""

    __slots__ = ("node", "cfg", "array", "stats", "bus", "engine", "_c")

    def __init__(self, node: int, cfg: CacheConfig, stats: StatGroup) -> None:
        self.node = node
        self.cfg = cfg
        self.array = CacheArray(cfg)
        self.stats = stats
        self._c = stats.counters()
        #: event bus + engine (repro.obs); wired by Machine.attach_bus
        self.bus = None
        self.engine = None

    def probe(self, block_addr: int) -> list[int] | None:
        """Read the block if resident (a copy); counts a read access."""
        self._c["reads"] += 1
        line = self.array.lookup(block_addr)
        bus = self.bus
        if bus is not None:
            bus.emit(Event(
                self.engine.now if self.engine is not None else 0,
                EventKind.L2, self.node, block_addr, "probe",
                "miss" if line is None else "hit",
            ))
        if line is None:
            self._c["read_misses"] += 1
            return None
        self._c["read_hits"] += 1
        return line.words.copy()

    def fill(
        self, block_addr: int, words: list[int], dirty: bool
    ) -> EvictedBlock | None:
        """Install/overwrite a block; returns the victim (if any) for the
        caller to write back to DRAM when dirty."""
        self._c["writes"] += 1
        bus = self.bus
        if bus is not None:
            bus.emit(Event(
                self.engine.now if self.engine is not None else 0,
                EventKind.L2, self.node, block_addr, "fill",
                "dirty" if dirty else "clean",
            ))
        line = self.array.lookup(block_addr, touch=True)
        evicted: EvictedBlock | None = None
        if line is None:
            line = self.array.find_free_or_victim(block_addr, lambda _ln: True)
            if line is None:  # pragma: no cover - L2 lines are never pinned
                raise RuntimeError("L2 set fully pinned")
            if line.valid:
                evicted = EvictedBlock(
                    line.tag, line.words, bool(line.state)
                )
                self._c["evictions"] += 1
                if evicted.dirty:
                    self._c["dirty_evictions"] += 1
                line.clear()
            self.array.install(line, block_addr)
            line.words = words.copy()
            line.state = dirty
        else:
            line.words = words.copy()
            line.state = bool(line.state) or dirty
        return evicted

    def mark_clean(self, block_addr: int) -> None:
        """Clear the dirty bit (after the block reached DRAM)."""
        line = self.array.lookup(block_addr, touch=False)
        if line is not None:
            line.state = False

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return self.array.occupancy()

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Restorable slice state (the array holds everything: tags,
        words, and the dirty bit in each line's ``state`` slot)."""
        return {"array": self.array.snapshot()}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state."""
        self.array.restore(blob["array"])

    def _line(self, block_addr: int) -> CacheLine | None:
        return self.array.lookup(block_addr, touch=False)
