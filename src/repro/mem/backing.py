"""Functional backing store: the authoritative word-granular main memory.

Blocks are lazily materialized lists of 32-bit word patterns.  The store
is *functional only* — DRAM timing lives in :mod:`repro.mem.dram`.  L2
misses fetch copies of blocks from here; L2 dirty evictions write blocks
back.  (L1-level approximate updates in GS/GI are never propagated this
far — they die inside the L1, per the paper's loss semantics.)
"""
from __future__ import annotations

from repro.common.types import WORD_BYTES, WORD_MASK

__all__ = ["BackingStore"]


class BackingStore:
    """Sparse word-addressable memory image."""

    __slots__ = ("block_bytes", "words_per_block", "_blocks")

    def __init__(self, block_bytes: int = 64) -> None:
        if block_bytes % WORD_BYTES:
            raise ValueError("block size must be a multiple of the word size")
        self.block_bytes = block_bytes
        self.words_per_block = block_bytes // WORD_BYTES
        self._blocks: dict[int, list[int]] = {}

    # -- address helpers ----------------------------------------------
    def block_base(self, addr: int) -> int:
        """Block-aligned base address of ``addr``."""
        return addr - (addr % self.block_bytes)

    def _word_offset(self, addr: int) -> int:
        off = addr % self.block_bytes
        if off % WORD_BYTES:
            raise ValueError(f"unaligned word address {addr:#x}")
        return off // WORD_BYTES

    # -- block-granular interface (used by the cache hierarchy) --------
    def read_block(self, block_addr: int) -> list[int]:
        """A *copy* of the block's words (callers own their copies)."""
        if block_addr % self.block_bytes:
            raise ValueError(f"unaligned block address {block_addr:#x}")
        blk = self._blocks.get(block_addr)
        if blk is None:
            return [0] * self.words_per_block
        return blk.copy()

    def write_block(self, block_addr: int, words: list[int]) -> None:
        """Overwrite a whole block with the given words."""
        if block_addr % self.block_bytes:
            raise ValueError(f"unaligned block address {block_addr:#x}")
        if len(words) != self.words_per_block:
            raise ValueError(
                f"expected {self.words_per_block} words, got {len(words)}"
            )
        self._blocks[block_addr] = [w & WORD_MASK for w in words]

    # -- word-granular interface (allocator init, result readback) -----
    def load_word(self, addr: int) -> int:
        """Read one aligned 32-bit word (0 if never written)."""
        off = self._word_offset(addr)
        blk = self._blocks.get(self.block_base(addr))
        if blk is None:
            return 0
        return blk[off]

    def store_word(self, addr: int, value: int) -> None:
        """Write one aligned 32-bit word."""
        base = self.block_base(addr)
        blk = self._blocks.get(base)
        if blk is None:
            blk = [0] * self.words_per_block
            self._blocks[base] = blk
        blk[self._word_offset(addr)] = value & WORD_MASK

    # -- introspection ---------------------------------------------------
    def memory_image(self) -> dict[int, list[int]]:
        """Deep copy of all resident blocks (test oracles, checkpoints)."""
        return {addr: blk.copy() for addr, blk in self._blocks.items()}

    def restore(self, image: dict[int, list[int]]) -> None:
        """Adopt a :meth:`memory_image` (deep-copied in)."""
        self._blocks = {addr: list(blk) for addr, blk in image.items()}
