"""Shared-memory allocator and typed array views for thread programs.

The allocator hands out word-aligned regions of the simulated address
space and initializes their contents directly in the backing store
(program inputs are "pre-loaded" — the load of input files is not part of
any measured kernel in the paper either).

Two layout modes matter for the paper:

* default (packed) — consecutive allocations and consecutive elements can
  share cache blocks.  This is what *creates* false sharing (e.g. the
  52-byte ``lreg_args`` structs of Phoenix linear_regression).
* ``pad_to_block=True`` — rounds the allocation up to block boundaries,
  modelling the compiler padding Ghostwriter requires so a block never
  mixes approximate and non-approximate data (§3.1).

Array views provide *generator* accessors (``yield from arr.load(i)``)
that emit ISA ops, so workload code reads like the C it mirrors.
"""
from __future__ import annotations

from typing import Generator, Iterable, Sequence

from repro.isa.instructions import Load, Store
from repro.mem.backing import BackingStore
from repro.scribe.similarity import (
    bits_to_float,
    bits_to_int,
    float_to_bits,
    int_to_bits,
)

__all__ = ["SharedMemory", "I32Array", "F32Array"]

_WORD = 4


class _ArrayBase:
    """Common machinery of the typed views."""

    __slots__ = ("mem", "base", "length", "name")

    def __init__(self, mem: "SharedMemory", base: int, length: int,
                 name: str) -> None:
        self.mem = mem
        self.base = base
        self.length = length
        self.name = name

    def addr(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"{self.name}[{index}] out of range")
        return self.base + index * _WORD

    def byte_range(self) -> tuple[int, int]:
        """(start, end) byte range for approx_begin annotations."""
        return self.base, self.base + self.length * _WORD

    def __len__(self) -> int:
        return self.length


class I32Array(_ArrayBase):
    """Signed 32-bit integer array in simulated memory."""

    __slots__ = ()

    # -- generator accessors (execute through the caches) --------------
    def load(self, index: int) -> Generator:
        """Yields a Load; returns the signed value (use ``yield from``)."""
        bits = yield Load(self.addr(index))
        return bits_to_int(bits)

    def store(self, index: int, value: int) -> Generator:
        """Yields a Store of a signed 32-bit value."""
        yield Store(self.addr(index), int_to_bits(value))

    def add(self, index: int, delta: int) -> Generator:
        """The ubiquitous read-modify-write (``arr[i] += delta``).

        Yields the ``Load`` and ``Store`` itself rather than delegating
        to :meth:`load`/:meth:`store`: the same ops, one generator frame.
        """
        addr = self.addr(index)
        new = _wrap32(bits_to_int((yield Load(addr))) + delta)
        yield Store(addr, int_to_bits(new))
        return new

    # -- direct (functional, un-timed) access ----------------------------
    def init(self, values: Iterable[int]) -> None:
        """Pre-load initial contents straight into the backing store."""
        backing = self.mem.backing
        for i, v in enumerate(values):
            if i >= self.length:
                raise ValueError(f"too many initializers for {self.name}")
            backing.store_word(self.base + i * _WORD, int_to_bits(v))

    def read_back(self) -> list[int]:
        """Final globally-coherent contents (from the backing store via
        the caches' writebacks — call only after a run + drain)."""
        backing = self.mem.backing
        return [
            bits_to_int(backing.load_word(self.base + i * _WORD))
            for i in range(self.length)
        ]


class F32Array(_ArrayBase):
    """IEEE-754 binary32 array in simulated memory."""

    __slots__ = ()

    def load(self, index: int) -> Generator:
        """Yields a Load; returns the float value (use ``yield from``)."""
        bits = yield Load(self.addr(index))
        return bits_to_float(bits)

    def store(self, index: int, value: float) -> Generator:
        """Yields a Store of a binary32 value."""
        yield Store(self.addr(index), float_to_bits(value))

    def add(self, index: int, delta: float) -> Generator:
        """Read-modify-write through binary32 rounding (one generator
        frame, as :meth:`I32Array.add`)."""
        addr = self.addr(index)
        cur = bits_to_float((yield Load(addr)))
        new = float(bits_to_float(float_to_bits(cur + delta)))
        yield Store(addr, float_to_bits(new))
        return new

    def init(self, values: Iterable[float]) -> None:
        """Pre-load initial contents straight into the backing store."""
        backing = self.mem.backing
        for i, v in enumerate(values):
            if i >= self.length:
                raise ValueError(f"too many initializers for {self.name}")
            backing.store_word(self.base + i * _WORD, float_to_bits(v))

    def read_back(self) -> list[float]:
        """Final globally-coherent contents (post-run)."""
        backing = self.mem.backing
        return [
            bits_to_float(backing.load_word(self.base + i * _WORD))
            for i in range(self.length)
        ]


def _wrap32(value: int) -> int:
    """Two's-complement 32-bit wraparound (C int semantics)."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


class SharedMemory:
    """Bump allocator over the simulated address space."""

    def __init__(self, backing: BackingStore, block_bytes: int = 64,
                 base: int = 0x1000) -> None:
        self.backing = backing
        self.block_bytes = block_bytes
        self._cursor = base
        self._allocations: list[tuple[str, int, int]] = []

    # ------------------------------------------------------------------
    def _take(self, nbytes: int, name: str, pad_to_block: bool) -> int:
        if pad_to_block and self._cursor % self.block_bytes:
            self._cursor += self.block_bytes - self._cursor % self.block_bytes
        base = self._cursor
        size = nbytes
        if pad_to_block and size % self.block_bytes:
            size += self.block_bytes - size % self.block_bytes
        self._cursor += size
        self._allocations.append((name, base, size))
        return base

    def alloc_i32(self, length: int, name: str = "i32",
                  pad_to_block: bool = False,
                  init: Sequence[int] | None = None) -> I32Array:
        """Allocate a signed-int array; optionally block-pad and initialize."""
        if length < 1:
            raise ValueError("array length must be positive")
        base = self._take(length * _WORD, name, pad_to_block)
        arr = I32Array(self, base, length, name)
        if init is not None:
            arr.init(init)
        return arr

    def alloc_f32(self, length: int, name: str = "f32",
                  pad_to_block: bool = False,
                  init: Sequence[float] | None = None) -> F32Array:
        """Allocate a binary32 array; optionally block-pad and initialize."""
        if length < 1:
            raise ValueError("array length must be positive")
        base = self._take(length * _WORD, name, pad_to_block)
        arr = F32Array(self, base, length, name)
        if init is not None:
            arr.init(init)
        return arr

    def block_gap(self) -> None:
        """Force the next allocation onto a fresh cache block."""
        if self._cursor % self.block_bytes:
            self._cursor += self.block_bytes - self._cursor % self.block_bytes

    def allocations(self) -> list[tuple[str, int, int]]:
        """Every allocation as (name, base, padded size)."""
        return list(self._allocations)
