"""Set-associative SRAM array with tree pseudo-LRU replacement.

Shared by L1 and L2.  Each line carries functional data (the block's 16
words), a generic ``state`` slot owned by the controller using the array,
and a ``pinned`` flag so replacement never victimizes a line with an
outstanding transaction (MSHR semantics).
"""
from __future__ import annotations

import functools
from typing import Any, Callable, Iterator

from repro.common.config import CacheConfig

__all__ = ["CacheLine", "CacheArray"]


class CacheLine:
    """One way of one set."""

    __slots__ = ("tag", "state", "words", "pinned", "aux")

    def __init__(self) -> None:
        self.tag: int | None = None    # block-aligned byte address
        self.state: Any = None          # controller-owned state object
        self.words: list[int] | None = None
        self.pinned = False             # outstanding transaction: not evictable
        self.aux: Any = None            # controller scratch (e.g. sharer set)

    @property
    def valid(self) -> bool:
        """True when the line holds a tag."""
        return self.tag is not None

    def clear(self) -> None:
        """Return the line to the empty state."""
        self.tag = None
        self.state = None
        self.words = None
        self.pinned = False
        self.aux = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f"{self.tag:#x}" if self.tag is not None else "-"
        return f"CacheLine(tag={tag}, state={self.state}, pinned={self.pinned})"


@functools.cache
def _plru_paths(assoc: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per way, the ``(node, bit)`` writes a PLRU touch makes on its root
    path: each node points at the subtree the way is *not* in."""
    paths = []
    for way in range(assoc):
        path = []
        node, span = 0, assoc
        while span > 1:
            half = span // 2
            if way < half:
                path.append((node, 1))     # point at the right (cold) side
                node = 2 * node + 1
            else:
                path.append((node, 0))
                node = 2 * node + 2
                way -= half
            span = half
        paths.append(tuple(path))
    return tuple(paths)


class _PlruTree:
    """Classic binary-tree pseudo-LRU for power-of-two associativity.

    ``bits[i] == 0`` means the *left* subtree is colder (next victim);
    touching a way flips the bits on its root path to point away from it.
    """

    __slots__ = ("assoc", "bits", "_paths")

    def __init__(self, assoc: int) -> None:
        self.assoc = assoc
        self.bits = [0] * max(assoc - 1, 1)
        self._paths = _plru_paths(assoc)

    def touch(self, way: int) -> None:
        bits = self.bits
        for node, bit in self._paths[way]:
            bits[node] = bit

    def victim(self, evictable: Callable[[int], bool]) -> int | None:
        """PLRU-preferred evictable way, or None if nothing is evictable.

        Follows the PLRU path first; if that way is pinned, falls back to
        the lowest-numbered evictable way (hardware would stall — callers
        treat ``None`` as a structural stall).
        """
        if self.assoc == 1:
            return 0 if evictable(0) else None
        node = 0
        way = 0
        span = self.assoc
        while span > 1:
            half = span // 2
            if self.bits[node] == 0:
                node = 2 * node + 1
            else:
                node = 2 * node + 2
                way += half
            span = half
        if evictable(way):
            return way
        for w in range(self.assoc):
            if evictable(w):
                return w
        return None


class CacheArray:
    """The tag/data RAM of one cache: sets x ways of :class:`CacheLine`."""

    __slots__ = ("cfg", "_sets", "_plru", "_blk_shift", "_set_mask")

    def __init__(self, cfg: CacheConfig) -> None:
        self.cfg = cfg
        # geometry is power-of-two by construction (CacheConfig), so the
        # hot set_index is one shift + one mask; rows materialize lazily
        # — a run touching a fraction of a large L2 never allocates the
        # rest
        self._blk_shift = cfg.block_bytes.bit_length() - 1
        self._set_mask = cfg.num_sets - 1
        self._sets: list[list[CacheLine] | None] = [None] * cfg.num_sets
        self._plru: list[_PlruTree | None] = [None] * cfg.num_sets

    def _ways(self, idx: int) -> list[CacheLine]:
        """Fetch-or-materialize one set's ways (and its PLRU tree)."""
        ways = self._sets[idx]
        if ways is None:
            assoc = self.cfg.assoc
            ways = [CacheLine() for _ in range(assoc)]
            self._sets[idx] = ways
            self._plru[idx] = _PlruTree(assoc)
        return ways

    # -- lookup ---------------------------------------------------------
    def lookup(self, block_addr: int, touch: bool = True) -> CacheLine | None:
        """The line holding ``block_addr``, or None on tag miss."""
        idx = (block_addr >> self._blk_shift) & self._set_mask
        ways = self._sets[idx]
        if ways is None:
            return None
        for way, line in enumerate(ways):
            if line.tag == block_addr:
                if touch:
                    self._plru[idx].touch(way)
                return line
        return None

    def touch(self, block_addr: int) -> None:
        """Mark the block most-recently-used (PLRU update only)."""
        self.lookup(block_addr, touch=True)

    # -- allocation -------------------------------------------------------
    def find_free_or_victim(
        self, block_addr: int, evictable: Callable[[CacheLine], bool]
    ) -> CacheLine | None:
        """Line to place ``block_addr`` into: an invalid way if one exists,
        else the PLRU victim among lines passing ``evictable``.  The caller
        must handle the victim's current contents (writeback etc.) and then
        install the new tag.  Returns None when the set is fully pinned.
        """
        idx = (block_addr >> self._blk_shift) & self._set_mask
        ways = self._ways(idx)
        for line in ways:
            if not line.valid and not line.pinned:
                return line
        victim_way = self._plru[idx].victim(
            lambda w: not ways[w].pinned and evictable(ways[w])
        )
        return None if victim_way is None else ways[victim_way]

    def install(self, line: CacheLine, block_addr: int) -> None:
        """Claim a line for a new tag and mark it most-recently-used."""
        idx = (block_addr >> self._blk_shift) & self._set_mask
        ways = self._ways(idx)
        if line not in ways:
            raise ValueError("line does not belong to the target set")
        line.tag = block_addr
        self._plru[idx].touch(ways.index(line))

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Full placement state: every materialized set's lines (tag,
        state, words, pinned, aux) *and* its PLRU bits — way order and
        replacement history round-trip exactly, so a restored run makes
        bit-identical victim choices."""
        sets = []
        for idx, ways in enumerate(self._sets):
            if ways is None:
                continue
            lines = [
                (ln.tag, ln.state,
                 None if ln.words is None else list(ln.words),
                 ln.pinned, ln.aux)
                for ln in ways
            ]
            sets.append((idx, lines, list(self._plru[idx].bits)))
        return {"sets": sets}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state (unlisted sets dematerialize)."""
        self._sets = [None] * self.cfg.num_sets
        self._plru = [None] * self.cfg.num_sets
        for idx, lines, bits in blob["sets"]:
            ways = self._ways(idx)
            self._plru[idx].bits = list(bits)
            for ln, (tag, state, words, pinned, aux) in zip(ways, lines):
                ln.tag = tag
                ln.state = state
                ln.words = None if words is None else list(words)
                ln.pinned = pinned
                ln.aux = aux

    # -- iteration / introspection ------------------------------------
    def iter_lines(self) -> Iterator[CacheLine]:
        """Every materialized line, in set-major order.

        Unmaterialized sets hold no tags by definition, so skipping them
        is observationally identical to iterating empty lines for any
        caller that filters on validity/state.
        """
        for ways in self._sets:
            if ways is not None:
                yield from ways

    def iter_valid(self) -> Iterator[CacheLine]:
        """Every line currently holding a tag."""
        for line in self.iter_lines():
            if line.valid:
                yield line

    def set_of(self, block_addr: int) -> list[CacheLine]:
        """The ways of the set this block maps to."""
        return self._ways((block_addr >> self._blk_shift) & self._set_mask)

    def position_of(self, line: CacheLine, block_addr: int) -> tuple[int, int]:
        """``(set_index, way)`` of a resident line.

        Lines never migrate between ways once installed (allocation
        claims a way in place), so the position is stable until the line
        is evicted — the residency mirror caches it to emulate PLRU
        touches without per-op tag lookups.
        """
        idx = (block_addr >> self._blk_shift) & self._set_mask
        return idx, self._sets[idx].index(line)

    def plru_of(self, set_idx: int) -> _PlruTree:
        """The PLRU tree of one materialized set (fast-lane touch path)."""
        return self._plru[set_idx]

    def occupancy(self) -> int:
        """Number of valid lines in the array."""
        return sum(1 for _ in self.iter_valid())

    def state_arrays(self, state_code: Callable[[Any], int]):
        """Columnar snapshot of every valid line, sorted by tag.

        Returns ``(tags, states, words)`` numpy arrays — tags as int64
        block addresses, states as int8 codes via ``state_code`` (e.g.
        ``repro.coherence.transitions.STATE_CODES.get``), words as an
        (n, words_per_block) uint32 matrix.  Sorting by tag makes the
        snapshot canonical: two arrays holding the same blocks in the
        same states with the same data compare equal regardless of
        set/way placement history.  Used by the batch backend's tests to
        compare whole machine states across lanes in one vector op.
        """
        import numpy as np

        lines = sorted(self.iter_valid(), key=lambda ln: ln.tag)
        n = len(lines)
        wpb = self.cfg.block_bytes // 4
        tags = np.empty(n, dtype=np.int64)
        states = np.empty(n, dtype=np.int8)
        words = np.zeros((n, wpb), dtype=np.uint32)
        for i, ln in enumerate(lines):
            tags[i] = ln.tag
            states[i] = state_code(ln.state)
            if ln.words is not None:
                words[i] = ln.words
        return tags, states, words
