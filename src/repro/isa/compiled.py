"""Compiled thread programs: columnar op streams + the sweep-wide cache.

The legacy execution model materializes one frozen ``@dataclass`` op per
simulated memory reference and round-trips it through a Python generator
into ``Core._step``'s ``type(op)`` dispatch.  That is flexible — programs
are arbitrary Python — but it makes op *materialization* the simulator's
bottleneck, and every GI-timeout/protocol leg of a sweep pays it again
for the identical op stream.

This module adds a second representation and the machinery around it:

* :class:`CompiledProgram` — the op stream as columnar numpy arrays
  (int8 opcode, int64 addr/value/cycles) plus two sparse side tables
  (sync-object handles, approx-region ranges) and the *segment*
  structure: maximal straight-line runs split at ops whose continuation
  leaves the core (blocking sync).  Loads are *dynamic* segment
  boundaries — instead of splitting, the interpreter validates each
  executed load value against the recorded column and deoptimizes to the
  generator on the first mismatch (see ``Core._step``).
* :class:`ProgramRecorder` — a tee the core attaches to a live generator
  run; it lowers the retired op stream (with the store/scribble access
  type already resolved and every load's actual value patched in) into a
  ``CompiledProgram`` at zero algorithmic cost.
* :class:`ProgramSpec` — what workloads hand to ``Machine.add_thread``:
  a generator *factory* plus a cache key, so a checkpointing run can
  record it, a later run can execute from arrays on a hit, and either
  can rebuild the generator for deoptimization or the end-of-run
  side-effect replay.
* :class:`ProgramCache` — the (workload, params, seed)-keyed LRU of
  those recordings, shared by every later run of the same key.
* :func:`resync_generator` / :func:`replay_to_completion` — pure-Python
  generator replays driven by the recorded value column.  Generators are
  deterministic functions of the values fed into them, so feeding the
  recorded (and validated) values reproduces the exact op stream without
  touching the simulated machine; this is how a compiled run re-executes
  the program's Python side effects (result collection) exactly once,
  and how deoptimization resynchronizes a fresh generator mid-stream.
* :func:`lower_trace` — direct trace->``CompiledProgram`` lowering for
  :mod:`repro.trace.replay`, replacing the per-access dataclass
  generator.
"""
from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable

import numpy as np

__all__ = [
    "OP_LOAD", "OP_STORE", "OP_SCRIBBLE", "OP_COMPUTE", "OP_BARRIER",
    "OP_ACQUIRE", "OP_RELEASE", "OP_SETAPRX", "OP_ENDAPRX",
    "OP_APPROX_BEGIN", "OP_APPROX_END", "OP_FLUSH", "OP_NAMES",
    "CompiledProgram", "HitRunPlan", "ProgramRecorder", "ProgramSpec",
    "ProgramCache",
    "resync_generator", "replay_to_completion", "lower_trace",
]

# int8 opcode space.  LOAD/STORE/SCRIBBLE match the trace atype codes
# (repro.trace.record) so trace lowering is a straight copy; the
# store-vs-scribble resolution (`Store` inside an active approx region
# executes as a scribble) is performed at record time, so the interpreter
# never consults the ApproxManager for dispatch.
OP_LOAD = 0
OP_STORE = 1
OP_SCRIBBLE = 2
OP_COMPUTE = 3        # cycles column = compute cycles
OP_BARRIER = 4        # objs table: ("barrier", creation index)
OP_ACQUIRE = 5        # objs table: ("lock", creation index)
OP_RELEASE = 6        # objs table: ("lock", creation index)
OP_SETAPRX = 7        # cycles column = d_distance
OP_ENDAPRX = 8
OP_APPROX_BEGIN = 9   # ranges table: the pragma's range tuple
OP_APPROX_END = 10    # ranges table: the pragma's range tuple
OP_FLUSH = 11

OP_NAMES = (
    "LOAD", "STORE", "SCRIBBLE", "COMPUTE", "BARRIER", "ACQUIRE",
    "RELEASE", "SETAPRX", "ENDAPRX", "APPROX_BEGIN", "APPROX_END", "FLUSH",
)

#: ops after which control leaves the core until a scheduled wakeup —
#: the static segment boundaries
_BLOCKING = frozenset((OP_BARRIER, OP_ACQUIRE))


class CompiledProgram:
    """One thread program as columnar arrays (see module docstring).

    ``op``/``addr``/``value``/``cycles`` are equal-length numpy columns;
    ``objs`` maps a pc to a ``(kind, creation_index)`` sync handle and
    ``ranges`` maps a pc to an approx-pragma range tuple.  When
    ``validate_loads`` is set the interpreter checks every executed
    load's value against the ``value`` column (the deoptimization
    trigger); trace-lowered programs clear it because a replayed trace
    discards load values by construction.
    """

    __slots__ = ("op", "addr", "value", "cycles", "objs", "ranges",
                 "segment_starts", "validate_loads", "_lists", "_plans")

    def __init__(
        self,
        op: np.ndarray,
        addr: np.ndarray,
        value: np.ndarray,
        cycles: np.ndarray,
        objs: dict[int, tuple[str, int]] | None = None,
        ranges: dict[int, tuple] | None = None,
        *,
        validate_loads: bool = True,
    ) -> None:
        self.op = np.asarray(op, dtype=np.int8)
        self.addr = np.asarray(addr, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.int64)
        self.cycles = np.asarray(cycles, dtype=np.int64)
        n = len(self.op)
        if not (len(self.addr) == len(self.value) == len(self.cycles) == n):
            raise ValueError("compiled-program columns must be equal length")
        self.objs = objs or {}
        self.ranges = ranges or {}
        self.segment_starts = self._segments()
        self.validate_loads = validate_loads
        self._lists: tuple[list, list, list, list] | None = None
        self._plans: dict[tuple[int, int], HitRunPlan] = {}

    def _segments(self) -> tuple[int, ...]:
        starts = [0] if len(self.op) else []
        for pc in np.flatnonzero(np.isin(self.op, tuple(_BLOCKING))).tolist():
            if pc + 1 < len(self.op):
                starts.append(pc + 1)
        return tuple(starts)

    def __len__(self) -> int:
        return len(self.op)

    def lists(self) -> tuple[list, list, list, list]:
        """Plain-list views of the columns, memoized.

        The interpreter indexes these instead of the numpy arrays:
        scalar indexing of an ndarray allocates a numpy scalar per
        access, which is slower than list indexing in a Python loop.
        """
        if self._lists is None:
            self._lists = (self.op.tolist(), self.addr.tolist(),
                           self.value.tolist(), self.cycles.tolist())
        return self._lists

    def nbytes(self) -> int:
        """Array payload size (cache accounting)."""
        return (self.op.nbytes + self.addr.nbytes + self.value.nbytes
                + self.cycles.nbytes)

    def hit_plan(self, block_bytes: int, hit_latency: int) -> "HitRunPlan":
        """The memoized :class:`HitRunPlan` for one cache geometry.

        Keyed by ``(block_bytes, hit_latency)`` because the block/word
        decomposition depends on the block size and the per-op cost
        column on the L1 hit latency; a sweep sharing one compiled
        program across many machines with identical geometry reuses one
        plan.
        """
        key = (block_bytes, hit_latency)
        plan = self._plans.get(key)
        if plan is None:
            plan = HitRunPlan(self, block_bytes, hit_latency)
            self._plans[key] = plan
        return plan


class HitRunPlan:
    """Compile-time side tables for the hit-run fast lane.

    Everything here is a pure function of the op stream and the cache
    geometry — no run-time machine state:

    * ``block``/``woff`` — per-op block base address and word offset
      (zero for non-memory ops): the per-access address arithmetic the
      scalar path recomputes per op, hoisted to compile time.
    * ``breaks`` — sorted positions of *static run breaks*: every op
      that blocks, releases a lock, reprograms the scribe unit, edits
      approx ranges, or flushes (opcode >= ``OP_BARRIER``).  A hit run
      can never extend across one.
    * ``cost``/``cum`` — per-op step cost (hit latency for memory
      ops, the cycles column for computes) and its prefix sum, so the
      lane finds scalar-identical step boundaries with
      ``searchsorted`` instead of replaying the cost loop.
    """

    __slots__ = ("block", "woff", "breaks", "cost", "cum",
                 "block_list", "woff_list")

    def __init__(self, prog: CompiledProgram, block_bytes: int,
                 hit_latency: int) -> None:
        op = prog.op
        off_mask = block_bytes - 1
        self.block = prog.addr & ~np.int64(off_mask)
        self.woff = (prog.addr & np.int64(off_mask)) >> 2
        self.breaks = np.flatnonzero(op >= OP_BARRIER).astype(np.int64)
        is_mem = op < OP_COMPUTE
        cost = np.where(is_mem, np.int64(hit_latency), prog.cycles)
        cost = np.where(op > OP_COMPUTE, np.int64(1), cost)
        self.cost = cost.astype(np.int64)
        self.cum = np.cumsum(self.cost)
        #: plain-list views for the scalar interpreter (same rationale
        #: as CompiledProgram.lists)
        self.block_list = self.block.tolist()
        self.woff_list = self.woff.tolist()

    def run_end(self, pc: int) -> int:
        """First static break position at/after ``pc`` (or stream end)."""
        breaks = self.breaks
        i = np.searchsorted(breaks, pc)
        return int(breaks[i]) if i < len(breaks) else len(self.cost)


class ProgramRecorder:
    """Tee attached to a generator-path run; lowers it op by op.

    The core records every retired op in program order.  A load is
    recorded when issued and its value patched in when the core delivers
    it to the program (:meth:`patch_load`); a load is the only op that
    receives a non-``None`` ``send`` value, so the core's send site is
    the single patch point.  Sync objects are mapped to
    ``(kind, creation_index)`` through the machine's creation-order
    tables; an object the machine did not create (or a range tuple that
    is not plain data) marks the recording non-cacheable rather than
    producing arrays that cannot be rebound to a fresh machine.
    """

    __slots__ = ("ops", "addrs", "vals", "cycs", "objs", "ranges",
                 "cacheable", "_sync_tables", "_obj_map", "_last_load")

    def __init__(self, sync_tables: tuple[list, list] | None = None) -> None:
        self.ops: list[int] = []
        self.addrs: list[int] = []
        self.vals: list[int] = []
        self.cycs: list[int] = []
        self.objs: dict[int, tuple[str, int]] = {}
        self.ranges: dict[int, tuple] = {}
        self.cacheable = True
        self._sync_tables = sync_tables
        self._obj_map: dict[int, tuple[str, int] | None] = {}
        self._last_load = -1

    def record(self, op: int, addr: int = 0, value: int = 0,
               cycles: int = 0) -> None:
        """Append one retired op."""
        self.ops.append(op)
        self.addrs.append(addr)
        self.vals.append(value)
        self.cycs.append(cycles)

    def record_load(self, addr: int) -> None:
        """Append a load; its value arrives later via :meth:`patch_load`."""
        self._last_load = len(self.ops)
        self.record(OP_LOAD, addr)

    def patch_load(self, value: int) -> None:
        """Fill in the value the pending load actually returned."""
        self.vals[self._last_load] = value

    def _locate(self, obj: Any) -> tuple[str, int] | None:
        if self._sync_tables is None:
            return None
        barriers, locks = self._sync_tables
        for i, b in enumerate(barriers):
            if b is obj:
                return ("barrier", i)
        for i, lk in enumerate(locks):
            if lk is obj:
                return ("lock", i)
        return None

    def record_sync(self, op: int, obj: Any) -> None:
        """Append a sync op, resolving its object to a stable handle."""
        ent = self._obj_map.get(id(obj), False)
        if ent is False:
            ent = self._locate(obj)
            self._obj_map[id(obj)] = ent
        if ent is None:
            self.cacheable = False
            ent = ("?", -1)
        self.objs[len(self.ops)] = ent
        self.record(op)

    def record_ranges(self, op: int, ranges: tuple) -> None:
        """Append an approx-region pragma with its range tuple."""
        try:
            hash(ranges)
        except TypeError:
            self.cacheable = False
        self.ranges[len(self.ops)] = ranges
        self.record(op)

    def finalize(self, *, validate_loads: bool = True) -> CompiledProgram:
        """The recorded stream as a :class:`CompiledProgram`."""
        return CompiledProgram(
            np.asarray(self.ops, dtype=np.int8),
            np.asarray(self.addrs, dtype=np.int64),
            np.asarray(self.vals, dtype=np.int64),
            np.asarray(self.cycs, dtype=np.int64),
            dict(self.objs), dict(self.ranges),
            validate_loads=validate_loads,
        )


class ProgramSpec:
    """A thread program by factory, with its materialization-cache slot.

    ``factory()`` must return a *fresh* generator each call — the cold
    path runs (and records) one, deoptimization resynchronizes another,
    and the end-of-run side-effect replay consumes a third.  ``key`` and
    ``cache`` may be ``None`` to opt out of caching (the program still
    runs through the generator path).
    """

    __slots__ = ("factory", "key", "cache")

    def __init__(self, factory: Callable[[], Any],
                 key: Hashable | None = None,
                 cache: "ProgramCache | None" = None) -> None:
        self.factory = factory
        self.key = key
        self.cache = cache


class ProgramCache:
    """LRU of compiled programs, keyed by (workload, params, seed, ...).

    Only a machine with a checkpoint recorder records a missed program,
    because ``Core.snapshot`` can rebuild a core only from a recording;
    any other miss runs the plain generator and stores nothing.  Most
    keys are requested once (the key includes the d-distance), and
    replaying a recording is no faster than running the generator, so a
    recording no checkpoint needs would cost time and memory for
    nothing.  A stored program is replayed by every later run of its
    key.

    One process-wide instance (``repro.workloads.registry.PROGRAM_CACHE``)
    is shared by every in-process sweep point; under ``--jobs N`` each
    point's worker process starts from a copy of the parent's.  Only
    cacheable recordings are stored (see :class:`ProgramRecorder`).
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("cache needs at least one entry")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, CompiledProgram] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> CompiledProgram | None:
        """The cached program, refreshed as most-recently-used."""
        prog = self._entries.get(key)
        if prog is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return prog

    def put(self, key: Hashable, prog: CompiledProgram) -> None:
        """Insert/replace; evicts the least-recently-used past capacity."""
        self._entries[key] = prog
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


# ---------------------------------------------------------------------
# value-driven generator replay
# ---------------------------------------------------------------------
def _advance(gen: Any, ops: list[int], vals: list[int], count: int) -> Any:
    """Fetch ops ``[0, count)`` from ``gen``, feeding recorded load values.

    Returns the value pending delivery for op ``count - 1`` (``None``
    unless it was a load).  Pure Python: no machine interaction, no
    timing — only the program's own side effects execute.
    """
    pending = None
    for i in range(count):
        gen.send(pending)
        pending = vals[i] if ops[i] == OP_LOAD else None
    return pending


def resync_generator(factory: Callable[[], Any], prog: CompiledProgram,
                     count: int) -> Any:
    """A fresh generator advanced through the first ``count`` ops.

    After the call the generator has yielded op ``count - 1`` and awaits
    its ``send`` — exactly the state a live run would be in, so the core
    can deoptimize mid-stream by sending the op's *actual* value next.
    """
    gen = factory()
    ops, _, vals, _ = prog.lists()
    _advance(gen, ops, vals, count)
    return gen


def replay_to_completion(factory: Callable[[], Any],
                         prog: CompiledProgram) -> None:
    """Run one full value-driven generator pass (side effects only).

    A run that executed entirely from arrays never touched the program's
    Python body, so result-collection assignments never happened in this
    workload instance.  Every executed load was validated against the
    value column, and a generator is a deterministic function of the
    values fed to it — so this offline pass follows the identical path
    the live run would have taken.
    """
    gen = factory()
    ops, _, vals, _ = prog.lists()
    pending = _advance(gen, ops, vals, len(ops))
    try:
        op = gen.send(pending)
    except StopIteration:
        return
    raise RuntimeError(
        f"program yielded {op!r} beyond its {len(ops)}-op recording "
        "(non-deterministic thread program?)"
    )


# ---------------------------------------------------------------------
# trace lowering
# ---------------------------------------------------------------------
_MAX_GAP = 200  # cap reconstructed compute gaps (cycles)


def lower_trace(cycles: Iterable[int], atypes: Iterable[int],
                addrs: Iterable[int], values: Iterable[int],
                d_distance: int) -> CompiledProgram:
    """Lower one core's recorded trace columns to a compiled program.

    Mirrors the legacy replay generator exactly: ``SetAprx`` up front,
    a ``Compute`` for every inter-access gap above the hit latency
    (capped at ``_MAX_GAP``), then the access with the trace's resolved
    atype code.  ``validate_loads`` is off — replay re-decides hits and
    values under the replay machine's own protocol, which is the point
    of trace-driven methodology.
    """
    cyc = np.asarray(cycles, dtype=np.int64).tolist()
    atc = np.asarray(atypes, dtype=np.int8).tolist()
    adr = np.asarray(addrs, dtype=np.int64).tolist()
    val = np.asarray(values, dtype=np.int64).tolist()

    ops_o: list[int] = [OP_SETAPRX]
    addr_o: list[int] = [0]
    val_o: list[int] = [0]
    cyc_o: list[int] = [d_distance]

    last = cyc[0] if cyc else 0
    for i in range(len(cyc)):
        gap = cyc[i] - last
        last = cyc[i]
        if gap > 2:
            ops_o.append(OP_COMPUTE)
            addr_o.append(0)
            val_o.append(0)
            cyc_o.append(min(gap, _MAX_GAP))
        code = atc[i]
        ops_o.append(code)
        addr_o.append(adr[i])
        val_o.append(0 if code == OP_LOAD else val[i] & 0xFFFFFFFF)
        cyc_o.append(0)

    return CompiledProgram(
        np.asarray(ops_o, dtype=np.int8),
        np.asarray(addr_o, dtype=np.int64),
        np.asarray(val_o, dtype=np.int64),
        np.asarray(cyc_o, dtype=np.int64),
        validate_loads=False,
    )
