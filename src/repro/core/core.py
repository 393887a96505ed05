"""In-order core model.

A core drives one thread program against its private L1.  A program
arrives in one of three forms (see :mod:`repro.isa.compiled`):

* a plain generator of ISA ops — the legacy path, executed through a
  ``send``/``next`` round-trip and ``type(op)`` dispatch per op;
* a :class:`~repro.isa.compiled.ProgramSpec` — a generator factory plus
  a program-cache slot.  On a miss the generator runs; on a machine that
  checkpoints it runs with a
  :class:`~repro.isa.compiled.ProgramRecorder` tee that lowers the
  retired op stream to columnar arrays; on a hit the core executes the
  arrays directly (no generator, no op objects) and validates every
  executed load value against the recording, *deoptimizing* back to a
  resynchronized generator on the first mismatch;
* a :class:`~repro.isa.compiled.CompiledProgram` — pre-lowered arrays
  (trace replay), executed directly with validation off.

Hits and compute are executed in batches of up to ``core_quantum``
L1-hit-equivalents without touching the event queue (the dominant
simulator-performance optimization — see the HPC guide's "measure, then
remove the bottleneck"); any miss, sync op, or exhausted quantum yields
back to the scheduler.  The resulting event-order skew is bounded by the
quantum and is configurable down to 1 for strictly ordered runs.  The
compiled fast loop preserves the generator path's budget accounting,
stat updates and ``engine.schedule`` pattern op for op, so the two modes
produce bit-identical simulations (pinned by the equivalence suite).
"""
from __future__ import annotations

from typing import Generator, Iterator

from repro.cache.l1 import L1Controller
from repro.common.stats import StatGroup
from repro.common.types import AccessType
from repro.isa.approx import ApproxManager
from repro.isa import instructions as isa
from repro.core import hitrun as _hitrun
from repro.core.hitrun import try_hit_run
from repro.isa.compiled import (
    CompiledProgram, ProgramRecorder, ProgramSpec, replay_to_completion,
    resync_generator,
)
from repro.sim.engine import CheckpointUnsupported, Engine

__all__ = ["Core", "ThreadProgram"]

#: A thread program yields ISA ops and receives load values via ``send``.
ThreadProgram = Generator["isa.Op", "int | None", None]

_PRAGMA_COST = 1  # cycles charged for setaprx/endaprx/region pragmas

_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_SCRIBBLE = AccessType.SCRIBBLE


def _prog_blob(prog: CompiledProgram) -> dict:
    """Picklable column form of a compiled program (checkpoint layer)."""
    return {
        "op": prog.op, "addr": prog.addr, "value": prog.value,
        "cycles": prog.cycles, "objs": dict(prog.objs),
        "ranges": dict(prog.ranges), "validate": prog.validate_loads,
    }


def _prog_from_blob(blob: dict) -> CompiledProgram:
    """Rebuild a compiled program from :func:`_prog_blob` columns."""
    return CompiledProgram(
        blob["op"], blob["addr"], blob["value"], blob["cycles"],
        dict(blob["objs"]), dict(blob["ranges"]),
        validate_loads=blob["validate"],
    )


class Core:
    """One in-order core executing one thread program."""

    def __init__(
        self,
        cid: int,
        engine: Engine,
        l1: L1Controller,
        program: "Iterator | ProgramSpec | CompiledProgram",
        stats: StatGroup,
        quantum: int = 8,
        sync_tables: tuple[list, list] | None = None,
        record: bool = False,
    ) -> None:
        self.cid = cid
        self.engine = engine
        self.l1 = l1
        self.stats = stats
        self._hit_latency = l1.cfg.l1.hit_latency
        self.quantum_cycles = max(1, quantum) * self._hit_latency
        #: hit-run fast lane enable (config knob; tracing/hooks disable
        #: it dynamically per attempt — see repro.core.hitrun)
        self._lane = getattr(l1.cfg, "fast_lane", True)
        self.approx = ApproxManager()
        self.done = False
        self.finish_cycle: int | None = None
        self._pending_send: int | None = None
        self._started = False
        self._blocked_since = 0
        #: description of the op this core is currently blocked on
        #: (None while running) — read by the watchdog's diagnostic dump
        self.blocked_op: str | None = None
        # hot counters are bumped through the live counter dict (one item
        # access each) rather than StatGroup's attribute protocol; both
        # spell the same underlying values
        self._c = stats.counters(
            "mem_ops", "compute_cycles", "barrier_waits", "quantum_yields",
            "stall_cycles",
        )
        self._sync_tables = sync_tables
        # restorable identity of this core's self-reschedule events
        # (start and quantum yields) — see repro.sim.state
        self._step_tag = ("core_step", cid)
        self._deopted = False
        # program-form resolution (see module docstring)
        self.program: Iterator | None = None
        self._compiled: CompiledProgram | None = None
        self._recorder: ProgramRecorder | None = None
        self._spec_factory = None
        self._spec_cache = None
        self._spec_key = None
        self._cpc = 0                 # compiled-mode program counter
        self._awaiting_load = False   # compiled load miss outstanding
        self._needs_replay = False    # side-effect replay due at finish
        self._ops: list[int] = []
        self._addrs: list[int] = []
        self._vals: list[int] = []
        self._cycs: list[int] = []
        self._objs: dict[int, object] = {}
        self._plan = None             # HitRunPlan of the bound program
        self._blks: list[int] = []    # plan's block column (list view)
        self._wofs: list[int] = []    # plan's word-offset column
        self._lane_skip = 0           # steps left in lane-attempt backoff
        self._lane_penalty = 1        # next backoff span (doubles to 32)
        if isinstance(program, CompiledProgram):
            self._bind_compiled(program)
        elif isinstance(program, ProgramSpec):
            self._spec_factory = program.factory
            cached = None
            if program.cache is not None and program.key is not None:
                self._spec_cache = program.cache
                self._spec_key = program.key
                cached = program.cache.get(program.key)
            if cached is not None and self._bind_compiled(cached):
                self._needs_replay = True
            else:
                self.program = program.factory()
                # only a checkpointing machine records: a recording is
                # what snapshot rebuilds a core from, and replay is no
                # faster than the generator
                if self._spec_cache is not None and record:
                    self._recorder = ProgramRecorder(sync_tables)
        else:
            self.program = program

    def _bind_compiled(self, prog: CompiledProgram) -> bool:
        """Adopt a compiled program; False if its sync handles don't
        resolve against this machine (caller falls back to the factory).
        Sync resolution is re-run at :meth:`start` because workloads may
        create barriers after binding threads."""
        self._compiled = prog
        self._ops, self._addrs, self._vals, self._cycs = prog.lists()
        # compile-time address decomposition + run-break/cost tables,
        # memoized per geometry on the program (shared across a sweep)
        self._plan = prog.hit_plan(self.l1.cfg.block_bytes,
                                   self._hit_latency)
        self._blks = self._plan.block_list
        self._wofs = self._plan.woff_list
        return self._resolve_objs()

    def _resolve_objs(self) -> bool:
        prog = self._compiled
        if prog is None or not prog.objs:
            return True
        if self._sync_tables is None:
            self._compiled = None
            return False
        barriers, locks = self._sync_tables
        objs: dict[int, object] = {}
        for pc, (kind, idx) in prog.objs.items():
            table = barriers if kind == "barrier" else locks
            if kind not in ("barrier", "lock") or idx >= len(table):
                self._compiled = None
                return False
            objs[pc] = table[idx]
        self._objs = objs
        return True

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the core's first step at cycle 0."""
        if self._started:
            raise RuntimeError(f"core {self.cid} already started")
        self._started = True
        if self._compiled is not None and not self._resolve_objs():
            # sync tables changed shape since binding: run the generator
            if self._spec_factory is None:
                raise RuntimeError(
                    f"core {self.cid}: compiled program references sync "
                    "objects this machine does not have"
                )
            self._needs_replay = False
            self.program = self._spec_factory()
        self.engine.schedule_tagged(0, self._step, self._step_tag)

    def _resume_with(self, value: int | None) -> None:
        """Continuation for miss completion / sync wakeup."""
        self._c["stall_cycles"] += self.engine.now - self._blocked_since
        self.blocked_op = None
        self._pending_send = value
        self._step()

    def _wake(self) -> None:
        self._resume_with(None)

    # ------------------------------------------------------------------
    def _deoptimize(self, actual: int) -> None:
        """A validated load diverged from the recording: resynchronize a
        fresh generator through the compiled prefix and continue there.

        Every op before ``_cpc`` executed with a load value equal to the
        recording, so the value-driven prefix replay follows the same
        path (and re-executes the program's Python side effects for the
        prefix); the divergent load's actual value is delivered to the
        live generator by the caller's next ``send``.
        """
        gen = resync_generator(self._spec_factory, self._compiled,
                               self._cpc + 1)
        self.program = gen
        self._compiled = None
        self._needs_replay = False
        self._deopted = True
        self._pending_send = actual

    def _finish(self, elapsed: int) -> None:
        self.done = True
        self.finish_cycle = self.engine.now + elapsed
        self.stats.finish_cycle = self.finish_cycle
        if self._needs_replay:
            # the run never touched the program's Python body: replay it
            # once, fed with the validated value column, so result
            # collection happens in this workload instance
            self._needs_replay = False
            replay_to_completion(self._spec_factory, self._compiled)
        rec = self._recorder
        if rec is not None:
            self._recorder = None
            if rec.cacheable:
                self._spec_cache.put(self._spec_key, rec.finalize())

    # ------------------------------------------------------------------
    # checkpoint layer (see repro.sim.state)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Restorable execution state, capturable at safe points only
        (no outstanding load — implied by empty MSHRs).

        Three shapes round-trip: pristine compiled execution (columns +
        pc; the restored run replays side effects at finish), recorder-
        mode generator execution (recorded prefix + count; the restored
        run resynchronizes a fresh generator through it), and a finished
        core with a replayable recording.  A deoptimized core, a plain
        generator, or a spec the program cache missed on a machine
        without a checkpoint recorder (so nothing recorded it) raises
        :class:`CheckpointUnsupported` — its continuation lives in an
        opaque generator frame."""
        if self._awaiting_load:
            raise CheckpointUnsupported(
                f"core {self.cid} has an outstanding load"
            )
        if self._spec_factory is None:
            raise CheckpointUnsupported(
                f"core {self.cid} has no program factory for replay"
            )
        base = {
            "started": self._started,
            "pending_send": self._pending_send,
            "blocked_since": self._blocked_since,
            "blocked_op": self.blocked_op,
            "approx": self.approx.snapshot(),
        }
        if self.done:
            prog = None if self._deopted else self._compiled
            if (prog is None and not self._deopted
                    and self._spec_cache is not None
                    and self._spec_key is not None):
                prog = self._spec_cache.get(self._spec_key)
            if prog is None:
                raise CheckpointUnsupported(
                    f"finished core {self.cid} has no replayable recording"
                )
            base.update(mode="done", finish_cycle=self.finish_cycle,
                        prog=_prog_blob(prog))
            return base
        if self._compiled is not None:
            base.update(mode="compiled", cpc=self._cpc,
                        needs_replay=self._needs_replay,
                        prog=_prog_blob(self._compiled))
            return base
        rec = self._recorder
        if rec is not None:
            base.update(
                mode="recorded",
                ops=list(rec.ops), addrs=list(rec.addrs),
                vals=list(rec.vals), cycs=list(rec.cycs),
                objs=dict(rec.objs), ranges=dict(rec.ranges),
                cacheable=rec.cacheable, last_load=rec._last_load,
            )
            return base
        raise CheckpointUnsupported(
            f"core {self.cid} is deoptimized or runs an unrecorded "
            "generator"
        )

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state.  The core must come from the
        same deterministic workload build: ``_spec_factory`` supplies
        the generators for replay/deoptimization and the machine's sync
        tables resolve the recorded handles."""
        if self._spec_factory is None:
            raise CheckpointUnsupported(
                f"core {self.cid} has no program factory to restore into"
            )
        self._started = blob["started"]
        self._pending_send = blob["pending_send"]
        self._blocked_since = blob["blocked_since"]
        self.blocked_op = blob["blocked_op"]
        self.approx.restore(blob["approx"])
        self._awaiting_load = False
        self._deopted = False
        self._recorder = None
        mode = blob["mode"]
        if mode == "done":
            self.done = True
            self.finish_cycle = blob["finish_cycle"]
            self.program = None
            self._compiled = None
            self._needs_replay = False
            # the interrupted run already replayed (or live-executed)
            # the program's side effects — but into *its* workload
            # instance; redo the value-driven pass into this one
            replay_to_completion(self._spec_factory,
                                 _prog_from_blob(blob["prog"]))
            return
        self.done = False
        self.finish_cycle = None
        if mode == "compiled":
            if not self._bind_compiled(_prog_from_blob(blob["prog"])):
                raise CheckpointUnsupported(
                    f"core {self.cid}: checkpointed sync handles do not "
                    "resolve against this machine"
                )
            self.program = None
            self._cpc = blob["cpc"]
            self._needs_replay = blob["needs_replay"]
            return
        if mode == "recorded":
            rec = ProgramRecorder(self._sync_tables)
            rec.ops = list(blob["ops"])
            rec.addrs = list(blob["addrs"])
            rec.vals = list(blob["vals"])
            rec.cycs = list(blob["cycs"])
            rec.objs = dict(blob["objs"])
            rec.ranges = dict(blob["ranges"])
            rec.cacheable = blob["cacheable"]
            rec._last_load = blob["last_load"]
            prefix = rec.finalize()
            self.program = resync_generator(self._spec_factory, prefix,
                                            len(rec.ops))
            self._recorder = rec
            self._compiled = None
            self._needs_replay = False
            self._cpc = 0
            self._ops, self._addrs, self._vals = [], [], []
            self._cycs, self._objs = [], {}
            self._plan, self._blks, self._wofs = None, [], []
            return
        raise ValueError(f"unknown core snapshot mode {mode!r}")

    # ------------------------------------------------------------------
    def _step(self) -> None:
        """Run ops until a blocking op or the quantum is exhausted."""
        if self.done:
            return
        budget = self.quantum_cycles
        elapsed = 0
        hit_latency = self._hit_latency
        st = self._c
        engine = self.engine
        access = self.l1.access

        if self._compiled is not None:
            # -- hit-run fast lane: vectorize the pending run when every
            # op in it is a guaranteed L1 hit (repro.core.hitrun); falls
            # through to the scalar loop otherwise.  The inline horizon
            # gate (same bound try_hit_run re-checks) keeps contended
            # quantum-1 phases — where the next queued event is cycles
            # away and no merge can fit — at plain-int cost per step.
            if self._lane and not self._awaiting_load:
                if self._lane_skip:
                    self._lane_skip -= 1
                else:
                    if (not engine.until_active
                            and (not (q := engine._queue)
                                 or q[0][0] - engine.now - 1 + budget
                                 >= _hitrun.MIN_RUN * hit_latency)
                            and try_hit_run(self)):
                        self._lane_penalty = 1
                        return
                    # no merge this step (horizon closed, window
                    # active, or a failed attempt that paid for
                    # classification): back off deterministically so
                    # contended phases stay near scalar cost — at most
                    # 32 ops of merge latency, against MIN_RUN-sized
                    # merges when a private streak opens up
                    penalty = self._lane_penalty
                    self._lane_skip = penalty
                    if penalty < 32:
                        self._lane_penalty = penalty * 2
            # -- compiled fast loop: no generator, no op objects --------
            ops = self._ops
            addrs = self._addrs
            vals = self._vals
            cycs = self._cycs
            objs = self._objs
            blks = self._blks
            wofs = self._wofs
            n = len(ops)
            pc = self._cpc
            validate = self._compiled.validate_loads
            l1 = self.l1
            # the miss/wakeup continuation handed to the L1 and sync
            # objects, bound once per step rather than per access (and
            # not stored on the core, where it would be a self-cycle)
            resume = self._resume_with
            while elapsed < budget:
                if self._awaiting_load:
                    # a missed load retired; the delivered value must
                    # match the recording (deopt trigger)
                    self._awaiting_load = False
                    value, self._pending_send = self._pending_send, None
                    if validate and value != vals[pc]:
                        self._deoptimize(value)
                        break
                    pc += 1
                if pc == n:
                    self._cpc = pc
                    self._finish(elapsed)
                    return
                opc = ops[pc]
                if opc == 0:  # LOAD
                    st["mem_ops"] += 1
                    hit, val = access(_LOAD, addrs[pc], None, resume,
                                      blks[pc], wofs[pc])
                    if hit:
                        elapsed += hit_latency
                        if validate and val != vals[pc]:
                            self._cpc = pc
                            self._deoptimize(val)
                            break
                        pc += 1
                        continue
                    self._cpc = pc
                    self._awaiting_load = True
                    self._blocked_since = engine.now
                    self.blocked_op = f"LOAD {addrs[pc]:#x}"
                    return
                if opc == 1 or opc == 2:  # STORE / SCRIBBLE (pre-resolved)
                    st["mem_ops"] += 1
                    atype = _STORE if opc == 1 else _SCRIBBLE
                    hit, _ = access(atype, addrs[pc], vals[pc], resume,
                                    blks[pc], wofs[pc])
                    if hit:
                        elapsed += hit_latency
                        pc += 1
                        continue
                    self._blocked_since = engine.now
                    self.blocked_op = (
                        f"{atype.value.upper()} {addrs[pc]:#x} = "
                        f"{vals[pc]:#x}"
                    )
                    self._cpc = pc + 1  # resume past the store
                    return
                if opc == 3:  # COMPUTE
                    st["compute_cycles"] += cycs[pc]
                    elapsed += cycs[pc]
                    pc += 1
                    continue
                if opc == 4:  # BARRIER
                    self._blocked_since = engine.now
                    self.blocked_op = "BARRIER_WAIT"
                    self._cpc = pc + 1
                    objs[pc].arrive(self._wake, self.cid)
                    st["barrier_waits"] += 1
                    return
                if opc == 5:  # ACQUIRE
                    self._blocked_since = engine.now
                    self.blocked_op = "ACQUIRE"
                    self._cpc = pc + 1
                    objs[pc].acquire(self.cid, self._wake)
                    return
                if opc == 6:  # RELEASE
                    objs[pc].release(self.cid)
                    elapsed += _PRAGMA_COST
                    pc += 1
                    continue
                if opc == 7:  # SETAPRX
                    l1.set_approx(cycs[pc])
                    elapsed += _PRAGMA_COST
                    pc += 1
                    continue
                if opc == 8:  # ENDAPRX
                    l1.end_approx()
                    elapsed += _PRAGMA_COST
                    pc += 1
                    continue
                if opc == 9:  # APPROX_BEGIN
                    self.approx.begin(self._compiled.ranges[pc])
                    elapsed += _PRAGMA_COST
                    pc += 1
                    continue
                if opc == 10:  # APPROX_END
                    self.approx.end(self._compiled.ranges[pc])
                    elapsed += _PRAGMA_COST
                    pc += 1
                    continue
                if opc == 11:  # FLUSH
                    l1.flush_approx()
                    elapsed += _PRAGMA_COST
                    pc += 1
                    continue
                raise TypeError(f"compiled program holds opcode {opc}")
            if self._compiled is not None:
                # quantum exhausted (a deopt breaks with _compiled None
                # and falls through to the generator loop below)
                self._cpc = pc
                st["quantum_yields"] += 1
                engine.schedule_tagged(elapsed, self._step, self._step_tag)
                return

        program = self.program
        rec = self._recorder
        resume = self._resume_with
        while elapsed < budget:
            try:
                if self._pending_send is not None:
                    value, self._pending_send = self._pending_send, None
                    if rec is not None:
                        # loads are the only ops that receive a value
                        rec.patch_load(value)
                    op = program.send(value)
                else:
                    op = next(program)
            except StopIteration:
                self._finish(elapsed)
                return

            cls = type(op)
            if cls is isa.Load:
                st["mem_ops"] += 1
                if rec is not None:
                    rec.record_load(op.addr)
                hit, val = access(_LOAD, op.addr, None, resume)
                if hit:
                    elapsed += hit_latency
                    self._pending_send = val
                    continue
                self._blocked_since = engine.now
                self.blocked_op = f"LOAD {op.addr:#x}"
                return
            if cls is isa.Store or cls is isa.Scribble:
                st["mem_ops"] += 1
                atype = _SCRIBBLE if (
                    cls is isa.Scribble or self.approx.is_approx(op.addr)
                ) else _STORE
                if rec is not None:
                    rec.record(1 if atype is _STORE else 2, op.addr, op.value)
                hit, _ = access(atype, op.addr, op.value, resume)
                if hit:
                    elapsed += hit_latency
                    # stores produce no value; send(None) ~ next()
                    continue
                self._blocked_since = engine.now
                self.blocked_op = (
                    f"{atype.value.upper()} {op.addr:#x} = {op.value:#x}"
                )
                return
            if cls is isa.Compute:
                st["compute_cycles"] += op.cycles
                elapsed += op.cycles
                if rec is not None:
                    rec.record(3, 0, 0, op.cycles)
                continue
            if cls is isa.BarrierWait:
                self._blocked_since = engine.now
                self.blocked_op = "BARRIER_WAIT"
                if rec is not None:
                    rec.record_sync(4, op.barrier)
                op.barrier.arrive(self._wake, self.cid)
                st["barrier_waits"] += 1
                return
            if cls is isa.Acquire:
                self._blocked_since = engine.now
                self.blocked_op = "ACQUIRE"
                if rec is not None:
                    rec.record_sync(5, op.lock)
                op.lock.acquire(self.cid, self._wake)
                return
            if cls is isa.Release:
                op.lock.release(self.cid)
                elapsed += _PRAGMA_COST
                if rec is not None:
                    rec.record_sync(6, op.lock)
                continue
            if cls is isa.SetAprx:
                self.l1.set_approx(op.d_distance)
                elapsed += _PRAGMA_COST
                if rec is not None:
                    rec.record(7, 0, 0, op.d_distance)
                continue
            if cls is isa.EndAprx:
                self.l1.end_approx()
                elapsed += _PRAGMA_COST
                if rec is not None:
                    rec.record(8)
                continue
            if cls is isa.ApproxBegin:
                self.approx.begin(op.ranges)
                elapsed += _PRAGMA_COST
                if rec is not None:
                    rec.record_ranges(9, op.ranges)
                continue
            if cls is isa.ApproxEnd:
                self.approx.end(op.ranges)
                elapsed += _PRAGMA_COST
                if rec is not None:
                    rec.record_ranges(10, op.ranges)
                continue
            if cls is isa.FlushApprox:
                self.l1.flush_approx()
                elapsed += _PRAGMA_COST
                if rec is not None:
                    rec.record(11)
                continue
            raise TypeError(f"thread program yielded {op!r}")

        # quantum exhausted: let other events interleave
        st["quantum_yields"] += 1
        engine.schedule_tagged(elapsed, self._step, self._step_tag)
