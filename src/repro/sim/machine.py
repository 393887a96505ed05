"""Top-level simulated machine: wires every component together.

``Machine`` owns the engine, the functional backing store, the DRAM
model, the NoC, the L2 slices, the directory agents at the mesh corners
and one (L1, core) pair per core node, and provides the run loop plus
the post-run statistics bundle the harness consumes.

Directory nodes coincide with core tiles (corners host both an L1 and a
directory controller), so each mesh endpoint demultiplexes incoming
messages by type: requests/responses addressed to the home go to the
agent, everything else to the L1.  The two message sets are disjoint by
construction.

Restorable events: every event that can sit in the queue at a
checkpoint safe point is registered once, at construction, in the
machine's tag table (:attr:`Machine.tags`): core steps when a thread is
bound, L1 GI timers when the L1s are built, and the periodic services
(invariant monitor, watchdog, fault injector's cache-flip lottery,
metrics timeline) when each is built.  :meth:`Machine.run` arms the
periodic entries; checkpoint restore resolves every tag through the
same table, so a restored machine and a fresh one share one wiring.

Lifetime: a machine is freed by reference counting as soon as its last
user drops it — built, run or failed — never left for the cyclic
collector.  Nothing the machine owns holds it strongly: the periodic
services get a weak proxy of it, the tag table's callbacks reach only
the engine, the cores list and the components, and the network's
endpoint handlers a weak proxy of the controllers they deliver to (the
controllers hold the network).  The engine's timeout hook, which must
point back while events run, is run-scoped: released when
:meth:`Machine.run` or :meth:`Machine.resume` returns or raises.  A run
that raises also drops its pending work — queued events, MSHR
completions, directory transactions, sync waiters — whose
continuations point back into the machine's parts.
"""
from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.cache.l1 import L1Controller
from repro.cache.l2 import L2Slice
from repro.coherence.directory import DirectoryAgent
from repro.coherence.messages import Message, ProtocolError
from repro.common.config import SimConfig
from repro.common.stats import StatGroup
from repro.common.types import MessageType
from repro.core.core import Core
from repro.core.sync import Barrier, Lock
from repro.isa.compiled import CompiledProgram, ProgramSpec
from repro.faults.injector import FaultInjector
from repro.mem.backing import BackingStore
from repro.mem.dram import Dram
from repro.noc.network import Network
from repro.obs.events import EventBus, EventRecorder, FlightRecorder
from repro.obs.timeline import MetricsTimeline
from repro.sim.engine import Engine, SimulationError
from repro.verify.monitor import (InvariantMonitor, InvariantViolation,
                                  check_block_structure)
from repro.verify.watchdog import ProgressWatchdog, diagnostic_dump

__all__ = ["Machine", "machine_hook"]

#: construction hooks: each callable runs with the freshly-built machine
#: at the end of ``Machine.__init__`` (before any threads are bound).
#: The batch backend uses this to attach decision-trace probes to a run
#: it does not construct itself; install via :func:`machine_hook`.
_CONSTRUCTION_HOOKS: list = []


@contextmanager
def machine_hook(fn):
    """Temporarily install ``fn(machine)`` as a construction hook."""
    _CONSTRUCTION_HOOKS.append(fn)
    try:
        yield fn
    finally:
        _CONSTRUCTION_HOOKS.remove(fn)


class _Rearming:
    """``fire``, re-armed ``period`` cycles later while any core is
    unfinished.  Keying on the cores, not the event queue, keeps two
    periodic services from holding each other alive forever.  An object,
    not a closure: a closure that schedules itself holds itself in a
    cell, a cycle that would keep the engine and cores alive."""

    __slots__ = ("engine", "cores", "tag", "period", "fire")

    def __init__(self, engine: Engine, cores: list, tag: tuple,
                 period: int, fire: Callable[[], None]) -> None:
        self.engine = engine
        self.cores = cores
        self.tag = tag
        self.period = period
        self.fire = fire

    def __call__(self) -> None:
        self.fire()
        if any(c is not None and not c.done for c in self.cores):
            self.engine.schedule_tagged(self.period, self, self.tag)


_DIRECTORY_TYPES = frozenset(
    {
        MessageType.GETS, MessageType.GETX, MessageType.UPGRADE,
        MessageType.PUTS, MessageType.PUTE, MessageType.PUTM,
        MessageType.INV_ACK, MessageType.CHAIN_DATA, MessageType.CHAIN_ACK,
        MessageType.CHAIN_ACK_OWNED,
    }
)


class Machine:
    """A configured multicore machine ready to run thread programs."""

    def __init__(self, cfg: SimConfig) -> None:
        self.cfg = cfg
        # resolve the protocol policy exactly once and inject it into
        # every controller
        self.policy = cfg.policy
        self.engine = Engine()
        self.stats = StatGroup("")
        self.backing = BackingStore(cfg.block_bytes)
        self.dram = Dram(
            cfg.dram, self.engine, cfg.block_bytes, self.stats.child("dram")
        )
        self.network = Network(
            cfg.noc, self.engine, cfg.block_bytes, self.stats.child("noc")
        )
        #: the machine's route/latency model (repro.noc.topologies) —
        #: the same memoized instance the network resolved from cfg.noc
        self.topology = self.network.topo
        self.l2_slices = [
            L2Slice(node, cfg.l2, self.stats.child("l2").child(f"slice{node}"))
            for node in range(cfg.num_cores)
        ]
        self.agents: dict[int, DirectoryAgent] = {
            node: DirectoryAgent(
                node, cfg, self.engine, self.network, self.l2_slices,
                self.backing, self.dram,
                self.stats.child("dir").child(f"d{node}"),
                policy=self.policy,
            )
            for node in cfg.noc.directory_nodes
        }
        self.l1s = [
            L1Controller(
                node, cfg, self.engine, self.network,
                self.stats.child("l1").child(f"c{node}"),
                policy=self.policy,
            )
            for node in range(cfg.num_cores)
        ]
        self.cores: list[Core | None] = [None] * cfg.num_cores
        #: restorable event tag -> (callback, period or None), in
        #: registration order (see :meth:`register` and the module
        #: docstring)
        self.tags: dict[tuple, tuple[Callable[[], None], int | None]] = {}
        for l1 in self.l1s:
            self.register(("gi_timer", l1.node), l1._gi_timeout_fire)
        # creation-order sync-object tables: compiled programs reference
        # barriers/locks as ("kind", creation index), which these resolve
        # (creation order is deterministic for a given workload build)
        self._barriers: list[Barrier] = []
        self._locks: list[Lock] = []
        for node in range(cfg.noc.num_nodes):
            self.network.register(node, self._make_endpoint(node))
        # components that point back at the machine hold it weakly (see
        # the module docstring)
        me = weakref.proxy(self)
        # verification-and-faults layer (all off by default; see
        # VerifyConfig / FaultConfig)
        self.monitor: InvariantMonitor | None = None
        if cfg.verify.monitor_period:
            self.monitor = InvariantMonitor(
                me, cfg.verify.monitor_period, policy=cfg.faults.policy,
            )
        self.watchdog: ProgressWatchdog | None = None
        if cfg.verify.watchdog_interval:
            self.watchdog = ProgressWatchdog(me, cfg.verify.watchdog_interval)
        self.injector: FaultInjector | None = None
        if cfg.faults.active:
            self.injector = FaultInjector(me, cfg.faults)
        # observability layer (all off by default; see ObsConfig)
        self.bus: EventBus | None = None
        self.recorder: EventRecorder | None = None
        self.flight: FlightRecorder | None = None
        self.timeline: MetricsTimeline | None = None
        obs = cfg.obs
        if obs.bus_active:
            bus = self.attach_bus()
            if obs.trace_events:
                self.recorder = EventRecorder()
                bus.subscribe(self.recorder.record)
            if obs.flight_depth:
                self.flight = FlightRecorder(obs.flight_depth)
                bus.subscribe(self.flight.record)
        if obs.timeline_interval:
            self.timeline = MetricsTimeline(me, obs.timeline_interval)
        #: the services whose state a checkpoint carries, by blob key
        self.services = {
            name: svc for name in ("monitor", "watchdog", "injector",
                                   "timeline")
            if (svc := getattr(self, name)) is not None
        }
        # checkpoint layer (off by default; see VerifyConfig)
        self.checkpoint_recorder = None
        if cfg.verify.checkpoint_period:
            from repro.sim.state import CheckpointRecorder  # avoid cycle

            self.checkpoint_recorder = CheckpointRecorder(
                cfg.verify.checkpoint_period
            )
        self._ran = False
        for hook in _CONSTRUCTION_HOOKS:
            hook(self)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def attach_bus(self) -> EventBus:
        """Fetch-or-create the machine's event bus and wire it into every
        emitting component (idempotent).  Consumers — recorders, the
        flight ring, test probes — subscribe to the returned bus."""
        if self.bus is None:
            self.bus = EventBus()
            self.network.bus = self.bus
            for l1 in self.l1s:
                l1.bus = self.bus
                l1.scribe.bus = self.bus
            for slc in self.l2_slices:
                slc.bus = self.bus
                slc.engine = self.engine
            for agent in self.agents.values():
                agent.bus = self.bus
        return self.bus

    # ------------------------------------------------------------------
    def register(self, tag: tuple, callback: Callable[[], None],
                 period: int | None = None) -> None:
        """Enter a restorable event in the tag table.

        ``callback`` is what an event tagged ``tag`` runs, both when
        scheduled live and when a checkpoint's queue is restored.  With a
        ``period``, :meth:`run` arms the event ``period`` cycles in, and
        each firing re-arms it while any core is unfinished.  The entry
        must not hold the machine strongly (see the module docstring).
        """
        if period is not None:
            callback = _Rearming(self.engine, self.cores, tag, period,
                                 callback)
        self.tags[tag] = (callback, period)

    def _make_endpoint(self, node: int):
        # weak proxies: the network holds this handler, and a controller
        # holding the network must not be held back by it (see the
        # module docstring)
        agent = self.agents.get(node)
        if agent is not None:
            agent = weakref.proxy(agent)
        l1 = (weakref.proxy(self.l1s[node]) if node < self.cfg.num_cores
              else None)

        def dispatch(msg: Message) -> None:
            if msg.mtype in _DIRECTORY_TYPES:
                if agent is None:
                    raise ProtocolError(f"no directory at node {node}: {msg}")
                agent.receive(msg)
            else:
                if l1 is None:
                    raise ProtocolError(f"no L1 at node {node}: {msg}")
                l1.receive(msg)

        return dispatch

    # ------------------------------------------------------------------
    # program setup
    # ------------------------------------------------------------------
    def add_thread(
        self, core_id: int,
        program: "Iterator | ProgramSpec | CompiledProgram",
    ) -> Core:
        """Bind a thread program to a core (one program per core).

        Accepts a plain op generator, a pre-lowered
        :class:`~repro.isa.compiled.CompiledProgram`, or a
        :class:`~repro.isa.compiled.ProgramSpec` (factory + program-cache
        slot — the form :meth:`repro.workloads.base.Workload.bind_program`
        produces).  With ``cfg.compile_programs`` off, a spec is unwrapped
        to its generator so the machine runs the legacy path.  A spec the
        program cache misses is recorded (and stored for later runs of
        its key) only with a :attr:`checkpoint_recorder` attached, since
        only a recorded core can be checkpointed; otherwise it runs as a
        plain generator.
        """
        if not 0 <= core_id < self.cfg.num_cores:
            raise ValueError(f"core {core_id} out of range")
        if self.cores[core_id] is not None:
            raise ValueError(f"core {core_id} already has a thread")
        if isinstance(program, ProgramSpec) and not self.cfg.compile_programs:
            program = program.factory()
        core = Core(
            core_id, self.engine, self.l1s[core_id], program,
            self.stats.child("core").child(f"c{core_id}"),
            sync_tables=(self._barriers, self._locks),
            record=self.checkpoint_recorder is not None,
        )
        self.cores[core_id] = core
        self.register(core._step_tag, core._step)
        return core

    def barrier(self, parties: int) -> Barrier:
        """A scheduler-level barrier bound to this machine's engine."""
        b = Barrier(self.engine, parties)
        self._barriers.append(b)
        return b

    def lock(self) -> Lock:
        """A scheduler-level FIFO mutex bound to this machine's engine."""
        lk = Lock(self.engine)
        self._locks.append(lk)
        return lk

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 500_000_000) -> int:
        """Arm every periodic event of the tag table, in registration
        order, start every bound core and drain the event queue.

        Returns the cycle at which the last event executed.  Raises if a
        core never finished (protocol deadlock or malformed program).
        With ``cfg.verify.checkpoint_period`` set, the queue is drained
        in period-sized windows and a :class:`~repro.sim.state.
        MachineCheckpoint` is captured at every safe window boundary;
        fatal simulation errors then carry the most recent checkpoint on
        their ``.checkpoint`` attribute.
        """
        if self._ran:
            raise SimulationError("Machine.run() may only be called once")
        self._ran = True
        active = [c for c in self.cores if c is not None]
        if not active:
            raise SimulationError("no thread programs bound")
        for tag, (callback, period) in self.tags.items():
            if period is not None:
                self.engine.schedule_tagged(period, callback, tag)
        for core in active:
            core.start()
        return self._execute(active, max_cycles)

    def resume(self, max_cycles: int = 500_000_000) -> int:
        """Drain the queue of a machine re-animated from a checkpoint.

        The restored event queue already carries every pending event,
        each resolved through the same tag table :meth:`run` arms from,
        and every other service wiring (the NoC fault hook, the monitor's
        commit hook) was made at construction, so nothing is armed or
        started here: execution continues from the checkpoint cycle.
        Callable exactly once, in place of :meth:`run`.
        """
        if self._ran:
            raise SimulationError(
                "Machine.resume() on a machine that already ran")
        self._ran = True
        active = [c for c in self.cores if c is not None]
        if not active:
            raise SimulationError("no thread programs bound")
        return self._execute(active, max_cycles)

    def _execute(self, active: list[Core], max_cycles: int) -> int:
        """Drain and finalize, holding the run-scoped wiring only for
        the duration (see the module docstring)."""
        self.engine.timeout_hook = self._timeout_context
        try:
            end = self._drain(max_cycles)
            return self._finalize(active, end)
        except BaseException as exc:
            if isinstance(exc, (SimulationError, InvariantViolation)):
                self._attach_checkpoint(exc)
            self._drop_pending_work()
            raise
        finally:
            self.engine.timeout_hook = None

    #: after an unsafe window boundary, keep trying for this many more
    #: cycle-batches before giving the window up — misses cluster, so a
    #: safe point is often a handful of cycles past the boundary
    _SAFE_POINT_SEARCH = 32

    def _drain(self, max_cycles: int) -> int:
        """Drain the event queue, checkpointing at safe window
        boundaries when a recorder is attached.

        Pausing between cycle batches never reorders events, so the
        chunked drain is bit-identical to ``Engine.run`` — checkpoints
        only change *where the simulator looks*, not what it executes.
        """
        rec = self.checkpoint_recorder
        eng = self.engine
        if rec is None:
            return eng.run(max_cycles=max_cycles)
        queue = eng._queue
        period = rec.period
        while queue:
            nxt = queue[0][0]
            if nxt > max_cycles:
                # delegate so the timeout message (and its diagnostics)
                # is byte-identical to the unchunked path
                return eng.run(max_cycles=max_cycles)
            cap = min(((nxt // period) + 1) * period, max_cycles)
            eng.run_until(cap, advance_clock=False)
            tries = self._SAFE_POINT_SEARCH
            while queue and queue[0][0] <= max_cycles:
                if rec.maybe_capture(self) is not None or tries == 0:
                    break
                tries -= 1
                eng.run_until(queue[0][0], advance_clock=False)
        return eng.now

    def _finalize(self, active: list[Core], end: int) -> int:
        """Post-drain bookkeeping shared by :meth:`run`/:meth:`resume`."""
        for core in active:
            if not core.done:
                raise SimulationError(
                    f"core {core.cid} never finished (deadlock?)\n"
                    + diagnostic_dump(self)
                )
        if self.timeline is not None:
            self.timeline.finish()
        self.stats.total_cycles = end
        return end

    def _drop_pending_work(self) -> None:
        """Forget a failed run's pending work: queued events, MSHR
        completions, directory transactions and their queues, and
        barrier/lock waiters.  Each holds a continuation that points
        back into the machine's parts, so left in place they would keep
        the failed machine for the cyclic collector."""
        self.engine._queue.clear()
        for l1 in self.l1s:
            for entry in l1.mshrs.entries():
                entry.on_complete = None
        for agent in self.agents.values():
            for e in agent.busy_entries().values():
                e.txn = None
                e.pending.clear()
        for sync in self._barriers + self._locks:
            sync.drop_waiters()

    def _attach_checkpoint(self, exc: BaseException) -> None:
        """Attach the most recent checkpoint to a fatal error (when a
        recorder is armed and the error does not already carry one)."""
        if (self.checkpoint_recorder is not None
                and getattr(exc, "checkpoint", None) is None):
            exc.checkpoint = self.checkpoint_recorder.latest()

    def _timeout_context(self) -> str:
        """Context appended to SimulationTimeout messages: per-core finish
        status plus the full diagnostic dump."""
        status = ", ".join(
            f"core {c.cid}: "
            + (f"done @ {c.finish_cycle}" if c.done else "UNFINISHED")
            for c in self.cores if c is not None
        )
        return f"core status: [{status}]\n{diagnostic_dump(self)}"

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        """Current simulated cycle."""
        return self.engine.now

    def core_finish_cycles(self) -> list[int]:
        """Finish cycle of every bound core (post-run)."""
        return [
            c.finish_cycle for c in self.cores
            if c is not None and c.finish_cycle is not None
        ]

    def check_quiescent(self) -> None:
        """Post-run invariant: no outstanding transactions anywhere."""
        for l1 in self.l1s:
            if not l1.quiescent():
                raise ProtocolError(f"L1 {l1.node} not quiescent after run")
        for agent in self.agents.values():
            if not agent.quiescent():
                raise ProtocolError(f"directory {agent.node} not quiescent")

    def check_coherence_invariants(self) -> None:
        """Structural protocol invariants, checkable whenever the system
        is quiescent (see :func:`repro.verify.monitor.check_block_structure`
        for the invariant list — the runtime monitor applies the same
        checks mid-run, restricted to block-quiescent blocks).  When a
        runtime monitor is attached, its data-value invariant runs too.
        """
        from repro.common.types import CoherenceState as CS

        holders: dict[int, dict[int, CS]] = {}
        for l1 in self.l1s:
            for line in l1.array.iter_valid():
                if line.state is not CS.I:
                    holders.setdefault(line.tag, {})[l1.node] = line.state

        for block, by_node in holders.items():
            check_block_structure(self, block, by_node)
        if self.monitor is not None:
            self.monitor.check()
