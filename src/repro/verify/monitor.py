"""Runtime invariant monitor: protocol safety checked *during* the run.

Ghostwriter deliberately hides locally-dirty copies from the directory
(GS/GI), so the usual "the protocol is standard, trust it" safety net
does not apply.  This module provides:

* :func:`check_block_structure` — the per-block structural invariants
  (SWMR, exclusive/shared exclusion, directory agreement), shared by the
  runtime monitor and the post-run
  :meth:`~repro.sim.machine.Machine.check_coherence_invariants`.
* :class:`GoldenMemory` — a word-granular reference of the globally
  coherent value of every block, maintained from the L1 commit hook:
  whenever an L1 becomes the unique M copy with new data (store hit on
  E/M, fill+store, upgrade grant) its words *are* the coherent values by
  SWMR, so the whole block is recorded.  Blocks never conventionally
  written fall back to the functional backing store (which holds the
  workload's initial data).
* :class:`InvariantMonitor` — registers itself with the machine as a
  periodic event (tag ``("monitor",)``), so it fires every
  ``monitor_period`` cycles of a run or a resumed checkpoint, skips
  blocks with in-flight activity (transient L1 states, write-back
  buffer entries, busy/queued directory transactions, undelivered NoC
  messages), and on the remaining — block-quiescent — population checks
  the structural invariants plus the **data-value invariant**: every
  coherent (non-GS/GI) cache line must match the golden memory word for
  word.  A mismatch means corrupted data (see :mod:`repro.faults`) or a
  protocol bug; the configured policy decides between aborting,
  invalidate-and-refetch recovery, and log-and-continue.

Known laundering window (documented, deliberate): a conventional store
committing on a line whose *other* words were already corrupted records
the corruption as golden — exactly the silent-data-corruption window a
real machine without ECC scrubbing has.
"""
from __future__ import annotations

from repro.coherence.messages import ProtocolError
from repro.common.types import CoherenceState as CS

__all__ = ["InvariantViolation", "GoldenMemory", "InvariantMonitor",
           "check_block_structure"]


class InvariantViolation(RuntimeError):
    """A runtime invariant failed (data-value mismatch under the abort
    policy, or any structural violation found mid-run).

    When the machine had a checkpoint recorder attached, ``Machine.run``
    sets :attr:`checkpoint` to the most recent
    :class:`~repro.sim.state.MachineCheckpoint` before re-raising, so
    the violating window can be replayed from just before it."""

    checkpoint = None


def check_block_structure(machine, block: int,
                          states: dict[int, CS]) -> None:
    """Structural invariants for one block given its L1 holders.

    * SWMR: at most one L1 holds the block in E/M/O; E/M owners coexist
      with no S copies, while an O owner (MOESI) coexists with sharers by
      design.  GS copies are *expected* violations of global visibility
      but still appear in the directory sharer list; GI copies are
      invisible to the directory by design.
    * Directory agreement: dir owner <-> the E/M/O holder; every S/GS
      holder is in the dir sharer list.
    """
    owners = [n for n, s in states.items() if s in (CS.E, CS.M, CS.O)]
    exclusive = [n for n, s in states.items() if s in (CS.E, CS.M)]
    shared = [n for n, s in states.items() if s in (CS.S, CS.GS)]
    if len(owners) > 1:
        raise ProtocolError(
            f"SWMR violated on {block:#x}: owners {owners}"
        )
    if exclusive and shared:
        raise ProtocolError(
            f"{block:#x} owned by {exclusive[0]} but shared by {shared}"
        )
    home = machine.cfg.home_directory(block)
    agent = machine.agents.get(home)
    if agent is None:
        # a topology whose directory placement disagrees with the built
        # agents would otherwise surface as a bare KeyError mid-check
        raise ProtocolError(
            f"no directory agent at home node {home} for {block:#x} "
            f"(topology {machine.cfg.noc.topology!r}, directories "
            f"{machine.cfg.noc.directory_nodes})"
        )
    entry = agent.peek_entry(block)
    if owners:
        if entry is None or entry.owner != owners[0]:
            raise ProtocolError(
                f"dir/owner mismatch on {block:#x}: "
                f"L1 owner {owners[0]}, dir {entry}"
            )
    for node in shared:
        if entry is None or node not in entry.sharers:
            raise ProtocolError(
                f"{block:#x}: node {node} holds S/GS but is not a "
                "directory sharer"
            )


class GoldenMemory:
    """Word-granular reference memory of globally coherent values."""

    __slots__ = ("_backing", "_blocks")

    def __init__(self, backing) -> None:
        self._backing = backing
        self._blocks: dict[int, list[int]] = {}

    def commit(self, block: int, words: list[int]) -> None:
        """Record a conventional-store commit (the L1 commit hook)."""
        self._blocks[block] = words.copy()

    def block(self, block_addr: int) -> list[int]:
        """The coherent words of a block (a copy; callers may mutate)."""
        words = self._blocks.get(block_addr)
        if words is None:
            return self._backing.read_block(block_addr)
        return words.copy()

    def word(self, addr: int) -> int:
        """The coherent value of one aligned 32-bit word."""
        base = self._backing.block_base(addr)
        words = self._blocks.get(base)
        if words is None:
            return self._backing.load_word(addr)
        return words[(addr - base) // 4]

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Deep copy of every committed block."""
        return {"blocks": {b: list(w) for b, w in self._blocks.items()}}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state."""
        self._blocks = {b: list(w) for b, w in blob["blocks"].items()}


class InvariantMonitor:
    """Periodic in-flight invariant checker for one machine."""

    def __init__(self, machine, period: int, *, policy: str = "abort") -> None:
        if period < 1:
            raise ValueError("monitor period must be >= 1 cycle")
        self.machine = machine
        self.period = period
        self.policy = policy
        self.golden = GoldenMemory(machine.backing)
        self.stats = machine.stats.child("verify")
        #: human-readable record of every data-value violation observed
        self.violations: list[str] = []
        for l1 in machine.l1s:
            l1.commit_hook = self.golden.commit
        machine.register(("monitor",), self.check, period)

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Restorable monitor state (counters live in the stats tree)."""
        return {"golden": self.golden.snapshot(),
                "violations": list(self.violations)}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state."""
        self.golden.restore(blob["golden"])
        self.violations = list(blob["violations"])

    # ------------------------------------------------------------------
    def check(self) -> None:
        """One full pass over every block-quiescent block."""
        m = self.machine
        self.stats.checks += 1
        skip = m.network.blocks_in_flight()
        for l1 in m.l1s:
            skip.update(l1.wb_buffer_occupancy())
            for entry in l1.mshrs.entries():
                skip.add(entry.block_addr)
        for agent in m.agents.values():
            skip.update(agent.busy_entries())

        holders: dict[int, dict[int, object]] = {}
        for l1 in m.l1s:
            for line in l1.array.iter_valid():
                state = line.state
                if state is None or state is CS.I:
                    continue
                if state.transient:
                    skip.add(line.tag)
                    continue
                holders.setdefault(line.tag, {})[l1.node] = (l1, line)

        for block, by_node in holders.items():
            if block in skip:
                self.stats.blocks_skipped += 1
                continue
            self.stats.blocks_checked += 1
            check_block_structure(
                m, block,
                {node: line.state for node, (_l1, line) in by_node.items()},
            )
            self._check_values(block, by_node)

    # ------------------------------------------------------------------
    # data-value invariant
    # ------------------------------------------------------------------
    def _check_values(self, block: int, by_node: dict) -> None:
        golden = None
        for _node, (l1, line) in by_node.items():
            if line.state.approximate or line.words is None:
                continue  # GS/GI diverge from coherent values by design
            if golden is None:
                golden = self.golden.block(block)
            bad = [
                i for i, (have, want) in enumerate(zip(line.words, golden))
                if have != want
            ]
            if bad:
                self._on_corruption(l1, line, block, bad, golden)

    def _on_corruption(self, l1, line, block: int, bad: list[int],
                       golden: list[int]) -> None:
        self.stats.value_violations += 1
        detail = (
            f"data-value invariant violated on {block:#x} at L1 {l1.node} "
            f"(state {line.state.value}): words {bad} hold "
            f"{[hex(line.words[i]) for i in bad]}, coherent "
            f"{[hex(golden[i]) for i in bad]}"
        )
        self.violations.append(detail)
        if self.policy == "abort":
            flight = getattr(self.machine, "flight", None)
            if flight is not None and len(flight):
                detail += "\n" + flight.render_tail()
            raise InvariantViolation(detail)
        if self.policy == "recover":
            self._recover(l1, line, golden)

    def _recover(self, l1, line, golden: list[int]) -> None:
        """Invalidate-and-refetch recovery for a corrupted coherent line.

        An S copy is simply dropped to I: the next access misses and
        refetches coherent data; the stale directory sharer listing is
        safe (a later INV to a non-holder is acknowledged
        unconditionally, same as after a GS flush).  An E/M/O line may be
        the *only* copy, so dropping it would lose data or break
        owner-forwarding — its words are restored in place from the
        golden reference instead.
        """
        if line.state is CS.S:
            l1._set_state(line, CS.I, "corruption recovery: invalidate")
        else:
            line.words[:] = golden
        self.stats.corruptions_recovered += 1
