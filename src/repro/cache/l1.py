"""Private L1 data-cache controller: protocol mechanism, policy injected.

This is the component the paper modifies (Fig. 3 / Fig. 6).  It owns:

* the L1 tag/data array (2-way, pseudo-LRU, functional word data),
* the MESI requestor-side finite-state machine, including the transient
  states of a blocking directory protocol (``IS_D``, ``IM_D``, ``SM_D``)
  and the classic races (invalidation overtaking a fill, forward
  overtaking a grant, writeback racing a forward),
* the Ghostwriter extension: the scribe comparator, approximate states
  ``GS``/``GI``, and the periodic GI timeout,
* a write-back buffer that retains evicted E/M data until the directory
  acknowledges the PUT, so in-flight forwards can always be served.

Stale-data semantics (the whole point of the paper): loads from ``GS``
and ``GI`` blocks return the *local* words, which may diverge from the
globally coherent value; locally scribbled updates are silently dropped
whenever the block leaves an approximate state.  Nothing in GS/GI is ever
written back.

Everything protocol-*variant*-specific — may a scribble enter GS/GI,
does an INV on GS invalidate or self-invalidate, MESI vs MOESI dirty
forwarding, write-update UPGRADEs — is decided by the injected
:class:`~repro.coherence.policy.ProtocolPolicy`; this controller keeps
only the mechanism.  The policy's decision bits are pre-resolved into
plain booleans at construction so the per-access hot path never touches
the policy object.
"""
from __future__ import annotations

from collections import deque
from typing import Callable

from repro.cache.mshr import MshrEntry, MshrFile, MshrKind
from repro.cache.sram import CacheArray, CacheLine
from repro.coherence.messages import Message, ProtocolError
from repro.common.config import SimConfig
from repro.common.stats import StatGroup
from repro.common.types import AccessType, CoherenceState, MessageType
from repro.noc.network import Network
from repro.obs.events import Event, EventKind
from repro.scribe.scribe_unit import ScribeUnit
from repro.sim.engine import CheckpointUnsupported, Engine

__all__ = ["L1Controller"]

_S = CoherenceState
_RETRY_DELAY = 4  # cycles between structural-stall retries

#: stable states the hit-run fast lane may treat as resident: the lane's
#: residency mirror tracks exactly the blocks whose next access *cannot*
#: allocate, evict, or race a transient transaction.  I is excluded (a
#: scribble on I may transition to GI); transient states are excluded by
#: definition.
_MIRROR_STATES = frozenset((_S.S, _S.E, _S.M, _S.O, _S.GS, _S.GI))


class _WbEntry:
    """Evicted E/M block parked until the directory acks the PUT."""

    __slots__ = ("words", "dirty")

    def __init__(self, words: list[int], dirty: bool) -> None:
        self.words = words
        self.dirty = dirty


class L1Controller:
    """One private L1 D-cache + its coherence controller."""

    def __init__(
        self,
        node: int,
        cfg: SimConfig,
        engine: Engine,
        network: Network,
        stats: StatGroup,
        *,
        policy=None,
    ) -> None:
        self.node = node
        self.cfg = cfg
        self.gw = cfg.ghostwriter
        self.engine = engine
        self.network = network
        self.stats = stats
        # Machine resolves the policy once and passes it down; direct
        # constructions (unit tests) fall back to the config's resolution
        self.policy = cfg.policy if policy is None else policy
        # policy decision bits, pre-resolved for the per-access hot path
        self._allow_gs = self.policy.allows_gs
        self._allow_gi = self.policy.allows_gi
        self._approx = self.policy.approx
        self._moesi = self.policy.base == "moesi"
        self._gs_self_invalidate = (
            self.policy.remote_store_gs == "self-invalidate"
        )
        self._update_upgrades = self.policy.update_on_upgrade
        self._gs_fallback_getx = self.policy.gs_fallback_is_getx(self.gw)
        self.array = CacheArray(cfg.l1)
        self.mshrs = MshrFile(capacity=8)
        self.scribe = ScribeUnit(
            d_distance=cfg.ghostwriter.d_distance,
            enabled=False,
            stats=stats.child("scribe"),
            mode=cfg.ghostwriter.similarity_mode,
            node=node,
            engine=engine,
        )
        self._wb_buffer: dict[int, deque[_WbEntry]] = {}
        #: residency mirror (hit-run fast lane): block -> (line, set_idx,
        #: way) for every line in a stable hit-capable state (see
        #: ``_MIRROR_STATES``).  Maintained incrementally by
        #: ``_set_state``/``_evict`` and rebuilt wholesale by
        #: ``restore`` — never serialized.  A *missing* entry is always
        #: safe (the lane falls back to scalar); a stale entry never
        #: exists because every state change funnels through
        #: ``_set_state`` and every eviction through ``_evict``.
        self._mirror: dict[int, tuple[CacheLine, int, int]] = {}
        self._gi_blocks: set[int] = set()
        self._gi_timer_armed = False
        self._block_bytes = cfg.block_bytes
        self._home_memo: dict[int, int] = {}
        self._word_shift = 2  # 4-byte words
        self._off_mask = cfg.block_bytes - 1  # block size is power-of-two
        # hot-path bindings: the access path runs once per simulated
        # memory reference, so its counters are bumped through the live
        # counter dict (one item access each) rather than StatGroup's
        # attribute protocol, and the scribe entry points are pre-bound;
        # the miss, fill and invalidation paths bump the same dict
        self._c = stats.counters(
            "loads", "load_hits", "load_misses", "load_miss_on_I",
            "approx_load_hits", "stores", "store_hits", "store_misses",
            "store_miss_on_S", "store_miss_on_I", "approx_store_hits",
            "gs_store_hits", "gi_store_hits", "gs_serviced", "gi_serviced",
            "budget_fallbacks", "structural_stalls", "misses_issued",
        )
        self._scribe_observe = self.scribe.observe
        self._scribe_check = self.scribe.check
        #: event bus (repro.obs); None keeps every emission site to a
        #: single attribute check
        self.bus = None
        #: optional observer: fn(cycle, node, block, old_state, new_state, why)
        self.transition_hook: Callable[..., None] | None = None
        #: optional observer of conventional-store commits:
        #: fn(block, words) is called whenever this L1 becomes the unique
        #: M copy with new data (store hit on E/M, fill+store, upgrade
        #: grant) — at that instant ``words`` *are* the globally coherent
        #: values (SWMR), which is what feeds the golden reference memory
        #: of the runtime invariant monitor (repro.verify).
        self.commit_hook: Callable[[int, list[int]], None] | None = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _block_base(self, addr: int) -> int:
        return addr & ~self._off_mask

    def _word_off(self, addr: int) -> int:
        return (addr & self._off_mask) >> self._word_shift

    def _set_state(self, line: CacheLine, new: CoherenceState, why: str) -> None:
        old = line.state
        line.state = new
        tag = line.tag
        if new in _MIRROR_STATES:
            mirror = self._mirror
            if tag not in mirror:
                idx, way = self.array.position_of(line, tag)
                mirror[tag] = (line, idx, way)
        else:
            self._mirror.pop(tag, None)
        if old is not new and old is not None:
            hook = self.transition_hook
            if hook is not None:
                hook(self.engine.now, self.node, line.tag, old, new, why)
            bus = self.bus
            if bus is not None:
                bus.emit(Event(
                    self.engine.now, EventKind.STATE, self.node, line.tag,
                    f"{old.value}->{new.value}", why,
                ))

    def _send(self, mtype: MessageType, block: int, dst: int, **kw) -> None:
        self.network.send(
            Message(mtype, block, src=self.node, dst=dst, **kw)
        )

    def _home(self, block: int) -> int:
        # memoized per block: the directory interleave is a pure function
        # of the address, and hot blocks resolve their home every message
        memo = self._home_memo
        home = memo.get(block)
        if home is None:
            home = memo[block] = self.cfg.home_directory(block)
        return home

    def _commit(self, line: CacheLine) -> None:
        """Publish a line's words to the commit observer (if any)."""
        hook = self.commit_hook
        if hook is not None:
            hook(line.tag, line.words)

    # ------------------------------------------------------------------
    # core-facing interface
    # ------------------------------------------------------------------
    def access(
        self,
        atype: AccessType,
        addr: int,
        value: int | None,
        on_done: Callable[[int | None], None],
        block: int | None = None,
        off: int | None = None,
    ) -> tuple[bool, int | None]:
        """Perform one memory reference.

        Returns ``(True, load_value)`` on a hit (the caller charges the L1
        hit latency itself, which lets cores batch hits without touching
        the event queue).  On a miss, returns ``(False, None)`` and calls
        ``on_done(load_value)`` when the transaction retires.  In-order
        cores issue at most one outstanding access, which the MSHR layout
        relies on.

        ``block``/``off`` accept the address decomposition when the
        caller already has it — the compiled interpreter passes the
        per-op columns its :class:`~repro.isa.compiled.HitRunPlan`
        precomputed, skipping the per-access shift/mask arithmetic.
        """
        if block is None:
            block = addr & ~self._off_mask
            off = (addr & self._off_mask) >> self._word_shift
        bus = self.bus
        if bus is None or not bus.wants(EventKind.ACCESS):
            return self._access(atype, addr, value, on_done, block, off)
        hit, val = self._access(atype, addr, value, on_done, block, off)
        bus.emit(Event(
            self.engine.now, EventKind.ACCESS, self.node, addr,
            atype.value, "hit" if hit else "miss", value or 0,
        ))
        return hit, val

    def _access(
        self,
        atype: AccessType,
        addr: int,
        value: int | None,
        on_done: Callable[[int | None], None],
        block: int,
        off: int,
    ) -> tuple[bool, int | None]:
        line = self.array.lookup(block)
        st = self._c

        if atype is AccessType.LOAD:
            st["loads"] += 1
            if line is not None and line.state.readable:
                st["load_hits"] += 1
                if line.state.approximate:
                    st["approx_load_hits"] += 1
                return True, line.words[off]
            if line is not None and line.state.transient:
                raise ProtocolError(
                    f"core {self.node} accessed block {block:#x} with an "
                    "outstanding transaction (cores are single-outstanding)"
                )
            if line is not None:  # tag present, state I
                st["load_miss_on_I"] += 1
            st["load_misses"] += 1
            self._start_miss(atype, addr, value, on_done)
            return False, None

        # stores and scribbles -----------------------------------------
        st["stores"] += 1
        if value is None:
            raise ValueError("store requires a value")
        if line is not None and line.words is not None:
            # Fig. 2 instrumentation: write value vs resident word,
            # irrespective of coherence state.
            self._scribe_observe(value, line.words[off])

        if line is not None and line.state.transient:
            raise ProtocolError(
                f"core {self.node} stored to block {block:#x} with an "
                "outstanding transaction"
            )

        if line is not None:
            state = line.state
            if state is _S.E:
                line.words[off] = value
                self._set_state(line, _S.M, "store hit on E")
                self._commit(line)
                st["store_hits"] += 1
                return True, None
            if state is _S.M:
                line.words[off] = value
                self._commit(line)
                st["store_hits"] += 1
                return True, None
            if state is _S.GS or state is _S.GI:
                # Scribbles re-check similarity in every state (§3.1: the
                # check applies "regardless of the coherence state",
                # otherwise "falling back to the conventional coherence
                # mechanisms").  A similar scribble — and any conventional
                # store (Fig. 3 self-loops) — hits locally.  A DISSIMILAR
                # scribble falls back: from GS it issues a real UPGRADE
                # (which publishes the locally accumulated block when
                # granted), from GI a real GETX.  This fallback is what
                # keeps application error bounded (Fig. 11) while the
                # adversarial microbenchmark (Fig. 12) still diverges.
                budget = self.gw.approx_write_budget
                over_budget = (
                    budget is not None
                    and atype is AccessType.SCRIBBLE
                    and (line.aux or 0) >= budget
                )
                if over_budget:
                    st["budget_fallbacks"] += 1
                if over_budget or (
                    atype is AccessType.SCRIBBLE and not self._scribe_check(
                        value, line.words[off], block, state
                    )
                ):
                    if state is _S.GS:
                        st["store_miss_on_S"] += 1
                    else:
                        st["store_miss_on_I"] += 1
                    st["store_misses"] += 1
                    self._start_miss(atype, addr, value, on_done)
                    return False, None
                # hit: these stores would have been coherence misses in
                # the baseline (the block would be ping-ponging through
                # S/I), so they count toward the Fig. 7 numerators.
                line.words[off] = value
                line.aux = (line.aux or 0) + 1  # per-episode write budget
                st["store_hits"] += 1
                st["approx_store_hits"] += 1
                if state is _S.GS:
                    st["gs_store_hits"] += 1
                else:
                    st["gi_store_hits"] += 1
                return True, None
            if state is _S.O:
                # MOESI Owned: dirty + shared, read-only.  Scribbles never
                # enter GS from O — the O copy is the globally coherent
                # master, and hiding updates in it (or dropping it on an
                # invalidation) would discard *committed* data, not an
                # approximation.  Stores take the conventional UPGRADE.
                st["store_miss_on_S"] += 1
                st["store_misses"] += 1
                self._start_miss(atype, addr, value, on_done)
                return False, None
            if state is _S.S:
                if (
                    atype is AccessType.SCRIBBLE
                    and self._allow_gs
                    and self._scribe_check(value, line.words[off], block,
                                           state)
                ):
                    line.words[off] = value
                    line.aux = 1  # first write of this approximate episode
                    self._set_state(line, _S.GS, "scribble serviced by GS")
                    st["store_hits"] += 1
                    st["gs_serviced"] += 1
                    return True, None
                st["store_miss_on_S"] += 1
                st["store_misses"] += 1
                self._start_miss(atype, addr, value, on_done)
                return False, None
            if state is _S.I:
                if (
                    atype is AccessType.SCRIBBLE
                    and self._allow_gi
                    and self._scribe_check(value, line.words[off], block,
                                           state)
                ):
                    line.words[off] = value
                    line.aux = 1  # first write of this approximate episode
                    self._set_state(line, _S.GI, "scribble serviced by GI")
                    self._enter_gi(block)
                    st["store_hits"] += 1
                    st["gi_serviced"] += 1
                    return True, None
                st["store_miss_on_I"] += 1
                st["store_misses"] += 1
                self._start_miss(atype, addr, value, on_done)
                return False, None
            raise ProtocolError(f"unhandled L1 state {state}")

        # tag miss entirely
        st["store_misses"] += 1
        self._start_miss(atype, addr, value, on_done)
        return False, None

    # ------------------------------------------------------------------
    # miss path
    # ------------------------------------------------------------------
    def _start_miss(
        self,
        atype: AccessType,
        addr: int,
        value: int | None,
        on_done: Callable[[int | None], None],
    ) -> None:
        block = self._block_base(addr)
        # A request for a block with an un-acked PUT in flight would let
        # the request overtake the writeback; hardware stalls, so do we.
        if block in self._wb_buffer or self.mshrs.full():
            self._c["structural_stalls"] += 1
            bus = self.bus
            if bus is not None:
                bus.emit(Event(
                    self.engine.now, EventKind.MSHR_STALL, self.node, block,
                    atype.value,
                    "wb-pending" if block in self._wb_buffer else "mshr-full",
                ))
            self.engine.schedule(
                _RETRY_DELAY, lambda: self._start_miss(atype, addr, value, on_done)
            )
            return

        line = self.array.lookup(block, touch=False)
        if line is None:
            line = self.array.find_free_or_victim(
                block, lambda ln: ln.state is not None and ln.state.stable
            )
            if line is None:
                # every way pinned (cannot normally happen with one
                # outstanding miss per core, but stay safe)
                self._c["structural_stalls"] += 1
                bus = self.bus
                if bus is not None:
                    bus.emit(Event(
                        self.engine.now, EventKind.MSHR_STALL, self.node,
                        block, atype.value, "set-pinned",
                    ))
                self.engine.schedule(
                    _RETRY_DELAY,
                    lambda: self._start_miss(atype, addr, value, on_done),
                )
                return
            if line.valid:
                self._evict(line)
            self.array.install(line, block)
            line.words = [0] * self.cfg.l1.words_per_block
            self._set_state(line, _S.I, "allocate")

        off = self._word_off(addr)
        if atype is AccessType.LOAD:
            kind = MshrKind.LOAD
            self._set_state(line, _S.IS_D, "load miss -> GETS")
            mtype = MessageType.GETS
        elif line.state is _S.S or line.state is _S.O:
            # an O owner upgrading keeps its dirty words; the grant makes
            # them the M copy
            kind = MshrKind.UPGRADE
            self._set_state(line, _S.SM_D, "store on S/O -> UPGRADE")
            mtype = MessageType.UPGRADE
        elif line.state is _S.GS:
            # Conventional fallback from a divergent GS copy.  Two designs
            # (the ``gs_fallback_getx`` ablation knob, which the policy
            # may override — update protocols force GETX, since an
            # in-place UPGRADE would leave divergent scribbled words in a
            # now-coherent S line):
            # * GETX: discard the divergent copy, fetch fresh data, apply
            #   only this store's word — publishes the thread's own
            #   accumulated word without clobbering other threads' words
            #   with the holder's stale view.
            # * UPGRADE (default): publish the whole locally-modified
            #   block in place (cheaper, no data transfer, but stale
            #   words of other threads become globally visible).
            if self._gs_fallback_getx:
                self._c["approx_data_dropped"] += 1
                kind = MshrKind.STORE
                self._set_state(line, _S.IM_D,
                                "store fallback from GS -> GETX")
                mtype = MessageType.GETX
            else:
                kind = MshrKind.UPGRADE
                self._set_state(line, _S.SM_D,
                                "store fallback from GS -> UPGRADE")
                mtype = MessageType.UPGRADE
        else:
            if line.state is _S.GI:
                self._gi_blocks.discard(block)
            kind = MshrKind.STORE
            self._set_state(line, _S.IM_D, "store miss -> GETX")
            mtype = MessageType.GETX

        line.pinned = True
        entry = MshrEntry(
            block, kind, addr, value,
            is_scribble=(atype is AccessType.SCRIBBLE),
            on_complete=on_done, issued_at=self.engine.now,
        )
        self.mshrs.allocate(entry)
        self._c["misses_issued"] += 1
        if mtype is MessageType.UPGRADE and self._update_upgrades:
            # the home may fan this write out as UPDATEs to the other
            # sharers, so the request itself carries the written word
            self._send(mtype, block, self._home(block), requestor=self.node,
                       addr=addr, value=value)
        else:
            self._send(mtype, block, self._home(block), requestor=self.node)
        _ = off  # word offset re-derived at fill time

    def _evict(self, line: CacheLine) -> None:
        """Make room: run the eviction protocol for the victim line."""
        block = line.tag
        state = line.state
        st = self._c
        st["evictions"] += 1
        if state is _S.M or state is _S.O:
            self._wb_buffer.setdefault(block, deque()).append(
                _WbEntry(line.words, dirty=True)
            )
            st["writebacks"] += 1
            self._send(MessageType.PUTM, block, self._home(block),
                       words=line.words.copy())
        elif state is _S.E:
            self._wb_buffer.setdefault(block, deque()).append(
                _WbEntry(line.words, dirty=False)
            )
            self._send(MessageType.PUTE, block, self._home(block))
        elif state is _S.S:
            self._send(MessageType.PUTS, block, self._home(block))
        elif state is _S.GS:
            # directory still lists us as an S sharer; approximate updates
            # are forfeited (paper 3.5)
            st["approx_data_dropped"] += 1
            self._send(MessageType.PUTS, block, self._home(block))
        elif state is _S.GI:
            # invisible to the directory: silent drop
            st["approx_data_dropped"] += 1
            self._gi_blocks.discard(block)
        elif state is _S.I:
            pass
        else:
            raise ProtocolError(f"evicting line in transient state {state}")
        if state is not _S.I:
            if self.transition_hook is not None:
                self.transition_hook(
                    self.engine.now, self.node, block, state, _S.I, "eviction"
                )
            bus = self.bus
            if bus is not None:
                bus.emit(Event(
                    self.engine.now, EventKind.STATE, self.node, block,
                    f"{state.value}->I", "eviction",
                ))
        self._mirror.pop(block, None)
        line.clear()

    # ------------------------------------------------------------------
    # Ghostwriter GI timeout
    # ------------------------------------------------------------------
    def _enter_gi(self, block: int) -> None:
        self._gi_blocks.add(block)
        if not self._gi_timer_armed:
            self._gi_timer_armed = True
            self.engine.schedule_tagged(
                self.gw.gi_timeout, self._gi_timeout_fire,
                ("gi_timer", self.node),
            )

    def _gi_timeout_fire(self) -> None:
        """Periodic controller timeout: flash-invalidate all GI blocks."""
        self._gi_timer_armed = False
        blocks, self._gi_blocks = self._gi_blocks, set()
        flashed = 0
        for block in blocks:
            line = self.array.lookup(block, touch=False)
            if line is not None and line.state is _S.GI:
                self._set_state(line, _S.I, "GI timeout")
                flashed += 1
        if flashed:
            self.stats.bulk_add("gi_timeout_invalidations", flashed)
            self.stats.bulk_add("approx_data_dropped", flashed)
        # a new timer is armed by the next GI entry

    # ------------------------------------------------------------------
    # network-facing interface
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        """Dispatch an incoming coherence message to its handler."""
        mtype = msg.mtype
        if (
            mtype is MessageType.DATA
            or mtype is MessageType.DATA_E
            or mtype is MessageType.FWD_DATA
        ):
            self._on_fill(msg)
        elif mtype is MessageType.ACK:
            self._on_ack(msg)
        elif mtype is MessageType.INV:
            self._on_inv(msg)
        elif mtype is MessageType.UPDATE:
            self._on_update(msg)
        elif mtype is MessageType.FWD_GETS or mtype is MessageType.FWD_GETX:
            self._on_fwd(msg)
        else:
            raise ProtocolError(f"L1 {self.node} cannot handle {msg}")

    # -- fills -----------------------------------------------------------
    def _on_fill(self, msg: Message) -> None:
        block = msg.block_addr
        entry = self.mshrs.get(block)
        if entry is None:
            raise ProtocolError(f"fill without MSHR: {msg}")
        line = self.array.lookup(block, touch=False)
        if line is None or not line.state.transient:
            raise ProtocolError(f"fill into non-transient line: {msg}")
        line.words = msg.words.copy()
        off = self._word_off(entry.addr)
        result: int | None
        if entry.kind is MshrKind.LOAD:
            if entry.fill_to_invalid:
                # an INV was acknowledged while we waited: consume the
                # fill once and keep the line invalid
                self._set_state(line, _S.I, "fill (use-once after INV)")
            else:
                exclusive = msg.mtype is MessageType.DATA_E
                self._set_state(
                    line, _S.E if exclusive else _S.S,
                    "fill (exclusive)" if exclusive else "fill (shared)",
                )
            result = line.words[off]
        else:
            # STORE, or an UPGRADE that was converted to a GETX by the
            # directory after our S copy was invalidated mid-flight.
            line.words[off] = entry.value
            self._set_state(line, _S.M, "fill + store")
            self._commit(line)
            result = None
        line.pinned = False
        self.mshrs.retire(block)
        self._c["miss_latency_cycles"] += self.engine.now - entry.issued_at
        self._run_deferred(line, entry)
        cb = entry.on_complete
        self.engine.schedule(0, lambda: cb(result))

    def _on_ack(self, msg: Message) -> None:
        block = msg.block_addr
        entry = self.mshrs.get(block)
        if entry is not None:
            if entry.kind is not MshrKind.UPGRADE:
                raise ProtocolError(f"unexpected ACK for {entry}")
            line = self.array.lookup(block, touch=False)
            if line is None or line.state is not _S.SM_D:
                raise ProtocolError(f"ACK without SM_D line: {msg}")
            off = self._word_off(entry.addr)
            line.words[off] = entry.value
            if msg.shared:
                # write-update hybrid: the home pushed our write to the
                # surviving sharers instead of invalidating them, so the
                # grant leaves us a (coherent) sharer rather than owner
                self._set_state(line, _S.S, "upgrade granted (sharers updated)")
            else:
                self._set_state(line, _S.M, "upgrade granted")
            # an UPGRADE grant from a divergent GS copy publishes the
            # whole locally-modified block, so commit all of it
            self._commit(line)
            line.pinned = False
            self.mshrs.retire(block)
            self._c["miss_latency_cycles"] += self.engine.now - entry.issued_at
            self._run_deferred(line, entry)
            cb = entry.on_complete
            self.engine.schedule(0, lambda: cb(None))
            return
        # otherwise: directory acking one of our PUTs
        queue = self._wb_buffer.get(block)
        if not queue:
            raise ProtocolError(f"ACK with no MSHR and no writeback: {msg}")
        queue.popleft()
        if not queue:
            del self._wb_buffer[block]

    # -- invalidations ----------------------------------------------------
    def _on_inv(self, msg: Message) -> None:
        block = msg.block_addr
        line = self.array.lookup(block, touch=False)
        st = self._c
        if line is None or line.state is _S.I:
            # our PUTS/eviction raced the invalidation: ack unconditionally
            st["stray_invs"] += 1
        elif line.state is _S.S:
            self._set_state(line, _S.I, "invalidated")
            st["invalidations"] += 1
        elif line.state is _S.O:
            # MOESI: a sharer won an upgrade race; its copy is identical
            # to ours, so dropping the dirty O data is safe
            self._set_state(line, _S.I, "O invalidated by sharer upgrade")
            st["invalidations"] += 1
        elif line.state is _S.GS:
            if self._gs_self_invalidate:
                # self-invalidation variant: keep the (now stale) copy
                # as GI instead of dropping it — the holder reads its
                # local view until the GI timeout flash-invalidates it.
                # The INV is still acknowledged, and the directory
                # forgets us, so the demoted copy is invisible exactly
                # like any other GI block.
                self._set_state(line, _S.GI, "GS self-invalidates to GI")
                self._enter_gi(block)
                st["invalidations"] += 1
                st["self_invalidations"] += 1
            else:
                # remote conventional store reclaims the block; local
                # approximate updates are forfeited (paper 3.2/3.5)
                self._set_state(line, _S.I, "GS invalidated")
                self._note_gs_loss()
                st["invalidations"] += 1
        elif line.state is _S.GI:
            # the directory does not track GI copies, so this is a stale
            # invalidation from our earlier S era; drop to I conservatively
            self._set_state(line, _S.I, "stale INV on GI")
            self._gi_blocks.discard(block)
            self._note_gs_loss()
            st["stray_invs"] += 1
        elif line.state is _S.SM_D:
            # our UPGRADE lost the race; the directory will answer with
            # data instead of an ack
            entry = self.mshrs.get(block)
            if entry is None:
                raise ProtocolError(f"SM_D without MSHR on {msg}")
            entry.kind = MshrKind.STORE
            self._set_state(line, _S.IM_D, "INV during UPGRADE")
            st["invalidations"] += 1
        elif line.state is _S.IS_D:
            # Either the INV overtook our fill, or it targets a stale era
            # (we evicted and re-requested; our GETS is still queued behind
            # the invalidating transaction).  Deferring the ack can
            # deadlock the directory, so acknowledge now and downgrade the
            # eventual fill to use-once (gem5's IS_I transient): the load
            # completes with the fill data but the line installs as I.
            entry = self.mshrs.get(block)
            if entry is None:
                raise ProtocolError(f"IS_D without MSHR on {msg}")
            entry.fill_to_invalid = True
            st["deferred_invs"] += 1
        elif line.state is _S.IM_D:
            st["stray_invs"] += 1
        else:
            raise ProtocolError(f"INV in state {line.state}: {msg}")
        self._send(MessageType.INV_ACK, block, msg.src)

    def _note_gs_loss(self) -> None:
        self._c["approx_data_dropped"] += 1

    # -- pushed updates (write-update hybrid) -----------------------------
    def _on_update(self, msg: Message) -> None:
        """The home pushed a freshly written block to its sharers.

        Apply it to any shared-era copy.  The home collects our INV_ACK
        before completing the update transaction, which is what makes a
        *stale* UPDATE to a live S copy impossible: any later fill we
        could have received dispatches only after that completion.  A
        copy that already left the sharer set (evicted, or re-requesting
        in IS_D/IM_D) ignores the push — the eventual fill carries
        post-update data — but still acknowledges it.
        """
        block = msg.block_addr
        line = self.array.lookup(block, touch=False)
        st = self._c
        state = None if line is None else line.state
        if state is _S.S:
            line.words[:] = msg.words
            st["updates_applied"] += 1
        elif state is _S.GS:
            # a remote store reclaims the block: under the update hybrid
            # the pushed data replaces the local scribbles (re-cohered)
            line.words[:] = msg.words
            self._set_state(line, _S.S, "UPDATE re-coheres GS")
            self._note_gs_loss()
            st["updates_applied"] += 1
        elif state is _S.SM_D:
            # our own UPGRADE is queued at the home behind the pusher's;
            # refresh the base copy so our grant publishes current data
            line.words[:] = msg.words
            st["updates_applied"] += 1
        elif state in (_S.E, _S.M, _S.O):
            # cannot happen (see docstring): ownership requires a prior
            # transaction, which requires our update ack first
            raise ProtocolError(f"UPDATE to owner state {state}: {msg}")
        else:
            # I/GI/IS_D/IM_D or no tag: no longer a live sharer copy
            st["stray_updates"] += 1
        self._send(MessageType.INV_ACK, block, msg.src)

    # -- forwards ---------------------------------------------------------
    def _on_fwd(self, msg: Message) -> None:
        block = msg.block_addr
        line = self.array.lookup(block, touch=False)
        if line is not None and line.state is _S.SM_D:
            # MOESI: we are the O owner and our UPGRADE is queued at the
            # home *behind* the forwarded request (per-channel FIFO rules
            # out the forward overtaking a grant).  Our line still holds
            # the valid owned data, so serve now — deferring would
            # deadlock the directory against our own queued upgrade.
            self._send(MessageType.FWD_DATA, block, msg.requestor,
                       words=line.words.copy())
            if msg.mtype is MessageType.FWD_GETS:
                # we remain the (upgrading) owner
                self._send(MessageType.CHAIN_ACK_OWNED, block, msg.src)
            else:  # FWD_GETX: ownership moves; our upgrade will be
                # promoted to a GETX by the directory
                self._send(MessageType.CHAIN_ACK, block, msg.src)
                self._set_state(line, _S.IM_D, "Fwd_GETX during UPGRADE")
            self._c["fwds_serviced"] += 1
            return
        if line is not None and line.state.transient:
            # forward overtook our grant/fill: service after completion
            entry = self.mshrs.get(block)
            if entry is None:
                raise ProtocolError(f"transient line without MSHR: {msg}")
            entry.deferred.append(msg)
            self._c["deferred_fwds"] += 1
            return
        if line is not None and line.state in (_S.E, _S.M, _S.O):
            self._service_fwd_from_line(line, msg)
            return
        # we must have evicted: the write-back buffer retains the data
        queue = self._wb_buffer.get(block)
        if not queue:
            raise ProtocolError(
                f"L1 {self.node} got {msg.mtype.label} but owns nothing"
            )
        entry = queue[-1]
        self._send(MessageType.FWD_DATA, block, msg.requestor,
                   words=entry.words.copy())
        if msg.mtype is MessageType.FWD_GETS and entry.dirty:
            # even under MOESI: the block is evicted here, so ownership
            # cannot be retained — chain the data home instead
            self._send(MessageType.CHAIN_DATA, block, msg.src,
                       words=entry.words.copy())
        else:
            self._send(MessageType.CHAIN_ACK, block, msg.src)
        self._c["fwds_from_wb_buffer"] += 1

    def _service_fwd_from_line(self, line: CacheLine, msg: Message) -> None:
        block = msg.block_addr
        dirty = line.state is _S.M or line.state is _S.O
        self._send(MessageType.FWD_DATA, block, msg.requestor,
                   words=line.words.copy())
        if msg.mtype is MessageType.FWD_GETS:
            if dirty and self._moesi:
                # MOESI: keep supplying data from O; no home writeback
                self._send(MessageType.CHAIN_ACK_OWNED, block, msg.src)
                self._set_state(line, _S.O, "kept Owned on Fwd_GETS")
            elif dirty:
                self._send(MessageType.CHAIN_DATA, block, msg.src,
                           words=line.words.copy())
                self._set_state(line, _S.S, "downgraded by Fwd_GETS")
            else:
                self._send(MessageType.CHAIN_ACK, block, msg.src)
                self._set_state(line, _S.S, "downgraded by Fwd_GETS")
        else:  # FWD_GETX
            self._send(MessageType.CHAIN_ACK, block, msg.src)
            self._set_state(line, _S.I, "invalidated by Fwd_GETX")
        self._c["fwds_serviced"] += 1

    # -- deferred messages --------------------------------------------------
    def _run_deferred(self, line: CacheLine, entry: MshrEntry) -> None:
        deferred: list[Message] = entry.deferred
        for msg in deferred:
            if msg.mtype is MessageType.INV:
                if line.state in (_S.S, _S.E, _S.M, _S.GS):
                    self._set_state(line, _S.I, "deferred INV")
                self._send(MessageType.INV_ACK, msg.block_addr, msg.src)
            elif msg.mtype in (MessageType.FWD_GETS, MessageType.FWD_GETX):
                if line.state not in (_S.E, _S.M):
                    raise ProtocolError(
                        f"deferred forward in state {line.state}"
                    )
                self._service_fwd_from_line(line, msg)
            else:
                raise ProtocolError(f"cannot defer {msg}")
        deferred.clear()

    # ------------------------------------------------------------------
    # ISA hooks (setaprx / endaprx)
    # ------------------------------------------------------------------
    def flush_approx(self) -> None:
        """Context switch / join (paper 3.5): approximate blocks cannot be
        migrated, so every GS/GI line drops to I and its updates are
        forfeited.  GS lines stay on the directory's sharer list, which is
        safe: a later INV to a non-holder is acknowledged unconditionally.
        """
        flushed = 0
        for line in self.array.iter_valid():
            if line.state is _S.GS or line.state is _S.GI:
                if line.state is _S.GI:
                    self._gi_blocks.discard(line.tag)
                self._set_state(line, _S.I, "context-switch flush")
                flushed += 1
        if flushed:
            self.stats.bulk_add("approx_data_dropped", flushed)
            self.stats.bulk_add("flush_invalidations", flushed)

    def set_approx(self, d_distance: int) -> None:
        """``setaprx``: program and enable the scribe comparator."""
        if self._approx:
            self.scribe.program(d_distance)

    def end_approx(self) -> None:
        """``endaprx``: disable approximate coherence transitions."""
        self.scribe.disable()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def state_of(self, addr: int) -> CoherenceState | None:
        """Coherence state of the block holding ``addr`` (None if absent)."""
        line = self.array.lookup(self._block_base(addr), touch=False)
        return None if line is None else line.state

    def peek_word(self, addr: int) -> int | None:
        """Functional value of ``addr`` in this cache, without side effects."""
        line = self.array.lookup(self._block_base(addr), touch=False)
        if line is None or line.words is None:
            return None
        return line.words[self._word_off(addr)]

    def quiescent(self) -> bool:
        """True when no transactions or writebacks are outstanding."""
        return self.mshrs.outstanding() == 0 and not self._wb_buffer

    def wb_buffer_occupancy(self) -> dict[int, int]:
        """Blocks parked in the write-back buffer -> entry count (for the
        watchdog's diagnostic dump and the invariant monitor's skip set)."""
        return {block: len(q) for block, q in self._wb_buffer.items()}

    # ------------------------------------------------------------------
    # checkpoint layer
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Restorable controller state.

        Requires :meth:`quiescent` for the MSHR file (entries hold
        ``on_complete`` closures that cannot round-trip); the write-back
        buffer *is* captured — its entries are plain data, and though a
        checkpoint safe point implies it is empty, snapshotting it keeps
        this method honest for direct unit-test use.
        """
        if self.mshrs.outstanding():
            raise CheckpointUnsupported(
                f"L1 {self.node} has outstanding MSHRs; snapshot requires "
                "a quiescent controller"
            )
        return {
            "array": self.array.snapshot(),
            "wb_buffer": {
                block: [(list(e.words), e.dirty) for e in q]
                for block, q in self._wb_buffer.items()
            },
            "gi_blocks": sorted(self._gi_blocks),
            "gi_timer_armed": self._gi_timer_armed,
            "scribe": self.scribe.snapshot(),
        }

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state.  The GI timer *event* (if armed)
        is rebuilt by the engine restore; this only restores the flag."""
        self.array.restore(blob["array"])
        self._wb_buffer = {
            block: deque(_WbEntry(list(words), dirty)
                         for words, dirty in entries)
            for block, entries in blob["wb_buffer"].items()
        }
        self._gi_blocks = set(blob["gi_blocks"])
        self._gi_timer_armed = blob["gi_timer_armed"]
        self.scribe.restore(blob["scribe"])
        self._rebuild_mirror()

    def _rebuild_mirror(self) -> None:
        """Recompute the residency mirror from the canonical array (the
        mirror is derived state and is never serialized)."""
        mirror = self._mirror
        mirror.clear()
        for line in self.array.iter_valid():
            if line.state in _MIRROR_STATES:
                idx, way = self.array.position_of(line, line.tag)
                mirror[line.tag] = (line, idx, way)
