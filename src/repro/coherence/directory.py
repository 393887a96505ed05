"""Directory controllers (the protocol's home agents).

Four controllers sit at the mesh corners (Table 1); blocks are
address-interleaved across them.  Each agent owns, for its blocks:

* the full-map directory state (``I`` / ``S`` + sharer set / ``EM`` +
  owner) — kept in a dict, so directory capacity is never the bottleneck
  (the paper's protocol concerns are all at the L1),
* transaction serialization: one in-flight transaction per block, later
  requests queue (a *blocking* directory, the standard gem5-style design),
* orchestration of the data path: L2-slice probes/fills (with their NoC
  hops accounted) and DRAM fetches on L2 misses,
* invalidation fan-out and ack collection for GETX/UPGRADE, and
  owner-forwarding (three-hop transactions: owner replies straight to the
  requestor, with a chained ack/data copy back to the home).

Races handled here (mirroring the L1 side): UPGRADE from a core that lost
its sharer status mid-flight is promoted to a full GETX; a PUT from a
core that is no longer the registered owner is acknowledged as *stale* so
the L1 can free its write-back buffer.

The Ghostwriter states are intentionally invisible here: a GS block is
just an S sharer, a GI block is not tracked at all — the paper keeps all
modifications "simple and local to the L1 level of the hierarchy" (§3.2).
"""
from __future__ import annotations

from collections import deque

from repro.cache.l2 import L2Slice
from repro.coherence.messages import Message, ProtocolError
from repro.common.config import SimConfig
from repro.common.stats import StatGroup
from repro.common.types import DirState, MessageType
from repro.mem.backing import BackingStore
from repro.mem.dram import Dram
from repro.noc.network import Network
from repro.obs.events import Event, EventKind
from repro.sim.engine import CheckpointUnsupported, Engine

__all__ = ["DirectoryAgent", "DirEntry"]


class DirEntry:
    """Full-map directory state for one block: stable state, owner,
    sharer set, and the blocking-transaction queue."""
    __slots__ = ("state", "owner", "sharers", "busy", "pending", "txn")

    def __init__(self) -> None:
        self.state = DirState.I
        self.owner: int | None = None
        self.sharers: set[int] = set()
        self.busy = False
        self.pending: deque[Message] = deque()
        self.txn: _Txn | None = None

    def idle_and_empty(self) -> bool:
        """True when the entry carries no state and can be garbage-collected."""
        return (
            not self.busy
            and not self.pending
            and self.state is DirState.I
            and not self.sharers
        )


class _Txn:
    """Bookkeeping for the single in-flight transaction on a block."""

    __slots__ = ("msg", "pending_acks", "data_words", "data_ready",
                 "waiting_chain", "is_pure_upgrade", "is_update",
                 "_on_chain", "_data_src", "_check")

    def __init__(self, msg: Message) -> None:
        self.msg = msg
        self.pending_acks = 0
        self.data_words: list[int] | None = None
        self.data_ready = False
        self.waiting_chain = False
        self.is_pure_upgrade = False
        #: update-hybrid: UPGRADE fanned out as UPDATEs, not INVs
        self.is_update = False
        self._on_chain = None
        self._data_src: int | None = None
        #: custom completion predicate (MOESI dir-O GETX: acks + chain)
        self._check = None


class DirectoryAgent:
    """One home/directory controller at a mesh corner node."""

    def __init__(
        self,
        node: int,
        cfg: SimConfig,
        engine: Engine,
        network: Network,
        slices: list[L2Slice],
        backing: BackingStore,
        dram: Dram,
        stats: StatGroup,
        *,
        policy=None,
    ) -> None:
        self.node = node
        self.cfg = cfg
        # Machine resolves the policy once and passes it down; direct
        # constructions (unit tests) fall back to the config's resolution
        self.policy = cfg.policy if policy is None else policy
        self._update_upgrades = self.policy.update_on_upgrade
        self.engine = engine
        self.network = network
        self.slices = slices
        self.backing = backing
        self.dram = dram
        self.stats = stats
        # per-message counters, bumped through the live counter dict
        self._c = stats.counters()
        self._entries: dict[int, DirEntry] = {}
        #: event bus (repro.obs); wired by Machine.attach_bus
        self.bus = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def entry(self, block: int) -> DirEntry:
        """Fetch-or-create the directory entry for a block."""
        e = self._entries.get(block)
        if e is None:
            e = DirEntry()
            self._entries[block] = e
        return e

    def peek_entry(self, block: int) -> DirEntry | None:
        """The entry for a block without creating one (for tests/invariants)."""
        return self._entries.get(block)

    def _slice(self, block: int) -> L2Slice:
        return self.slices[self.cfg.home_l2_slice(block)]

    def _send(self, mtype: MessageType, block: int, dst: int, *,
              src: int | None = None, **kw) -> None:
        self.network.send(
            Message(mtype, block,
                    src=self.node if src is None else src, dst=dst, **kw)
        )

    # ------------------------------------------------------------------
    # message entry point
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        """Message entry point: responses feed the active transaction;
        requests start or queue behind the per-block transaction."""
        mtype = msg.mtype
        if mtype in (MessageType.INV_ACK, MessageType.CHAIN_DATA,
                     MessageType.CHAIN_ACK, MessageType.CHAIN_ACK_OWNED):
            self._handle_response(msg)
            return
        e = self.entry(msg.block_addr)
        if e.busy:
            e.pending.append(msg)
            self._c["queued_requests"] += 1
        else:
            self._start(e, msg)

    def _start(self, e: DirEntry, msg: Message) -> None:
        """Claim the entry, then dispatch after the directory's state
        lookup/update latency (per-block occupancy)."""
        e.busy = True
        lat = self.cfg.dir_access_latency
        if lat:
            self.engine.schedule(lat, lambda: self._dispatch(e, msg))
        else:
            self._dispatch(e, msg)

    def _dispatch(self, e: DirEntry, msg: Message) -> None:
        e.txn = _Txn(msg)
        mtype = msg.mtype
        self._c["transactions"] += 1
        bus = self.bus
        if bus is not None:
            bus.emit(Event(
                self.engine.now, EventKind.DIR, self.node, msg.block_addr,
                mtype.label, f"src={msg.src}", msg.src,
            ))
        if mtype is MessageType.GETS:
            self._do_gets(e, msg)
        elif mtype is MessageType.GETX:
            self._do_getx(e, msg)
        elif mtype is MessageType.UPGRADE:
            self._do_upgrade(e, msg)
        elif mtype is MessageType.PUTS:
            self._do_puts(e, msg)
        elif mtype in (MessageType.PUTE, MessageType.PUTM):
            self._do_pute_putm(e, msg)
        else:
            raise ProtocolError(f"directory {self.node} cannot start {msg}")

    def _finish(self, e: DirEntry, block: int) -> None:
        e.txn = None
        if e.pending:
            # keep the entry busy while the queue drains so a request
            # arriving in the gap cannot jump ahead of queued ones
            nxt = e.pending.popleft()
            self.engine.schedule(1, lambda: self._start(e, nxt))
        else:
            e.busy = False
            if e.idle_and_empty():
                self._entries.pop(block, None)

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    def _do_gets(self, e: DirEntry, msg: Message) -> None:
        block, req = msg.block_addr, msg.src
        if e.state is DirState.EM or e.state is DirState.O:
            if e.owner == req:
                raise ProtocolError(
                    f"owner {req} re-requested {block:#x} (PUT overtake?)"
                )
            e.txn.waiting_chain = True
            self._send(MessageType.FWD_GETS, block, e.owner, requestor=req)
            self._c["fwd_gets"] += 1

            # completion continues in _handle_response
            def on_chain(chain: Message) -> None:
                if chain.mtype is MessageType.CHAIN_ACK_OWNED:
                    # MOESI: the owner kept the block in O
                    e.sharers.add(req)
                    e.state = DirState.O
                elif chain.mtype is MessageType.CHAIN_DATA:
                    self._l2_install(block, chain.words, dirty=True)
                    e.sharers = e.sharers | {e.owner, req}
                    e.owner = None
                    e.state = DirState.S
                else:  # CHAIN_ACK: clean owner downgraded to S
                    e.sharers = e.sharers | {e.owner, req}
                    e.owner = None
                    e.state = DirState.S
                self._finish(e, block)

            e.txn._on_chain = on_chain
            return
        if e.state is DirState.S:
            def deliver(words: list[int], src_node: int) -> None:
                e.sharers.add(req)
                self._send(MessageType.DATA, block, req, src=src_node,
                           words=words)
                self._finish(e, block)
            self._fetch(block, deliver)
            return
        # DirState.I: exclusive grant (MESI E optimization)
        def deliver_excl(words: list[int], src_node: int) -> None:
            e.state = DirState.EM
            e.owner = req
            self._send(MessageType.DATA_E, block, req, src=src_node,
                       words=words)
            self._finish(e, block)
        self._fetch(block, deliver_excl)

    def _do_getx(self, e: DirEntry, msg: Message) -> None:
        block, req = msg.block_addr, msg.src
        if e.state is DirState.EM:
            if e.owner == req:
                raise ProtocolError(
                    f"owner {req} sent GETX for {block:#x} (PUT overtake?)"
                )
            old_owner = e.owner
            e.txn.waiting_chain = True
            self._send(MessageType.FWD_GETX, block, old_owner, requestor=req)
            self._c["fwd_getx"] += 1

            def on_chain(_chain: Message) -> None:
                # requestor got the data directly from the old owner
                e.owner = req
                e.state = DirState.EM
                self._finish(e, block)

            e.txn._on_chain = on_chain
            return
        if e.state is DirState.O:
            # MOESI: invalidate the sharers, forward to the dirty owner
            txn = e.txn
            others = e.sharers - {req}
            txn.pending_acks = len(others)
            for node in others:
                self._send(MessageType.INV, block, node)
                self._c["invalidations_sent"] += 1
            txn.waiting_chain = True
            self._send(MessageType.FWD_GETX, block, e.owner, requestor=req)
            self._c["fwd_getx"] += 1

            def check() -> None:
                if txn.pending_acks == 0 and not txn.waiting_chain:
                    e.sharers = set()
                    e.owner = req
                    e.state = DirState.EM
                    self._finish(e, block)

            def on_chain(_chain: Message) -> None:
                check()

            txn._on_chain = on_chain
            txn._check = check
            return
        # S or I: invalidate other sharers (if any) and send data
        txn = e.txn
        others = e.sharers - {req}
        txn.pending_acks = len(others)
        for node in others:
            self._send(MessageType.INV, block, node)
            self._c["invalidations_sent"] += 1

        def data_ready(words: list[int], src_node: int) -> None:
            txn.data_words = words
            txn.data_ready = True
            txn._data_src = src_node
            self._maybe_complete_getx(e, block, req)

        self._fetch(block, data_ready)

    def _maybe_complete_getx(self, e: DirEntry, block: int, req: int) -> None:
        txn = e.txn
        if txn is None or txn.pending_acks > 0 or not txn.data_ready:
            return
        e.sharers = set()
        e.owner = req
        e.state = DirState.EM
        src = txn._data_src if txn._data_src is not None else self.node
        self._send(MessageType.DATA, block, req, src=src,
                   words=txn.data_words)
        self._finish(e, block)

    def _do_upgrade(self, e: DirEntry, msg: Message) -> None:
        block, req = msg.block_addr, msg.src
        if e.state is DirState.O and (req == e.owner or req in e.sharers):
            # MOESI: grant M to the upgrading owner/sharer after every
            # other copy (including a dirty O owner, whose content the
            # requestor's copy duplicates) is invalidated
            txn = e.txn
            txn.is_pure_upgrade = True
            targets = (e.sharers - {req}) | (
                {e.owner} if e.owner != req else set()
            )
            txn.pending_acks = len(targets)
            for node in targets:
                self._send(MessageType.INV, block, node)
                self._c["invalidations_sent"] += 1
            self._c["upgrades"] += 1
            if txn.pending_acks == 0:
                self._complete_upgrade(e, block, req)
            return
        if e.state is DirState.S and req in e.sharers:
            others = e.sharers - {req}
            if self._update_upgrades and others:
                # write-update hybrid: push the written block to the
                # surviving sharers instead of invalidating them.  A
                # sole sharer falls through to the normal invalidate
                # path (granted M with zero acks), which avoids paying a
                # data transaction for every private re-write — the
                # classic update-protocol pathology.
                self._do_update(e, msg, others)
                return
            txn = e.txn
            txn.is_pure_upgrade = True
            txn.pending_acks = len(others)
            for node in others:
                self._send(MessageType.INV, block, node)
                self._c["invalidations_sent"] += 1
            self._c["upgrades"] += 1
            if txn.pending_acks == 0:
                self._complete_upgrade(e, block, req)
            # else: completion continues as INV_ACKs arrive
            return
        # the requestor lost its sharer status while the UPGRADE was in
        # flight: promote to a full GETX (its L1 is now in IM_D)
        self._c["upgrades_promoted"] += 1
        self._do_getx(e, msg)

    def _complete_upgrade(self, e: DirEntry, block: int, req: int) -> None:
        e.sharers = set()
        e.owner = req
        e.state = DirState.EM
        self._send(MessageType.ACK, block, req)
        self._finish(e, block)

    def _do_update(self, e: DirEntry, msg: Message, others: set[int]) -> None:
        """Write-update hybrid UPGRADE: apply the requestor's word to the
        coherent copy, push the result to every other sharer, and grant
        the requestor *shared* (not exclusive) access once all sharers
        acknowledged.  Directory state stays S with the sharer set
        unchanged — everyone still holds the (now refreshed) block."""
        block, req = msg.block_addr, msg.src
        if msg.addr is None or msg.value is None:
            raise ProtocolError(f"update UPGRADE without word payload: {msg}")
        txn = e.txn
        txn.is_update = True
        self._c["upgrades"] += 1
        self._c["updates"] += 1

        def data_ready(words: list[int], _src_node: int) -> None:
            words = words.copy()
            words[(msg.addr - block) // 4] = msg.value
            self._l2_install(block, words, dirty=True)
            txn.pending_acks = len(others)
            for node in others:
                self._send(MessageType.UPDATE, block, node,
                           words=words.copy())
                self._c["updates_sent"] += 1

        self._fetch(block, data_ready)

    def _complete_update(self, e: DirEntry, block: int, req: int) -> None:
        # requestor stays a sharer among sharers; state remains S
        self._send(MessageType.ACK, block, req, shared=True)
        self._finish(e, block)

    def _do_puts(self, e: DirEntry, msg: Message) -> None:
        block, src = msg.block_addr, msg.src
        if e.state is DirState.S:
            e.sharers.discard(src)
            if not e.sharers:
                e.state = DirState.I
        elif e.state is DirState.O:
            e.sharers.discard(src)
            if not e.sharers:
                e.state = DirState.EM  # the dirty owner remains
        # in EM/I the PUTS is stale (its copy was already invalidated or
        # converted); nothing to do — PUTS needs no acknowledgement
        self._c["puts"] += 1
        self._finish(e, block)

    def _do_pute_putm(self, e: DirEntry, msg: Message) -> None:
        block, src = msg.block_addr, msg.src
        if e.state in (DirState.EM, DirState.O) and e.owner == src:
            if msg.mtype is MessageType.PUTM:
                self._l2_install(block, msg.words, dirty=True)
                self._c["putm"] += 1
            else:
                self._c["pute"] += 1
            e.owner = None
            # an O owner's departure leaves its sharers behind
            e.state = DirState.S if e.sharers else DirState.I
            self._send(MessageType.ACK, block, src, stale=False)
        else:
            # ownership moved while the PUT was in flight (the L1 already
            # served the forward from its write-back buffer)
            self._c["stale_puts"] += 1
            self._send(MessageType.ACK, block, src, stale=True)
        self._finish(e, block)

    # ------------------------------------------------------------------
    # responses (never queue — they belong to the active transaction)
    # ------------------------------------------------------------------
    def _handle_response(self, msg: Message) -> None:
        e = self._entries.get(msg.block_addr)
        if e is None or e.txn is None:
            raise ProtocolError(f"response without transaction: {msg}")
        txn = e.txn
        if msg.mtype is MessageType.INV_ACK:
            if txn.pending_acks <= 0:
                raise ProtocolError(f"unexpected INV_ACK: {msg}")
            txn.pending_acks -= 1
            req = txn.msg.src
            if txn.is_update:
                if txn.pending_acks == 0:
                    self._complete_update(e, msg.block_addr, req)
                return
            if txn.is_pure_upgrade:
                if txn.pending_acks == 0:
                    self._complete_upgrade(e, msg.block_addr, req)
                return
            if txn._check is not None:
                txn._check()
                return
            self._maybe_complete_getx(e, msg.block_addr, req)
            return
        if msg.mtype in (MessageType.CHAIN_DATA, MessageType.CHAIN_ACK,
                         MessageType.CHAIN_ACK_OWNED):
            if not txn.waiting_chain:
                raise ProtocolError(f"unexpected chain response: {msg}")
            txn.waiting_chain = False
            on_chain = txn._on_chain
            if on_chain is None:
                raise ProtocolError("chain response with no continuation")
            on_chain(msg)
            return
        raise ProtocolError(f"directory cannot handle response {msg}")

    # ------------------------------------------------------------------
    # data path: L2 slice + DRAM
    # ------------------------------------------------------------------
    def _fetch(self, block: int, then) -> None:
        """Obtain the globally coherent copy of ``block``.

        Charges the home->slice control hop and the L2 access; falls
        through to DRAM on an L2 miss (installing the block in L2).
        ``then(words, src_node)`` runs when data is ready; ``src_node`` is
        where the data message should originate (the slice tile).
        """
        slc = self._slice(block)
        hop = self.network.account_transfer(self.node, slc.node, data=False)

        def at_slice() -> None:
            words = slc.probe(block)
            if words is not None:
                then(words, slc.node)
                return
            self._c["l2_misses"] += 1

            def from_dram() -> None:
                data = self.backing.read_block(block)
                victim = slc.fill(block, data, dirty=False)
                if victim is not None and victim.dirty:
                    self.backing.write_block(victim.block_addr, victim.words)
                    self.dram.write(victim.block_addr)
                then(data, slc.node)

            self.dram.read(block, from_dram)

        self.engine.schedule(hop + self.cfg.l2.hit_latency, at_slice)

    def _l2_install(self, block: int, words: list[int], dirty: bool) -> None:
        """Write dirty data (from a PUTM or chained copyback) into the L2
        slice, spilling any dirty victim to DRAM."""
        slc = self._slice(block)
        self.network.account_transfer(self.node, slc.node, data=True)
        victim = slc.fill(block, words, dirty=dirty)
        self._c["l2_installs"] += 1
        if victim is not None and victim.dirty:
            self.backing.write_block(victim.block_addr, victim.words)
            self.dram.write(victim.block_addr)

    # ------------------------------------------------------------------
    # invariants / introspection (used heavily by tests)
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no transaction is active or queued on any block."""
        return all(not e.busy and not e.pending for e in self._entries.values())

    def entries_view(self) -> dict[int, DirEntry]:
        """Shallow copy of the entry map (for invariant checking)."""
        return dict(self._entries)

    # ------------------------------------------------------------------
    # checkpoint layer
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Restorable directory state: every entry's stable triple
        (state, owner, sorted sharers).  Requires :meth:`quiescent` —
        busy entries hold transaction closures that cannot round-trip."""
        if not self.quiescent():
            raise CheckpointUnsupported(
                f"directory {self.node} has active/queued transactions; "
                "snapshot requires a quiescent agent"
            )
        return {
            "entries": {
                block: (e.state, e.owner, sorted(e.sharers))
                for block, e in self._entries.items()
            },
        }

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state (all entries idle)."""
        entries: dict[int, DirEntry] = {}
        for block, (state, owner, sharers) in blob["entries"].items():
            e = DirEntry()
            e.state = state
            e.owner = owner
            e.sharers = set(sharers)
            entries[block] = e
        self._entries = entries

    def busy_entries(self) -> dict[int, DirEntry]:
        """Blocks with an active or queued transaction (for the watchdog
        dump and the runtime monitor's skip set)."""
        return {
            block: e for block, e in self._entries.items()
            if e.busy or e.pending
        }
