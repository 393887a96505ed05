"""Direct unit tests of the directory's MOESI (dir-O) paths."""
from dataclasses import replace

import pytest

from repro.cache.l2 import L2Slice
from repro.coherence.directory import DirectoryAgent
from repro.coherence.messages import Message
from repro.common.config import small_config
from repro.common.stats import StatGroup
from repro.common.types import DirState, MessageType
from repro.mem.backing import BackingStore
from repro.mem.dram import Dram
from repro.noc.network import Network
from repro.sim.engine import Engine

BLK = 0x4000


class _Harness:
    """MOESI directory agent + fake L1 inboxes (mirrors the MESI one)."""

    def __init__(self, num_cores=4):
        self.cfg = replace(small_config(num_cores=num_cores, d_distance=0),
                           protocol="moesi")
        self.engine = Engine()
        self.backing = BackingStore(64)
        self.network = Network(self.cfg.noc, self.engine, 64)
        self.dram = Dram(self.cfg.dram, self.engine, 64)
        slices = [L2Slice(n, self.cfg.l2, StatGroup(f"s{n}"))
                  for n in range(num_cores)]
        self.inboxes = {n: [] for n in range(self.cfg.noc.num_nodes)}
        home = self.cfg.home_directory(BLK)
        self.agent = DirectoryAgent(
            home, self.cfg, self.engine, self.network, slices,
            self.backing, self.dram, StatGroup("dir"),
        )
        for node in range(self.cfg.noc.num_nodes):
            if node == home:
                self.network.register(node, self.agent.receive)
            else:
                self.network.register(
                    node, lambda m, n=node: self.inboxes[n].append(m))
        self.home = home

    def send(self, mtype, src, **kw):
        self.network.send(Message(mtype, BLK, src=src, dst=self.home, **kw))
        self.engine.run()

    def got(self, node, mtype):
        return [m for m in self.inboxes[node] if m.mtype is mtype]

    def make_dir_o(self, owner=1, sharer=2):
        """Drive the entry into DirState.O via GETX then GETS."""
        self.send(MessageType.GETX, owner, requestor=owner)
        self.send(MessageType.GETS, sharer, requestor=sharer)
        # the forwarded owner answers CHAIN_ACK_OWNED (kept the block in O)
        self.send(MessageType.CHAIN_ACK_OWNED, owner)
        entry = self.agent.peek_entry(BLK)
        assert entry.state is DirState.O
        assert entry.owner == owner and sharer in entry.sharers
        for box in self.inboxes.values():
            box.clear()
        return entry


class TestDirO:
    def test_chain_ack_owned_builds_dir_o(self):
        h = _Harness()
        h.make_dir_o()

    def test_gets_on_dir_o_forwards_to_owner(self):
        h = _Harness()
        h.make_dir_o(owner=1, sharer=2)
        h.send(MessageType.GETS, 3, requestor=3)
        fwd = h.got(1, MessageType.FWD_GETS)
        assert len(fwd) == 1 and fwd[0].requestor == 3
        h.send(MessageType.CHAIN_ACK_OWNED, 1)
        entry = h.agent.peek_entry(BLK)
        assert entry.state is DirState.O
        assert entry.sharers == {2, 3}

    def test_getx_on_dir_o_invalidates_and_forwards(self):
        h = _Harness()
        h.make_dir_o(owner=1, sharer=2)
        h.send(MessageType.GETX, 3, requestor=3)
        assert len(h.got(2, MessageType.INV)) == 1       # the sharer
        assert len(h.got(1, MessageType.FWD_GETX)) == 1  # the owner
        # completion needs both the sharer ack and the owner chain
        h.send(MessageType.INV_ACK, 2)
        assert h.agent.peek_entry(BLK).busy
        h.send(MessageType.CHAIN_ACK, 1)
        entry = h.agent.peek_entry(BLK)
        assert entry.state is DirState.EM and entry.owner == 3
        assert entry.sharers == set()

    def test_owner_upgrade_invalidates_sharers_only(self):
        h = _Harness()
        h.make_dir_o(owner=1, sharer=2)
        h.send(MessageType.UPGRADE, 1, requestor=1)
        assert len(h.got(2, MessageType.INV)) == 1
        assert h.got(1, MessageType.INV) == []
        h.send(MessageType.INV_ACK, 2)
        assert len(h.got(1, MessageType.ACK)) == 1
        entry = h.agent.peek_entry(BLK)
        assert entry.state is DirState.EM and entry.owner == 1

    def test_sharer_upgrade_invalidates_owner_too(self):
        h = _Harness()
        h.make_dir_o(owner=1, sharer=2)
        h.send(MessageType.UPGRADE, 2, requestor=2)
        assert len(h.got(1, MessageType.INV)) == 1  # the dirty owner
        h.send(MessageType.INV_ACK, 1)
        assert len(h.got(2, MessageType.ACK)) == 1
        entry = h.agent.peek_entry(BLK)
        assert entry.state is DirState.EM and entry.owner == 2

    def test_owner_putm_leaves_sharers_behind(self):
        h = _Harness()
        h.make_dir_o(owner=1, sharer=2)
        h.send(MessageType.PUTM, 1, words=[9] * 16)
        acks = h.got(1, MessageType.ACK)
        assert len(acks) == 1 and not acks[0].stale
        entry = h.agent.peek_entry(BLK)
        assert entry.state is DirState.S
        assert entry.sharers == {2} and entry.owner is None
        # the written-back data is now servable from L2
        h.send(MessageType.GETS, 3, requestor=3)
        assert h.got(3, MessageType.DATA)[0].words == [9] * 16

    def test_last_sharer_puts_demotes_to_em(self):
        h = _Harness()
        h.make_dir_o(owner=1, sharer=2)
        h.send(MessageType.PUTS, 2)
        entry = h.agent.peek_entry(BLK)
        assert entry.state is DirState.EM
        assert entry.owner == 1 and entry.sharers == set()
