"""Direct unit tests of the L1 controller with hand-delivered messages.

A fake network captures outgoing messages, so each race can be staged
message by message: forwards overtaking fills, invalidations during
IS_D/SM_D, PUT-ack ordering for the write-back buffer.
"""
import pytest

from repro.cache.l1 import L1Controller
from repro.coherence.messages import Message, ProtocolError
from repro.common.config import small_config
from repro.common.stats import StatGroup
from repro.common.types import AccessType, CoherenceState as CS, MessageType
from repro.sim.engine import Engine

BLK = 0x4000


class _FakeNetwork:
    def __init__(self, engine):
        self.engine = engine
        self.sent: list[Message] = []

    def send(self, msg):
        self.sent.append(msg)

    def of_type(self, mtype):
        return [m for m in self.sent if m.mtype is mtype]

    def last(self):
        return self.sent[-1]


@pytest.fixture
def l1():
    engine = Engine()
    cfg = small_config(num_cores=2)
    net = _FakeNetwork(engine)
    ctrl = L1Controller(0, cfg, engine, net, StatGroup("l1"))
    ctrl._net = net  # test-side handle
    return ctrl


def _fill(l1, block=BLK, words=None, mtype=MessageType.DATA):
    home = l1.cfg.home_directory(block)
    l1.receive(Message(mtype, block, src=home, dst=0,
                       words=words if words is not None else [0] * 16))
    l1.engine.run()


class TestMissIssue:
    def test_load_miss_sends_gets(self, l1):
        done = []
        hit, _ = l1.access(AccessType.LOAD, BLK, None, done.append)
        assert not hit
        assert l1._net.last().mtype is MessageType.GETS
        assert l1.state_of(BLK) is CS.IS_D
        _fill(l1, mtype=MessageType.DATA_E)
        assert l1.state_of(BLK) is CS.E
        assert done == [0]

    def test_store_miss_sends_getx(self, l1):
        done = []
        hit, _ = l1.access(AccessType.STORE, BLK, 5, done.append)
        assert not hit
        assert l1._net.last().mtype is MessageType.GETX
        _fill(l1)
        assert l1.state_of(BLK) is CS.M
        assert l1.peek_word(BLK) == 5
        assert done == [None]


class TestDeferredForward:
    def _into_im_d(self, l1, done):
        l1.access(AccessType.STORE, BLK, 7, done.append)
        assert l1.state_of(BLK) is CS.IM_D

    def test_fwd_gets_overtaking_fill_is_deferred(self, l1):
        done = []
        self._into_im_d(l1, done)
        # the forward arrives before our DATA (slice path vs dir path)
        l1.receive(Message(MessageType.FWD_GETS, BLK, src=3, dst=0,
                           requestor=1))
        assert l1._net.of_type(MessageType.FWD_DATA) == []  # deferred
        assert l1.stats.deferred_fwds == 1
        _fill(l1)
        # after the fill: store applied, then the forward serviced
        fwd = l1._net.of_type(MessageType.FWD_DATA)
        assert len(fwd) == 1
        assert fwd[0].dst == 1
        assert fwd[0].words[0] == 7          # includes our store
        assert l1.state_of(BLK) is CS.S      # downgraded after servicing
        assert done == [None]

    def test_fwd_getx_overtaking_fill_is_deferred(self, l1):
        done = []
        self._into_im_d(l1, done)
        l1.receive(Message(MessageType.FWD_GETX, BLK, src=3, dst=0,
                           requestor=1))
        _fill(l1)
        assert l1.state_of(BLK) is CS.I
        assert l1._net.of_type(MessageType.FWD_DATA)[0].words[0] == 7


class TestInvRaces:
    def test_inv_during_is_d_uses_fill_once(self, l1):
        done = []
        l1.access(AccessType.LOAD, BLK, None, done.append)
        l1.receive(Message(MessageType.INV, BLK, src=3, dst=0))
        # acked immediately (no deadlock) ...
        assert len(l1._net.of_type(MessageType.INV_ACK)) == 1
        _fill(l1, words=[42] + [0] * 15)
        # ... the load still completed with the fill data ...
        assert done == [42]
        # ... but the line installed invalid
        assert l1.state_of(BLK) is CS.I

    def test_inv_during_sm_d_expects_data(self, l1):
        done = []
        # get to S first: fill a LOAD as shared
        l1.access(AccessType.LOAD, BLK, None, lambda v: None)
        _fill(l1)
        assert l1.state_of(BLK) is CS.S
        l1.access(AccessType.STORE, BLK, 9, done.append)
        assert l1.state_of(BLK) is CS.SM_D
        assert l1._net.last().mtype is MessageType.UPGRADE
        l1.receive(Message(MessageType.INV, BLK, src=3, dst=0))
        assert l1.state_of(BLK) is CS.IM_D
        _fill(l1, words=[1] * 16)
        assert l1.state_of(BLK) is CS.M
        assert l1.peek_word(BLK) == 9

    def test_inv_on_absent_block_acked(self, l1):
        l1.receive(Message(MessageType.INV, BLK, src=3, dst=0))
        assert len(l1._net.of_type(MessageType.INV_ACK)) == 1
        assert l1.stats.stray_invs == 1


class TestUpgradeGrant:
    def test_ack_completes_upgrade(self, l1):
        done = []
        l1.access(AccessType.LOAD, BLK, None, lambda v: None)
        _fill(l1)
        l1.access(AccessType.STORE, BLK, 3, done.append)
        l1.receive(Message(MessageType.ACK, BLK, src=3, dst=0))
        l1.engine.run()
        assert l1.state_of(BLK) is CS.M
        assert l1.peek_word(BLK) == 3
        assert done == [None]

    def test_unexpected_ack_raises(self, l1):
        with pytest.raises(ProtocolError):
            l1.receive(Message(MessageType.ACK, BLK, src=3, dst=0))


class TestWritebackBuffer:
    def _evict_m_block(self, l1):
        # dirty BLK, then conflict-miss two blocks in the same set
        stride = l1.cfg.l1.num_sets * l1.cfg.l1.block_bytes
        l1.access(AccessType.STORE, BLK, 7, lambda v: None)
        _fill(l1)
        l1.access(AccessType.LOAD, BLK + stride, None, lambda v: None)
        _fill(l1, block=BLK + stride)
        l1.access(AccessType.LOAD, BLK + 2 * stride, None, lambda v: None)
        _fill(l1, block=BLK + 2 * stride)
        assert l1.state_of(BLK) is None  # evicted
        assert len(l1._net.of_type(MessageType.PUTM)) == 1

    def test_fwd_served_from_wb_buffer(self, l1):
        self._evict_m_block(l1)
        l1.receive(Message(MessageType.FWD_GETX, BLK, src=3, dst=0,
                           requestor=1))
        fwd = l1._net.of_type(MessageType.FWD_DATA)
        assert fwd and fwd[0].words[0] == 7
        assert l1.stats.fwds_from_wb_buffer == 1

    def test_put_ack_frees_buffer(self, l1):
        self._evict_m_block(l1)
        assert not l1.quiescent()
        l1.receive(Message(MessageType.ACK, BLK, src=3, dst=0, stale=True))
        assert l1.quiescent()

    def test_miss_on_buffered_block_stalls_until_ack(self, l1):
        self._evict_m_block(l1)
        done = []

        def gets_for_blk():
            return [m for m in l1._net.of_type(MessageType.GETS)
                    if m.block_addr == BLK]

        hit, _ = l1.access(AccessType.LOAD, BLK, None, done.append)
        assert not hit
        # no GETS for BLK may be issued while its PUT is unacknowledged
        assert gets_for_blk() == []
        assert l1.stats.structural_stalls >= 1
        l1.receive(Message(MessageType.ACK, BLK, src=3, dst=0))
        l1.engine.run()  # retry fires
        assert len(gets_for_blk()) == 1
