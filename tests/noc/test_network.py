"""Unit tests for NoC message transport and traffic accounting."""
import pytest

from repro.common.config import NocConfig
from repro.common.types import MessageClass, MessageType
from repro.coherence.messages import Message
from repro.noc.network import Network
from repro.sim.engine import Engine


def _net(cols=2, rows=2):
    engine = Engine()
    net = Network(NocConfig(mesh_cols=cols, mesh_rows=rows), engine,
                  block_bytes=64)
    return engine, net


class TestDelivery:
    def test_message_delivered_with_latency(self):
        engine, net = _net()
        got = []
        net.register(1, lambda m: got.append((engine.now, m)))
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=1))
        engine.run()
        (when, msg), = got
        assert when == net.cfg.message_latency(0, 1, 8)
        assert msg.mtype is MessageType.GETS

    def test_data_slower_than_control(self):
        engine, net = _net()
        times = {}
        net.register(3, lambda m: times.setdefault(m.mtype, engine.now))
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=3))
        net.send(Message(MessageType.DATA, 0x40, src=0, dst=3,
                         words=[0] * 16))
        engine.run()
        assert times[MessageType.DATA] > times[MessageType.GETS]

    def test_unregistered_destination(self):
        _engine, net = _net()
        with pytest.raises(ValueError):
            net.send(Message(MessageType.GETS, 0x40, src=0, dst=3))

    def test_double_register_rejected(self):
        _engine, net = _net()
        net.register(0, lambda m: None)
        with pytest.raises(ValueError):
            net.register(0, lambda m: None)


class TestAccounting:
    def test_class_counts(self):
        engine, net = _net()
        net.register(1, lambda m: None)
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=1))
        net.send(Message(MessageType.GETX, 0x40, src=0, dst=1))
        net.send(Message(MessageType.UPGRADE, 0x40, src=0, dst=1))
        net.send(Message(MessageType.INV, 0x40, src=0, dst=1))
        net.send(Message(MessageType.DATA, 0x40, src=0, dst=1, words=[0] * 16))
        engine.run()
        counts = net.class_counts()
        assert counts[MessageClass.GETS] == 1
        assert counts[MessageClass.GETX] == 1
        assert counts[MessageClass.UPGRADE] == 1
        assert counts[MessageClass.OTHER] == 1
        assert counts[MessageClass.DATA] == 1

    def test_flit_accounting(self):
        engine, net = _net()
        net.register(1, lambda m: None)
        net.send(Message(MessageType.DATA, 0x40, src=0, dst=1, words=[0] * 16))
        engine.run()
        # 64B block + 8B header = 72B -> 5 flits of 16B, one hop
        assert net.stats.flits == 5
        assert net.stats.flit_hops == 5
        assert net.stats.router_traversals == 10  # 2 routers x 5 flits

    def test_account_transfer_counts_without_delivery(self):
        _engine, net = _net()
        lat = net.account_transfer(0, 3, data=True)
        assert lat == net.cfg.message_latency(0, 3, 72)
        assert net.stats.messages == 1
        assert net.class_counts()[MessageClass.OTHER] == 1

    def test_finalize_stats_exports_classes(self):
        engine, net = _net()
        net.register(1, lambda m: None)
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=1))
        engine.run()
        net.finalize_stats()
        assert net.stats.msgs_GETS == 1

    def test_data_message_requires_words(self):
        with pytest.raises(Exception):
            Message(MessageType.DATA, 0x40, src=0, dst=1)
