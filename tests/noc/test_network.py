"""Unit tests for NoC message transport and traffic accounting."""
import pytest

from repro.common.config import NocConfig
from repro.common.types import MessageClass, MessageType
from repro.coherence.messages import Message
from repro.isa.instructions import Compute, Load, Store
from repro.noc.network import Network
from repro.sim.engine import Engine
from tests.conftest import build_machine


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

    def test_in_flight_is_the_queued_deliveries_in_delivery_order(self):
        engine, net = _net()
        net.register(1, lambda m: None)
        net.register(3, lambda m: None)
        far = Message(MessageType.GETS, 0x40, src=0, dst=3)
        data = Message(MessageType.DATA, 0x80, src=0, dst=1, words=[0] * 16)
        near = Message(MessageType.GETX, 0xC0, src=0, dst=1)
        engine.schedule(1, lambda: None)    # not a delivery
        for msg in (far, data, near):
            net.send(msg)
        assert net.in_flight() == [near, far, data]
        assert net.blocks_in_flight() == {0x40, 0x80, 0xC0}
        engine.run_until(net.cfg.message_latency(0, 1, 8))
        assert net.in_flight() == [far, data]
        engine.run()
        assert net.in_flight() == [] and net.blocks_in_flight() == set()

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

    def test_class_counters_exist_from_construction(self):
        engine, net = _net()
        assert net.stats.values() == dict.fromkeys(
            ["messages", "flits", "flit_hops", "router_traversals",
             "payload_bytes"]
            + [f"msgs_{klass.value}" for klass in MessageClass], 0)
        net.register(1, lambda m: None)
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=1))
        assert net.stats.msgs_GETS == 1     # counted at send time
        engine.run()
        assert net.stats.msgs_GETS == 1

    def test_payload_sizes(self):
        # header only for control messages, header + block for data
        engine, net = _net()
        net.register(1, lambda m: None)
        net.send(Message(MessageType.INV, 0x40, src=0, dst=1))
        assert net.stats.payload_bytes == 8
        net.send(Message(MessageType.DATA, 0x40, src=0, dst=1,
                         words=[0] * 16))
        assert net.stats.payload_bytes == 8 + 72

    def test_class_counters_equal_class_counts_mid_run(self):
        # the metrics timeline samples class_counts() while a run is in
        # progress, so the two views must agree at every cycle
        m = build_machine(2)

        def prog(cid):
            for i in range(6):
                yield Store(0x4000 + 4 * cid, i)
                yield Load(0x4000 + 4 * (1 - cid))
                yield Compute(10)

        for cid in range(2):
            m.add_thread(cid, prog(cid))
            m.cores[cid].start()
        m._ran = True
        noc = m.stats.child("noc")
        samples = 0
        while m.engine.pending():
            m.engine.run_until(m.engine.now + 7)
            counts = m.network.class_counts()
            assert counts == {klass: getattr(noc, f"msgs_{klass.value}")
                              for klass in MessageClass}
            samples += any(counts.values())
        assert samples > 1
        assert m.network.class_counts()[MessageClass.GETX] > 0

    def test_data_message_requires_words(self):
        with pytest.raises(Exception):
            Message(MessageType.DATA, 0x40, src=0, dst=1)
