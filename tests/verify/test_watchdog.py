"""Progress watchdog: deadlock detection and the diagnostic dump."""
from dataclasses import replace

import pytest

from repro.common.config import VerifyConfig, small_config
from repro.isa.instructions import Acquire, Compute, Load, Store
from repro.sim.engine import SimulationTimeout
from repro.sim.machine import Machine, _DIRECTORY_TYPES
from repro.verify.watchdog import DeadlockError, diagnostic_dump

BLK = 0x4000


def _machine(num_cores=2, *, interval=500):
    cfg = small_config(num_cores=num_cores)
    cfg = replace(cfg, verify=VerifyConfig(watchdog_interval=interval))
    return Machine(cfg)


def test_clean_run_unaffected():
    m = _machine(interval=100)

    def prog():
        yield Store(BLK, 7)
        yield Compute(600)   # several watchdog firings while running
        yield Load(BLK)

    m.add_thread(0, prog())
    m.run()
    m.check_quiescent()


def test_wedged_transaction_dump_names_the_culprits():
    """Swallow the FWD_GETS to the owner: the requestor's transaction
    wedges, and the DeadlockError dump must name the blocked core, its
    stuck MSHR entry, and the busy directory entry."""
    m = _machine()

    def owner():
        yield Load(BLK)      # becomes E owner, then finishes

    def requestor():
        yield Compute(600)   # let the owner finish first
        yield Load(BLK)      # GETS -> FWD_GETS to the (dead) owner

    m.add_thread(1, owner())
    m.add_thread(0, requestor())

    def swallow_l1_messages_to_node1():
        orig = m.network._endpoints[1]

        def handler(msg):
            if msg.mtype in _DIRECTORY_TYPES:
                orig(msg)   # the node may also host a directory agent

        m.network._endpoints[1] = handler

    m.engine.schedule(400, swallow_l1_messages_to_node1)
    with pytest.raises(DeadlockError) as exc:
        m.run()
    dump = str(exc.value)
    assert "no op retired" in dump
    assert f"core 0: BLOCKED on LOAD {BLK:#x}" in dump
    assert "MSHR" in dump and f"{BLK:#x}" in dump
    assert "busy on" in dump and "waiting_chain=True" in dump


def test_drained_queue_deadlock_is_reported():
    """A core blocked on a never-released lock leaves the event queue
    empty except for the watchdog, which must still fire and report."""
    m = _machine()
    lock = m.lock()

    def holder():
        yield Acquire(lock)   # acquires and never releases

    def waiter():
        yield Compute(50)
        yield Acquire(lock)   # blocks forever

    m.add_thread(0, holder())
    m.add_thread(1, waiter())
    with pytest.raises(DeadlockError) as exc:
        m.run()
    assert "core 1: BLOCKED on ACQUIRE" in str(exc.value)


def test_dump_reports_runnable_and_done_cores():
    m = _machine()

    def prog():
        yield Store(BLK, 1)

    m.add_thread(0, prog())
    m.run()
    dump = diagnostic_dump(m)
    assert "core 0: done @ cycle" in dump
    assert "diagnostic dump @ cycle" in dump


def test_timeout_message_carries_core_status_and_dump():
    m = _machine()

    def prog():
        for _ in range(1000):
            yield Compute(100)

    m.add_thread(0, prog())
    with pytest.raises(SimulationTimeout) as exc:
        m.run(max_cycles=300)
    msg = str(exc.value)
    assert "pending" in msg
    assert "core status:" in msg
    assert "core 0: UNFINISHED" in msg
    assert "diagnostic dump" in msg
