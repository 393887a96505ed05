"""Flight-recorder tails inside deadlock/invariant diagnostics."""
from dataclasses import replace

import pytest

from repro.common.config import ObsConfig, VerifyConfig, small_config
from repro.isa.instructions import Compute, Load
from repro.sim.machine import Machine, _DIRECTORY_TYPES
from repro.verify.watchdog import DeadlockError

BLK = 0x4000


def _machine(flight_depth=64):
    cfg = small_config(num_cores=2)
    return Machine(replace(
        cfg,
        verify=VerifyConfig(watchdog_interval=500),
        obs=ObsConfig(flight_recorder=flight_depth),
    ))


def _wedge(m):
    """Swallow non-directory messages to node 1 so a FWD_GETS dies."""
    orig = m.network._endpoints[1]

    def handler(msg):
        if msg.mtype in _DIRECTORY_TYPES:
            orig(msg)

    m.network._endpoints[1] = handler


def test_flight_ring_armed_without_full_tracing():
    m = _machine()
    assert m.flight is not None
    assert m.recorder is None        # trace_events off: no full recorder
    assert m.bus is not None


def test_deadlock_dump_contains_flight_tail():
    m = _machine()

    def owner():
        yield Load(BLK)

    def requestor():
        yield Compute(600)
        yield Load(BLK)

    m.add_thread(1, owner())
    m.add_thread(0, requestor())
    m.engine.schedule(400, lambda: _wedge(m))
    with pytest.raises(DeadlockError) as exc:
        m.run()
    dump = str(exc.value)
    assert "--- flight recorder: last" in dump
    # the tail shows the protocol activity that led up to the wedge
    assert "[access]" in dump or "[msg]" in dump


def test_undersized_ring_still_reports_totals():
    m = _machine(flight_depth=4)

    def owner():
        yield Load(BLK)

    def requestor():
        yield Compute(600)
        yield Load(BLK)

    m.add_thread(1, owner())
    m.add_thread(0, requestor())
    m.engine.schedule(400, lambda: _wedge(m))
    with pytest.raises(DeadlockError) as exc:
        m.run()
    assert "last 4 of" in str(exc.value)
