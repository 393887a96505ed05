"""Unit tests for barriers and locks."""
import pytest

from repro.core.sync import Barrier, Lock
from repro.isa.instructions import Acquire, BarrierWait, Compute, Load, Release, Store
from repro.sim.engine import Engine

from tests.conftest import build_machine, run_scripts

BLK = 0x4000


class TestBarrierUnit:
    def test_releases_when_full(self):
        e = Engine()
        b = Barrier(e, 3)
        hits = []
        b.arrive(lambda: hits.append(1))
        b.arrive(lambda: hits.append(2))
        e.run()
        assert hits == []  # not full yet
        b.arrive(lambda: hits.append(3))
        e.run()
        assert sorted(hits) == [1, 2, 3]
        assert b.generation == 1

    def test_reusable(self):
        e = Engine()
        b = Barrier(e, 2)
        order = []
        b.arrive(lambda: order.append("a1"))
        b.arrive(lambda: order.append("b1"))
        e.run()
        b.arrive(lambda: order.append("a2"))
        b.arrive(lambda: order.append("b2"))
        e.run()
        assert b.generation == 2
        assert len(order) == 4

    def test_overflow_rejected(self):
        e = Engine()
        b = Barrier(e, 1)
        # single party releases immediately; arriving again is a new round
        b.arrive(lambda: None)
        assert b.generation == 1

    def test_zero_parties_rejected(self):
        with pytest.raises(ValueError):
            Barrier(Engine(), 0)


class TestLockUnit:
    def test_fifo_grant_order(self):
        e = Engine()
        lk = Lock(e)
        order = []
        lk.acquire(0, lambda: order.append(0))
        lk.acquire(1, lambda: order.append(1))
        lk.acquire(2, lambda: order.append(2))
        e.run()
        assert order == [0]
        lk.release(0)
        e.run()
        assert order == [0, 1]
        lk.release(1)
        e.run()
        lk.release(2)
        assert order == [0, 1, 2]

    def test_release_unheld_raises(self):
        lk = Lock(Engine())
        with pytest.raises(RuntimeError):
            lk.release(0)

    def test_release_by_non_owner_raises(self):
        e = Engine()
        lk = Lock(e)
        lk.acquire(0, lambda: None)
        e.run()
        with pytest.raises(RuntimeError):
            lk.release(1)


class TestSyncInPrograms:
    def test_barrier_orders_phases(self):
        m = build_machine(3, d_distance=0)
        b = m.barrier(3)
        got = {}

        def writer(tid, delay):
            def prog():
                yield Compute(delay)
                yield Store(BLK + 4 * tid, 100 + tid)
                yield BarrierWait(b)
                if tid == 0:
                    vals = []
                    for t in range(3):
                        vals.append((yield Load(BLK + 4 * t)))
                    got["vals"] = vals
            return prog()

        run_scripts(m, writer(0, 5), writer(1, 300), writer(2, 77))
        assert got["vals"] == [100, 101, 102]

    def test_lock_serializes_critical_section(self):
        m = build_machine(4, d_distance=0)
        lk = m.lock()
        iters = 20

        def worker(tid):
            def prog():
                for _ in range(iters):
                    yield Acquire(lk)
                    v = yield Load(BLK)
                    yield Store(BLK, v + 1)
                    yield Release(lk)
            return prog()

        for t in range(4):
            m.add_thread(t, worker(t))
        m.run()
        m.check_quiescent()
        # with the lock, the racy read-modify-write is exact
        owner_val = None
        for l1 in m.l1s:
            v = l1.peek_word(BLK)
            st = l1.state_of(BLK)
            if st is not None and st.readable:
                owner_val = v
        assert owner_val == 4 * iters
