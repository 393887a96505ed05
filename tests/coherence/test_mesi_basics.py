"""Baseline MESI behaviour on scripted traces (Ghostwriter disabled)."""
import pytest

from repro.common.types import CoherenceState as CS
from repro.isa.instructions import Compute, Load, Store

from tests.conftest import TraceRecorder, build_machine, run_scripts

BLK = 0x4000


class TestSingleCore:
    def test_load_fills_exclusive(self):
        m = build_machine(1, d_distance=0)
        seen = {}

        def prog():
            seen["v"] = yield Load(BLK)

        run_scripts(m, prog())
        assert seen["v"] == 0
        assert m.l1s[0].state_of(BLK) is CS.E

    def test_store_after_exclusive_load_is_silent_upgrade(self):
        m = build_machine(1, d_distance=0)

        def prog():
            yield Load(BLK)
            yield Store(BLK, 7)

        run_scripts(m, prog())
        assert m.l1s[0].state_of(BLK) is CS.M
        # E->M is silent: only the initial GETS hit the network
        assert m.network.class_counts()[
            __import__("repro.common.types", fromlist=["MessageClass"])
            .MessageClass.GETS] == 1

    def test_store_miss_goes_getx_to_m(self):
        m = build_machine(1, d_distance=0)

        def prog():
            yield Store(BLK, 42)

        run_scripts(m, prog())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].peek_word(BLK) == 42

    def test_load_returns_initialized_memory(self):
        m = build_machine(1, d_distance=0)
        m.backing.store_word(BLK + 8, 1234)
        seen = {}

        def prog():
            seen["v"] = yield Load(BLK + 8)

        run_scripts(m, prog())
        assert seen["v"] == 1234

    def test_dirty_eviction_writes_back(self):
        m = build_machine(1, d_distance=0)
        cfg = m.cfg.l1
        stride = cfg.num_sets * cfg.block_bytes

        def prog():
            yield Store(BLK, 77)
            # force eviction: fill the 2-way set with two more blocks
            yield Store(BLK + stride, 1)
            yield Store(BLK + 2 * stride, 2)
            yield Compute(500)

        run_scripts(m, prog())
        assert m.l1s[0].state_of(BLK) is None  # evicted
        assert m.backing.load_word(BLK) == 77 or _in_l2(m, BLK, 77)

    def test_read_after_dirty_eviction_sees_value(self):
        m = build_machine(1, d_distance=0)
        cfg = m.cfg.l1
        stride = cfg.num_sets * cfg.block_bytes
        seen = {}

        def prog():
            yield Store(BLK, 99)
            yield Store(BLK + stride, 1)
            yield Store(BLK + 2 * stride, 2)
            seen["v"] = yield Load(BLK)

        run_scripts(m, prog())
        assert seen["v"] == 99


def _in_l2(m, addr, value):
    block = addr - addr % m.cfg.block_bytes
    slc = m.l2_slices[m.cfg.home_l2_slice(block)]
    words = slc.probe(block)
    return words is not None and words[(addr % 64) // 4] == value


class TestTwoCores:
    def test_shared_reads_both_s(self):
        m = build_machine(2, d_distance=0)
        m.backing.store_word(BLK, 5)
        got = []

        def reader(delay):
            def prog():
                yield Compute(delay)
                got.append((yield Load(BLK)))
            return prog()

        run_scripts(m, reader(0), reader(80))
        assert got == [5, 5]
        # first reader was downgraded E->S by the second's GETS
        assert m.l1s[0].state_of(BLK) is CS.S
        assert m.l1s[1].state_of(BLK) is CS.S

    def test_store_invalidates_sharer(self):
        m = build_machine(2, d_distance=0)
        rec = TraceRecorder()
        rec.attach(m)

        def reader():
            yield Load(BLK)
            yield Compute(400)

        def writer():
            yield Compute(100)
            yield Store(BLK, 1)

        run_scripts(m, reader(), writer())
        assert m.l1s[0].state_of(BLK) is CS.I
        assert m.l1s[1].state_of(BLK) is CS.M

    def test_migratory_ownership_transfer(self):
        m = build_machine(2, d_distance=0)
        seen = {}

        def first():
            yield Store(BLK, 10)
            yield Compute(600)

        def second():
            yield Compute(150)
            seen["v"] = yield Load(BLK)   # Fwd_GETS from owner
            yield Store(BLK, 20)          # UPGRADE after shared fill

        run_scripts(m, first(), second())
        assert seen["v"] == 10
        assert m.l1s[1].state_of(BLK) is CS.M
        assert m.l1s[0].state_of(BLK) is CS.I

    def test_write_write_transfer_fwd_getx(self):
        m = build_machine(2, d_distance=0)
        seen = {}

        def first():
            yield Store(BLK, 10)
            yield Compute(600)

        def second():
            yield Compute(150)
            yield Store(BLK + 4, 20)      # GETX -> Fwd_GETX
            seen["v0"] = yield Load(BLK)  # must see first's value

        run_scripts(m, first(), second())
        assert seen["v0"] == 10
        assert m.l1s[0].state_of(BLK) is CS.I
        assert m.l1s[1].state_of(BLK) is CS.M

    def test_last_writer_wins_in_memory(self):
        m = build_machine(2, d_distance=0)

        def w(delay, val):
            def prog():
                yield Compute(delay)
                yield Store(BLK, val)
            return prog()

        run_scripts(m, w(0, 1), w(200, 2))
        # core 1 wrote last and still holds M
        assert m.l1s[1].peek_word(BLK) == 2


class TestExactnessWithoutApprox:
    """With Ghostwriter disabled, parallel sums must be exact."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_parallel_accumulate_exact(self, threads):
        m = build_machine(max(threads, 2), d_distance=0)
        base = 0x8000
        n_iters = 40
        done = m.barrier(threads)
        result = {}

        def worker(tid):
            def prog():
                addr = base + 4 * tid  # same block, different words
                for i in range(n_iters):
                    v = yield Load(addr)
                    yield Store(addr, v + i)
                from repro.isa.instructions import BarrierWait
                yield BarrierWait(done)
                if tid == 0:
                    total = 0
                    for t in range(threads):
                        total += yield Load(base + 4 * t)
                    result["sum"] = total
            return prog()

        for t in range(threads):
            m.add_thread(t, worker(t))
        m.run()
        m.check_quiescent()
        expected = threads * sum(range(n_iters))
        assert result["sum"] == expected
