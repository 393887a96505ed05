"""Fig. 5: producer-consumer sharing with Ghostwriter's GI state.

Core 0 produces to offset 0 (conventional GETX), core 1 — the next
producer, whose copy was invalidated — scribbles offset 1 into GI
without any GETX, and core 2 consumes.  After the timeout, core 1's
block returns to I and the scribbled update is lost.
"""
from repro.common.types import CoherenceState as CS, MessageClass
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store

from tests.conftest import TraceRecorder, build_machine, run_scripts

BLK = 0x4000
EPOCH = 500


def _fig5_scripts(m, got, use_scribble=True, check_offset=0):
    def core0():  # first producer
        yield SetAprx(4)
        yield Compute(EPOCH // 2)          # let core 1 take M first
        yield Store(BLK + 0, 0xA)          # GETX (fwd from core 1's M)
        yield Compute(3 * EPOCH)

    def core1():  # initially owns the block in M; next producer
        yield SetAprx(4)
        yield Store(BLK + 4, 0x1)          # take M first (epoch -1)
        yield Compute(EPOCH)               # core 0's Fwd_GETX invalidates us
        if use_scribble:
            yield Scribble(BLK + 4, 0xB)   # I -> GI, no GETX  (0x1^0xB=0xA<16)
        else:
            yield Store(BLK + 4, 0xB)
        got["c1_after_store"] = yield Load(BLK + 4)
        yield Compute(3 * EPOCH)

    def core2():  # consumer
        yield SetAprx(4)
        yield Compute(2 * EPOCH)
        got["consumed"] = yield Load(BLK + check_offset)
        yield Compute(2 * EPOCH)

    return core0(), core1(), core2()


class TestGiProducerConsumer:
    def test_gi_suppresses_getx(self):
        m = build_machine(3, d_distance=4, gi_timeout=10 * EPOCH)
        rec = TraceRecorder()
        rec.attach(m)
        got = {}
        run_scripts(m, *_fig5_scripts(m, got))
        assert rec.has("I", "GI", node=1)
        assert m.l1s[1].stats.gi_serviced == 1
        # baseline would need a second GETX from core 1
        counts = m.network.class_counts()
        assert counts[MessageClass.GETX] == 2  # core1's initial M + core0's

    def test_baseline_needs_extra_getx(self):
        m = build_machine(3, d_distance=0)
        got = {}
        run_scripts(m, *_fig5_scripts(m, got, use_scribble=False))
        counts = m.network.class_counts()
        assert counts[MessageClass.GETX] == 3

    def test_consumer_offset0_reads_correctly(self):
        """Fig. 5 note: a consumer load of offset 0 reads the correct
        value even while core 1 sits in GI."""
        m = build_machine(3, d_distance=4, gi_timeout=10 * EPOCH)
        got = {}
        run_scripts(m, *_fig5_scripts(m, got, check_offset=0))
        assert got["consumed"] == 0xA

    def test_consumer_offset1_reads_stale(self):
        """Fig. 5 note: reading offset 1 returns the stale value —
        approximate execution."""
        m = build_machine(3, d_distance=4, gi_timeout=10 * EPOCH)
        got = {}
        run_scripts(m, *_fig5_scripts(m, got, check_offset=4))
        assert got["consumed"] == 0x1          # core 1's GI 0xB is hidden
        assert got["c1_after_store"] == 0xB    # but locally visible

    def test_timeout_loses_update(self):
        """Fig. 5 epoch 2: after the timeout the block returns to I and
        the scribbled value is gone from every coherent view."""
        m = build_machine(3, d_distance=4, gi_timeout=EPOCH)
        got = {}
        run_scripts(m, *_fig5_scripts(m, got))
        assert m.l1s[1].stats.gi_timeout_invalidations == 1
        assert m.l1s[1].state_of(BLK) is CS.I
        # nothing coherent ever saw 0xB
        home = m.agents[m.cfg.home_directory(BLK)]
        slc = m.l2_slices[m.cfg.home_l2_slice(BLK)]
        l2_words = slc.probe(BLK)
        if l2_words is not None:
            assert l2_words[1] != 0xB
        assert m.backing.load_word(BLK + 4) != 0xB

    def test_changing_producer_chain(self):
        """Producers rotate across three cores; Ghostwriter absorbs the
        similar stores after the first ownership acquisition."""
        m = build_machine(3, d_distance=4, gi_timeout=50_000)
        rounds = 6

        def producer(tid):
            def prog():
                yield SetAprx(4)
                for r in range(rounds):
                    yield Compute(100 + 37 * tid)
                    yield Scribble(BLK + 4 * tid, (r + 1) & 0xF)
                yield Compute(500)
            return prog()

        run_scripts(m, producer(0), producer(1), producer(2))
        serviced = sum(
            l1.stats.gs_serviced + l1.stats.gi_serviced for l1 in m.l1s
        )
        assert serviced > 0
        counts = m.network.class_counts()
        # far fewer write transactions than the 18 stores issued
        assert counts[MessageClass.GETX] + counts[MessageClass.UPGRADE] < 18
