"""Fig. 4: migratory false sharing — baseline MESI vs Ghostwriter GS.

Reproduces the paper's epoch-by-epoch example: Core 0 and Core 1 each
load then store to different offsets of the same block.  Under baseline
MESI every store ping-pongs the block (UPGRADE + invalidation); under
Ghostwriter, Core 1's scribble is absorbed by GS and Core 0's Epoch-2
load still hits.
"""
from repro.common.types import CoherenceState as CS, MessageClass
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store

from tests.conftest import TraceRecorder, build_machine, run_scripts

BLK = 0x4000
EPOCH = 400  # cycles, comfortably longer than any transaction


def _migratory_scripts(use_scribble: bool, got: dict):
    """Core 0 stores <a>@off0 (epoch 0), core 1 loads+stores <b>@off1
    (epoch 1), core 0 loads @off0 (epoch 2)."""

    def core0():
        yield SetAprx(4)
        yield Store(BLK + 0, 0xA)          # epoch 0
        yield Compute(2 * EPOCH)
        got["c0_load"] = yield Load(BLK + 0)   # epoch 2
        got["c0_hits_after"] = None

    def core1():
        yield SetAprx(4)
        yield Compute(EPOCH)
        got["c1_load"] = yield Load(BLK + 4)   # epoch 1: GETS
        if use_scribble:
            yield Scribble(BLK + 4, 0xB)
        else:
            yield Store(BLK + 4, 0xB)
        yield Compute(2 * EPOCH)

    return core0(), core1()


class TestBaselineMigratory:
    def test_epoch2_load_misses(self):
        """Fig. 4a: core 1's UPGRADE invalidates core 0, whose epoch-2
        load becomes a coherence miss."""
        m = build_machine(2, d_distance=0)
        got = {}
        run_scripts(m, *_migratory_scripts(False, got))
        assert got["c0_load"] == 0xA
        assert got["c1_load"] == 0
        c0 = m.l1s[0].stats
        assert c0.load_misses == 1          # the ping-pong refetch
        assert m.network.class_counts()[MessageClass.UPGRADE] == 1
        assert m.l1s[0].state_of(BLK) is CS.S
        assert m.l1s[1].state_of(BLK) is CS.S

    def test_correct_values_both_offsets(self):
        m = build_machine(2, d_distance=0)
        got = {}
        run_scripts(m, *_migratory_scripts(False, got))
        # coherent block now holds both writes
        assert m.l1s[0].peek_word(BLK + 0) == 0xA
        assert m.l1s[0].peek_word(BLK + 4) == 0xB


class TestGhostwriterMigratory:
    def test_epoch2_load_hits_via_gs(self):
        """Fig. 4b: the scribble transitions S->GS without an UPGRADE, so
        core 0 keeps its copy and the epoch-2 load hits."""
        m = build_machine(2, d_distance=4)
        rec = TraceRecorder()
        rec.attach(m)
        got = {}
        run_scripts(m, *_migratory_scripts(True, got))
        assert got["c0_load"] == 0xA           # correct: different offsets
        assert rec.has("S", "GS", node=1)
        assert m.network.class_counts()[MessageClass.UPGRADE] == 0
        c0 = m.l1s[0].stats
        assert c0.load_misses == 0             # hidden coherence miss
        assert m.l1s[1].state_of(BLK) is CS.GS

    def test_scribbled_value_stays_local(self):
        """Core 1's <b> is visible locally but hidden from core 0."""
        m = build_machine(2, d_distance=4)
        got = {}
        run_scripts(m, *_migratory_scripts(True, got))
        assert m.l1s[1].peek_word(BLK + 4) == 0xB   # local view
        assert m.l1s[0].peek_word(BLK + 4) == 0     # global view: stale

    def test_traffic_reduced_vs_baseline(self):
        base = build_machine(2, d_distance=0)
        gw = build_machine(2, d_distance=4)
        g1, g2 = {}, {}
        run_scripts(base, *_migratory_scripts(False, g1))
        run_scripts(gw, *_migratory_scripts(True, g2))
        assert gw.network.stats.messages < base.network.stats.messages

    def test_cross_offset_read_is_approximate(self):
        """Paper: 'If Core 0's load in Epoch 2 were to read from offset 1,
        a stale value would be returned.'"""
        m = build_machine(2, d_distance=4)
        got = {}

        def core0():
            yield SetAprx(4)
            yield Store(BLK + 0, 0xA)
            yield Compute(2 * EPOCH)
            got["stale"] = yield Load(BLK + 4)   # offset 1!

        def core1():
            yield SetAprx(4)
            yield Compute(EPOCH)
            yield Load(BLK + 4)
            yield Scribble(BLK + 4, 0xB)
            yield Compute(2 * EPOCH)

        run_scripts(m, core0(), core1())
        assert got["stale"] == 0   # core1's 0xB is hidden: approximate read


class TestRepeatedMigratory:
    def test_ping_pong_traffic_scaling(self):
        """N migratory rounds cost O(N) transactions in baseline but O(1)
        after Ghostwriter absorbs the stores into GS."""
        rounds = 10

        def scripts(m):
            def worker(tid):
                def prog():
                    yield SetAprx(4)
                    for r in range(rounds):
                        yield Compute(50)
                        v = yield Load(BLK + 4 * tid)
                        yield Scribble(BLK + 4 * tid, (v + 1) & 0x7)
                    yield Compute(100)
                return prog()
            return worker(0), worker(1)

        base = build_machine(2, d_distance=0)
        run_scripts(base, *scripts(base))
        gw = build_machine(2, d_distance=4)
        run_scripts(gw, *scripts(gw))

        base_counts = base.network.class_counts()
        gw_counts = gw.network.class_counts()
        base_rw = (base_counts[MessageClass.UPGRADE]
                   + base_counts[MessageClass.GETX]
                   + base_counts[MessageClass.GETS])
        gw_rw = (gw_counts[MessageClass.UPGRADE]
                 + gw_counts[MessageClass.GETX]
                 + gw_counts[MessageClass.GETS])
        assert gw_rw < base_rw / 2
        assert gw.cycles < base.cycles  # speedup (Fig. 1 / Fig. 10 shape)
