"""L1 controller behaviours beyond the protocol FSM: evictions, the
write-back buffer, Fig. 2 instrumentation, flush semantics."""
import pytest

from repro.common.types import CoherenceState as CS
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store

from tests.conftest import build_machine, run_scripts

BLK = 0x4000


def _stride(machine):
    cfg = machine.cfg.l1
    return cfg.num_sets * cfg.block_bytes


class TestEvictionProtocol:
    def test_clean_shared_eviction_prunes_directory(self):
        m = build_machine(2, d_distance=0)
        stride = _stride(m)

        def a():
            yield Load(BLK)
            yield Compute(200)
            yield Load(BLK + stride)       # conflict
            yield Load(BLK + 2 * stride)   # evicts BLK (S)
            yield Compute(200)

        def b():
            yield Compute(80)
            yield Load(BLK)
            yield Compute(400)

        run_scripts(m, a(), b())
        entry = m.agents[m.cfg.home_directory(BLK)].peek_entry(BLK)
        assert entry is not None and entry.sharers == {1}

    def test_exclusive_eviction_clears_directory(self):
        m = build_machine(1, d_distance=0)
        stride = _stride(m)

        def a():
            yield Load(BLK)                  # E
            yield Load(BLK + stride)
            yield Load(BLK + 2 * stride)     # evicts BLK via PUTE
            yield Compute(400)

        run_scripts(m, a())
        assert m.agents[m.cfg.home_directory(BLK)].peek_entry(BLK) is None

    def test_modified_eviction_data_survives(self):
        m = build_machine(2, d_distance=0)
        stride = _stride(m)
        got = {}

        def a():
            yield Store(BLK, 1234)
            yield Store(BLK + stride, 1)
            yield Store(BLK + 2 * stride, 2)  # evicts BLK via PUTM
            yield Compute(400)

        def b():
            yield Compute(300)
            got["v"] = yield Load(BLK)

        run_scripts(m, a(), b())
        assert got["v"] == 1234

    def test_wb_buffer_serves_forward_race(self):
        """Another core's request forwarded to an owner that evicted the
        block mid-flight is served from the write-back buffer."""
        m = build_machine(2, d_distance=0)
        stride = _stride(m)
        got = {}

        def a():
            yield Store(BLK, 77)
            yield Store(BLK + stride, 1)
            yield Store(BLK + 2 * stride, 2)   # PUTM for BLK in flight
            yield Compute(600)

        def b():
            # request timed so it can race the writeback
            yield Compute(130)
            got["v"] = yield Load(BLK)

        run_scripts(m, a(), b())
        assert got["v"] == 77  # correctness regardless of who served it


class TestStrayMessages:
    def test_inv_after_eviction_is_acked(self):
        """INV arriving for a block we evicted (PUTS still queued) must be
        acknowledged unconditionally."""
        m = build_machine(3, d_distance=0)
        stride = _stride(m)

        def a():
            yield Load(BLK)                   # S
            yield Load(BLK + stride)
            yield Load(BLK + 2 * stride)      # evict BLK, PUTS in flight
            yield Compute(400)

        def b():
            yield Compute(30)
            yield Load(BLK)
            yield Compute(400)

        def c():
            yield Compute(60)
            yield Store(BLK, 5)               # INVs both sharers
            yield Compute(400)

        run_scripts(m, a(), b(), c())  # must not deadlock or raise


class TestInstrumentation:
    def test_fig2_histogram_collects_store_distances(self):
        m = build_machine(1, d_distance=0)

        def a():
            yield Load(BLK)
            yield Store(BLK, 5)      # vs 0  -> d=3
            yield Store(BLK, 5)      # vs 5  -> d=0 (silent)
            yield Store(BLK, 4)      # vs 5  -> d=1

        run_scripts(m, a())
        hist = m.l1s[0].scribe.stats.histogram("store_d_distance")
        assert hist.as_dict() == {0: 1, 1: 1, 3: 1}

    def test_miss_latency_accounted(self):
        m = build_machine(1, d_distance=0)

        def a():
            yield Load(BLK)

        run_scripts(m, a())
        assert m.l1s[0].stats.miss_latency_cycles > 0


class TestFlushApprox:
    def test_flush_drops_gs_and_gi(self):
        m = build_machine(2, d_distance=4, gi_timeout=100000)

        def a():
            yield SetAprx(4)
            yield Load(BLK)
            yield Store(BLK + 64, 3)        # M on a second block
            yield Compute(400)
            yield Scribble(BLK, 7)          # GS
            yield Scribble(BLK + 64, 5)     # GI (after b invalidated it)
            from repro.isa.instructions import FlushApprox
            yield FlushApprox()
            assert m.l1s[0].state_of(BLK) is CS.I
            assert m.l1s[0].state_of(BLK + 64) is CS.I
            yield Compute(10)

        def b():
            yield SetAprx(4)
            yield Compute(100)
            yield Load(BLK)                 # downgrade a to S
            yield Store(BLK + 64 + 4, 1)    # invalidate a's second block
            yield Compute(600)

        run_scripts(m, a(), b())
        assert m.l1s[0].stats.flush_invalidations == 2

    def test_flush_leaves_coherent_lines_alone(self):
        m = build_machine(1, d_distance=4)

        def a():
            yield Store(BLK, 1)     # M
            from repro.isa.instructions import FlushApprox
            yield FlushApprox()

        run_scripts(m, a())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].stats.flush_invalidations == 0


class TestScribeProgramming:
    def test_setaprx_reprograms_distance(self):
        m = build_machine(1, d_distance=4)

        def a():
            yield SetAprx(8)

        run_scripts(m, a())
        assert m.l1s[0].scribe.d_distance == 8
        assert m.l1s[0].scribe.enabled

    def test_endaprx_disables(self):
        m = build_machine(2, d_distance=4)

        def a():
            yield SetAprx(4)
            yield Load(BLK)
            yield Compute(200)
            from repro.isa.instructions import EndAprx
            yield EndAprx()
            yield Scribble(BLK, 7)  # disabled scribe: conventional store

        def b():
            yield Compute(80)
            yield Load(BLK)
            yield Compute(200)

        run_scripts(m, a(), b())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].stats.gs_serviced == 0

    def test_gw_disabled_ignores_setaprx(self):
        m = build_machine(1, d_distance=0)

        def a():
            yield SetAprx(8)

        run_scripts(m, a())
        assert not m.l1s[0].scribe.enabled
