"""Fig. 3 state-machine transitions, exercised one edge at a time.

Each test drives scripted traces until the L1 under test reaches the
source state, applies the triggering access/message, and asserts the
destination state — covering every Ghostwriter edge of Fig. 3.
"""
import pytest

from repro.common.types import CoherenceState as CS
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store

from tests.conftest import build_machine, run_scripts

BLK = 0x4000


def _into_s(m, core_a=0, core_b=1):
    """Scripts that leave core_a holding BLK in S (via a remote GETS)."""
    def a():
        yield SetAprx(4)
        yield Load(BLK)       # E
        yield Compute(200)    # wait for b's GETS downgrade

    def b():
        yield SetAprx(4)
        yield Compute(80)
        yield Load(BLK)       # S in both
        yield Compute(100)
    return a, b


class TestScribbleEdges:
    def test_s_scribble_similar_to_gs(self):
        m = build_machine(2, d_distance=4)
        a, b = _into_s(m)

        def a2():
            yield from a()
            yield Scribble(BLK, 7)  # word is 0; 7 within 4 bits
        run_scripts(m, a2(), b())
        assert m.l1s[0].state_of(BLK) is CS.GS

    def test_s_scribble_dissimilar_falls_back_to_upgrade(self):
        m = build_machine(2, d_distance=4)
        a, b = _into_s(m)

        def a2():
            yield from a()
            yield Scribble(BLK, 1 << 20)  # far from 0: conventional path
        run_scripts(m, a2(), b())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].stats.gs_serviced == 0
        assert m.l1s[0].stats.store_miss_on_S == 1

    def test_s_conventional_store_never_gs(self):
        m = build_machine(2, d_distance=4)
        a, b = _into_s(m)

        def a2():
            yield from a()
            yield Store(BLK, 7)  # similar value but NOT a scribble
        run_scripts(m, a2(), b())
        assert m.l1s[0].state_of(BLK) is CS.M

    def test_gw_disabled_scribble_acts_as_store(self):
        m = build_machine(2, d_distance=0)
        a, b = _into_s(m)

        def a2():
            yield from a()
            yield Scribble(BLK, 7)
        run_scripts(m, a2(), b())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].stats.gs_serviced == 0

    def test_scribble_without_setaprx_is_conventional(self):
        """Scribbles only engage after the controller is programmed."""
        m = build_machine(2, d_distance=4)

        def a():
            yield Load(BLK)
            yield Compute(200)
            yield Scribble(BLK, 7)  # scribe disabled: conventional store

        def b():
            yield Compute(80)
            yield Load(BLK)
            yield Compute(100)
        run_scripts(m, a(), b())
        assert m.l1s[0].state_of(BLK) is CS.M

    def test_i_scribble_similar_to_gi(self):
        m = build_machine(2, d_distance=4)

        def a():
            yield SetAprx(4)
            yield Store(BLK, 3)      # M
            yield Compute(300)       # b invalidates us -> I (tag present)
            yield Scribble(BLK, 5)   # 3^5=6 < 16 -> GI
            yield Compute(50)

        def b():
            yield SetAprx(4)
            yield Compute(100)
            yield Store(BLK + 4, 1)  # GETX: invalidates a
            yield Compute(400)
        run_scripts(m, a(), b())
        # the armed periodic timer fires while the event queue drains, so
        # the block is back to I post-run; the service counter plus the
        # timeout counter prove the GI episode happened
        assert m.l1s[0].stats.gi_serviced == 1
        assert m.l1s[0].stats.gi_timeout_invalidations == 1
        assert m.l1s[0].state_of(BLK) is CS.I

    def test_i_scribble_dissimilar_getx(self):
        m = build_machine(2, d_distance=4)

        def a():
            yield SetAprx(4)
            yield Store(BLK, 3)
            yield Compute(300)
            yield Scribble(BLK, 1 << 16)  # dissimilar
            yield Compute(50)

        def b():
            yield SetAprx(4)
            yield Compute(100)
            yield Store(BLK + 4, 1)
            yield Compute(400)
        run_scripts(m, a(), b())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].stats.store_miss_on_I == 1

    def test_scribble_on_e_behaves_like_store(self):
        m = build_machine(1, d_distance=4)

        def a():
            yield SetAprx(4)
            yield Load(BLK)          # E
            yield Scribble(BLK, 2)   # Fig. 3: E --Scribble--> M (store path)
        run_scripts(m, a())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].peek_word(BLK) == 2

    def test_scribble_on_m_stays_m(self):
        m = build_machine(1, d_distance=4)

        def a():
            yield SetAprx(4)
            yield Store(BLK, 1)
            yield Scribble(BLK, 2)
        run_scripts(m, a())
        assert m.l1s[0].state_of(BLK) is CS.M

    def test_tag_miss_scribble_is_conventional_getx(self):
        m = build_machine(1, d_distance=4)

        def a():
            yield SetAprx(4)
            yield Scribble(BLK, 0)  # no resident word to compare against
        run_scripts(m, a())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].stats.gi_serviced == 0


class TestGsGiHits:
    """Paper §3.2: loads, stores and scribbles all hit on GS/GI."""

    def _machine_with_gs(self):
        m = build_machine(2, d_distance=4)
        got = {}

        def a():
            yield SetAprx(4)
            yield Load(BLK)
            yield Compute(200)
            yield Scribble(BLK, 7)           # -> GS
            got["load"] = yield Load(BLK)    # hit, local value
            yield Store(BLK + 8, 3)          # conventional store hits too
            yield Scribble(BLK, 6)           # scribble hit
            got["load2"] = yield Load(BLK)

        def b():
            yield SetAprx(4)
            yield Compute(80)
            yield Load(BLK)
            yield Compute(200)
        run_scripts(m, a(), b())
        return m, got

    def test_all_access_types_hit_on_gs(self):
        m, got = self._machine_with_gs()
        assert m.l1s[0].state_of(BLK) is CS.GS
        assert got["load"] == 7
        assert got["load2"] == 6
        assert m.l1s[0].peek_word(BLK + 8) == 3

    def test_gs_hits_generate_no_traffic(self):
        m, _ = self._machine_with_gs()
        # after entering GS: zero further requests from core 0
        from repro.common.types import MessageClass
        counts = m.network.class_counts()
        assert counts[MessageClass.UPGRADE] == 0
        assert counts[MessageClass.GETX] == 0

    def test_gi_hits_all_access_types(self):
        m = build_machine(2, d_distance=4, gi_timeout=100000)
        got = {}

        def a():
            yield SetAprx(4)
            yield Store(BLK, 3)
            yield Compute(300)
            yield Scribble(BLK, 5)        # -> GI
            got["v1"] = yield Load(BLK)   # stale-local hit
            yield Store(BLK, 6)           # store hit on GI
            got["v2"] = yield Load(BLK)

        def b():
            yield SetAprx(4)
            yield Compute(100)
            yield Store(BLK + 4, 1)
            yield Compute(500)
        run_scripts(m, a(), b())
        assert m.l1s[0].stats.gi_serviced == 1
        assert got["v1"] == 5
        assert got["v2"] == 6
        # a single GI episode: no extra traffic for the store/load hits
        assert m.l1s[0].stats.approx_store_hits >= 1


class TestInvalidationEdges:
    def test_gs_invalidated_by_remote_store(self):
        """Fig. 3: GS --Inv--> I; local updates are lost globally."""
        m = build_machine(2, d_distance=4)
        got = {}

        def a():
            yield SetAprx(4)
            yield Load(BLK)
            yield Compute(200)
            yield Scribble(BLK, 7)   # GS, hidden update (b must still be
            yield Compute(600)       # reading: store comes later)
            got["after"] = yield Load(BLK)  # miss; coherent data has b's view

        def b():
            yield SetAprx(4)
            yield Compute(80)
            yield Load(BLK)
            yield Compute(400)       # well after a's scribble
            yield Store(BLK + 4, 9)  # UPGRADE -> invalidates a's GS copy
            yield Compute(600)
        run_scripts(m, a(), b())
        assert m.l1s[0].stats.gs_serviced == 1
        assert m.l1s[0].stats.approx_data_dropped >= 1
        # the refetched block must NOT contain a's scribbled 7
        assert got["after"] == 0

    def test_gi_timeout_returns_to_i_and_drops_update(self):
        m = build_machine(2, d_distance=4, gi_timeout=128)
        got = {}

        def a():
            yield SetAprx(4)
            yield Store(BLK, 3)
            yield Compute(300)
            yield Scribble(BLK, 5)    # GI
            yield Compute(1000)       # > timeout: flash invalidate
            got["after"] = yield Load(BLK)  # miss -> coherent value

        def b():
            yield SetAprx(4)
            yield Compute(100)
            yield Store(BLK + 4, 1)   # took ownership; owns 3 at offset 0
            yield Compute(2000)
        run_scripts(m, a(), b())
        assert m.l1s[0].stats.gi_timeout_invalidations == 1
        # coherent offset-0 word is a's last *conventional* store (3),
        # not the scribbled 5
        assert got["after"] == 3

    def test_gi_never_written_back(self):
        """GI updates must never reach the backing store / L2."""
        m = build_machine(2, d_distance=4, gi_timeout=128)

        def a():
            yield SetAprx(4)
            yield Store(BLK, 3)
            yield Compute(300)
            yield Scribble(BLK, 5)
            yield Compute(1500)

        def b():
            yield SetAprx(4)
            yield Compute(100)
            yield Store(BLK + 4, 1)
            yield Compute(2500)
        run_scripts(m, a(), b())
        # global view: offset 0 is 3 wherever it lives now
        l1b = m.l1s[1].peek_word(BLK)
        assert l1b == 3
        assert m.backing.load_word(BLK) in (0, 3)  # never 5

    def test_eviction_of_gs_sends_puts_and_drops(self):
        m = build_machine(2, d_distance=4)
        cfg = m.cfg.l1
        stride = cfg.num_sets * cfg.block_bytes

        def a():
            yield SetAprx(4)
            yield Load(BLK)
            yield Compute(200)
            yield Scribble(BLK, 7)       # GS
            yield Load(BLK + stride)     # conflict fills
            yield Load(BLK + 2 * stride)
            yield Compute(100)

        def b():
            yield SetAprx(4)
            yield Compute(80)
            yield Load(BLK)
            yield Compute(600)
        run_scripts(m, a(), b())
        assert m.l1s[0].state_of(BLK) is None  # evicted
        assert m.l1s[0].stats.approx_data_dropped >= 1
        # directory no longer lists core 0 as sharer
        home = m.agents[m.cfg.home_directory(BLK)]
        entry = home.peek_entry(BLK)
        assert entry is None or 0 not in entry.sharers

    def test_eviction_of_gi_is_silent(self):
        m = build_machine(2, d_distance=4, gi_timeout=100000)
        cfg = m.cfg.l1
        stride = cfg.num_sets * cfg.block_bytes
        before = {}

        def a():
            yield SetAprx(4)
            yield Store(BLK, 3)
            yield Compute(300)
            yield Scribble(BLK, 5)   # GI
            before["msgs"] = m.network.stats.messages
            yield Load(BLK + stride)
            yield Load(BLK + 2 * stride)
            yield Compute(100)

        def b():
            yield SetAprx(4)
            yield Compute(100)
            yield Store(BLK + 4, 1)
            yield Compute(800)
        run_scripts(m, a(), b())
        assert m.l1s[0].state_of(BLK) is None


class TestUpgradeRace:
    def test_upgrade_race_values_stay_correct(self):
        """Two sharers store near-simultaneously to different words of the
        same block; whatever the interleaving, both end up with their own
        values (the directory resolves the race)."""
        m = build_machine(2, d_distance=4)
        got = {}

        def sharer(tid):
            def prog():
                yield Load(BLK)       # both S
                yield Compute(100)
                yield Store(BLK + 4 * tid, 10 + tid)
                got[tid] = yield Load(BLK + 4 * tid)
            return prog()

        run_scripts(m, sharer(0), sharer(1))
        assert got[0] == 10 and got[1] == 11

    def test_upgrade_storm_promotes_losers(self):
        """Hammering the same block from two cores must hit the
        SM_D --Inv--> IM_D race and the directory's UPGRADE->GETX
        promotion (and still be exact)."""
        m = build_machine(2, d_distance=0)
        results = {}

        def worker(tid):
            def prog():
                for _ in range(30):
                    v = yield Load(BLK + 4 * tid)
                    yield Store(BLK + 4 * tid, v + 1)
                results[tid] = yield Load(BLK + 4 * tid)
            return prog()

        for t in range(2):
            m.add_thread(t, worker(t))
        m.run()
        m.check_quiescent()
        assert results[0] == 30 and results[1] == 30
        promoted = sum(a.stats.upgrades_promoted for a in m.agents.values())
        assert promoted >= 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_n_way_upgrade_storm_is_exact(self, n):
        m = build_machine(4, d_distance=0)
        results = {}

        def worker(tid):
            def prog():
                for i in range(30):
                    v = yield Load(BLK + 4 * tid)
                    yield Store(BLK + 4 * tid, v + 1)
                results[tid] = yield Load(BLK + 4 * tid)
            return prog()

        for t in range(n):
            m.add_thread(t, worker(t))
        m.run()
        m.check_quiescent()
        assert all(results[t] == 30 for t in range(n))


class TestGiTimerRearm:
    def test_second_episode_gets_its_own_timeout(self):
        """The per-controller timer disarms when no GI blocks remain and
        re-arms on the next GI entry (periodic-while-active semantics)."""
        m = build_machine(2, d_distance=4, gi_timeout=200)

        def a():
            yield SetAprx(4)
            yield Store(BLK, 3)
            yield Compute(300)
            yield Scribble(BLK, 5)    # episode 1 -> GI
            yield Compute(400)        # timer fires at ~+200
            yield Scribble(BLK, 6)    # episode 2 -> GI again
            yield Compute(400)        # second flash

        def b():
            yield SetAprx(4)
            yield Compute(100)
            yield Store(BLK + 4, 1)   # invalidate a once
            yield Compute(1200)

        run_scripts(m, a(), b())
        st = m.l1s[0].stats
        assert st.gi_serviced == 2
        assert st.gi_timeout_invalidations == 2

    def test_flash_skips_blocks_that_left_gi(self):
        """A block that exited GI (fallback to M) before the flash must
        not be invalidated by the stale timer entry."""
        m = build_machine(2, d_distance=4, gi_timeout=300)

        def a():
            yield SetAprx(4)
            yield Store(BLK, 3)
            yield Compute(300)
            yield Scribble(BLK, 5)          # GI
            yield Scribble(BLK, 1 << 20)    # dissimilar: fallback GETX -> M
            yield Compute(600)              # the timer fires meanwhile

        def b():
            yield SetAprx(4)
            yield Compute(100)
            yield Store(BLK + 4, 1)
            yield Compute(1000)

        run_scripts(m, a(), b())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].stats.gi_timeout_invalidations == 0
