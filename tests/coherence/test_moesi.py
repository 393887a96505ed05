"""MOESI baseline protocol tests — the paper's claim that the approximate
states "can be added to most existing protocols" (§3.2).

The O (Owned) state keeps a dirty block at its owner while sharers read
from it, eliminating the home writeback on dirty read-sharing.  GS/GI
layer on unchanged; scribbles never enter GS from O (the O copy is the
coherent master — see the L1 docstring)."""
from hypothesis import given, settings, strategies as st

from repro.common.types import CoherenceState as CS, MessageClass, MessageType
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store

from tests.conftest import build_machine, run_scripts
from tests.coherence.test_stress_random import op_strategy, _run_program

BLK = 0x4000


def _dirty_then_read(machine, extra_reader=False):
    """Core 0 dirties BLK; core 1 (and optionally 2) read it."""
    def owner():
        yield SetAprx(4)
        yield Store(BLK, 77)
        yield Compute(800)

    def reader(delay):
        def prog():
            yield SetAprx(4)
            yield Compute(delay)
            v = yield Load(BLK)
            assert v == 77
            yield Compute(400)
        return prog()

    scripts = [owner(), reader(150)]
    if extra_reader:
        scripts.append(reader(400))
    run_scripts(machine, *scripts)
    return machine


class TestOwnedState:
    def test_dirty_read_keeps_owner_in_o(self):
        m = _dirty_then_read(build_machine(2, protocol="moesi"))
        assert m.l1s[0].state_of(BLK) is CS.O
        assert m.l1s[1].state_of(BLK) is CS.S

    def test_mesi_downgrades_to_s_instead(self):
        m = _dirty_then_read(build_machine(2, protocol="mesi"))
        assert m.l1s[0].state_of(BLK) is CS.S

    def test_moesi_avoids_home_data_writeback(self):
        mesi = _dirty_then_read(build_machine(2, protocol="mesi"))
        moesi = _dirty_then_read(build_machine(2, protocol="moesi"))
        # MESI chains the dirty data home; MOESI keeps it at the owner
        assert (moesi.network.class_counts()[MessageClass.DATA]
                < mesi.network.class_counts()[MessageClass.DATA])

    def test_owner_serves_subsequent_readers(self):
        m = _dirty_then_read(build_machine(3, protocol="moesi"),
                             extra_reader=True)
        assert m.l1s[0].state_of(BLK) is CS.O
        assert m.l1s[1].state_of(BLK) is CS.S
        assert m.l1s[2].state_of(BLK) is CS.S
        home = m.agents[m.cfg.home_directory(BLK)]
        entry = home.peek_entry(BLK)
        assert entry.owner == 0
        assert entry.sharers == {1, 2}

    def test_o_eviction_writes_back_and_leaves_sharers(self):
        m = build_machine(2, protocol="moesi")
        stride = m.cfg.l1.num_sets * m.cfg.l1.block_bytes
        got = {}

        def owner():
            yield Store(BLK, 55)
            yield Compute(300)            # reader arrives -> O
            yield Load(BLK + stride)      # conflict-evict the O block
            yield Load(BLK + 2 * stride)
            yield Compute(500)

        def reader():
            yield Compute(100)
            yield Load(BLK)
            yield Compute(800)
            got["v"] = yield Load(BLK)    # still readable afterwards

        run_scripts(m, owner(), reader())
        assert got["v"] == 55
        assert m.l1s[0].state_of(BLK) is None   # evicted
        entry = m.agents[m.cfg.home_directory(BLK)].peek_entry(BLK)
        assert entry is not None and entry.owner is None
        assert 1 in entry.sharers


class TestOwnedWrites:
    def test_owner_upgrade_reclaims_m(self):
        m = build_machine(2, protocol="moesi")

        def owner():
            yield Store(BLK, 1)
            yield Compute(300)       # reader joins -> O
            yield Store(BLK, 2)      # UPGRADE from O
            yield Compute(200)

        def reader():
            yield Compute(100)
            yield Load(BLK)
            yield Compute(600)

        run_scripts(m, owner(), reader())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].peek_word(BLK) == 2
        assert m.l1s[1].state_of(BLK) in (CS.I, None)

    def test_sharer_upgrade_displaces_owner(self):
        m = build_machine(2, protocol="moesi")
        got = {}

        def owner():
            yield Store(BLK, 7)
            yield Compute(900)
            got["after"] = yield Load(BLK + 4)

        def sharer():
            yield Compute(100)
            yield Load(BLK)          # S under the O owner
            yield Compute(100)
            yield Store(BLK + 4, 9)  # UPGRADE: owner must drop its O copy
            yield Compute(600)

        run_scripts(m, owner(), sharer())
        assert m.l1s[1].peek_word(BLK) == 7       # inherited dirty word
        assert got["after"] == 9

    def test_getx_on_owned_block(self):
        m = build_machine(3, protocol="moesi")
        got = {}

        def owner():
            yield Store(BLK, 3)
            yield Compute(900)

        def reader():
            yield Compute(100)
            yield Load(BLK)
            yield Compute(700)

        def writer():
            yield Compute(300)
            yield Store(BLK + 8, 4)   # GETX: INV sharer + FWD to owner
            got["v"] = yield Load(BLK)

        run_scripts(m, owner(), reader(), writer())
        assert got["v"] == 3
        assert m.l1s[2].state_of(BLK) is CS.M


class TestGhostwriterOnMoesi:
    def test_gs_still_works_for_sharers(self):
        m = build_machine(3, protocol="ghostwriter-moesi", d_distance=4)

        def owner():
            yield SetAprx(4)
            yield Store(BLK, 1)
            yield Compute(900)

        def sharer():
            yield SetAprx(4)
            yield Compute(100)
            yield Load(BLK)
            yield Scribble(BLK + 4, 5)   # S -> GS beneath the O owner
            yield Compute(600)

        def other():
            yield SetAprx(4)
            yield Compute(50)
            yield Compute(900)

        run_scripts(m, owner(), sharer(), other())
        assert m.l1s[1].state_of(BLK) is CS.GS
        assert m.l1s[0].state_of(BLK) is CS.O

    def test_scribble_on_o_is_conventional(self):
        m = build_machine(2, protocol="ghostwriter-moesi", d_distance=4)

        def owner():
            yield SetAprx(4)
            yield Store(BLK, 1)
            yield Compute(300)
            yield Scribble(BLK, 2)   # similar, but O never enters GS
            yield Compute(200)

        def reader():
            yield SetAprx(4)
            yield Compute(100)
            yield Load(BLK)
            yield Compute(600)

        run_scripts(m, owner(), reader())
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.l1s[0].stats.gs_serviced == 0


class TestMoesiStress:
    @settings(max_examples=20, deadline=None)
    @given(progs=st.lists(st.lists(op_strategy, max_size=25),
                          min_size=2, max_size=4))
    def test_random_traces_consistent(self, progs):
        _run_program(progs, len(progs), protocol="ghostwriter-moesi")

    @settings(max_examples=20, deadline=None)
    @given(progs=st.lists(st.lists(op_strategy, max_size=25),
                          min_size=2, max_size=4))
    def test_baseline_loads_never_see_garbage(self, progs):
        _m, written, _last, loads = _run_program(
            progs, len(progs), d_distance=0, protocol="moesi"
        )
        for addr, value in loads:
            assert value in written.get(addr, set()) | {0}

    def test_workloads_exact_under_moesi(self):
        from dataclasses import replace
        from repro.harness.experiment import experiment_config
        from repro.workloads.registry import create

        cfg = replace(
            experiment_config(d_distance=0, num_cores=8),
            protocol="moesi",
        )
        w = create("linear_regression", num_threads=8, scale=0.15)
        result = w.run(cfg)
        result.machine.check_coherence_invariants()
        assert result.error_pct == 0.0
