"""Unit tests for the in-order core model."""
from dataclasses import replace

import pytest

from repro.isa.instructions import (
    ApproxBegin, ApproxEnd, Compute, Load, SetAprx, Store,
)
from repro.common.config import small_config
from repro.common.types import CoherenceState as CS
from repro.sim.machine import Machine

from tests.conftest import build_machine, run_scripts

BLK = 0x4000


class TestExecution:
    def test_load_value_delivery(self):
        m = build_machine(1)
        m.backing.store_word(BLK, 42)
        got = {}

        def prog():
            got["v"] = yield Load(BLK)

        run_scripts(m, prog())
        assert got["v"] == 42

    def test_compute_advances_time(self):
        m1 = build_machine(1)
        m2 = build_machine(1)

        def short():
            yield Compute(10)

        def long():
            yield Compute(5000)

        run_scripts(m1, short())
        run_scripts(m2, long())
        assert m2.cores[0].finish_cycle - m1.cores[0].finish_cycle >= 4900

    def test_hit_latency_charged(self):
        m = build_machine(1)

        def prog():
            yield Store(BLK, 1)      # miss
            for _ in range(100):
                yield Load(BLK)       # 100 hits at 2 cycles each

        run_scripts(m, prog())
        finish = m.cores[0].finish_cycle
        assert finish >= 200  # at least the hit latency of the loop

    def test_bad_op_raises(self):
        m = build_machine(1)

        def prog():
            yield "not an op"

        m.add_thread(0, prog())
        with pytest.raises(TypeError):
            m.run()

    def test_core_reuse_rejected(self):
        m = build_machine(2)

        def prog():
            yield Compute(1)

        m.add_thread(0, prog())
        with pytest.raises(ValueError):
            m.add_thread(0, prog())

    def test_mem_ops_counted(self):
        m = build_machine(1)

        def prog():
            yield Store(BLK, 1)
            yield Load(BLK)
            yield Load(BLK + 4)

        run_scripts(m, prog())
        assert m.stats.child("core").child("c0").mem_ops == 3


class TestQuantumEquivalence:
    """Functional results must not depend on the step budget: one L1 hit
    latency of cycles, the quantum that ``quantum_yields`` counts."""

    @pytest.mark.parametrize("quantum", [1, 2, 8, 32])
    def test_single_core_results_identical(self, quantum):
        cfg = small_config(num_cores=1)
        m = Machine(replace(cfg, l1=replace(cfg.l1, hit_latency=quantum)))
        got = []

        def prog():
            for i in range(50):
                yield Store(BLK + 4 * (i % 16), i)
            for i in range(16):
                got.append((yield Load(BLK + 4 * i)))

        run_scripts(m, prog())
        expected = [48, 49, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44,
                    45, 46, 47]
        assert got == expected


class TestStepBudget:
    def test_one_yield_per_hit(self):
        """A core runs one L1 hit per scheduler step: after the cold
        fill, every hit to the resident block yields to the scheduler
        before the next op runs."""
        m = build_machine(1)
        n = 40

        def prog():
            yield Load(BLK)                 # cold miss fills the block
            for i in range(n):
                yield Load(BLK + 4 * (i % 16))

        run_scripts(m, prog())
        assert m.stats.child("core").child("c0").quantum_yields == n


class TestApproxConversion:
    def test_store_in_region_becomes_scribble(self):
        m = build_machine(2, d_distance=4)

        def a():
            yield SetAprx(4)
            yield ApproxBegin(((BLK, BLK + 64),))
            yield Load(BLK)
            yield Compute(300)
            yield Store(BLK, 7)      # converted to a scribble -> GS
            yield Compute(50)

        def b():
            yield Compute(100)
            yield Load(BLK)
            yield Compute(300)

        run_scripts(m, a(), b())
        assert m.l1s[0].stats.gs_serviced == 1

    def test_store_outside_region_stays_conventional(self):
        m = build_machine(2, d_distance=4)

        def a():
            yield SetAprx(4)
            yield ApproxBegin(((BLK + 0x1000, BLK + 0x1040),))  # elsewhere
            yield Load(BLK)
            yield Compute(300)
            yield Store(BLK, 7)
            yield Compute(50)

        def b():
            yield Compute(100)
            yield Load(BLK)
            yield Compute(300)

        run_scripts(m, a(), b())
        assert m.l1s[0].stats.gs_serviced == 0
        assert m.l1s[0].state_of(BLK) is CS.M

    def test_approx_end_stops_conversion(self):
        m = build_machine(2, d_distance=4)
        rng = ((BLK, BLK + 64),)

        def a():
            yield SetAprx(4)
            yield ApproxBegin(rng)
            yield ApproxEnd(rng)
            yield Load(BLK)
            yield Compute(300)
            yield Store(BLK, 7)   # no conversion
            yield Compute(50)

        def b():
            yield Compute(100)
            yield Load(BLK)
            yield Compute(300)

        run_scripts(m, a(), b())
        assert m.l1s[0].stats.gs_serviced == 0
