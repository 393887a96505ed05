"""Energy accounting over real runs."""
import pytest

from repro.energy.accounting import EnergyAccountant, EnergyReport
from repro.isa.instructions import Compute, Load, Store

from tests.conftest import build_machine, run_scripts

BLK = 0x4000


def _report(machine):
    return EnergyAccountant(machine.cfg).report(machine)


class TestReport:
    def test_components_positive_after_run(self):
        m = build_machine(2, d_distance=0)

        def a():
            for i in range(40):
                yield Store(BLK + 4 * (i % 16), i)

        def b():
            yield Compute(50)
            for i in range(40):
                yield Load(BLK + 4 * (i % 16))

        run_scripts(m, a(), b())
        rep = _report(m)
        assert rep.l1_pj > 0
        assert rep.l2_pj > 0
        assert rep.dram_pj > 0
        assert rep.noc_pj > 0
        assert rep.memory_pj == pytest.approx(
            rep.l1_pj + rep.l2_pj + rep.dram_pj
        )
        assert rep.total_pj == pytest.approx(rep.memory_pj + rep.noc_pj)

    def test_more_traffic_more_energy(self):
        def contended(m):
            def w(tid):
                def prog():
                    for i in range(30):
                        yield Store(BLK + 4 * tid, i)
                        yield Compute(10)
                return prog()
            return w(0), w(1)

        def private(m):
            def w(tid):
                def prog():
                    for i in range(30):
                        yield Store(BLK + 0x1000 * tid, i)
                        yield Compute(10)
                return prog()
            return w(0), w(1)

        m1 = build_machine(2, d_distance=0)
        run_scripts(m1, *contended(m1))
        m2 = build_machine(2, d_distance=0)
        run_scripts(m2, *private(m2))
        assert _report(m1).noc_pj > _report(m2).noc_pj


class TestSavings:
    def test_savings_math(self):
        base = EnergyReport(l1_pj=100, l2_pj=100, dram_pj=100, noc_pj=200)
        ours = EnergyReport(l1_pj=90, l2_pj=90, dram_pj=90, noc_pj=100)
        s = ours.savings_vs(base)
        assert s.memory_pct == pytest.approx(10.0)
        assert s.noc_pct == pytest.approx(50.0)
        assert s.total_pct == pytest.approx((500 - 370) / 500 * 100)

    def test_zero_baseline_guarded(self):
        base = EnergyReport(0, 0, 0, 0)
        ours = EnergyReport(1, 1, 1, 1)
        s = ours.savings_vs(base)
        assert s.total_pct == 0.0
