"""Runtime invariant monitor: golden memory, detection, recovery."""
from dataclasses import replace

import pytest

from repro.common.config import FaultConfig, VerifyConfig, small_config
from repro.common.types import CoherenceState as CS
from repro.isa.instructions import Compute, Load, SetAprx, Store
from repro.sim.machine import Machine
from repro.verify.monitor import GoldenMemory, InvariantViolation

BLK = 0x4000


def _machine(num_cores=2, *, period=16, policy="abort"):
    cfg = small_config(num_cores=num_cores)
    cfg = replace(
        cfg,
        verify=VerifyConfig(monitor_period=period),
        faults=FaultConfig(policy=policy),
    )
    return Machine(cfg)


def _find_line(machine, node, block, state=None):
    for line in machine.l1s[node].array.iter_valid():
        if line.tag == block and (state is None or line.state is state):
            return line
    return None


class TestGoldenMemory:
    def test_falls_back_to_backing_store(self):
        m = _machine()
        m.backing.store_word(BLK + 8, 77)
        g = GoldenMemory(m.backing)
        assert g.word(BLK + 8) == 77
        assert g.block(BLK)[2] == 77

    def test_commit_overrides_backing(self):
        m = _machine()
        m.backing.store_word(BLK, 1)
        g = GoldenMemory(m.backing)
        words = [0] * 16
        words[0] = 42
        g.commit(BLK, words)
        words[0] = 99  # committed copy must be independent
        assert g.word(BLK) == 42

    def test_machine_commits_on_conventional_store(self):
        m = _machine()

        def writer():
            yield Store(BLK, 0xAB)

        m.add_thread(0, writer())
        m.run()
        assert m.monitor is not None
        assert m.monitor.golden.word(BLK) == 0xAB


class TestDetection:
    def test_clean_run_has_no_violations(self):
        m = _machine()

        def writer():
            yield Store(BLK, 5)
            yield Compute(500)
            yield Load(BLK)

        m.add_thread(0, writer())
        m.run()
        m.check_coherence_invariants()
        assert m.monitor.stats.checks > 1
        assert m.monitor.stats.value_violations == 0
        assert m.monitor.violations == []

    def test_abort_policy_raises_on_corruption(self):
        m = _machine(policy="abort")

        def writer():
            yield Store(BLK, 0xAB)
            yield Compute(2000)

        m.add_thread(0, writer())

        def corrupt():
            line = _find_line(m, 0, BLK, CS.M)
            if line is None:
                m.engine.schedule(8, corrupt)
                return
            line.words[0] ^= 1 << 7

        m.engine.schedule(30, corrupt)
        with pytest.raises(InvariantViolation, match="data-value invariant"):
            m.run()
        assert m.monitor.stats.value_violations == 1

    def test_log_policy_records_and_continues(self):
        m = _machine(policy="log")

        def writer():
            yield Store(BLK, 0xAB)
            yield Compute(2000)

        m.add_thread(0, writer())

        def corrupt():
            line = _find_line(m, 0, BLK, CS.M)
            if line is None:
                m.engine.schedule(8, corrupt)
                return
            line.words[0] ^= 1 << 7

        m.engine.schedule(30, corrupt)
        m.run()
        assert m.monitor.stats.value_violations >= 1
        assert any("data-value" in v for v in m.monitor.violations)


class TestRecovery:
    def test_shared_copy_invalidated_and_refetched(self):
        """A corrupted S line is dropped to I; the next load refetches the
        coherent value (invalidate-and-refetch)."""
        m = _machine(policy="recover")
        observed = []

        def writer():
            yield Store(BLK, 0xAB)
            yield Compute(600)

        def reader():
            yield Compute(120)          # let the store commit first
            observed.append((yield Load(BLK)))   # S copy
            yield Compute(300)          # corruption + recovery window
            observed.append((yield Load(BLK)))   # after recovery

        m.add_thread(0, writer())
        m.add_thread(1, reader())

        recovered_state = []

        def corrupt():
            line = _find_line(m, 1, BLK, CS.S)
            if line is None:
                m.engine.schedule(8, corrupt)
                return
            line.words[0] ^= 1 << 3
            # recovery must land before the reader's second load; record
            # what the monitor did to the line at its next firing
            def check_state():
                recovered_state.append(
                    line.state if line.tag == BLK else None
                )
            m.engine.schedule(m.monitor.period + 1, check_state)

        m.engine.schedule(30, corrupt)
        m.run()
        m.check_quiescent()
        assert m.monitor.stats.corruptions_recovered == 1
        assert recovered_state and recovered_state[0] is CS.I
        assert observed == [0xAB, 0xAB]

    def test_owned_copy_restored_in_place(self):
        """A corrupted M line is the only copy; recovery rewrites its words
        from the golden reference instead of dropping it."""
        m = _machine(policy="recover")
        observed = []

        def writer():
            yield Store(BLK, 0x77)
            yield Compute(300)
            observed.append((yield Load(BLK)))

        m.add_thread(0, writer())

        def corrupt():
            line = _find_line(m, 0, BLK, CS.M)
            if line is None:
                m.engine.schedule(8, corrupt)
                return
            line.words[0] ^= 1 << 20

        m.engine.schedule(30, corrupt)
        m.run()
        assert m.monitor.stats.corruptions_recovered == 1
        assert observed == [0x77]
        line = _find_line(m, 0, BLK)
        assert line.words[0] == 0x77


class TestEndOfRunGate:
    def test_workload_checks_respect_flag(self):
        # the flag only gates the calls; both settings must run clean
        from repro.harness.experiment import run_workload
        from repro.harness.options import RunOptions

        row = run_workload("histogram", d_distance=4, num_threads=2,
                           scale=0.05,
                           options=RunOptions(check_invariants=True))
        assert row.cycles > 0
        row = run_workload("histogram", d_distance=4, num_threads=2,
                           scale=0.05,
                           options=RunOptions(check_invariants=False))
        assert row.cycles > 0
