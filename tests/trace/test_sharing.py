"""Tests for sharing-pattern classification."""
import numpy as np

from repro.isa.instructions import Compute, Load, Store
from repro.trace.record import Trace, TraceRecorder
from repro.trace.sharing import (
    SharingPattern, classify_trace, false_sharing_candidates,
)

from tests.conftest import build_machine, run_scripts

BLK = 0x4000


def _trace(rows):
    """rows: (cycle, core, write, addr)"""
    return Trace(
        [r[0] for r in rows],
        [r[1] for r in rows],
        [1 if r[2] else 0 for r in rows],
        [r[3] for r in rows],
        [0] * len(rows),
        [True] * len(rows),
    )


class TestClassification:
    def test_private(self):
        t = _trace([(0, 0, True, BLK), (1, 0, False, BLK + 4)])
        rep = classify_trace(t)[BLK]
        assert rep.pattern is SharingPattern.PRIVATE

    def test_read_shared(self):
        t = _trace([(0, 0, False, BLK), (1, 1, False, BLK),
                    (2, 2, False, BLK + 8)])
        rep = classify_trace(t)[BLK]
        assert rep.pattern is SharingPattern.READ_SHARED
        assert rep.readers == 3
        assert rep.writers == 0

    def test_false_shared(self):
        """Different cores writing different words of one block."""
        t = _trace([(0, 0, True, BLK), (1, 1, True, BLK + 4),
                    (2, 0, True, BLK), (3, 1, True, BLK + 4)])
        rep = classify_trace(t)[BLK]
        assert rep.pattern is SharingPattern.FALSE_SHARED
        assert rep.write_interleavings == 3

    def test_true_shared(self):
        t = _trace([(0, 0, True, BLK), (1, 1, True, BLK)])
        rep = classify_trace(t)[BLK]
        assert rep.pattern is SharingPattern.TRUE_SHARED

    def test_mixed(self):
        t = _trace([
            (0, 0, True, BLK), (1, 1, True, BLK),       # true sharing
            (2, 0, True, BLK + 4), (3, 1, True, BLK + 8),  # false sharing
        ])
        rep = classify_trace(t)[BLK]
        assert rep.pattern is SharingPattern.MIXED

    def test_empty_trace(self):
        t = _trace([])
        assert classify_trace(t) == {}

    def test_contention_score(self):
        t = _trace([(i, i % 2, True, BLK + 4 * (i % 2)) for i in range(10)])
        rep = classify_trace(t)[BLK]
        assert rep.contention_score > 0.8


class TestOnRealRuns:
    def test_detects_listing1_false_sharing(self):
        """The classifier must flag the bad_dot_product total array."""
        from repro.harness.experiment import experiment_config
        from repro.workloads.registry import create

        cfg = experiment_config(d_distance=0, num_cores=4)
        w = create("bad_dot_product", num_threads=4, n_points=256,
                   approximate=False)
        from repro.sim.machine import Machine
        m = Machine(cfg)
        w.build(m)
        rec = TraceRecorder(m)
        m.run()
        m.check_quiescent()
        candidates = false_sharing_candidates(rec.trace())
        assert candidates, "no false sharing found in Listing 1!"
        top = candidates[0]
        assert top.writers == 4
        assert top.pattern in (SharingPattern.FALSE_SHARED,
                               SharingPattern.MIXED)

    def test_private_dot_product_mostly_clean(self):
        from repro.harness.experiment import experiment_config
        from repro.workloads.registry import create
        from repro.sim.machine import Machine

        cfg = experiment_config(d_distance=0, num_cores=4)
        w = create("private_dot_product", num_threads=4, n_points=256)
        m = Machine(cfg)
        w.build(m)
        rec = TraceRecorder(m)
        m.run()
        m.check_quiescent()
        candidates = false_sharing_candidates(rec.trace(),
                                              min_interleavings=4)
        # Listing 2 writes each slot once: no ping-pong
        assert candidates == []
