"""Tests for trace-driven replay."""
import pytest

from repro.harness.experiment import experiment_config
from repro.sim.machine import Machine
from repro.trace.record import TraceRecorder
from repro.trace.replay import replay_trace
from repro.workloads.registry import create


def _record(name="bad_dot_product", threads=4, **kw):
    cfg = experiment_config(d_distance=0, num_cores=threads)
    kw.setdefault("max_value", 7)  # small values: scribbles can pass
    w = create(name, num_threads=threads, n_points=192, **kw)
    m = Machine(cfg)
    w.build(m)
    snapshot = m.backing.memory_image()
    rec = TraceRecorder(m)
    m.run()
    m.check_quiescent()
    return rec.trace(), snapshot


class TestReplay:
    def test_replay_completes_and_matches_op_counts(self):
        trace, snap = _record()
        cfg = experiment_config(d_distance=0, num_cores=4)
        m = replay_trace(trace, cfg, initial_memory=snap)
        l1 = m.stats.child("l1")
        assert int(l1.total("loads") + l1.total("stores")) == len(trace)

    def test_replay_under_ghostwriter(self):
        """The trace-driven methodology: record on baseline, replay on
        the candidate protocol."""
        trace, snap = _record()
        gw_cfg = experiment_config(d_distance=8, num_cores=4)
        m = replay_trace(trace, gw_cfg, initial_memory=snap)
        l1 = m.stats.child("l1")
        served = l1.total("gs_serviced") + l1.total("gi_serviced")
        assert served > 0  # the false-sharing stores get absorbed

    def test_replay_traffic_reduction(self):
        trace, snap = _record()
        base = replay_trace(
            trace, experiment_config(d_distance=0, num_cores=4),
            initial_memory=snap,
        )
        gw = replay_trace(
            trace, experiment_config(d_distance=8,
                                     num_cores=4),
            initial_memory=snap,
        )
        assert gw.network.stats.messages < base.network.stats.messages

    def test_core_count_validated(self):
        trace, snap = _record(threads=4)
        cfg = experiment_config(d_distance=0, num_cores=2)
        with pytest.raises(ValueError):
            replay_trace(trace, cfg, initial_memory=snap)

    def test_empty_trace_rejected(self):
        from repro.trace.record import Trace
        t = Trace([], [], [], [], [], [])
        with pytest.raises(ValueError):
            replay_trace(t, experiment_config(d_distance=0, num_cores=2))
