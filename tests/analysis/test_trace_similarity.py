"""Tests for the offline trace-similarity analysis."""
import numpy as np
from hypothesis import given, strategies as st

from repro.analysis.trace_similarity import store_distances, trace_similarity_cdf
from repro.scribe.similarity import d_distance
from repro.trace.record import Trace


def _trace(writes):
    """writes: list of (cycle, addr, value); all stores, one core."""
    n = len(writes)
    return Trace(
        [w[0] for w in writes], [0] * n, [1] * n,
        [w[1] for w in writes], [w[2] for w in writes], [True] * n,
    )


class TestStoreDistances:
    def test_empty(self):
        t = Trace([], [], [], [], [], [])
        assert store_distances(t).size == 0

    def test_first_write_vs_zero(self):
        t = _trace([(0, 0x40, 7)])
        assert store_distances(t).tolist() == [3]  # 7 vs 0

    def test_sequence_same_word(self):
        t = _trace([(0, 0x40, 4), (1, 0x40, 4), (2, 0x40, 5)])
        # 4 vs 0 -> 3; 4 vs 4 -> 0 (silent); 5 vs 4 -> 1
        assert store_distances(t).tolist() == [3, 0, 1]

    def test_interleaved_addresses(self):
        t = _trace([(0, 0x40, 1), (1, 0x44, 8), (2, 0x40, 1), (3, 0x44, 9)])
        assert store_distances(t).tolist() == [1, 4, 0, 1]

    def test_loads_excluded(self):
        t = Trace([0, 1], [0, 0], [0, 1], [0x40, 0x40], [0, 5],
                  [True, True])
        assert store_distances(t).tolist() == [3]  # only the store

    @given(st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 0xFFFFFFFF)),
        min_size=1, max_size=60,
    ))
    def test_matches_bruteforce(self, ops):
        """The vectorized computation equals a plain Python loop."""
        writes = [(i, 0x40 + 4 * a, v) for i, (a, v) in enumerate(ops)]
        t = _trace(writes)
        got = store_distances(t).tolist()
        last: dict[int, int] = {}
        expected = []
        for _c, addr, value in writes:
            expected.append(d_distance(value & 0xFFFFFFFF,
                                       last.get(addr, 0)))
            last[addr] = value & 0xFFFFFFFF
        assert got == expected


class TestCdf:
    def test_cdf_shape(self):
        t = _trace([(i, 0x40, i % 4) for i in range(20)])
        cdf = trace_similarity_cdf(t)
        assert cdf.shape == (33,)
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0)

    def test_on_recorded_run(self):
        from repro.sim.machine import Machine
        from repro.harness.experiment import experiment_config
        from repro.trace.record import TraceRecorder
        from repro.workloads.registry import create

        cfg = experiment_config(d_distance=0, num_cores=4)
        w = create("linear_regression", num_threads=4, scale=0.1)
        m = Machine(cfg)
        w.build(m)
        rec = TraceRecorder(m)
        m.run()
        cdf = trace_similarity_cdf(rec.trace())
        # accumulator writes are low-bit similar offline too
        assert cdf[12] > 0.5
