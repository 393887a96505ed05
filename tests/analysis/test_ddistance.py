"""Tests for the Fig. 2 store-similarity analysis."""
import numpy as np

from repro.analysis.ddistance import (
    SimilarityProfile, cdf_from_histogram, machine_store_histogram,
)
from repro.common.stats import HistogramStat
from repro.isa.instructions import Load, Store

from tests.conftest import build_machine, run_scripts

BLK = 0x4000


class TestProfile:
    def _hist(self, counts):
        h = HistogramStat()
        for k, n in counts.items():
            h.add(k, n)
        return h

    def test_silent_store_fraction(self):
        prof = SimilarityProfile("x", self._hist({0: 25, 8: 75}))
        assert prof.silent_store_fraction == 0.25

    def test_fraction_within(self):
        prof = SimilarityProfile("x", self._hist({0: 1, 4: 1, 8: 2}))
        assert prof.fraction_within(0) == 0.25
        assert prof.fraction_within(4) == 0.5
        assert prof.fraction_within(8) == 1.0
        assert prof.fraction_within(32) == 1.0

    def test_rows_cover_all_d(self):
        prof = SimilarityProfile("x", self._hist({1: 1}))
        rows = prof.rows()
        assert len(rows) == 33
        assert rows[0] == (0, 0.0)
        assert rows[-1] == (32, 1.0)

    def test_cdf_from_empty_histogram(self):
        cdf = cdf_from_histogram(HistogramStat())
        assert np.all(cdf == 0.0)


class TestMachineHistogram:
    def test_merges_across_cores(self):
        m = build_machine(2, d_distance=0)

        def w(tid):
            def prog():
                yield Load(BLK + 0x1000 * tid)
                yield Store(BLK + 0x1000 * tid, 5)   # vs 0 -> 3
                yield Store(BLK + 0x1000 * tid, 5)   # silent -> 0
            return prog()

        run_scripts(m, w(0), w(1))
        hist = machine_store_histogram(m)
        assert hist.as_dict() == {0: 2, 3: 2}

    def test_histogram_counts_every_store_with_resident_word(self):
        m = build_machine(1, d_distance=0)

        def prog():
            yield Store(BLK, 1)   # tag miss: nothing resident, not counted
            yield Store(BLK, 2)   # vs 1 -> d=2
            yield Store(BLK, 2)   # silent

        run_scripts(m, prog())
        hist = machine_store_histogram(m)
        assert hist.total() == 2
