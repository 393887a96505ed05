"""Timeline container, live sampler, and npz round-trips."""
import numpy as np
import pytest

from repro.harness.options import RunOptions
from repro.obs.timeline import (
    MetricsTimeline, Timeline, load_merged, save_merged,
)

from tests.conftest import Compute, Store, build_machine, run_scripts

BLK = 0x4000


def _tl(**cols):
    return Timeline({k: np.asarray(v) for k, v in cols.items()})


class TestTimeline:
    def test_validation(self):
        with pytest.raises(ValueError):
            Timeline({})
        with pytest.raises(ValueError):
            _tl(a=[1, 2], b=[1])

    def test_len_column_records(self):
        t = _tl(cycle=[0, 10], loads=[1, 5])
        assert len(t) == 2
        assert t.column("loads").tolist() == [1, 5]
        assert t.records() == [{"cycle": 0, "loads": 1},
                               {"cycle": 10, "loads": 5}]

    def test_equality_is_by_value(self):
        assert _tl(a=[1, 2]) == _tl(a=[1, 2])
        assert _tl(a=[1, 2]) != _tl(a=[1, 3])
        assert _tl(a=[1, 2]) != _tl(b=[1, 2])

    def test_npz_roundtrip(self, tmp_path):
        t = _tl(cycle=[0, 4096, 8192], stores=[3, 9, 11])
        path = tmp_path / "timeline.npz"
        t.save(path)
        assert Timeline.load(path) == t


class TestMergedFiles:
    def test_roundtrip_many_labels(self, tmp_path):
        a = _tl(cycle=[0, 1], loads=[1, 2])
        b = _tl(cycle=[0, 1, 2], loads=[0, 0, 7])
        path = tmp_path / "merged.npz"
        save_merged([("hist.d4", a), ("hist.d8", b)], path)
        back = load_merged(path)
        assert back == {"hist.d4": a, "hist.d8": b}

    def test_label_validation(self, tmp_path):
        t = _tl(a=[1])
        with pytest.raises(ValueError):
            save_merged([("bad/label", t)], tmp_path / "x.npz")
        with pytest.raises(ValueError):
            save_merged([("dup", t), ("dup", t)], tmp_path / "x.npz")
        with pytest.raises(ValueError):
            save_merged([], tmp_path / "x.npz")

    def test_merged_file_is_order_deterministic(self, tmp_path):
        # same content in the same order -> byte-identical file; this is
        # what makes the CLI's --jobs N trace bundle reproducible
        a = _tl(cycle=[0, 1], loads=[1, 2])
        b = _tl(cycle=[0, 1], loads=[3, 4])
        p1, p2 = tmp_path / "1.npz", tmp_path / "2.npz"
        save_merged([("x", a), ("y", b)], p1)
        save_merged([("x", a), ("y", b)], p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestMetricsTimeline:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            MetricsTimeline(build_machine(1), 0)

    def test_samples_are_cumulative_and_end_anchored(self):
        m = build_machine(1)
        sampler = MetricsTimeline(m, interval=50)

        def prog():
            yield Store(BLK, 1)
            yield Compute(300)
            yield Store(BLK + 64, 2)

        end = run_scripts(m, prog())
        sampler.finish()
        t = sampler.result()
        assert len(t) >= 2
        cycles = t.column("cycle")
        assert cycles[-1] == m.engine.now
        assert end <= m.engine.now
        stores = t.column("stores")
        assert stores[0] <= stores[-1] == 2
        assert np.all(np.diff(cycles) > 0)

    def test_short_run_still_produces_a_row(self):
        m = build_machine(1)
        sampler = MetricsTimeline(m, interval=10_000)

        def prog():
            yield Store(BLK, 1)

        run_scripts(m, prog())
        sampler.finish()
        assert len(sampler.result()) >= 1

    def test_run_workload_timeline_has_expected_columns(self):
        from repro.harness.experiment import run_workload

        row = run_workload(
            "histogram", d_distance=4, num_threads=2, scale=0.05,
            options=RunOptions(check_invariants=False,
                               timeline_interval=1000),
        )
        t = row.obs.timeline
        assert t is not None and len(t) >= 2
        for col in ("cycle", "loads", "stores", "gs_resident",
                    "gi_resident", "flits"):
            assert col in t.columns
