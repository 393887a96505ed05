"""ObsCapture harvesting, the export bundle, and --jobs bit-identity."""
import json

from repro.harness.experiment import run_workload
from repro.harness.export import export_captures, export_records
from repro.harness.options import RunOptions
from repro.obs.capture import ObsCapture
from repro.obs.timeline import load_merged

_TRACED = RunOptions(check_invariants=False, trace_events=True,
                     timeline_interval=1000)


def _traced_row(**over):
    kwargs = dict(d_distance=4, num_threads=2, scale=0.05, options=_TRACED)
    kwargs.update(over)
    return run_workload("histogram", **kwargs)


class TestObsCapture:
    def test_untraced_machine_yields_none(self):
        row = run_workload("histogram", d_distance=4, num_threads=2,
                           scale=0.05,
                           options=RunOptions(check_invariants=False))
        assert row.obs is None

    def test_traced_row_carries_events_and_timeline(self):
        row = _traced_row()
        assert isinstance(row.obs, ObsCapture)
        assert len(row.obs.events) > 0
        assert row.obs.timeline is not None
        assert all(isinstance(e, dict) for e in row.obs.events)

    def test_obs_excluded_from_row_equality(self):
        traced = _traced_row()
        plain = _traced_row(options=RunOptions(check_invariants=False))
        assert plain.obs is None
        assert traced == plain       # simulated results identical


class TestExportRecords:
    def test_writes_csv_and_json(self, tmp_path):
        recs = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        paths = export_records(recs, "t", tmp_path)
        assert [p.name for p in paths] == ["t.csv", "t.json"]
        assert json.loads((tmp_path / "t.json").read_text()) == recs
        assert (tmp_path / "t.csv").read_text().splitlines() == [
            "a,b", "1,2", "3,4"]


class TestExportCaptures:
    def test_bundle_contents(self, tmp_path):
        row = _traced_row()
        paths = export_captures([("hist.d4", row.obs)], tmp_path)
        assert [p.name for p in paths] == ["events.jsonl", "timeline.npz",
                                          "report.txt"]
        first = json.loads(
            (tmp_path / "events.jsonl").read_text().splitlines()[0])
        assert first["run"] == "hist.d4"
        assert {"cycle", "kind", "node", "addr", "what"} <= set(first)
        merged = load_merged(tmp_path / "timeline.npz")
        assert list(merged) == ["hist.d4"]
        assert merged["hist.d4"] == row.obs.timeline
        report = (tmp_path / "report.txt").read_text()
        assert report.startswith("=== hist.d4 ===")
        assert "per-phase breakdown" in report

    def test_jobs_bundle_bit_identical_to_serial(self, tmp_path):
        from repro.harness.parallel import GridPoint, run_grid

        points = [
            GridPoint("histogram",
                      dict(d_distance=d, num_threads=2, scale=0.05,
                           options=_TRACED),
                      label=f"d{d}")
            for d in (0, 4)
        ]
        serial = run_grid(points)
        fanned = run_grid(points, options=RunOptions(jobs=2))
        for out, rows in ((tmp_path / "s", serial), (tmp_path / "p", fanned)):
            export_captures(
                [(f"hist.d{r.d_distance}", r.obs) for r in rows], out)
        for name in ("events.jsonl", "timeline.npz", "report.txt"):
            assert ((tmp_path / "s" / name).read_bytes()
                    == (tmp_path / "p" / name).read_bytes()), name
