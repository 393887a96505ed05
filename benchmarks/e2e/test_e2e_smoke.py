"""Smoke test of the end-to-end benchmark.

Runs ``e2e.py --smoke`` (4 threads, scale 0.1, one body plus the
traced pass per workload) and checks its report against
``BENCHMARK.json``: every workload prints every end-to-end and
per-layer metric with its declared unit, and every output check
passes.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import e2e  # noqa: E402
import e2e_compare  # noqa: E402
import e2e_layers  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_code_metrics_and_workloads():
    e2e.check_manifest()


def test_every_structural_entry_point_is_required_on_some_workload():
    # an unreached structural entry point must fail a traced pass, not
    # silently report zero; behavioural ones may legitimately read zero
    required = set().union(*(w.entries for w in e2e.WORKLOADS.values()))
    keys = {key for key, _, _ in e2e_layers.ENTRY_POINTS}
    assert e2e_layers.BEHAVIOURAL <= keys
    assert required == keys - e2e_layers.BEHAVIOURAL


@pytest.mark.parametrize("a, b, better, want", [
    ([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", "worse"),
    ([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "higher", "better"),
    ([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], "lower", "same"),
    # spread wider than the bound: unresolved ...
    ([0.6, 1.0, 1.4], [0.7, 1.3, 1.9], "lower", "unresolved"),
    # ... unless every run of one side beats every run of the other
    ([0.8, 1.0, 1.2], [1.3, 1.5, 1.7], "lower", "worse"),
])
def test_compare_verdicts(a, b, better, want):
    assert e2e_compare.verdict(a, b, 0.1, better)[0] == want


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "e2e.py"), "--smoke",
         "--out-dir", str(out), "--report", str(out / "report.json")],
        capture_output=True, text=True, timeout=300, check=False)
    return proc, out


def test_smoke_run_reports_every_metric_and_passes_its_checks(smoke):
    proc, out = smoke
    checks = [line for line in proc.stdout.splitlines() if "checks:" in line]
    assert proc.returncode == 0, "\n".join(checks) + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    units = {m["name"]: m["unit"]
             for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert len(result["metrics"]) == len(units) * len(e2e.WORKLOADS)
    for workload in e2e.WORKLOADS:
        for name, unit in units.items():
            assert result["metrics"][f"{workload}/{name}"]["unit"] == unit
        trace = json.loads((out / f"trace.{workload}.json").read_text())
        assert trace["sims"] and set(trace["metrics"]) == {
            name for name, _ in e2e_layers.PER_LAYER}


def test_report_compared_with_itself_is_unchanged(smoke):
    _, out = smoke
    report = json.loads((out / "report.json").read_text())
    assert set(report["fingerprint"]) >= {
        "python", "numpy", "platform", "nproc", "cpu", "git_head",
        "git_dirty", "seed", "repeats"}
    lines, worse = e2e_compare.compare(report, report,
                                       BENCHMARK["end_to_end"])
    assert worse == 0
    assert not any("changed" in line or "better" in line for line in lines)
