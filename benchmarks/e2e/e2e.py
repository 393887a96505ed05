#!/usr/bin/env python3
"""End-to-end benchmark of the Ghostwriter simulator.

Every timed body runs in a fresh Python process; a separate traced
pass (``e2e_layers``) gives the per-layer metrics and writes
``<out-dir>/trace.<workload>.json``.  ``BENCHMARK.json`` and
``README.md`` say why each workload exists and define every metric.

Usage::

    python3 benchmarks/e2e/e2e.py                     # all four, both passes
    python3 benchmarks/e2e/e2e.py --workload contended_24t --seed 7 \\
        --seconds 12 --trace 0
    python3 benchmarks/e2e/e2e.py --smoke             # 4 threads, scale 0.1
    python3 benchmarks/e2e/e2e.py --report a.json     # then e2e_compare.py

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits 1 when an output check fails and 2, without that line, when a
child process crashes or ``BENCHMARK.json`` disagrees with the code.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import e2e_layers
from e2e_compare import BENCHMARK, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: (metric, unit) of every end-to-end metric, in report order
END_TO_END: tuple[tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("sim_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("gw_speedup", "x"),
    ("traffic_ratio", "x"),
    ("energy_ratio", "x"),
    ("error_pct", "%"),
)

#: set-up-only processes per run, on top of each body's own set-up
SETUP_SPAWNS = 3
#: wall-clock cap for one workload's run, every child included
RUN_TIMEOUT_S = 170.0


# ---------------------------------------------------------------------
# workloads (built inside the child process; imports count as set-up)
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``build(seed, smoke)`` imports what it needs, builds the point list
    and returns the body: a thunk delivering the workload's result rows.
    ``rows`` is how many rows a body delivers; ``entries`` lists the
    :data:`e2e_layers.ENTRY_POINTS` keys its traced pass must reach,
    none of them in :data:`e2e_layers.BEHAVIOURAL`.
    """

    name: str
    rows: int
    entries: tuple[str, ...]
    build: Callable[[int, bool], Callable[[], list]]


def _figures_all(seed: int, smoke: bool):
    # the CLI builds its SweepCache internally, so the figure-sweep rows
    # it delivers are read by wrapping SweepCache.row
    from repro.harness import cli
    from repro.harness.figures import SweepCache

    argv = ["all", "--seed", str(seed)]
    if smoke:
        argv += ["--threads", "4", "--scale", "0.1"]
    rows: dict = {}
    row = SweepCache.row

    def recording_row(self, app, d):
        out = rows[(app, d)] = row(self, app, d)
        return out

    SweepCache.row = recording_row

    def body() -> list:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ghostwriter-figures exited {code}")
        return [rows[key] for key in sorted(rows)]
    return body


def _contended(seed: int, smoke: bool):
    from repro.harness.experiment import run_workload

    threads, n_points = (4, 2048) if smoke else (24, 32768)
    runs = [(app, d) for app in ("bad_dot_product",
                                 "store_through_dot_product")
            for d in (0, 4, 8)]

    def body() -> list:
        return [run_workload(app, d_distance=d, num_threads=threads,
                             seed=seed, n_points=n_points, max_value=7)
                for app, d in runs]
    return body


def _grid(apps, ds, gis, scale):
    """Factory: a batch-backend grid of one d=0 point plus ds x gis per
    app, the shape of ``sweep_d_distance`` with its d=0 baseline."""
    def build(seed: int, smoke: bool):
        from repro.harness.options import RunOptions
        from repro.harness.parallel import GridPoint, run_grid

        base = dict(num_threads=4 if smoke else 24,
                    scale=0.1 if smoke else scale, seed=seed)
        points = []
        for app in apps:
            points.append(GridPoint(app, dict(base, d_distance=0),
                                    label=f"{app} d=0"))
            points += [GridPoint(app, dict(base, d_distance=d, gi_timeout=gi),
                                 label=f"{app} d={d} gi={gi}")
                       for d in ds for gi in gis]
        options = RunOptions(backend="batch")

        def body() -> list:
            return run_grid(points, options=options)
        return body
    return build


#: entry points every workload reaches: the simulations it runs, the
#: modelled memory system's messages, the energy its rows report and
#: the invariant checks it keeps on
_COMMON = (
    "engine.run", "l1.access", "l1.receive", "l2.probe", "l2.fill",
    "directory.receive", "noc.send", "workloads.prepare",
    "verify.check_quiescent", "verify.check_coherence_invariants",
    "energy.report", "harness.run", "harness.collect",
)

#: the workloads, in report order; BENCHMARK.json says why each exists
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("figures_all", 18,
             _COMMON + ("analysis.machine_store_histogram", "harness.figure"),
             _figures_all),
    Workload("contended_24t", 6, _COMMON, _contended),
    Workload("sweep_shared", 51, _COMMON + ("batch.fan_out",),
             _grid(("histogram", "jpeg", "inversek2j"), range(1, 9),
                   (256, 1024), 0.25)),
    Workload("sweep_divergent", 9, _COMMON + ("batch.fan_out",),
             _grid(("linear_regression",), range(1, 9), (1024,), 0.25)),
)}


def check_manifest() -> None:
    """Raise ``ValueError`` unless ``BENCHMARK.json`` names exactly the
    workloads, metrics and units this benchmark reports, in order."""
    spec = json.loads(BENCHMARK.read_text())
    for key, reported in (("workloads", list(WORKLOADS)),
                          ("end_to_end", list(END_TO_END)),
                          ("per_layer", list(e2e_layers.PER_LAYER))):
        declared = [entry["name"] if key == "workloads"
                    else (entry["name"], entry["unit"])
                    for entry in spec[key]]
        if declared != reported:
            raise ValueError(f"BENCHMARK.json {key} {declared} do not "
                             f"match the benchmark's {reported}")


# ---------------------------------------------------------------------
# child process: set-up, one body, optional traced pass
# ---------------------------------------------------------------------
def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, never from an
    installed copy, so the benchmark measures the code beside it."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")


def _guard_invariants(unchecked: list) -> None:
    """Record every simulation collected with invariant checks off."""
    from repro.workloads.base import Workload as Sim

    collect = Sim.collect

    def checked_collect(self, machine, cfg):
        if not cfg.verify.check_invariants:
            unchecked.append(self.name)
        return collect(self, machine, cfg)

    Sim.collect = checked_collect


def _canonical(value):
    """A repr-stable form of a result row: dataclass fields that take
    part in equality (so ``RunRow.obs`` is excluded), dicts sorted,
    enums by value."""
    import enum

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple((f.name, _canonical(getattr(value, f.name)))
                     for f in dataclasses.fields(value) if f.compare)
    if isinstance(value, dict):
        return tuple(sorted((_canonical(k), _canonical(v))
                            for k, v in value.items()))
    if isinstance(value, enum.Enum):
        return value.value
    return value


def rows_digest(rows: list) -> str:
    """BLAKE2b over the canonical form of every row, in order."""
    text = repr([_canonical(row) for row in rows])
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def modelled(rows: list, expected: int) -> tuple[dict, list[str], int]:
    """(modelled metrics, problems, failed rows) of one body's rows."""
    from repro.harness.experiment import RunRow

    problems: list[str] = []
    good = [r for r in rows if isinstance(r, RunRow)]
    failed = len(rows) - len(good)
    if failed:
        problems.append(f"{failed} simulation(s) failed")
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows delivered, {expected} expected")
        failed += max(0, expected - len(rows))
    for r in good:
        if r.d_distance == 0 and r.error_pct != 0:
            failed += 1
            problems.append(f"{r.workload} d=0 error_pct {r.error_pct}")
    base = {r.workload: r for r in good if r.d_distance == 0}
    approx = [r for r in good if r.d_distance > 0 and r.workload in base]
    if not approx:
        problems.append("no d>0 row with a d=0 baseline")
        return {}, problems, failed or 1
    metrics = {
        "ops": sum(r.loads + r.stores for r in good),
        "sim_cycles": sum(r.cycles for r in good),
        "gw_speedup": _geomean([base[r.workload].cycles / r.cycles
                                for r in approx]),
        "traffic_ratio": _geomean([r.total_traffic
                                   / base[r.workload].total_traffic
                                   for r in approx]),
        "energy_ratio": _geomean([r.energy.total_pj
                                  / base[r.workload].energy.total_pj
                                  for r in approx]),
        "error_pct": statistics.fmean(r.error_pct for r in approx),
    }
    return metrics, problems, failed


def _peak_rss_mb() -> float:
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return rss / (1 << 20) if sys.platform == "darwin" else rss / 1024


def child_main(mode: str, workload: str, seed: int, smoke: bool) -> int:
    """Run in a fresh process: set up, then (unless ``mode`` is
    ``setup``) one body, untraced or traced; prints one JSON line."""
    spec = WORKLOADS[workload]
    _import_repro()
    unchecked: list[str] = []
    _guard_invariants(unchecked)
    body = spec.build(seed, smoke)
    out: dict = {}
    if mode == "traced":
        tracer = e2e_layers.Tracer(workload)
        e2e_layers.install(tracer)
    out["body_start"] = time.monotonic()
    if mode != "setup":
        t0 = time.perf_counter()
        rows = body()
        out["wall_s"] = time.perf_counter() - t0
        metrics, problems, failed = modelled(rows, spec.rows)
        if unchecked:
            problems.append(f"invariant checks off for {len(unchecked)} "
                            "simulation(s)")
            failed += len(unchecked)
        out.update(rss_mb=_peak_rss_mb(), digest=rows_digest(rows),
                   model=metrics, problems=problems, failed=failed)
        if mode == "traced":
            out["trace"] = tracer.export()
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------
# parent: spawn, measure, check, report
# ---------------------------------------------------------------------
class ChildFailed(RuntimeError):
    """A child process crashed or printed no result."""


def _spawn(mode: str, workload: str, seed: int, smoke: bool,
           deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn),
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} child timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} child exited "
                          f"{proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["body_start"] - t_spawn
    return out


@dataclass
class Outcome:
    """Everything one workload's run measured."""

    workload: str
    samples: dict[str, list[float]]
    digest: str
    attempted: int
    failed: int
    problems: list[str]
    layers: dict[str, float] | None = None
    trace_path: str | None = None

    def value(self, metric: str) -> float:
        """Median of a metric's samples."""
        return statistics.median(self.samples[metric])


def measure(name: str, *, seed: int, seconds: float, repeats: int,
                 setups: int, traced: bool, smoke: bool,
                 out_dir: Path) -> Outcome:
    """Measure one workload: set-up-only spawns, then fresh-process
    bodies until ``repeats`` ran and ``seconds`` passed, then (when
    ``traced``) one traced pass."""
    spec = WORKLOADS[name]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_s = [_spawn("setup", name, seed, smoke, deadline)["setup_s"]
               for _ in range(setups)]
    bodies: list[dict] = []
    start = time.monotonic()
    while len(bodies) < repeats or time.monotonic() - start < seconds:
        bodies.append(_spawn("body", name, seed, smoke, deadline))
    trace = (_spawn("traced", name, seed, smoke, deadline) if traced
             else None)

    checked = bodies + ([trace] if trace else [])
    attempted = spec.rows * len(checked)
    failed = sum(b["failed"] for b in checked)
    problems = [p for b in checked for p in b["problems"]]
    digest = bodies[0]["digest"]
    for b in checked[1:]:
        if b["digest"] != digest:
            failed += spec.rows
            problems.append(f"rows digest {b['digest']} != {digest}")
    model = bodies[0]["model"]
    wall = [b["wall_s"] for b in bodies]
    samples = {
        "wall_s": wall,
        "sim_ops_per_s": [model.get("ops", 0) / w for w in wall],
        "setup_s": setup_s + [b["setup_s"] for b in bodies],
        "peak_rss_mb": [b["rss_mb"] for b in bodies],
    }
    for metric, _ in END_TO_END:
        if metric not in samples:
            samples[metric] = [b["model"].get(metric, 0.0) for b in bodies]
    outcome = Outcome(name, samples, digest, attempted, failed, problems)
    if trace is not None:
        entries = trace["trace"]["entries"]
        missing = [key for key in spec.entries if not entries[key]["calls"]]
        outcome.attempted += len(spec.entries)
        outcome.failed += len(missing)
        if missing:
            problems.append(f"entry points never called: {missing}")
        outcome.layers = e2e_layers.layer_metrics(
            trace["trace"], trace["wall_s"], outcome.value("wall_s"))
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace.{name}.json"
        path.write_text(json.dumps({
            "workload": name, "seed": seed, "body_s": trace["wall_s"],
            "untraced_s": outcome.value("wall_s"),
            "metrics": outcome.layers, **trace["trace"],
        }, indent=1) + "\n")
        outcome.trace_path = str(path)
    return outcome


def _render(outcome: Outcome, show_e2e: bool) -> str:
    lines = [f"== {outcome.workload}: {len(outcome.samples['wall_s'])} "
             f"bodies, digest {outcome.digest} =="]
    if show_e2e:
        for metric, unit in END_TO_END:
            q1, med, q3 = quartiles(outcome.samples[metric])
            n = len(outcome.samples[metric])
            lines.append(f"  {metric:<16} {med:>16.6g} {unit:<7} "
                         f"IQR {q3 - q1:.4g} (n={n})")
    if outcome.layers is not None:
        lines.append(f"  per-layer (traced pass, {outcome.trace_path}):")
        for metric, unit in e2e_layers.PER_LAYER:
            lines.append(f"  {metric:<22} {outcome.layers[metric]:>14.6g} "
                         f"{unit}")
    status = "ok" if not outcome.failed else "; ".join(outcome.problems)
    lines.append(f"  checks: {outcome.attempted - outcome.failed}/"
                 f"{outcome.attempted} passed ({status})")
    return "\n".join(lines)


def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint(seed: int, repeats: int, seconds: float) -> dict:
    """Machine and interpreter fingerprint stored with a report."""
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "cpu": cpu,
        "git_head": head,
        "git_dirty": None if status == "unknown" else bool(status),
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
    }


def _result_line(outcomes: list[Outcome], show_e2e: bool,
                 show_layers: bool) -> dict:
    metrics = {}
    for o in outcomes:
        prefix = "" if len(outcomes) == 1 else f"{o.workload}/"
        if show_e2e:
            for metric, unit in END_TO_END:
                metrics[prefix + metric] = {"value": o.value(metric),
                                            "unit": unit}
        if show_layers:
            for metric, unit in e2e_layers.PER_LAYER:
                metrics[prefix + metric] = {"value": o.layers[metric],
                                            "unit": unit}
    failed = sum(o.failed for o in outcomes)
    return {"correct": failed == 0,
            "attempted": sum(o.attempted for o in outcomes),
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="e2e", description="End-to-end benchmark of the simulator.")
    p.add_argument("--workload", default="all",
                   choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=12345,
                   help="workload seed: generates the apps' inputs")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep starting timed bodies until this long has "
                        "passed (default 0: just --repeats)")
    p.add_argument("--repeats", type=int, default=3,
                   help="minimum fresh-process timed bodies per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: untraced bodies, end-to-end metrics only; 1: "
                        "plus the traced pass, per-layer metrics only "
                        "(default: both)")
    p.add_argument("--smoke", action="store_true",
                   help="4 threads, scale 0.1, one body, plus the traced "
                        "pass")
    p.add_argument("--out-dir", default=".e2e", type=Path,
                   help="where trace.<workload>.json files go")
    p.add_argument("--report", type=Path, default=None,
                   help="also write a JSON report for e2e_compare.py")
    p.add_argument("--child", choices=("setup", "body", "traced"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        return child_main(args.child, args.workload, args.seed, args.smoke)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    try:
        check_manifest()
    except (OSError, KeyError, ValueError) as exc:
        print(f"e2e: BENCHMARK.json: {exc!r}", file=sys.stderr)
        return 2

    show_e2e = args.trace != 1
    traced = args.trace != 0
    repeats, setups, seconds = args.repeats, SETUP_SPAWNS, args.seconds
    if args.smoke:
        repeats, setups, seconds = 1, 1, 0.0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    try:
        for name in names:
            outcome = measure(
                name, seed=args.seed, seconds=seconds, repeats=repeats,
                setups=setups, traced=traced, smoke=args.smoke,
                out_dir=args.out_dir)
            print(_render(outcome, show_e2e), flush=True)
            outcomes.append(outcome)
    except ChildFailed as exc:
        print(f"e2e: {exc}", file=sys.stderr)
        return 2
    if args.report is not None:
        report = {
            "fingerprint": fingerprint(args.seed, repeats, seconds),
            "smoke": args.smoke,
            "workloads": {o.workload: {
                "digest": o.digest, "attempted": o.attempted,
                "failed": o.failed, "problems": o.problems,
                "samples": o.samples, "layers": o.layers,
            } for o in outcomes},
        }
        args.report.write_text(json.dumps(report, indent=1) + "\n")
    result = _result_line(outcomes, show_e2e, traced)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
