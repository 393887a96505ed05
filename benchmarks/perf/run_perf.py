#!/usr/bin/env python
"""Hot-path microbenchmark suite -> ``BENCH_perf.json``.

Times the simulator paths the parallel-sweep PR optimized — same-cycle
event dispatch, scribe similarity checks, L1 stats recording, the
vectorized d-distance kernels, and one end-to-end workload run — plus
the observability layer's costs (raw EventBus fan-out and a fully
traced workload run, against the untraced run for the overhead ratio)
and a protocol dimension (a pure L1 hit loop under the precise MESI
policy vs the full Ghostwriter policy — the policy-indirection
measurement — plus end-to-end runs of two registry variants) and the
compiled-program layer (``core_step_loop``: the columnar interpreter's
fetch/dispatch loop) and the sweep backends (``sweep_wall_clock`` vs
``sweep_wall_clock_batch``: the same dense d-distance x GI-timeout
grid through the serial interpreter and the lockstep batch engine of
``repro.sim.batch`` — both produce bit-identical rows, so their ops/s
ratio is the batch speedup) — and emits a machine-readable
``BENCH_perf.json`` so the performance trajectory is tracked from this
PR on.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py
    PYTHONPATH=src python benchmarks/perf/run_perf.py --check-only

``--check-only`` runs every benchmark at a tiny op count and validates
the emitted JSON against the schema — no timing thresholds — which is
what CI's perf-smoke job executes.  Numbers from ``--check-only`` runs
are *not* comparable to full runs.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Callable

# allow `python benchmarks/perf/run_perf.py` without an explicit PYTHONPATH
_SRC = Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.common.stats import StatGroup
from repro.scribe.scribe_unit import ScribeUnit
from repro.scribe.similarity import d_distance, is_similar
from repro.sim.engine import Engine

SCHEMA_VERSION = 1
DEFAULT_OUT = "BENCH_perf.json"
_SEED = 20210814  # the paper's publication date; fixed for repeatability


def _word_pairs(n: int) -> list[tuple[int, int]]:
    rng = random.Random(_SEED)
    return [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(n)]


# ---------------------------------------------------------------------
# benchmark bodies: each returns (thunk, ops); the harness times thunk
# ---------------------------------------------------------------------
def bench_engine_spread_dispatch(n: int):
    """Event dispatch with every event on its own cycle (heap-bound)."""
    def thunk() -> None:
        e = Engine()
        cb = (lambda: None)
        for i in range(n):
            e.schedule(i, cb)
        e.run()
    return thunk, n


def bench_engine_same_cycle_dispatch(n: int):
    """Event dispatch with heavy same-cycle batching (the common shape:
    every core and NoC hop schedules work for 'now + small delta')."""
    cycles = max(1, n // 64)

    def thunk() -> None:
        e = Engine()
        cb = (lambda: None)
        for i in range(n):
            e.schedule(i % cycles, cb)
        e.run()
    return thunk, n


def bench_similarity_scalar(n: int):
    """Scalar ``is_similar`` (the memoized-mask comparator path)."""
    pairs = _word_pairs(n)

    def thunk() -> None:
        for a, b in pairs:
            is_similar(a, b, 4)
            is_similar(a, b, 8)
    return thunk, 2 * n


def bench_d_distance_scalar(n: int):
    """Scalar ``d_distance`` (the Fig. 2 observe path's kernel)."""
    pairs = _word_pairs(n)

    def thunk() -> None:
        for a, b in pairs:
            d_distance(a, b)
    return thunk, n


def bench_scribe_check_observe(n: int):
    """A programmed ScribeUnit's per-store ``observe`` + ``check``."""
    pairs = _word_pairs(n)

    def thunk() -> None:
        unit = ScribeUnit(d_distance=8, enabled=True, stats=StatGroup("s"))
        unit.program(8)
        for a, b in pairs:
            unit.observe(a, b)
            unit.check(a, b)
    return thunk, 2 * n


def bench_stats_hot_counters(n: int):
    """The counter-dict stats recording the L1 access path uses."""
    def thunk() -> None:
        g = StatGroup("l1")
        c = g.counters("loads", "stores")
        for _ in range(n):
            c["loads"] += 1
            c["stores"] += 1
    return thunk, 2 * n


def bench_ddistance_array(n: int):
    """Vectorized d-distance + mask-similarity over uint32 arrays."""
    from repro.analysis.ddistance import within_distance_array
    from repro.scribe.similarity import d_distance_array

    rng = np.random.default_rng(_SEED)
    a = rng.integers(0, 2**32, size=n, dtype=np.uint32)
    b = rng.integers(0, 2**32, size=n, dtype=np.uint32)

    def thunk() -> None:
        d_distance_array(a, b)
        within_distance_array(a, b, 8)
    return thunk, 2 * n


def bench_workload_false_sharing(n: int):
    """End-to-end simulator throughput on the Listing-1 microbenchmark
    (ops = simulated cycles, so ops/s is simulated cycles per second)."""
    from repro.harness.experiment import run_workload

    ops_box = [1]

    def thunk() -> None:
        row = run_workload("bad_dot_product", d_distance=4, num_threads=4,
                           seed=12345, n_points=n, max_value=7)
        ops_box[0] = row.cycles
    thunk()  # warm once so the reported op count is the real cycle count
    return thunk, ops_box[0]


def bench_core_step_loop(n: int):
    """The compiled interpreter's fetch/dispatch loop: one core running a
    pre-lowered all-load program cycling 16 words of a single resident
    block (first load fills it, the rest are pure L1 hits).  Each hit is
    one scheduler step, as on every machine the experiments build."""
    from repro.common.config import small_config
    from repro.isa.compiled import CompiledProgram
    from repro.sim.machine import Machine

    addrs = [0x1000 + (i % 16) * 4 for i in range(n)]
    prog = CompiledProgram(
        np.zeros(n, dtype=np.int8),           # OP_LOAD
        np.asarray(addrs, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        validate_loads=False,
    )
    cfg = small_config(num_cores=1)

    def thunk() -> None:
        m = Machine(cfg)
        m.add_thread(0, prog)
        m.run()
    return thunk, n


def bench_core_hit_run(n: int):
    """The vectorized hit-run fast lane (repro.core.hitrun) on a mixed
    load/store/scribble stream inside an approximate region: one core
    cycling 4 resident blocks, so after the cold fills every op is a
    guaranteed L1 hit and the lane merges whole quanta as numpy
    kernels — the store/scribble kernel paths core_step_loop's all-load
    stream never reaches."""
    from repro.common.config import small_config
    from repro.isa.compiled import (
        CompiledProgram, OP_LOAD, OP_SCRIBBLE, OP_SETAPRX, OP_STORE,
    )
    from repro.sim.machine import Machine

    ops = [OP_SETAPRX]
    addrs = [0]
    vals = [0]
    cycs = [6]
    pattern = (OP_LOAD, OP_STORE, OP_LOAD, OP_SCRIBBLE)
    for i in range(n):
        code = pattern[i % 4]
        ops.append(code)
        addrs.append(0x1000 + (i % 4) * 64 + ((i * 7) % 16) * 4)
        vals.append(0 if code == OP_LOAD else (i * 3) & 0x3F)
        cycs.append(0)
    prog = CompiledProgram(
        np.asarray(ops, dtype=np.int8),
        np.asarray(addrs, dtype=np.int64),
        np.asarray(vals, dtype=np.int64),
        np.asarray(cycs, dtype=np.int64),
        validate_loads=False,
    )
    cfg = small_config(num_cores=1, d_distance=6)

    def thunk() -> None:
        m = Machine(cfg)
        m.add_thread(0, prog)
        m.run()
    return thunk, n


def _sweep_grid_points(n: int):
    """The dense d-distance x GI-timeout sweep grid both sweep benches
    run: ``n`` d values crossed with two GI timeouts on the histogram
    workload (2n points sharing one compiled op stream)."""
    from repro.harness.parallel import GridPoint

    return [
        GridPoint("histogram", (("d_distance", d), ("gi_timeout", gi),
                                ("num_threads", 4), ("scale", 0.1),
                                ("seed", 12345)))
        for d in range(1, n + 1) for gi in (256, 1024)
    ]


def _bench_sweep_grid(backend: str):
    """Factory of factories: the dense sweep grid under an execution
    backend.  Both backends produce bit-identical rows (enforced by
    tests/sim/test_batch_equivalence.py), so ops (total simulated
    cycles) are equal and the ops/s ratio is the wall-clock speedup."""
    def factory(n: int):
        from repro.harness.options import RunOptions
        from repro.harness.parallel import run_grid

        points = _sweep_grid_points(n)
        opts = RunOptions(backend=backend)
        ops_box = [1]

        def thunk() -> None:
            rows = run_grid(points, options=opts)
            ops_box[0] = sum(row.cycles for row in rows)
        thunk()  # warm once so the reported op count is the real cycle count
        return thunk, ops_box[0]
    return factory


#: serial baseline over the dense grid — one full interpreter run per
#: sweep point (the program cache amortizes op-stream recording only)
bench_sweep_wall_clock = _bench_sweep_grid("serial")

#: the same grid through the lockstep batch backend (repro.sim.batch):
#: one representative run per decision-equivalence class, every other
#: lane served from it
bench_sweep_wall_clock_batch = _bench_sweep_grid("batch")


def _hit_loop_l1(protocol: str):
    """A live machine whose L1 0 holds one block in M, ready for a pure
    hit loop (the warm store miss is drained before timing starts)."""
    from dataclasses import replace

    from repro.common.config import small_config
    from repro.common.types import AccessType
    from repro.sim.machine import Machine

    from repro.coherence.policy import get_protocol

    cfg = replace(
        small_config(num_cores=2,
                     d_distance=4 if get_protocol(protocol).approx else 0),
        protocol=protocol,
    )
    m = Machine(cfg)
    l1 = m.l1s[0]
    hit, _ = l1.access(AccessType.STORE, 0x8000, 1, lambda _v: None)
    if not hit:
        m.engine.run()
    return l1


def bench_l1_hit_path(protocol: str):
    """Factory of factories: the L1 load-hit hot path under ``protocol``.

    The loop is pure hits on a resident M line, so the two variants
    execute the same work except for policy-derived branches — the
    ``l1_hit_path_mesi`` / ``l1_hit_path_ghostwriter`` pair is the
    policy-indirection overhead measurement (the smoke test pins the
    ratio under 5%).
    """
    def factory(n: int):
        from repro.common.types import AccessType

        l1 = _hit_loop_l1(protocol)

        def thunk() -> None:
            acc = l1.access
            load = AccessType.LOAD
            nop = (lambda _v: None)
            for _ in range(n):
                acc(load, 0x8000, None, nop)
        return thunk, n
    return factory


def bench_workload_protocol(protocol: str, d_distance: int):
    """Factory of factories: the false-sharing workload under an
    arbitrary registered protocol (the perf suite's protocol dimension);
    ops = simulated cycles."""
    def factory(n: int):
        from repro.harness.experiment import run_workload
        from repro.harness.options import RunOptions

        ops_box = [1]
        options = RunOptions(protocol=protocol)

        def thunk() -> None:
            row = run_workload("bad_dot_product", options=options,
                               d_distance=d_distance, num_threads=4,
                               seed=12345, n_points=n, max_value=7)
            ops_box[0] = row.cycles
        thunk()  # warm once so the reported op count is the real cycle count
        return thunk, ops_box[0]
    return factory


def bench_noc_route_chiplet(n: int):
    """The chiplet topology's route/latency arithmetic — the hot NoC
    query path (`hops`, `route`, `path_latency`) over every (src, dst)
    pair of the 64-core 4x(4x4) machine, repeated to ``n`` lookups."""
    from repro.common.config import noc_for_topology

    cfg = noc_for_topology("chiplet", 64)
    topo = cfg.topo
    pairs = [(s, d) for s in range(cfg.num_nodes)
             for d in range(cfg.num_nodes)]
    rounds = max(1, n // len(pairs))

    def thunk() -> None:
        hops, route, lat = topo.hops, topo.route, topo.path_latency
        for _ in range(rounds):
            for s, d in pairs:
                hops(s, d)
                route(s, d)
                lat(s, d)
    return thunk, 3 * rounds * len(pairs)


def bench_checkpoint_roundtrip(n: int):
    """Factory: one whole-machine capture -> restore round trip
    (``repro.sim.state.MachineCheckpoint``) on a warmed 2-core machine —
    the unit of work a checkpoint recorder pays per window (error replay,
    the ``python -m repro.sim.state`` CLI)."""
    from repro.common.config import small_config
    from repro.isa.compiled import ProgramCache, ProgramSpec
    from repro.isa.instructions import Compute, Load, SetAprx, Store
    from repro.sim.machine import Machine
    from repro.sim.state import CheckpointRecorder, MachineCheckpoint

    cfg = small_config(num_cores=2)
    cache = ProgramCache()

    def factory_for(cid: int):
        def prog():
            yield SetAprx(4)
            for i in range(32):
                yield Store(0x8000 + 4 * (4 + cid), (cid << 10) | i)
                yield Load(0x8000 + 4 * (4 + (cid ^ 1)))
                yield Compute(20)
        return prog

    def build(record: bool = False) -> Machine:
        m = Machine(cfg)
        if record:
            # only a checkpointing machine records its programs, and only
            # a recorded core can be captured; this recorder never fires
            m.checkpoint_recorder = CheckpointRecorder(1 << 62)
        for cid in range(2):
            m.add_thread(cid, ProgramSpec(factory_for(cid),
                                          key=("bench_ckpt", cid),
                                          cache=cache))
        return m

    src = build(record=True)
    src.run()  # a finished machine is trivially at a safe point
    dst = build()

    def thunk() -> None:
        for _ in range(n):
            MachineCheckpoint.capture(src).restore_into(dst)
    return thunk, n


def bench_event_bus_emit(n: int):
    """Raw EventBus fan-out with one subscriber (the tracing fast path)."""
    from repro.obs.events import Event, EventBus, EventKind

    def thunk() -> None:
        bus = EventBus()
        sink = []
        bus.subscribe(sink.append)
        for i in range(n):
            bus.emit(Event(i, EventKind.ACCESS, 0, 64 * i, "load", "hit"))
    return thunk, n


def bench_workload_obs_tracing(n: int):
    """The false-sharing workload with full tracing on (events +
    timeline), against ``workload_false_sharing`` for the overhead
    ratio; ops = simulated cycles."""
    from repro.harness.experiment import run_workload
    from repro.harness.options import RunOptions

    opts = RunOptions(trace_events=True, timeline_interval=1024)
    ops_box = [1]

    def thunk() -> None:
        row = run_workload("bad_dot_product", d_distance=4, num_threads=4,
                           seed=12345, n_points=n, max_value=7,
                           options=opts)
        ops_box[0] = row.cycles
    thunk()  # warm once so the reported op count is the real cycle count
    return thunk, ops_box[0]


#: (name, factory, full-size n, check-only n)
BENCHMARKS: list[tuple[str, Callable, int, int]] = [
    ("engine_spread_dispatch", bench_engine_spread_dispatch, 100_000, 500),
    ("engine_same_cycle_dispatch", bench_engine_same_cycle_dispatch,
     100_000, 500),
    ("similarity_scalar", bench_similarity_scalar, 100_000, 500),
    ("d_distance_scalar", bench_d_distance_scalar, 100_000, 500),
    ("scribe_check_observe", bench_scribe_check_observe, 100_000, 500),
    ("stats_hot_counters", bench_stats_hot_counters, 100_000, 500),
    ("ddistance_array", bench_ddistance_array, 1_000_000, 1_000),
    ("workload_false_sharing", bench_workload_false_sharing, 1024, 96),
    ("core_step_loop", bench_core_step_loop, 50_000, 500),
    ("core_hit_run", bench_core_hit_run, 50_000, 500),
    ("sweep_wall_clock", bench_sweep_wall_clock, 32, 4),
    ("sweep_wall_clock_batch", bench_sweep_wall_clock_batch, 32, 4),
    ("noc_route_chiplet", bench_noc_route_chiplet, 40_000, 4_096),
    ("checkpoint_roundtrip", bench_checkpoint_roundtrip, 200, 4),
    ("event_bus_emit", bench_event_bus_emit, 200_000, 500),
    ("workload_obs_tracing", bench_workload_obs_tracing, 1024, 96),
    # protocol dimension: the policy-indirection pair (pure L1 hit loop,
    # precise MESI vs full Ghostwriter policy) and end-to-end runs of the
    # registry's precise baseline and one non-paper variant
    ("l1_hit_path_mesi", bench_l1_hit_path("mesi"), 50_000, 500),
    ("l1_hit_path_ghostwriter", bench_l1_hit_path("ghostwriter"),
     50_000, 500),
    ("workload_protocol_mesi", bench_workload_protocol("mesi", 0),
     1024, 96),
    ("workload_protocol_update_hybrid",
     bench_workload_protocol("update-hybrid", 4), 1024, 96),
]


def run_suite(*, check_only: bool = False, repeats: int = 3) -> dict:
    """Execute every benchmark; returns the report dict (not yet written)."""
    rows = []
    for name, factory, n_full, n_check in BENCHMARKS:
        n = n_check if check_only else n_full
        thunk, ops = factory(n)
        times = []
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - t0)
        best = min(times)
        rows.append({
            "name": name,
            "ops": int(ops),
            "repeats": len(times),
            "best_seconds": best,
            "mean_seconds": sum(times) / len(times),
            "ops_per_second": (ops / best) if best > 0 else 0.0,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "check" if check_only else "full",
        "python": sys.version.split()[0],
        "benchmarks": rows,
    }


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless ``report`` matches the BENCH_perf.json
    schema (used by ``--check-only``, the smoke test, and CI)."""
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}")
    if report.get("mode") not in ("full", "check"):
        raise ValueError("mode must be 'full' or 'check'")
    if not isinstance(report.get("python"), str):
        raise ValueError("python must be a version string")
    rows = report.get("benchmarks")
    if not isinstance(rows, list) or not rows:
        raise ValueError("benchmarks must be a non-empty list")
    names = set()
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError("each benchmark entry must be an object")
        name = row.get("name")
        if not isinstance(name, str) or not name or name in names:
            raise ValueError(f"bad or duplicate benchmark name: {name!r}")
        names.add(name)
        if not (isinstance(row.get("ops"), int) and row["ops"] > 0):
            raise ValueError(f"{name}: ops must be a positive int")
        if not (isinstance(row.get("repeats"), int) and row["repeats"] > 0):
            raise ValueError(f"{name}: repeats must be a positive int")
        for key in ("best_seconds", "mean_seconds", "ops_per_second"):
            val = row.get(key)
            if not isinstance(val, (int, float)) or val < 0:
                raise ValueError(f"{name}: {key} must be a number >= 0")
    expected = {name for name, *_ in BENCHMARKS}
    if names != expected:
        raise ValueError(
            f"benchmark set mismatch: missing {sorted(expected - names)}, "
            f"unexpected {sorted(names - expected)}"
        )


def _render(report: dict) -> str:
    header = f"{'benchmark':<32} {'ops':>9} {'best (s)':>10} {'ops/s':>12}"
    lines = [header, "-" * len(header)]
    for row in report["benchmarks"]:
        lines.append(
            f"{row['name']:<32} {row['ops']:>9} "
            f"{row['best_seconds']:>10.4f} {row['ops_per_second']:>12.0f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="run_perf",
        description="Hot-path microbenchmarks; emits BENCH_perf.json.",
    )
    p.add_argument("--out", default=DEFAULT_OUT, metavar="PATH",
                   help=f"output JSON path (default {DEFAULT_OUT})")
    p.add_argument("--check-only", action="store_true",
                   help="tiny op counts + schema validation only "
                        "(no meaningful timings); what CI runs")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repetitions per benchmark (best is kept)")
    args = p.parse_args(argv)

    report = run_suite(check_only=args.check_only,
                       repeats=1 if args.check_only else args.repeats)
    validate_report(report)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(_render(report))
    print(f"[{report['mode']} mode; wrote {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
