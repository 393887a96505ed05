"""Outside-in layer spans for the end-to-end benchmark.

:func:`install` monkeypatches the public entry points of each ``repro``
layer (the :data:`ENTRY_POINTS` table) with thin wrappers that push a
span on a :class:`Tracer`'s stack.  Nothing under ``src/`` knows it is
being traced: the wrappers sit *around* the calls into each layer, so
the traced pass measures the same code the untraced passes time.

A span's self time is its duration minus the durations of the spans it
encloses; self time and call counts are aggregated per entry point in
memory.  Only one raw span per simulation (``Workload.run``) is kept,
labelled with the workload, d-distance, GI timeout and thread count.

Names a module imported directly are patched where they are *used*
(``repro.core.core.try_hit_run``, ``repro.harness.figures.
machine_store_histogram``), because the call site resolves the name in
its own module's namespace.
"""
from __future__ import annotations

import importlib
import statistics
from time import perf_counter

__all__ = ["BEHAVIOURAL", "ENTRY_POINTS", "PER_LAYER", "Tracer", "install",
           "layer_metrics"]

#: (entry key, module, attribute path) of every wrapped entry point.
#: The entry key's prefix (before the first '.') is its layer.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("engine.run", "repro.sim.engine", "Engine.run"),
    ("engine.run_until", "repro.sim.engine", "Engine.run_until"),
    ("core.step", "repro.core.core", "Core._step"),
    ("core.deoptimize", "repro.core.core", "Core._deoptimize"),
    ("hitrun.try_hit_run", "repro.core.core", "try_hit_run"),
    ("l1.access", "repro.cache.l1", "L1Controller.access"),
    ("l1.receive", "repro.cache.l1", "L1Controller.receive"),
    ("l2.probe", "repro.cache.l2", "L2Slice.probe"),
    ("l2.fill", "repro.cache.l2", "L2Slice.fill"),
    ("directory.receive", "repro.coherence.directory",
     "DirectoryAgent.receive"),
    ("noc.send", "repro.noc.network", "Network.send"),
    ("scribe.check", "repro.scribe.scribe_unit", "ScribeUnit.check"),
    ("scribe.observe", "repro.scribe.scribe_unit", "ScribeUnit.observe"),
    ("isa.cache_get", "repro.isa.compiled", "ProgramCache.get"),
    ("workloads.prepare", "repro.workloads.base", "Workload.prepare"),
    ("verify.check_quiescent", "repro.sim.machine",
     "Machine.check_quiescent"),
    ("verify.check_coherence_invariants", "repro.sim.machine",
     "Machine.check_coherence_invariants"),
    ("energy.report", "repro.energy.accounting", "EnergyAccountant.report"),
    ("analysis.machine_store_histogram", "repro.harness.figures",
     "machine_store_histogram"),
    ("batch.fan_out", "repro.harness.batch", "batch_fan_out"),
    ("batch.run_group", "repro.harness.batch", "run_group"),
    ("state.capture", "repro.sim.state", "MachineCheckpoint.capture"),
    ("harness.run", "repro.workloads.base", "Workload.run"),
    ("harness.collect", "repro.workloads.base", "Workload.collect"),
    ("harness.figure", "repro.harness.cli", "_run_figure"),
)

#: entry points whose call count depends on how the simulator is
#: implemented (program caches, deopts, the hit-run fast lane,
#: checkpoints, batch grouping), not on the simulated work.  A change
#: that leaves the simulated results alone may drive them to zero, so
#: they are reported as per-layer metrics and never required by the
#: output checks; every other entry point is.
BEHAVIOURAL = frozenset((
    "engine.run_until", "core.step", "core.deoptimize",
    "hitrun.try_hit_run", "scribe.check", "scribe.observe",
    "isa.cache_get", "batch.run_group", "state.capture",
))

#: figures whose inclusive time is reported (the ones that take time)
FIGURES = ("fig1", "fig2", "fig7", "fig8", "fig12")

#: (metric, unit) of every per-layer metric, in report order.  Layer
#: times are shares of the traced body's wall time, so a layer a
#: workload never enters reads 0 % rather than a constant 0 s.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("engine.self_pct", "%"), ("engine.events", "count"),
    ("core.self_pct", "%"), ("core.steps", "count"),
    ("core.deopts", "count"),
    ("hitrun.self_pct", "%"), ("hitrun.calls", "count"),
    ("hitrun.merge_frac", "fraction"),
    ("l1.access_self_pct", "%"), ("l1.accesses", "count"),
    ("l1.receive_self_pct", "%"), ("l1.receives", "count"),
    ("l1.miss_frac", "fraction"),
    ("l2.self_pct", "%"), ("l2.calls", "count"),
    ("directory.self_pct", "%"), ("directory.msgs", "count"),
    ("noc.self_pct", "%"), ("noc.sends", "count"),
    ("noc.flit_hops", "count"),
    ("scribe.self_pct", "%"), ("scribe.checks", "count"),
    ("scribe.accept_frac", "fraction"),
    ("isa.cache_hit_frac", "fraction"),
    ("workloads.build_pct", "%"),
    ("verify.self_pct", "%"),
    ("energy.self_pct", "%"),
    ("analysis.self_pct", "%"),
    ("batch.self_pct", "%"), ("batch.reps", "count"),
    ("batch.shared", "count"), ("batch.share_frac", "fraction"),
    ("state.self_pct", "%"), ("state.captures", "count"),
    ("harness.self_pct", "%"), ("harness.sims", "count"),
    ("harness.sim_s_p50", "s"), ("harness.sim_s_p90", "s"),
    *((f"figures.{fig}_pct", "%") for fig in FIGURES),
    ("other.self_pct", "%"),
    ("trace.overhead", "x"),
)


class Tracer:
    """In-memory span aggregator.

    ``stats[key]`` is ``[calls, self_s, total_s]`` per entry point;
    ``counts`` holds the outcome counters the wrappers derive (misses,
    merges, accepted checks, ...).  ``stack[0]`` is the root frame: its
    child time is the time spent inside any wrapped layer.
    """

    def __init__(self, workload: str = "") -> None:
        self.workload = workload
        self.stack: list[list[float]] = [[0.0]]
        self.stats: dict[str, list] = {key: [0, 0.0, 0.0]
                                       for key, _, _ in ENTRY_POINTS}
        self.counts: dict[str, int] = {}
        #: one raw span per simulation (Workload.run)
        self.sims: list[dict] = []
        #: inclusive seconds per CLI figure
        self.figures: dict[str, float] = {}
        self.figures_open = 0
        self.t0 = perf_counter()

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to outcome counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    def export(self) -> dict:
        """JSON-ready aggregate of everything recorded."""
        return {
            "entries": {key: {"calls": c, "self_s": s, "total_s": t}
                        for key, (c, s, t) in self.stats.items()},
            "counts": dict(self.counts),
            "layered_s": self.stack[0][0],
            "sims": self.sims,
            "figures": dict(self.figures),
        }


def _timed(tracer: Tracer, key: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span named ``key``.  ``before(args)`` returns a
    token handed to ``after(token, args, result)`` on normal return."""
    stack = tracer.stack
    stat = tracer.stats[key]

    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        frame = [0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            stack[-1][0] += dt
            stat[0] += 1
            stat[1] += dt - frame[0]
            stat[2] += dt
        if after is not None:
            after(token, args, out)
        return out

    return wrapper


def _timed_generator(tracer: Tracer, key: str, fn):
    """Wrap a generator function: each resumption is one span segment,
    so the consumer's work between yields is not billed to ``key``."""
    stack = tracer.stack
    stat = tracer.stats[key]

    def wrapper(*args, **kwargs):
        stat[0] += 1
        gen = fn(*args, **kwargs)
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[1] += dt - frame[0]
                stat[2] += dt
            yield item

    return wrapper


def _hooks(tracer: Tracer) -> dict:
    """Per-entry (before, after) hooks that derive outcome counts."""
    bump = tracer.bump

    def events_before(args):
        return args[0].events_executed

    def events_after(token, args, _out):
        bump("engine.events", args[0].events_executed - token)

    def sim_before(args):
        return perf_counter()

    def sim_after(t0, args, _out):
        workload, cfg = args[0], args[1]
        gw = cfg.ghostwriter
        tracer.sims.append({
            "name": "harness.run", "workload": tracer.workload,
            "app": workload.name, "d": gw.d_distance if gw.enabled else 0,
            "gi": gw.gi_timeout, "threads": workload.num_threads,
            "start": t0 - tracer.t0, "end": perf_counter() - tracer.t0,
            "parent": "harness.figure" if tracer.figures_open else "body",
        })

    def collect_after(_token, _args, result):
        bump("noc.flit_hops",
             int(result.stats.child("noc").total("flit_hops")))

    def figure_before(args):
        tracer.figures_open += 1
        return perf_counter()

    def figure_after(t0, args, _out):
        tracer.figures_open -= 1
        tracer.figures[args[0]] = (tracer.figures.get(args[0], 0.0)
                                   + perf_counter() - t0)

    def counting(name, pred):
        def after(_token, _args, out):
            if pred(out):
                bump(name)
        return after

    return {
        "engine.run": (events_before, events_after),
        "engine.run_until": (events_before, events_after),
        "hitrun.try_hit_run": (None, counting("hitrun.merges", bool)),
        "l1.access": (None, counting("l1.misses", lambda out: not out[0])),
        "scribe.check": (None, counting("scribe.accepts", bool)),
        "isa.cache_get": (None, counting("isa.cache_hits",
                                         lambda out: out is not None)),
        "harness.run": (sim_before, sim_after),
        "harness.collect": (None, collect_after),
        "harness.figure": (figure_before, figure_after),
    }


def _batch_fan_out(tracer: Tracer, fn):
    """``batch_fan_out`` with a ``BatchReport`` injected when the caller
    passed none, so the report's counters survive the call."""
    from repro.harness.batch import BatchReport

    timed = _timed(tracer, "batch.fan_out", fn)

    def wrapper(points, **kwargs):
        rpt = kwargs.get("report")
        if rpt is None:
            rpt = kwargs["report"] = BatchReport()
        out = timed(points, **kwargs)
        for field in ("reps", "shared", "lanes"):
            tracer.bump(f"batch.{field}", getattr(rpt, field))
        return out

    return wrapper


def install(tracer: Tracer) -> None:
    """Patch every entry point to report into ``tracer``.  Install
    before any machine is built: controllers pre-bind some entry points
    at construction."""
    hooks = _hooks(tracer)
    for key, module_name, path in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if key == "batch.fan_out":
            wrapped = _batch_fan_out(tracer, fn)
        elif key == "batch.run_group":
            wrapped = _timed_generator(tracer, key, fn)
        else:
            before, after = hooks.get(key, (None, None))
            wrapped = _timed(tracer, key, fn, before, after)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, attr, wrapped)


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile of ``values`` (the value itself when alone)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(trace: dict, body_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass's export.

    ``body_s`` is the traced body's wall time (the base of every share)
    and ``untraced_s`` the untraced median it is compared against.
    """
    entries = trace["entries"]
    counts = trace["counts"]

    def calls(*keys):
        return sum(entries[k]["calls"] for k in keys)

    def pct(*keys):
        return 100.0 * sum(entries[k]["self_s"] for k in keys) / body_s

    def frac(num, den):
        return num / den if den else 0.0

    sim_s = [s["end"] - s["start"] for s in trace["sims"]]
    lanes = counts.get("batch.lanes", 0)
    out = {
        "engine.self_pct": pct("engine.run", "engine.run_until"),
        "engine.events": counts.get("engine.events", 0),
        "core.self_pct": pct("core.step", "core.deoptimize"),
        "core.steps": calls("core.step"),
        "core.deopts": calls("core.deoptimize"),
        "hitrun.self_pct": pct("hitrun.try_hit_run"),
        "hitrun.calls": calls("hitrun.try_hit_run"),
        "hitrun.merge_frac": frac(counts.get("hitrun.merges", 0),
                                  calls("hitrun.try_hit_run")),
        "l1.access_self_pct": pct("l1.access"),
        "l1.accesses": calls("l1.access"),
        "l1.receive_self_pct": pct("l1.receive"),
        "l1.receives": calls("l1.receive"),
        "l1.miss_frac": frac(counts.get("l1.misses", 0), calls("l1.access")),
        "l2.self_pct": pct("l2.probe", "l2.fill"),
        "l2.calls": calls("l2.probe", "l2.fill"),
        "directory.self_pct": pct("directory.receive"),
        "directory.msgs": calls("directory.receive"),
        "noc.self_pct": pct("noc.send"),
        "noc.sends": calls("noc.send"),
        "noc.flit_hops": counts.get("noc.flit_hops", 0),
        "scribe.self_pct": pct("scribe.check", "scribe.observe"),
        "scribe.checks": calls("scribe.check"),
        "scribe.accept_frac": frac(counts.get("scribe.accepts", 0),
                                   calls("scribe.check")),
        "isa.cache_hit_frac": frac(counts.get("isa.cache_hits", 0),
                                   calls("isa.cache_get")),
        # program-cache lookups happen while threads are bound
        "workloads.build_pct": pct("workloads.prepare", "isa.cache_get"),
        "verify.self_pct": pct("verify.check_quiescent",
                               "verify.check_coherence_invariants"),
        "energy.self_pct": pct("energy.report"),
        "analysis.self_pct": pct("analysis.machine_store_histogram"),
        "batch.self_pct": pct("batch.fan_out", "batch.run_group"),
        "batch.reps": counts.get("batch.reps", 0),
        "batch.shared": counts.get("batch.shared", 0),
        "batch.share_frac": frac(counts.get("batch.shared", 0), lanes),
        "state.self_pct": pct("state.capture"),
        "state.captures": calls("state.capture"),
        "harness.self_pct": pct("harness.run", "harness.collect",
                                "harness.figure"),
        "harness.sims": len(sim_s),
        "harness.sim_s_p50": _quantile(sim_s, 5),
        "harness.sim_s_p90": _quantile(sim_s, 9),
        "other.self_pct": 100.0 * (body_s - trace["layered_s"]) / body_s,
        "trace.overhead": body_s / untraced_s,
    }
    for fig in FIGURES:
        out[f"figures.{fig}_pct"] = (100.0 * trace["figures"].get(fig, 0.0)
                                     / body_s)
    return out
