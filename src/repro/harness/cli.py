"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    ghostwriter-figures table1
    ghostwriter-figures fig8 --scale 0.25 --threads 8
    ghostwriter-figures all

``--scale`` shrinks the workload inputs (faster, noisier); ``--threads``
shrinks the simulated machine.  Defaults reproduce the shapes reported
in EXPERIMENTS.md.

Every simulation a command asks for runs once.  The grid points of all
requested figures — the shared sweep's (Figs. 7-11), Fig. 1's and
Fig. 12's — run as one :func:`~repro.harness.parallel.run_grid` call
over ``--jobs`` worker processes (default: every CPU this process may
use), so no figure waits at a barrier for another's stragglers.  Fig. 2
then runs the sweep's six ``d=0`` points in this process, reads each
live machine's store histogram, and hands the rows to the sweep.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace

from repro.coherence.policy import available_protocols
from repro.harness import figures as F
from repro.harness.options import RunOptions
from repro.harness.parallel import run_grid
from repro.noc.topologies import available_topologies
from repro.obs.timeline import DEFAULT_TIMELINE_INTERVAL

__all__ = ["main"]

_SWEEP_FIGS = ("fig7", "fig8", "fig9", "fig10", "fig11")
# "protocols" (the cross-variant comparison) and "topology" (the
# interconnect/scale sensitivity grid) are opt-in, not part of "all":
# they run every registered variant and exist for ablation studies
_ALL = ("table1", "table2", "fig1", "fig2") + _SWEEP_FIGS + ("fig12",)
_EXTRA_FIGS = ("protocols", "topology")

#: core counts the "topology" figure sweeps, clipped to --threads
_TOPOLOGY_CORES = (24, 64, 128, 256)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ghostwriter-figures",
        description="Regenerate the paper's tables and figures.",
    )
    p.add_argument("figure", choices=_ALL + _EXTRA_FIGS + ("all",),
                   help="which table/figure to regenerate ('protocols' "
                        "compares every registered coherence variant)")
    p.add_argument("--threads", type=int, default=F.DEFAULT_THREADS,
                   help="simulated cores / workload threads; also the "
                        "ceiling of the 'topology' figure's "
                        "24/64/128/256 core grid")
    p.add_argument("--topology", choices=available_topologies(),
                   default="mesh",
                   help="NoC topology of the simulated machine (see "
                        "repro.noc.topologies); 'mesh' is the paper's "
                        "6x4 machine, byte-identical to the historic "
                        "hardwired NoC")
    p.add_argument("--scale", type=float, default=F.DEFAULT_SCALE,
                   help="input-size scale factor")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", metavar="DIR", default=None,
                   help="also export each figure as CSV + JSON under DIR")
    p.add_argument("--protocol", choices=available_protocols(),
                   default="ghostwriter",
                   help="coherence-protocol variant for the sweep figures "
                        "(see repro.coherence.policy)")
    p.add_argument("--check-invariants", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="verify quiescence + coherence invariants after "
                        "every run (default on; --no-check-invariants "
                        "to skip)")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   metavar="FLIPS_PER_MCYCLE",
                   help="inject seeded cache bit flips at this rate "
                        "(flips per million cycles; see repro.faults)")
    p.add_argument("--fault-seed", type=int, default=1,
                   help="PRNG seed for the fault injector")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="fan independent grid points out over N worker "
                        "processes (default: the CPUs this process may "
                        "use; 1 with --backend batch or --profile); "
                        "results are bit-identical to --jobs 1 (see "
                        "repro.harness.parallel)")
    p.add_argument("--backend", choices=("serial", "batch"),
                   default="serial",
                   help="execution backend of every sweep figure: 'batch' "
                        "advances d/gi-swept points in lockstep over "
                        "shared representative runs, in one process (no "
                        "--jobs; bit-identical results; see "
                        "repro.sim.batch)")
    p.add_argument("--store", metavar="DB", default=None,
                   help="durable result store (SQLite): commit every sweep "
                        "point as it lands and serve committed points on "
                        "re-runs; inspect with 'python -m repro.store' "
                        "(see repro.store)")
    p.add_argument("--resume", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="serve points already committed to --store "
                        "(--no-resume recomputes and overwrites them)")
    p.add_argument("--retries", type=int, default=0, metavar="K",
                   help="re-executions granted to transiently failing "
                        "sweep points (worker death, wall-clock timeout); "
                        "deterministic failures never retry")
    p.add_argument("--point-timeout", type=float, default=0.0,
                   metavar="SEC",
                   help="wall-clock budget per sweep point, in seconds "
                        "(0 = unlimited); a blown budget is a transient "
                        "failure, eligible for --retries")
    p.add_argument("--trace-events", action="store_true",
                   help="record every coherence event of the figure runs "
                        "(see repro.obs); export with --trace-out")
    p.add_argument("--timeline-interval", type=int, default=0,
                   metavar="CYCLES",
                   help="sample a metrics timeline every CYCLES cycles "
                        "(0 = off unless --trace-events, which defaults "
                        f"it to {DEFAULT_TIMELINE_INTERVAL})")
    p.add_argument("--trace-out", metavar="DIR", default=None,
                   help="write the merged events.jsonl / timeline.npz / "
                        "report.txt bundle of every traced run under DIR")
    p.add_argument("--profile", type=int, default=0, metavar="N",
                   help="run under cProfile and print the top-N functions "
                        "by cumulative time after the figures finish "
                        "(0 = off)")
    return p


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the requested figures, print/export them."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs is None:
        # batch runs in one process, and a profile should cover the
        # simulations rather than a supervisor waiting on pipes
        args.jobs = (1 if args.backend == "batch" or args.profile
                     else _available_cpus())
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    if args.fault_rate < 0:
        parser.error(f"--fault-rate must be >= 0, got {args.fault_rate:g}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.backend == "batch" and args.jobs > 1:
        parser.error("--backend batch runs in one process; drop --jobs")
    if args.timeline_interval < 0:
        parser.error(f"--timeline-interval must be >= 0, "
                     f"got {args.timeline_interval}")
    if args.profile < 0:
        parser.error(f"--profile must be >= 0, got {args.profile}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.point_timeout < 0:
        parser.error(f"--point-timeout must be >= 0, "
                     f"got {args.point_timeout:g}")
    if args.trace_out is not None and not (args.trace_events
                                           or args.timeline_interval):
        parser.error("--trace-out needs --trace-events and/or "
                     "--timeline-interval")
    interval = args.timeline_interval
    if args.trace_events and not interval:
        interval = DEFAULT_TIMELINE_INTERVAL
    options = RunOptions(check_invariants=args.check_invariants,
                         fault_rate=args.fault_rate,
                         fault_seed=args.fault_seed, jobs=args.jobs,
                         trace_events=args.trace_events,
                         timeline_interval=interval,
                         protocol=args.protocol,
                         topology=args.topology,
                         store=args.store, resume=args.resume,
                         point_retries=args.retries,
                         point_timeout=args.point_timeout,
                         backend=args.backend)
    wanted = _ALL if args.figure == "all" else (args.figure,)
    cache = F.SweepCache(num_threads=args.threads, scale=args.scale,
                         seed=args.seed, options=options)
    if args.profile:
        # profile exactly the figure work (not argument parsing or the
        # export tail) so hot-path hunts don't need ad-hoc scripts
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            crashed, captures = _run_figures(wanted, args, cache)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(args.profile)
    else:
        crashed, captures = _run_figures(wanted, args, cache)
    if args.trace_out is not None:
        from repro.harness.export import export_captures
        # the shared sweep's runs, then each other figure's in run
        # order; fig2 alone fills the cache but asked for no sweep
        sweep = [(f"{app}.d{d}", row.obs)
                 for (app, d), row in sorted(cache.rows().items())
                 if row.obs is not None]
        labeled = (sweep if set(wanted) & set(_SWEEP_FIGS) else []) \
            + captures
        if labeled:
            paths = export_captures(labeled, args.trace_out)
            print(f"[trace: {', '.join(str(p) for p in paths)}]")
        else:
            print("[trace: no traced sweep runs to export]")
    return 1 if crashed else 0


def _available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one), the default ``--jobs``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execution_label(args) -> str:
    """How the grid ran: in one batch process, in worker processes, or
    serially in this process."""
    if args.backend == "batch":
        return "batch"
    if args.jobs > 1:
        return f"{args.jobs} worker processes"
    return "serial"


def _figure_grids(wanted, args, cache) -> dict:
    """figure -> :class:`~repro.harness.figures.FigureGrid` of every
    requested figure that runs a grid, plus the shared sweep's under
    ``"sweep"``."""
    grids = {}
    if "fig1" in wanted:
        counts = tuple(t for t in (1, 2, 4, 8, 16, 24) if t <= args.threads)
        grids["fig1"] = F.fig1_grid(thread_counts=counts, seed=args.seed,
                                    options=cache.options)
    if "fig12" in wanted:
        grids["fig12"] = F.fig12_grid(num_threads=args.threads,
                                      seed=args.seed, options=cache.options)
    sweep_wanted = [f for f in wanted if f in _SWEEP_FIGS]
    if sweep_wanted:
        # fig7 alone only needs the d in {4, 8} legs, and fig2's live
        # runs are the d=0 legs
        ds = ((4, 8) if sweep_wanted == ["fig7"] or "fig2" in wanted
              else (0, 4, 8))
        grids["sweep"] = cache.grid(ds=ds)
    return grids


def _run_grid(grids, args, cache) -> dict:
    """Run every grid's points as one ``run_grid`` call; figure -> the
    outcomes of its own points."""
    points = [p for grid in grids.values() for p in grid.points]
    if not points:      # no figure runs a grid: print no banner
        return {}
    t0 = time.time()
    probed = _store_probes(args)
    outcomes = run_grid(points, options=cache.options,
                        store=cache.result_store())
    print(f"[grid of {len(points)} runs, {_execution_label(args)}: "
          f"{time.time() - t0:.1f}s]\n")
    _store_banner(args, probed)
    rows = {}
    for name, grid in grids.items():
        rows[name] = outcomes[:len(grid.points)]
        outcomes = outcomes[len(grid.points):]
    return rows


def _run_figures(wanted, args, cache) -> tuple[int, list]:
    """Run each requested figure; returns the crashed-figure count and
    the ``(label, capture)`` pairs of the traced runs the figures that
    run their own grids made, labelled ``figure.point``."""
    grids = _figure_grids(wanted, args, cache)
    rows = _run_grid(grids, args, cache)
    if "sweep" in grids:
        grids.pop("sweep").finish(rows["sweep"])
    crashed = 0
    captures = []
    for name in wanted:
        t0 = time.time()
        probed = _store_probes(args)
        try:
            result = _run_figure(name, args, cache, grids, rows)
        except Exception as exc:
            if args.fault_rate <= 0:
                # say which figure died before the traceback: "all" runs
                # many figures and the traceback alone doesn't name one
                print(f"[{name}: failed: {type(exc).__name__}: {exc}]",
                      file=sys.stderr)
                raise
            # injected faults legitimately crash runs when they corrupt
            # control data; report and keep sweeping the other figures
            print(f"[{name}: crashed under fault injection: {exc!r}]\n")
            crashed += 1
            continue
        print(result.render())
        captures += [(f"{name}.{label}", capture)
                     for label, capture in getattr(result, "captures", ())]
        if args.out is not None:
            from repro.harness.export import export_result
            paths = export_result(name, result, args.out)
            print(f"[exported {', '.join(str(p) for p in paths)}]")
        _store_banner(args, probed)
        print(f"[{name}: {time.time() - t0:.1f}s]\n")
    return crashed, captures


def _store_probes(args):
    """A copy of the process-wide result-store counters (None without
    ``--store``), taken before a step that may probe the store."""
    if not args.store:
        return None
    from repro.store.result_store import SESSION_STATS
    return replace(SESSION_STATS)


def _store_banner(args, before) -> None:
    """Report the store traffic since ``before``, if there was any: the
    grid, fig2's live runs and the figures that run a grid of their own
    (protocols, topology) probe the store."""
    if before is None:
        return
    from repro.store.result_store import SESSION_STATS
    delta = type(before)(*(getattr(SESSION_STATS, f.name)
                           - getattr(before, f.name)
                           for f in fields(before)))
    if delta.probes or delta.commits:
        print(f"[store {args.store}: {delta.render()}]\n")


def _run_figure(name, args, cache, grids, rows):
    """Build one figure: from its slice of the grid's ``rows`` when it
    has a grid, else by running it."""
    if name in grids:
        return grids[name].finish(rows[name])
    if name == "table1":
        return F.table1()
    if name == "table2":
        return F.table2(args.threads)
    if name == "fig2":
        return F.fig2(cache)
    if name == "fig7":
        return F.fig7(cache)
    if name == "fig8":
        return F.fig8(cache)
    if name == "fig9":
        return F.fig9(cache)
    if name == "fig10":
        return F.fig10(cache)
    if name == "fig11":
        return F.fig11(cache)
    if name == "protocols":
        return F.fig_protocols(num_threads=args.threads, seed=args.seed,
                               options=cache.options)
    if name == "topology":
        # default --topology sweeps every registered shape; an explicit
        # non-default choice restricts the grid to that one
        topologies = None if args.topology == "mesh" else (args.topology,)
        counts = tuple(c for c in _TOPOLOGY_CORES if c <= args.threads)
        if not counts:
            counts = (args.threads,)
        return F.fig_topology(topologies, counts, seed=args.seed,
                              options=cache.options)
    raise AssertionError(name)  # pragma: no cover - argparse restricts


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
