"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    ghostwriter-figures table1
    ghostwriter-figures fig8 --scale 0.25 --threads 8
    ghostwriter-figures all

``--scale`` shrinks the workload inputs (faster, noisier); ``--threads``
shrinks the simulated machine.  Defaults reproduce the shapes reported
in EXPERIMENTS.md.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace

from repro.coherence.policy import available_protocols
from repro.harness import figures as F
from repro.harness.options import RunOptions
from repro.noc.topologies import available_topologies
from repro.obs.timeline import DEFAULT_TIMELINE_INTERVAL

__all__ = ["main"]

_SWEEP_FIGS = ("fig7", "fig8", "fig9", "fig10", "fig11")
# "protocols" (the cross-variant comparison) and "topology" (the
# interconnect/scale sensitivity grid) are opt-in, not part of "all":
# they run every registered variant and exist for ablation studies
_ALL = ("table1", "table2", "fig1", "fig2") + _SWEEP_FIGS + ("fig12",)
_EXTRA_FIGS = ("protocols", "topology")

#: core counts the "topology" figure sweeps, clipped to --threads/--cores
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
                   help="simulated cores / workload threads")
    p.add_argument("--cores", type=int, default=None, metavar="N",
                   help="alias for --threads (the topology sweeps speak "
                        "core counts); also raises the ceiling of the "
                        "'topology' figure's 24/64/128/256 grid")
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
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan independent sweep points out over N worker "
                        "processes (results are bit-identical to --jobs 1; "
                        "see repro.harness.parallel)")
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
                   help="record every coherence event of the sweep runs "
                        "(see repro.obs); export with --trace-out")
    p.add_argument("--timeline-interval", type=int, default=0,
                   metavar="CYCLES",
                   help="sample a metrics timeline every CYCLES cycles "
                        "(0 = off unless --trace-events, which defaults "
                        f"it to {DEFAULT_TIMELINE_INTERVAL})")
    p.add_argument("--trace-out", metavar="DIR", default=None,
                   help="write the merged events.jsonl / timeline.npz / "
                        "report.txt bundle of the traced sweep under DIR")
    p.add_argument("--profile", type=int, default=0, metavar="N",
                   help="run under cProfile and print the top-N functions "
                        "by cumulative time after the figures finish "
                        "(0 = off)")
    return p


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the requested figures, print/export them."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.cores is not None:
        if args.cores < 1:
            parser.error(f"--cores must be >= 1, got {args.cores}")
        args.threads = args.cores
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
            crashed = _run_figures(wanted, args, cache)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(args.profile)
    else:
        crashed = _run_figures(wanted, args, cache)
    if args.trace_out is not None:
        from repro.harness.export import export_captures
        labeled = [(f"{app}.d{d}", row.obs)
                   for (app, d), row in sorted(cache.rows().items())
                   if row.obs is not None]
        if labeled:
            paths = export_captures(labeled, args.trace_out)
            print(f"[trace: {', '.join(str(p) for p in paths)}]")
        else:
            print("[trace: no traced sweep runs to export]")
    return 1 if crashed else 0


def _execution_label(args) -> str:
    """How the sweep grid ran: in one batch process, in worker
    processes, or serially in this process."""
    if args.backend == "batch":
        return "batch"
    if args.jobs > 1:
        return f"{args.jobs} worker processes"
    return "serial"


def _run_figures(wanted, args, cache) -> int:
    """Run each requested figure; returns the crashed-figure count."""
    sweep_wanted = [f for f in wanted if f in _SWEEP_FIGS]
    if sweep_wanted:
        # run the shared sweep as one grid before the per-figure drivers
        # read it; fig7 alone only needs the d in {4, 8} legs
        ds = (4, 8) if sweep_wanted == ["fig7"] else (0, 4, 8)
        t0 = time.time()
        probed = _store_probes(args)
        cache.prefetch(ds=ds)
        print(f"[sweep prefetch, {_execution_label(args)}: "
              f"{time.time() - t0:.1f}s]\n")
        _store_banner(args, probed)
    crashed = 0
    for name in wanted:
        t0 = time.time()
        probed = _store_probes(args)
        try:
            result = _run_figure(name, args, cache)
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
        if args.out is not None:
            from repro.harness.export import export_result
            paths = export_result(name, result, args.out)
            print(f"[exported {', '.join(str(p) for p in paths)}]")
        _store_banner(args, probed)
        print(f"[{name}: {time.time() - t0:.1f}s]\n")
    return crashed


def _store_probes(args):
    """A copy of the process-wide result-store counters (None without
    ``--store``), taken before a step that may probe the store."""
    if not args.store:
        return None
    from repro.store.result_store import SESSION_STATS
    return replace(SESSION_STATS)


def _store_banner(args, before) -> None:
    """Report the store traffic since ``before``, if there was any: the
    sweep prefetch and every figure that runs a grid (fig1, fig12,
    protocols, topology) probe the store."""
    if before is None:
        return
    from repro.store.result_store import SESSION_STATS
    delta = type(before)(*(getattr(SESSION_STATS, f.name)
                           - getattr(before, f.name)
                           for f in fields(before)))
    if delta.probes or delta.commits:
        print(f"[store {args.store}: {delta.render()}]\n")


def _run_figure(name, args, cache):
    if name == "table1":
        return F.table1()
    if name == "table2":
        return F.table2(args.threads)
    if name == "fig1":
        counts = tuple(t for t in (1, 2, 4, 8, 16, 24) if t <= args.threads)
        return F.fig1(thread_counts=counts, seed=args.seed,
                      options=cache.options)
    if name == "fig2":
        return F.fig2(num_threads=args.threads, scale=args.scale,
                      seed=args.seed, options=cache.options)
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
    if name == "fig12":
        return F.fig12(num_threads=args.threads, seed=args.seed,
                       options=cache.options)
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
