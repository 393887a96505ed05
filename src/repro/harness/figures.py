"""Per-figure experiment drivers.

One driver per table/figure of the paper (see DESIGN.md §4).  Each
returns a small result object with the figure's rows/series plus a
``render()`` producing the text table the benchmarks and the CLI print.
Figures 7-11 share one underlying sweep (six apps x d in {0, 4, 8}),
which :class:`SweepCache` memoizes so regenerating all figures costs 18
runs, not 90.  Fig. 2 profiles the sweep's six ``d=0`` runs while their
machines are live, and caches their rows, so the sweep does not run
them again.  Fig. 1 and Fig. 12 run grids of their own; each is split
into its points and the result built from their rows
(:class:`FigureGrid`), so a caller can run several figures' points as
one :func:`~repro.harness.parallel.run_grid` call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analysis.ddistance import SimilarityProfile, machine_store_histogram
from repro.analysis.report import format_table
from repro.coherence.policy import get_protocol
from repro.common.config import default_config, table1_rows
from repro.common.types import MessageClass
from repro.harness.experiment import (
    DEFAULT_SCALE, DEFAULT_THREADS, RunRow, experiment_config,
    row_from_result, run_workload_result,
)
from repro.harness.options import RunOptions
from repro.harness.parallel import (
    GridFailure, GridPoint, run_grid, run_live,
)
from repro.harness.sweeps import (
    SweepResult, sweep_protocols, sweep_topology_scale,
)
from repro.obs.capture import ObsCapture
from repro.workloads.registry import PAPER_WORKLOADS, table2_rows

__all__ = [
    "FigureGrid", "SweepCache", "fig1", "fig1_grid", "fig2", "fig7",
    "fig8", "fig9", "fig10", "fig11", "fig12", "fig12_grid",
    "fig_protocols", "fig_topology", "table1", "table2",
]

_APPS = list(PAPER_WORKLOADS)
_D_SWEEP = (0, 4, 8)
_SHORT = {
    "histogram": "hist", "linear_regression": "linreg", "pca": "pca",
    "blackscholes": "blksch", "inversek2j": "invk2j", "jpeg": "jpeg",
}


def _traced(labels, rows) -> list[tuple[str, ObsCapture]]:
    """(label, capture) of every traced run among ``rows`` — what
    ``--trace-out`` exports for a figure that runs its own grid."""
    return [(label, row.obs) for label, row in zip(labels, rows)
            if isinstance(row, RunRow) and row.obs is not None]


@dataclass(frozen=True, slots=True)
class FigureGrid:
    """A figure's grid points and ``finish``, which builds the figure
    from their outcomes (one :class:`RunRow` or :class:`GridFailure`
    per point, in order).  A failed point fails only the figure whose
    ``finish`` reads it."""

    points: list[GridPoint]
    finish: Callable[[list], Any]

    def run(self, options: RunOptions | None = None, store=None):
        """Run the points as one grid and finish the figure."""
        return self.finish(run_grid(self.points, options=options,
                                    store=store))


def _ok(result: SweepResult, figure: str) -> SweepResult:
    """``result``, or ``RuntimeError`` naming its first failed point."""
    failed = result.failures()
    if failed:
        value, failure = failed[0]
        raise RuntimeError(
            f"{figure} point {value!r} failed: {failure.render()}"
        )
    return result


class SweepCache:
    """Memoized (app, d) -> RunRow over the main evaluation sweep.

    Every uncached point runs through
    :func:`~repro.harness.parallel.run_grid`, so ``options`` alone says
    how: ``options.jobs > 1`` fans :meth:`prefetch`'s grid out over a
    process pool, ``options.backend == "batch"`` runs it in lockstep,
    and the cached rows are bit-identical to serial runs either way.

    ``options.store`` makes the sweep *durable*: every completed row
    commits to a content-addressed result store
    (:mod:`repro.store`), and committed points are served from the
    store instead of re-running them — a killed figure run restarted
    with ``resume`` picks up exactly where the committed work left off,
    bit-identically.
    """

    def __init__(self, num_threads: int = DEFAULT_THREADS,
                 scale: float = DEFAULT_SCALE, seed: int = 12345,
                 options: RunOptions | None = None) -> None:
        self.num_threads = num_threads
        self.scale = scale
        self.seed = seed
        opts = options if options is not None else RunOptions()
        if opts.fault_rate:
            # faulty sweeps log-and-continue so every row completes
            opts = opts.replace(fault_policy="log")
        self.options = opts
        self._rows: dict[tuple[str, int], RunRow | GridFailure] = {}
        self._store = None      # lazily opened ResultStore handle

    def _point(self, app: str, d: int) -> GridPoint:
        return GridPoint(app, dict(d_distance=d, num_threads=self.num_threads,
                                   scale=self.scale, seed=self.seed,
                                   options=self.options),
                         label=f"{app} d={d}")

    def result_store(self):
        """The lazily opened durable result store (None when disabled)."""
        if self._store is None and self.options.store:
            from repro.store import open_store
            self._store = open_store(self.options.store)
        return self._store

    def row(self, app: str, d: int) -> RunRow:
        """Memoized run of (app, d); ``d=0`` is the protocol's precise
        base (MESI or MOESI).

        A point that failed raises ``RuntimeError`` with its
        :meth:`GridFailure.render` line; the failure is cached (and, if
        permanent, committed), so the point runs once, not per call.
        """
        self.prefetch((app,), (d,))
        outcome = self._rows[(app, d)]
        if isinstance(outcome, GridFailure):
            raise RuntimeError(outcome.render())
        return outcome

    def grid(self, apps=None, ds=_D_SWEEP) -> FigureGrid:
        """The uncached (app, d) points of the sweep, as a grid whose
        ``finish`` caches every outcome, :class:`GridFailure` included."""
        keys = [(app, d) for app in (apps or _APPS) for d in ds
                if (app, d) not in self._rows]
        return FigureGrid([self._point(app, d) for app, d in keys],
                          lambda outcomes: self._rows.update(
                              zip(keys, outcomes)))

    def prefetch(self, apps=None, ds=_D_SWEEP) -> None:
        """Run the uncached (app, d) points through
        :func:`~repro.harness.parallel.run_grid` and cache every outcome.

        With a configured result store every completed point commits as
        it lands, so a killed prefetch resumes from the committed rows.
        """
        grid = self.grid(apps, ds)
        if grid.points:
            grid.run(self.options, self.result_store())

    def run_live(self, d: int, inspect: Callable) -> list:
        """Run every app's (app, d) point in this process and cache its
        row; per app, ``inspect(result)`` of the live run, or the
        point's :class:`GridFailure`.

        The points run through :func:`~repro.harness.parallel.run_live`,
        so they keep the grid's guard, retry and timeout, and with a
        result store their rows commit under the sweep's own keys.  A
        point already cached keeps its cached row.
        """
        def run(point: GridPoint):
            result, cfg = run_workload_result(point.workload,
                                              **point.kwargs)
            return row_from_result(point.workload, result, cfg), \
                inspect(result)

        outcomes = run_live(run, [self._point(app, d) for app in _APPS],
                            options=self.options, store=self.result_store())
        for app, outcome in zip(_APPS, outcomes):
            row = outcome if isinstance(outcome, GridFailure) else outcome[0]
            self._rows.setdefault((app, d), row)
        return [outcome if isinstance(outcome, GridFailure) else outcome[1]
                for outcome in outcomes]

    def rows(self) -> dict[tuple[str, int], RunRow]:
        """Snapshot of every cached (app, d) -> RunRow (for exporters)."""
        return {key: row for key, row in self._rows.items()
                if isinstance(row, RunRow)}


# ---------------------------------------------------------------------
# Table 1 / Table 2
# ---------------------------------------------------------------------
@dataclass(slots=True)
class TableResult:
    title: str
    headers: list[str]
    rows: list[list[str]]

    def render(self) -> str:
        """The figure as an aligned text table."""
        return f"{self.title}\n{format_table(self.headers, self.rows)}"


def table1() -> TableResult:
    """Regenerate Table 1 from the default configuration."""
    rows = [[k, v] for k, v in table1_rows(default_config())]
    return TableResult("Table 1: Simulation Configuration",
                       ["Parameter", "Values"], rows)


def table2(num_threads: int = DEFAULT_THREADS) -> TableResult:
    """Regenerate Table 2 from the workload registry."""
    rows = [list(r) for r in table2_rows(num_threads)]
    return TableResult("Table 2: Benchmarks",
                       ["Application", "Domain", "Input", "Error"], rows)


def _base_name(protocol: str) -> str:
    """The precise base a protocol's ``d=0`` runs use, as a title names
    it ("MESI" or "MOESI")."""
    return get_protocol(protocol).base.upper()


# ---------------------------------------------------------------------
# Fig. 1 — false-sharing dot-product thread sweep (precise base)
# ---------------------------------------------------------------------
@dataclass(slots=True)
class Fig1Result:
    thread_counts: list[int]
    naive_speedup: list[float]     # vs 1 thread, Listing 1
    private_speedup: list[float]   # vs 1 thread, Listing 2
    base: str = "MESI"             # the precise base protocol's name
    #: (label, capture) of every traced run (see :func:`_traced`)
    captures: list = field(default_factory=list)

    def render(self) -> str:
        """The figure as an aligned text table."""
        rows = [
            [str(t), f"{n:.2f}x", f"{p:.2f}x"]
            for t, n, p in zip(self.thread_counts, self.naive_speedup,
                               self.private_speedup)
        ]
        return ("Fig. 1: dot-product speedup vs threads (baseline "
                f"{self.base})\n"
                + format_table(["threads", "naive (Listing 1)",
                              "privatized (Listing 2)"], rows))


#: Fig. 1's two listings: (workload, workload kwargs)
_FIG1_LISTINGS = (("bad_dot_product", {"approximate": False}),
                  ("private_dot_product", {}))


def fig1_grid(thread_counts=(1, 2, 4, 8, 16, 24), n_points: int = 4096,
              seed: int = 12345,
              options: RunOptions | None = None) -> FigureGrid:
    """Fig. 1 as a grid: each listing at every thread count, on the
    precise machine (``d_distance=0``) that ``options`` shapes."""
    opts = options if options is not None else RunOptions()
    counts = list(thread_counts)
    points = [
        GridPoint(name, dict(d_distance=0, num_threads=t, scale=1.0,
                             seed=seed, n_points=n_points, options=opts,
                             **kwargs),
                  label=f"{name}.threads={t}")
        for name, kwargs in _FIG1_LISTINGS for t in counts
    ]

    def finish(outcomes: list) -> Fig1Result:
        # one thread sweep per listing, in _FIG1_LISTINGS order
        speedups = [
            _ok(SweepResult("threads", tuple(counts),
                            tuple(outcomes[i:i + len(counts)])),
                "fig1").speedups_vs_first()
            for i in range(0, len(outcomes), len(counts))
        ]
        return Fig1Result(counts, *speedups, _base_name(opts.protocol),
                          _traced((p.label for p in points), outcomes))
    return FigureGrid(points, finish)


def fig1(thread_counts=(1, 2, 4, 8, 16, 24), n_points: int = 4096,
         seed: int = 12345, options: RunOptions | None = None) -> Fig1Result:
    """Run the Listing-1/Listing-2 thread sweep on the precise machine.

    Both listings run as one :func:`fig1_grid`, so ``options`` shapes
    the machine (protocol, topology, checks, faults) and says how the
    grid runs (workers, backend, result store, resume).
    """
    return fig1_grid(thread_counts, n_points, seed, options).run(options)


# ---------------------------------------------------------------------
# Fig. 2 — store-value d-distance CDFs per suite
# ---------------------------------------------------------------------
@dataclass(slots=True)
class Fig2Result:
    profiles: dict[str, SimilarityProfile]   # app -> curve
    suites: dict[str, list[str]]             # suite -> apps
    #: (app, capture) of every traced run
    captures: list = field(default_factory=list)

    def render(self) -> str:
        """The figure as an aligned text table."""
        ds = [0, 2, 4, 8, 12, 16, 24, 32]
        rows = []
        for app, prof in self.profiles.items():
            rows.append([_SHORT.get(app, app)]
                        + [f"{prof.fraction_within(d) * 100:5.1f}%" for d in ds])
        return ("Fig. 2: cumulative d-distance distribution of stores\n"
                + format_table(["app"] + [f"<= {d}" for d in ds], rows))

    def suite_average_within(self, suite: str, d: int) -> float:
        """Mean P(<= d) across the suite's apps."""
        apps = self.suites[suite]
        return float(np.mean([
            self.profiles[a].fraction_within(d) for a in apps
        ]))


def fig2(cache: SweepCache | None = None, *,
         num_threads: int = DEFAULT_THREADS, scale: float = DEFAULT_SCALE,
         seed: int = 12345, options: RunOptions | None = None) -> Fig2Result:
    """Profile store-value similarity over every Table 2 app.

    Each app's profile is read from the live machine of its ``d=0``
    sweep point, so these six points always run in this process, one
    machine at a time (:meth:`SweepCache.run_live`), even when the
    cache's result store holds them.  Their rows land in ``cache``, so
    the sweep figures do not run them again.  Without a ``cache`` one
    is built from the keyword arguments.
    """
    if cache is None:
        cache = SweepCache(num_threads, scale, seed, options)
    hists = cache.run_live(
        0, lambda result: machine_store_histogram(result.machine))
    profiles: dict[str, SimilarityProfile] = {}
    suites: dict[str, list[str]] = {}
    captures = []
    for (app, cls), hist in zip(PAPER_WORKLOADS.items(), hists):
        if isinstance(hist, GridFailure):
            raise RuntimeError(f"fig2 point failed: {hist.render()}")
        capture = cache.row(app, 0).obs
        if capture is not None:
            captures.append((app, capture))
        profiles[app] = SimilarityProfile(app, hist)
        suites.setdefault(cls.suite, []).append(app)
    return Fig2Result(profiles, suites, captures)


# ---------------------------------------------------------------------
# Fig. 7 — approximate-state utilization
# ---------------------------------------------------------------------
@dataclass(slots=True)
class Fig7Result:
    gs_pct: dict[tuple[str, int], float]   # (app, d) -> %
    gi_pct: dict[tuple[str, int], float]

    def render(self) -> str:
        """The figure as an aligned text table."""
        rows = []
        for app in _APPS:
            rows.append([
                _SHORT[app],
                f"{self.gs_pct[(app, 4)]:5.1f}", f"{self.gs_pct[(app, 8)]:5.1f}",
                f"{self.gi_pct[(app, 4)]:5.1f}", f"{self.gi_pct[(app, 8)]:5.1f}",
            ])
        rows.append([
            "Avg.",
            f"{np.mean([self.gs_pct[(a, 4)] for a in _APPS]):5.1f}",
            f"{np.mean([self.gs_pct[(a, 8)] for a in _APPS]):5.1f}",
            f"{np.mean([self.gi_pct[(a, 4)] for a in _APPS]):5.1f}",
            f"{np.mean([self.gi_pct[(a, 8)] for a in _APPS]):5.1f}",
        ])
        return ("Fig. 7: % of would-miss stores serviced by GS (a) / GI (b)\n"
                + format_table(
                    ["app", "GS d=4", "GS d=8", "GI d=4", "GI d=8"], rows))


def fig7(cache: SweepCache) -> Fig7Result:
    """Approximate-state utilization from the main sweep."""
    gs, gi = {}, {}
    for app in _APPS:
        for d in (4, 8):
            row = cache.row(app, d)
            gs[(app, d)] = row.gs_serviced_pct
            gi[(app, d)] = row.gi_serviced_pct
    return Fig7Result(gs, gi)


# ---------------------------------------------------------------------
# Fig. 8 — normalized coherence traffic breakdown
# ---------------------------------------------------------------------
_FIG8_CLASSES = [MessageClass.OTHER, MessageClass.DATA, MessageClass.GETS,
                 MessageClass.UPGRADE, MessageClass.GETX]


@dataclass(slots=True)
class Fig8Result:
    #: (app, d) -> {class: messages normalized to the app's d=0 total}
    normalized: dict[tuple[str, int], dict[MessageClass, float]]
    base: str = "MESI"             # the precise base protocol's name

    def total(self, app: str, d: int) -> float:
        """Normalized total traffic of one bar."""
        return sum(self.normalized[(app, d)].values())

    def reduction_pct(self, app: str, d: int) -> float:
        """Traffic reduction vs the app's baseline, percent."""
        return (1.0 - self.total(app, d)) * 100.0

    def average_reduction_pct(self, d: int) -> float:
        """Mean reduction across apps at one d."""
        return float(np.mean([self.reduction_pct(a, d) for a in _APPS]))

    def render(self) -> str:
        """The figure as an aligned text table."""
        rows = []
        for app in _APPS:
            for d in _D_SWEEP:
                split = self.normalized[(app, d)]
                rows.append(
                    [_SHORT[app], str(d)]
                    + [f"{split[k]:.3f}" for k in _FIG8_CLASSES]
                    + [f"{self.total(app, d):.3f}"]
                )
        return ("Fig. 8: normalized coherence traffic (per app, d=0 is "
                f"baseline {self.base})\n"
                + format_table(
                    ["app", "d"] + [k.value for k in _FIG8_CLASSES]
                    + ["total"], rows))


def fig8(cache: SweepCache) -> Fig8Result:
    """Per-class traffic, normalized to each app's baseline."""
    normalized = {}
    for app in _APPS:
        base_total = sum(cache.row(app, 0).traffic.values())
        for d in _D_SWEEP:
            traffic = cache.row(app, d).traffic
            normalized[(app, d)] = {
                k: traffic.get(k, 0) / base_total for k in _FIG8_CLASSES
            }
    return Fig8Result(normalized, _base_name(cache.options.protocol))


# ---------------------------------------------------------------------
# Fig. 9 — dynamic energy savings (NoC + memory hierarchy)
# ---------------------------------------------------------------------
@dataclass(slots=True)
class Fig9Result:
    noc_pct: dict[tuple[str, int], float]
    memory_pct: dict[tuple[str, int], float]
    combined_pct: dict[tuple[str, int], float]
    base: str = "MESI"             # the precise base protocol's name

    def average_combined(self, d: int) -> float:
        """Mean total savings across apps at one d."""
        return float(np.mean([self.combined_pct[(a, d)] for a in _APPS]))

    def render(self) -> str:
        """The figure as an aligned text table."""
        rows = []
        for app in _APPS:
            rows.append([_SHORT[app]] + [
                f"{self.noc_pct[(app, d)]:6.2f}" for d in (4, 8)
            ] + [
                f"{self.memory_pct[(app, d)]:6.2f}" for d in (4, 8)
            ] + [
                f"{self.combined_pct[(app, d)]:6.2f}" for d in (4, 8)
            ])
        rows.append(["Avg."] + [
            f"{np.mean([self.noc_pct[(a, d)] for a in _APPS]):6.2f}"
            for d in (4, 8)
        ] + [
            f"{np.mean([self.memory_pct[(a, d)] for a in _APPS]):6.2f}"
            for d in (4, 8)
        ] + [
            f"{self.average_combined(d):6.2f}" for d in (4, 8)
        ])
        return (f"Fig. 9: dynamic energy saved (%) vs baseline {self.base}\n"
                + format_table(
                    ["app", "NoC d=4", "NoC d=8", "Mem d=4", "Mem d=8",
                     "Total d=4", "Total d=8"], rows))


def fig9(cache: SweepCache) -> Fig9Result:
    """Dynamic-energy savings vs the baseline runs."""
    noc, mem, comb = {}, {}, {}
    for app in _APPS:
        base = cache.row(app, 0).energy
        for d in (4, 8):
            sav = cache.row(app, d).energy.savings_vs(base)
            noc[(app, d)] = sav.noc_pct
            mem[(app, d)] = sav.memory_pct
            comb[(app, d)] = sav.total_pct
    return Fig9Result(noc, mem, comb, _base_name(cache.options.protocol))


# ---------------------------------------------------------------------
# Fig. 10 — speedup
# ---------------------------------------------------------------------
@dataclass(slots=True)
class Fig10Result:
    speedup_pct: dict[tuple[str, int], float]
    base: str = "MESI"             # the precise base protocol's name

    def average(self, d: int) -> float:
        """Mean speedup across apps at one d."""
        return float(np.mean([self.speedup_pct[(a, d)] for a in _APPS]))

    def maximum(self, d: int) -> float:
        """Best per-app speedup at one d."""
        return max(self.speedup_pct[(a, d)] for a in _APPS)

    def render(self) -> str:
        """The figure as an aligned text table."""
        rows = [
            [_SHORT[a], f"{self.speedup_pct[(a, 4)]:6.2f}",
             f"{self.speedup_pct[(a, 8)]:6.2f}"]
            for a in _APPS
        ]
        rows.append(["Avg.", f"{self.average(4):6.2f}",
                     f"{self.average(8):6.2f}"])
        return (f"Fig. 10: speedup (%) vs baseline {self.base}\n"
                + format_table(["app", "d=4", "d=8"], rows))


def fig10(cache: SweepCache) -> Fig10Result:
    """Speedup vs the baseline runs."""
    speedup = {}
    for app in _APPS:
        base_cycles = cache.row(app, 0).cycles
        for d in (4, 8):
            speedup[(app, d)] = (
                base_cycles / cache.row(app, d).cycles - 1.0
            ) * 100.0
    return Fig10Result(speedup, _base_name(cache.options.protocol))


# ---------------------------------------------------------------------
# Fig. 11 — output error
# ---------------------------------------------------------------------
@dataclass(slots=True)
class Fig11Result:
    error_pct: dict[tuple[str, int], float]
    baseline_error_pct: dict[str, float]

    def average(self, d: int) -> float:
        """Mean output error across apps at one d."""
        return float(np.mean([self.error_pct[(a, d)] for a in _APPS]))

    def render(self) -> str:
        """The figure as an aligned text table."""
        rows = [
            [_SHORT[a], f"{self.error_pct[(a, 4)]:9.4f}",
             f"{self.error_pct[(a, 8)]:9.4f}"]
            for a in _APPS
        ]
        rows.append(["Avg.", f"{self.average(4):9.4f}",
                     f"{self.average(8):9.4f}"])
        return ("Fig. 11: output error (%) under Ghostwriter\n"
                + format_table(["app", "d=4", "d=8"], rows))


def fig11(cache: SweepCache) -> Fig11Result:
    """Output error of the Ghostwriter runs."""
    err, base = {}, {}
    for app in _APPS:
        base[app] = cache.row(app, 0).error_pct
        for d in (4, 8):
            err[(app, d)] = cache.row(app, d).error_pct
    return Fig11Result(err, base)


# ---------------------------------------------------------------------
# Fig. 12 — GI timeout sensitivity on the microbenchmark
# ---------------------------------------------------------------------
@dataclass(slots=True)
class Fig12Result:
    timeouts: list[int]
    gi_serviced_pct: list[float]
    error_pct: list[float]
    #: (label, capture) of every traced run (see :func:`_traced`)
    captures: list = field(default_factory=list)

    def render(self) -> str:
        """The figure as an aligned text table."""
        rows = [
            [str(t), f"{g:6.1f}", f"{e:8.2f}"]
            for t, g, e in zip(self.timeouts, self.gi_serviced_pct,
                               self.error_pct)
        ]
        return ("Fig. 12: GI timeout sensitivity "
                "(bad_dot_product, 4-distance)\n"
                + format_table(
                    ["timeout (cycles)", "serviced by GI (%)",
                     "output error MPE (%)"], rows))


def fig12_grid(timeouts=(128, 512, 1024),
               num_threads: int = DEFAULT_THREADS, n_points: int = 4096,
               seed: int = 12345,
               options: RunOptions | None = None) -> FigureGrid:
    """Fig. 12 as a grid: one Listing-1 run per GI timeout at d=4."""
    opts = options if options is not None else RunOptions()
    points = [
        GridPoint("bad_dot_product",
                  dict(d_distance=4, num_threads=num_threads, seed=seed,
                       gi_timeout=timeout, n_points=n_points, max_value=3,
                       options=opts),
                  label=f"gi_timeout={timeout}")
        for timeout in timeouts
    ]

    def finish(rows: list) -> Fig12Result:
        for row in rows:
            if isinstance(row, GridFailure):
                raise RuntimeError(f"fig12 point failed: {row.render()}")
        return Fig12Result(list(timeouts),
                           [row.gi_serviced_pct for row in rows],
                           [row.error_pct for row in rows],
                           _traced((p.label for p in points), rows))
    return FigureGrid(points, finish)


def fig12(timeouts=(128, 512, 1024), num_threads: int = DEFAULT_THREADS,
          n_points: int = 4096, seed: int = 12345,
          options: RunOptions | None = None) -> Fig12Result:
    """GI-timeout sensitivity sweep on the Listing-1 microbenchmark.

    ``options`` says how the underlying grid runs (workers, backend,
    result store, resume, per-point retry/timeout).
    """
    return fig12_grid(timeouts, num_threads, n_points, seed,
                      options).run(options)


# ---------------------------------------------------------------------
# Protocol-variant comparison on the false-sharing microbenchmark
# ---------------------------------------------------------------------
@dataclass(slots=True)
class FigProtocolsResult:
    protocols: list[str]
    rows: list[RunRow]          # aligned with ``protocols``
    #: (label, capture) of every traced run (see :func:`_traced`)
    captures: list = field(default_factory=list)

    def baseline_cycles(self) -> int:
        """Cycle count of the first precise row (usually ``mesi``)."""
        return self.rows[0].cycles

    def render(self) -> str:
        """The figure as an aligned text table."""
        base = self.baseline_cycles()
        table = [
            [p, str(r.cycles), f"{base / r.cycles:5.2f}x",
             str(r.total_traffic), f"{r.error_pct:8.3f}",
             f"{r.gs_serviced_pct:5.1f}", f"{r.gi_serviced_pct:5.1f}"]
            for p, r in zip(self.protocols, self.rows)
        ]
        return ("Protocol variants on the false-sharing microbenchmark "
                "(bad_dot_product)\n"
                + format_table(
                    ["protocol", "cycles", "speedup", "traffic",
                     "error %", "GS %", "GI %"], table))


def fig_protocols(protocols=None, *, d_distance: int = 4,
                  num_threads: int = DEFAULT_THREADS, n_points: int = 4096,
                  seed: int = 12345,
                  options: RunOptions | None = None) -> FigProtocolsResult:
    """Every registered protocol variant on the Listing-1 microbenchmark.

    Approximation-capable variants run at ``d_distance``; precise ones
    run at ``d=0`` (see :func:`repro.harness.sweeps.sweep_protocols`).
    """
    result = sweep_protocols(
        "bad_dot_product", protocols, d_distance=d_distance,
        num_threads=num_threads, seed=seed, options=options,
        n_points=n_points, max_value=3,
    )
    _ok(result, "protocol figure")
    return FigProtocolsResult(
        list(result.values), list(result.rows),
        _traced((f"protocol={p}" for p in result.values), result.rows))


# ---------------------------------------------------------------------
# Topology/scale sensitivity: GI staleness + GS acceptance vs directory
# distance (the sweep the paper never ran; ROADMAP item 2)
# ---------------------------------------------------------------------
@dataclass(slots=True)
class FigTopologyResult:
    #: (topology, cores) pairs, aligned with ``dir_hops`` and ``rows``
    points: list[tuple[str, int]]
    #: static mean hop distance from a node to a home directory
    dir_hops: list[float]
    rows: list[RunRow]
    #: (label, capture) of every traced run (see :func:`_traced`)
    captures: list = field(default_factory=list)

    def render(self) -> str:
        """The figure as an aligned text table."""
        table = [
            [t, str(c), f"{h:5.2f}", str(r.cycles),
             f"{r.gs_serviced_pct:5.1f}", f"{r.gi_serviced_pct:5.1f}",
             f"{r.gi_flashes_per_kcycle:7.2f}", str(r.flit_hops),
             f"{r.hops_per_flit:5.2f}", f"{r.error_pct:8.3f}"]
            for (t, c), h, r in zip(self.points, self.dir_hops, self.rows)
        ]
        return ("Topology/scale sensitivity (bad_dot_product): GI "
                "staleness and GS acceptance vs directory distance\n"
                + format_table(
                    ["topology", "cores", "dir hops", "cycles", "GS %",
                     "GI %", "flashes/kcyc", "flit-hops", "hops/flit",
                     "error %"], table))


def fig_topology(topologies=None, core_counts=(24, 64, 128, 256), *,
                 d_distance: int = 4, gi_timeout: int = 1024,
                 n_points: int = 4096, seed: int = 12345,
                 options: RunOptions | None = None) -> FigTopologyResult:
    """Core count x topology sweep on the Listing-1 microbenchmark.

    For each (topology, cores) cell the table reports the *static*
    mean node-to-directory hop distance next to the measured GS/GI
    service rates, the GI flash-invalidation rate, and the hop-weighted
    flit traffic — how the protocol's staleness/effectiveness shifts as
    the directory moves further away.
    """
    result = sweep_topology_scale(
        "bad_dot_product", topologies, core_counts, d_distance=d_distance,
        gi_timeout=gi_timeout, seed=seed, options=options,
        n_points=n_points, max_value=3,
    )
    _ok(result, "topology figure")
    opts = options if options is not None else RunOptions()
    dir_hops = []
    for topo, cores in result.values:
        cfg = experiment_config(d_distance=d_distance,
                                gi_timeout=gi_timeout, num_cores=cores,
                                options=opts.replace(topology=topo))
        dir_hops.append(cfg.noc.topo.mean_directory_hops())
    return FigTopologyResult(
        list(result.values), dir_hops, list(result.rows),
        _traced((f"{t}.cores={c}" for t, c in result.values), result.rows))

