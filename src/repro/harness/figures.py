"""Per-figure experiment drivers.

One driver per table/figure of the paper (see DESIGN.md §4).  Each
returns a small result object with the figure's rows/series plus a
``render()`` producing the text table the benchmarks and the CLI print.
Figures 7-11 share one underlying sweep (six apps x d in {0, 4, 8}),
which :class:`SweepCache` memoizes so regenerating all figures costs 18
runs, not 90.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.ddistance import SimilarityProfile, machine_store_histogram
from repro.coherence.policy import get_protocol
from repro.common.config import default_config, table1_rows
from repro.common.types import MessageClass
from repro.harness.experiment import (
    DEFAULT_SCALE, DEFAULT_THREADS, RunRow, experiment_config,
    run_workload_result,
)
from repro.harness.options import RunOptions
from repro.harness.parallel import GridFailure, GridPoint, run_grid
from repro.harness.sweeps import (
    SweepResult, sweep_protocols, sweep_threads, sweep_topology_scale,
)
from repro.workloads.registry import PAPER_WORKLOADS, table2_rows

__all__ = [
    "SweepCache", "fig1", "fig2", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig_protocols", "fig_topology", "table1", "table2",
]

_APPS = list(PAPER_WORKLOADS)
_D_SWEEP = (0, 4, 8)
_SHORT = {
    "histogram": "hist", "linear_regression": "linreg", "pca": "pca",
    "blackscholes": "blksch", "inversek2j": "invk2j", "jpeg": "jpeg",
}


def _fmt_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


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
                 protocol: str | None = None,
                 options: RunOptions | None = None) -> None:
        self.num_threads = num_threads
        self.scale = scale
        self.seed = seed
        opts = options if options is not None else RunOptions()
        self.protocol = protocol if protocol is not None else opts.protocol
        if opts.fault_rate:
            # faulty sweeps log-and-continue so every row completes
            opts = opts.replace(fault_policy="log")
        self.options = opts
        self._rows: dict[tuple[str, int], RunRow | GridFailure] = {}
        self._store = None      # lazily opened ResultStore handle

    def _run_kwargs(self, app: str, d: int) -> dict:
        return dict(
            d_distance=d, num_threads=self.num_threads,
            scale=self.scale, seed=self.seed, protocol=self.protocol,
            options=self.options,
        )

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

    def prefetch(self, apps=None, ds=_D_SWEEP) -> None:
        """Run the uncached (app, d) points of the grid through
        :func:`~repro.harness.parallel.run_grid` and cache every outcome,
        :class:`GridFailure` included.

        With a configured result store every completed point commits as
        it lands, so a killed prefetch resumes from the committed rows.
        """
        keys = [(app, d) for app in (apps or _APPS) for d in ds
                if (app, d) not in self._rows]
        if not keys:
            return
        points = [
            GridPoint(app, self._run_kwargs(app, d), label=f"{app} d={d}")
            for app, d in keys
        ]
        outcomes = run_grid(points, options=self.options,
                            store=self.result_store())
        self._rows.update(zip(keys, outcomes))

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
        return f"{self.title}\n{_fmt_table(self.headers, self.rows)}"


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

    def render(self) -> str:
        """The figure as an aligned text table."""
        rows = [
            [str(t), f"{n:.2f}x", f"{p:.2f}x"]
            for t, n, p in zip(self.thread_counts, self.naive_speedup,
                               self.private_speedup)
        ]
        return ("Fig. 1: dot-product speedup vs threads (baseline "
                f"{self.base})\n"
                + _fmt_table(["threads", "naive (Listing 1)",
                              "privatized (Listing 2)"], rows))


def fig1(thread_counts=(1, 2, 4, 8, 16, 24), n_points: int = 4096,
         seed: int = 12345, options: RunOptions | None = None) -> Fig1Result:
    """Run the Listing-1/Listing-2 thread sweep on the precise machine.

    Each listing is one :func:`~repro.harness.sweeps.sweep_threads`
    grid at ``d_distance=0``, so ``options`` shapes the machine
    (protocol, topology, checks, faults) and says how the grid runs
    (workers, backend, result store, resume).
    """
    def speedups(name: str, **kwargs) -> list[float]:
        result = sweep_threads(name, thread_counts, d_distance=0, scale=1.0,
                               seed=seed, options=options,
                               n_points=n_points, **kwargs)
        return _ok(result, "fig1").speedups_vs_first()

    protocol = (options or RunOptions()).protocol
    return Fig1Result(list(thread_counts),
                      speedups("bad_dot_product", approximate=False),
                      speedups("private_dot_product"),
                      _base_name(protocol))


# ---------------------------------------------------------------------
# Fig. 2 — store-value d-distance CDFs per suite
# ---------------------------------------------------------------------
@dataclass(slots=True)
class Fig2Result:
    profiles: dict[str, SimilarityProfile]   # app -> curve
    suites: dict[str, list[str]]             # suite -> apps

    def render(self) -> str:
        """The figure as an aligned text table."""
        ds = [0, 2, 4, 8, 12, 16, 24, 32]
        rows = []
        for app, prof in self.profiles.items():
            rows.append([_SHORT.get(app, app)]
                        + [f"{prof.fraction_within(d) * 100:5.1f}%" for d in ds])
        return ("Fig. 2: cumulative d-distance distribution of stores\n"
                + _fmt_table(["app"] + [f"<= {d}" for d in ds], rows))

    def suite_average_within(self, suite: str, d: int) -> float:
        """Mean P(<= d) across the suite's apps."""
        apps = self.suites[suite]
        return float(np.mean([
            self.profiles[a].fraction_within(d) for a in apps
        ]))


def fig2(num_threads: int = DEFAULT_THREADS, scale: float = DEFAULT_SCALE,
         seed: int = 12345, options: RunOptions | None = None) -> Fig2Result:
    """Profile store-value similarity over every Table 2 app.

    Each app runs once on the precise machine (``d_distance=0``) under
    ``options``.  The profile is read from the live machine, so these
    runs take no worker pool or result store.
    """
    profiles: dict[str, SimilarityProfile] = {}
    suites: dict[str, list[str]] = {}
    for app, cls in PAPER_WORKLOADS.items():
        result, _cfg = run_workload_result(
            app, d_distance=0, num_threads=num_threads, scale=scale,
            seed=seed, options=options)
        hist = machine_store_histogram(result.machine)
        profiles[app] = SimilarityProfile(app, hist)
        suites.setdefault(cls.suite, []).append(app)
    return Fig2Result(profiles, suites)


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
                + _fmt_table(
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
                + _fmt_table(
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
    return Fig8Result(normalized, _base_name(cache.protocol))


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
                + _fmt_table(
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
    return Fig9Result(noc, mem, comb, _base_name(cache.protocol))


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
                + _fmt_table(["app", "d=4", "d=8"], rows))


def fig10(cache: SweepCache) -> Fig10Result:
    """Speedup vs the baseline runs."""
    speedup = {}
    for app in _APPS:
        base_cycles = cache.row(app, 0).cycles
        for d in (4, 8):
            speedup[(app, d)] = (
                base_cycles / cache.row(app, d).cycles - 1.0
            ) * 100.0
    return Fig10Result(speedup, _base_name(cache.protocol))


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
                + _fmt_table(["app", "d=4", "d=8"], rows))


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

    def render(self) -> str:
        """The figure as an aligned text table."""
        rows = [
            [str(t), f"{g:6.1f}", f"{e:8.2f}"]
            for t, g, e in zip(self.timeouts, self.gi_serviced_pct,
                               self.error_pct)
        ]
        return ("Fig. 12: GI timeout sensitivity "
                "(bad_dot_product, 4-distance)\n"
                + _fmt_table(
                    ["timeout (cycles)", "serviced by GI (%)",
                     "output error MPE (%)"], rows))


def fig12(timeouts=(128, 512, 1024), num_threads: int = DEFAULT_THREADS,
          n_points: int = 4096, seed: int = 12345,
          options: RunOptions | None = None) -> Fig12Result:
    """GI-timeout sensitivity sweep on the Listing-1 microbenchmark.

    ``options`` says how the underlying grid runs (workers, backend,
    result store, resume, per-point retry/timeout).
    """
    extra = {"options": options} if options is not None else {}
    points = [
        GridPoint("bad_dot_product",
                  dict(d_distance=4, num_threads=num_threads, seed=seed,
                       gi_timeout=timeout, n_points=n_points, max_value=3,
                       **extra),
                  label=f"gi_timeout={timeout}")
        for timeout in timeouts
    ]
    gi_pct, err = [], []
    for row in run_grid(points, options=options):
        if isinstance(row, GridFailure):
            raise RuntimeError(f"fig12 point failed: {row.render()}")
        gi_pct.append(row.gi_serviced_pct)
        err.append(row.error_pct)
    return Fig12Result(list(timeouts), gi_pct, err)


# ---------------------------------------------------------------------
# Protocol-variant comparison on the false-sharing microbenchmark
# ---------------------------------------------------------------------
@dataclass(slots=True)
class FigProtocolsResult:
    protocols: list[str]
    rows: list[RunRow]          # aligned with ``protocols``

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
                + _fmt_table(
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
    return FigProtocolsResult(list(result.values), list(result.rows))


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
                + _fmt_table(
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
    dir_hops = []
    for topo, cores in result.values:
        cfg = experiment_config(d_distance=d_distance,
                                gi_timeout=gi_timeout, num_cores=cores,
                                topology=topo, options=options)
        dir_hops.append(cfg.noc.topo.mean_directory_hops())
    return FigTopologyResult(list(result.values), dir_hops,
                             list(result.rows))

