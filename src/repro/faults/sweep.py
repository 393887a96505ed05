"""Output error vs. fault rate: baseline MESI against Ghostwriter.

The paper's thesis is that error-tolerant applications absorb the value
divergence Ghostwriter introduces; the same tolerance should also absorb
a background rate of soft errors.  This driver runs one workload at a
sweep of cache-flip rates (flips per million cycles, seeded and
deterministic — see :class:`repro.faults.injector.FaultInjector`) under
baseline MESI and Ghostwriter d in {4, 8}, with the ``log`` degradation
policy so corruptions flow into the application output, and reports the
resulting output error.

``python -m repro.faults.sweep`` prints the table; ``--help`` lists the
knobs (workload, threads, scale, rates, seeds-per-cell).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.harness.options import RunOptions
from repro.harness.parallel import GridFailure, GridPoint, run_grid
from repro.workloads.registry import ALL_WORKLOADS, PAPER_WORKLOADS

__all__ = ["FaultSweepResult", "fault_sweep", "main", "DEFAULT_RATES"]

DEFAULT_RATES: tuple[float, ...] = (0.0, 20.0, 100.0, 500.0)

#: (label, d_distance) columns of the sweep; d=0 is baseline MESI
_CONFIGS: tuple[tuple[str, int], ...] = (
    ("mesi", 0), ("gw d=4", 4), ("gw d=8", 8),
)


@dataclass(frozen=True, slots=True)
class FaultSweepResult:
    """Error-vs-fault-rate table for one workload.

    Each cell is ``(mean_error_pct | None, crashes, runs)``: faults that
    corrupt control data (an index, a loop bound) crash the run rather
    than degrade the output, and fault-injection studies report the two
    outcomes separately.
    """

    workload: str
    metric: str
    rates: tuple[float, ...]
    #: ``cells[(rate, label)] -> (mean error % or None, crashes, runs)``
    cells: dict

    @staticmethod
    def _cell_text(cell) -> str:
        error, crashes, runs = cell
        if error is None:
            return f"crash ({crashes}/{runs})"
        text = f"{error:.3f}"
        if crashes:
            text += f" ({crashes}/{runs} crash)"
        return text

    def render(self) -> str:
        """The text table the CLI prints."""
        headers = ["flips/Mcycle"] + [label for label, _d in _CONFIGS]
        rows = []
        for rate in self.rates:
            row = [f"{rate:g}"]
            for label, _d in _CONFIGS:
                row.append(self._cell_text(self.cells[(rate, label)]))
            rows.append(row)
        widths = [
            max(len(h), *(len(r[i]) for r in rows))
            for i, h in enumerate(headers)
        ]
        def line(cells):
            return "  ".join(
                c.rjust(w) for c, w in zip(cells, widths)
            ).rstrip()
        out = [
            f"{self.workload}: output error ({self.metric}, %) vs "
            "injected cache-flip rate",
            line(headers),
            line(["-" * w for w in widths]),
        ]
        out.extend(line(r) for r in rows)
        return "\n".join(out)


def fault_sweep(workload: str = "histogram", *,
                num_threads: int = 8, scale: float = 0.25,
                rates: tuple[float, ...] = DEFAULT_RATES,
                seeds_per_cell: int = 1,
                seed: int = 12345,
                options: RunOptions | None = None) -> FaultSweepResult:
    """Run the full (rate x config x fault-seed) grid and average over
    fault seeds.

    Every run shares the workload seed (identical inputs and thread
    programs); only the fault seed varies inside a cell, so differences
    between cells are attributable to the injected faults and the
    protocol's response alone.  ``options.jobs`` fans the grid out over a
    process pool (:mod:`repro.harness.parallel`); a run killed by
    control-data corruption comes back as a
    :class:`~repro.harness.parallel.GridFailure` and is tallied as a
    crash, exactly as in the serial path.  The per-cell fault
    rate/seed/policy always override the corresponding ``options``
    fields.
    """
    if workload not in ALL_WORKLOADS:
        raise KeyError(
            f"unknown workload {workload!r}; available: "
            f"{sorted(ALL_WORKLOADS)}"
        )
    base = options if options is not None else RunOptions()
    cls = PAPER_WORKLOADS.get(workload)
    metric = cls.error_metric if cls is not None else "error"
    grid = [
        (rate, label,
         GridPoint(workload,
                   dict(d_distance=d, num_threads=num_threads, scale=scale,
                        seed=seed,
                        options=base.replace(fault_rate=rate,
                                             fault_seed=1 + k,
                                             fault_policy="log")),
                   label=f"{label} rate={rate:g} fault_seed={1 + k}"))
        for rate in rates
        for label, d in _CONFIGS
        for k in range(seeds_per_cell)
    ]
    # base says how the grid runs (workers, backend, result store,
    # resume, retry policy); the per-cell fault fields are part of each
    # point's content key, so every (rate, config, fault-seed) cell
    # commits and resumes independently
    outcomes = run_grid([p for _r, _l, p in grid], options=base)
    errors: dict[tuple, list[float]] = {}
    crashes: dict[tuple, int] = {}
    for (rate, label, _point), outcome in zip(grid, outcomes):
        key = (rate, label)
        errors.setdefault(key, [])
        crashes.setdefault(key, 0)
        if isinstance(outcome, GridFailure):
            # control-data corruption (e.g. a flipped index) killed the
            # run; tally it instead of aborting the sweep
            crashes[key] += 1
        else:
            errors[key].append(outcome.error_pct)
    cells = {
        key: (sum(errs) / len(errs) if errs else None,
              crashes[key], seeds_per_cell)
        for key, errs in errors.items()
    }
    return FaultSweepResult(workload=workload, metric=metric,
                            rates=tuple(rates), cells=cells)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.faults.sweep``: print the error-vs-rate table."""
    import argparse
    import time

    p = argparse.ArgumentParser(
        prog="repro.faults.sweep",
        description="Output error vs injected cache-fault rate, "
                    "MESI vs Ghostwriter d in {4, 8}.",
    )
    p.add_argument("--workload", default="histogram",
                   choices=sorted(ALL_WORKLOADS))
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--rates", type=float, nargs="+",
                   default=list(DEFAULT_RATES),
                   metavar="FLIPS_PER_MCYCLE")
    p.add_argument("--seeds-per-cell", type=int, default=1,
                   help="fault seeds averaged per table cell")
    p.add_argument("--seed", type=int, default=12345,
                   help="workload input seed (shared by every run)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the (rate x config x seed) "
                        "grid (results identical to --jobs 1)")
    p.add_argument("--store", metavar="DB", default=None,
                   help="durable result store: commit every cell as it "
                        "lands and resume a killed sweep from it "
                        "(see repro.store)")
    p.add_argument("--resume", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="serve cells already committed to --store "
                        "(--no-resume recomputes and overwrites)")
    p.add_argument("--retries", type=int, default=0, metavar="K",
                   help="re-executions granted to transiently failing "
                        "cells (worker death, timeout); deterministic "
                        "crashes never retry")
    p.add_argument("--point-timeout", type=float, default=0.0,
                   metavar="SEC",
                   help="wall-clock budget per cell, seconds (0 = none)")
    args = p.parse_args(argv)
    for flag, value, low in (("--threads", args.threads, 1),
                             ("--seeds-per-cell", args.seeds_per_cell, 1),
                             ("--jobs", args.jobs, 1),
                             ("--retries", args.retries, 0),
                             ("--point-timeout", args.point_timeout, 0),
                             ("--rates", min(args.rates), 0)):
        if value < low:
            p.error(f"{flag} must be >= {low}, got {value:g}")
    if args.scale <= 0:
        p.error(f"--scale must be > 0, got {args.scale:g}")

    t0 = time.time()
    result = fault_sweep(
        args.workload, num_threads=args.threads, scale=args.scale,
        rates=tuple(args.rates), seeds_per_cell=args.seeds_per_cell,
        seed=args.seed,
        options=RunOptions(jobs=args.jobs, store=args.store,
                           resume=args.resume, point_retries=args.retries,
                           point_timeout=args.point_timeout),
    )
    print(result.render())
    print(f"[{time.time() - t0:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
