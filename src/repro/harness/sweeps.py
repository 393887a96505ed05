"""Parameterized sweep helpers.

Library-level building blocks for sensitivity studies beyond the fixed
figure set: sweep thread counts, d-distances, or GI timeouts over any
registered workload and get back aligned result rows.

Every sweep runs its grid through
:func:`~repro.harness.parallel.run_grid`, and its ``options``
(:class:`RunOptions`) say how: ``jobs=N`` fans the points out over a
process pool, ``backend="batch"`` runs d/gi-swept points in lockstep;
results are aggregated in parameter order and are bit-identical to a
serial run.  A point that raises — e.g. a configuration that genuinely
deadlocks — becomes a :class:`~repro.harness.parallel.GridFailure` row;
sibling points still complete.

``options.store`` makes the sweep durable: every completed point
commits to a content-addressed result store and a re-run (or a crashed
sweep restarted with ``resume``) serves committed points from the store
instead of recomputing them, with bit-identical results.
``point_retries``/``point_timeout`` add bounded retry with backoff and
per-point wall-clock budgets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.harness.experiment import DEFAULT_SCALE, DEFAULT_THREADS, RunRow
from repro.harness.options import RunOptions
from repro.harness.parallel import GridFailure, GridPoint, run_grid

__all__ = ["SweepResult", "sweep_d_distance", "sweep_threads",
           "sweep_gi_timeout", "sweep_protocols", "sweep_topology_scale"]


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Rows of a 1-D sweep, aligned with its parameter values.

    A row is either a :class:`RunRow` or, when that grid point crashed
    in isolation, a :class:`GridFailure`.
    """

    parameter: str
    values: tuple
    rows: tuple[RunRow | GridFailure, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.rows):
            raise ValueError("values/rows length mismatch")

    def failures(self) -> list[tuple[object, GridFailure]]:
        """(parameter value, failure) for every crashed grid point."""
        return [(v, r) for v, r in zip(self.values, self.rows)
                if isinstance(r, GridFailure)]

    def ok_rows(self) -> list[RunRow]:
        """The successful rows, in parameter order."""
        return [r for r in self.rows if not isinstance(r, GridFailure)]

    def series(self, attr: str) -> list[float]:
        """Extract one column, e.g. ``series('cycles')``; a failed grid
        point contributes ``nan``."""
        return [
            math.nan if isinstance(r, GridFailure) else float(getattr(r, attr))
            for r in self.rows
        ]

    def speedups_vs_first(self) -> list[float]:
        """Cycle-count speedup of each point relative to the first."""
        first = self.rows[0]
        if isinstance(first, GridFailure):
            raise ValueError(
                f"cannot normalize speedups: first sweep point "
                f"({self.parameter}={self.values[0]!r}) failed "
                f"({first.error_type}: {first.message})"
            )
        base = first.cycles
        return [
            math.nan if isinstance(r, GridFailure) else base / r.cycles
            for r in self.rows
        ]

    def render(self) -> str:
        """One-line-per-point text summary."""
        lines = [f"sweep over {self.parameter}"]
        for v, r in zip(self.values, self.rows):
            if isinstance(r, GridFailure):
                lines.append(f"  {self.parameter}={v!r:>6}: {r.render()}")
                continue
            lines.append(
                f"  {self.parameter}={v!r:>6}: cycles={r.cycles:>9} "
                f"error={r.error_pct:8.3f}% GS%={r.gs_serviced_pct:5.1f} "
                f"GI%={r.gi_serviced_pct:5.1f}"
            )
        return "\n".join(lines)


def _sweep(parameter: str, values: Sequence, points: list[GridPoint], *,
           options: RunOptions | None) -> SweepResult:
    """Run ``points`` under ``options``; a point that names its own
    ``options`` (a protocol or topology sweep) keeps them."""
    opts = options if options is not None else RunOptions()
    points = [GridPoint(p.workload, {"options": opts, **p.kwargs}, p.label)
              for p in points]
    rows = run_grid(points, options=opts)
    return SweepResult(parameter, tuple(values), tuple(rows))


def sweep_d_distance(workload: str, d_values: Sequence[int] = (0, 2, 4, 8, 16),
                     *, num_threads: int = DEFAULT_THREADS,
                     scale: float = DEFAULT_SCALE, seed: int = 12345,
                     options: RunOptions | None = None,
                     **kwargs) -> SweepResult:
    """Accuracy/benefit trade-off curve over the d-distance knob
    (``d=0`` is the precise machine)."""
    points = [
        GridPoint(workload, dict(d_distance=d, num_threads=num_threads,
                                 scale=scale, seed=seed, **kwargs),
                  label=f"d_distance={d}")
        for d in d_values
    ]
    return _sweep("d_distance", d_values, points, options=options)


def sweep_threads(workload: str, thread_counts: Sequence[int] = (1, 2, 4, 8),
                  *, d_distance: int = 0, scale: float = DEFAULT_SCALE,
                  seed: int = 12345, options: RunOptions | None = None,
                  **kwargs) -> SweepResult:
    """Scalability curve: the Fig. 1 methodology for any workload
    (:func:`~repro.harness.figures.fig1` is two of these at the default
    ``d_distance=0``, the precise machine)."""
    points = [
        GridPoint(workload, dict(d_distance=d_distance, num_threads=t,
                                 scale=scale, seed=seed, **kwargs),
                  label=f"threads={t}")
        for t in thread_counts
    ]
    return _sweep("threads", thread_counts, points, options=options)


def sweep_gi_timeout(workload: str,
                     timeouts: Sequence[int] = (128, 512, 1024),
                     *, d_distance: int = 4,
                     num_threads: int = DEFAULT_THREADS,
                     scale: float = DEFAULT_SCALE, seed: int = 12345,
                     options: RunOptions | None = None,
                     **kwargs) -> SweepResult:
    """The Fig. 12 methodology, for any workload."""
    points = [
        GridPoint(workload, dict(d_distance=d_distance, gi_timeout=t,
                                 num_threads=num_threads, scale=scale,
                                 seed=seed, **kwargs),
                  label=f"gi_timeout={t}")
        for t in timeouts
    ]
    return _sweep("gi_timeout", timeouts, points, options=options)


def sweep_protocols(workload: str = "bad_dot_product",
                    protocols: Sequence[str] | None = None,
                    *, d_distance: int = 4,
                    num_threads: int = DEFAULT_THREADS,
                    scale: float = DEFAULT_SCALE, seed: int = 12345,
                    options: RunOptions | None = None,
                    **kwargs) -> SweepResult:
    """One run per registered protocol variant on the same workload.

    Approximation-capable variants run at ``d_distance``; precise
    variants run at ``d=0``: their policy has no GS/GI to parameterize,
    so their row carries the baseline's ``d_distance`` label.
    """
    from repro.coherence.policy import available_protocols, get_protocol

    if protocols is None:
        protocols = available_protocols()
    opts = options if options is not None else RunOptions()
    points = [
        GridPoint(workload,
                  dict(d_distance=d_distance if get_protocol(p).approx else 0,
                       num_threads=num_threads, scale=scale, seed=seed,
                       options=opts.replace(protocol=p), **kwargs),
                  label=f"protocol={p}")
        for p in protocols
    ]
    return _sweep("protocol", tuple(protocols), points, options=options)


def sweep_topology_scale(workload: str = "bad_dot_product",
                         topologies: Sequence[str] | None = None,
                         core_counts: Sequence[int] = (24, 64, 128, 256),
                         *, d_distance: int = 4, gi_timeout: int = 1024,
                         scale: float = DEFAULT_SCALE, seed: int = 12345,
                         options: RunOptions | None = None,
                         **kwargs) -> SweepResult:
    """One run per (topology, core count) — the ``fig_topology`` grid.

    Sweeps the interconnect shape (every registered topology by
    default) against core count, so GI-timeout flash rate, GS
    acceptance, and hop-weighted flit traffic can be read against the
    growing NoC distance to the directory.  Sweep values are
    ``(topology, cores)`` pairs, in that nesting order.
    """
    from repro.noc.topologies import available_topologies

    if topologies is None:
        topologies = available_topologies()
    values = [(t, c) for t in topologies for c in core_counts]
    opts = options if options is not None else RunOptions()
    points = [
        GridPoint(workload,
                  dict(d_distance=d_distance, gi_timeout=gi_timeout,
                       num_threads=c, scale=scale, seed=seed,
                       options=opts.replace(topology=t), **kwargs),
                  label=f"topology={t} cores={c}")
        for t, c in values
    ]
    return _sweep("topology_scale", tuple(values), points, options=options)
