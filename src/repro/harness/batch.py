"""Batched grid execution: the ``backend="batch"`` path of ``run_grid``.

Groups a grid's points into lockstep *lane groups* — points that differ
only in the swept ``d_distance`` / ``gi_timeout`` knobs — and drives
each group through the :mod:`repro.sim.batch` engine: one serial
representative run per decision-equivalence class, every provably
identical lane served from it, disagreeing lanes peeled back to the
ordinary per-point interpreter.  The contract is exactly
:func:`repro.harness.parallel.fan_out` over ``_run_point``: one outcome
(``RunRow`` or ``GridFailure``) per point in input order, ``on_result``
fired as each point finalizes — so the store/resume/commit machinery of
``run_grid`` composes unchanged.

Trust-but-verify: for every share event, :data:`VERIFY_SHARED_SAMPLE`
of the shared lanes re-run through the serial interpreter and their
rows are compared against the batch-built rows.  A mismatch (which the
soundness argument says cannot happen — this is the backstop for that
argument) degrades the *whole* share set to serial execution, so the
backend can mispredict performance but never results.

Points that cannot be grouped — no integer ``d_distance``, tracing
enabled (obs captures are run-local), unhashable extras — simply run
serially, as do singleton groups.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.experiment import (
    DEFAULT_THREADS, experiment_config, row_from_result, run_workload_result,
)
from repro.harness.parallel import (
    GridFailure, GridPoint, RetryPolicy, _attempt_serial,
    _failure_from, _run_point, _traceback_tail,
)
from repro.sim.batch import Lane, DecisionTrace, RepRun, probe_hook, run_group
from repro.store.keys import canonical_point

__all__ = ["BatchReport", "batch_fan_out", "group_key",
           "VERIFY_SHARED_SAMPLE"]

#: shared lanes per share event that re-run serially as an end-to-end
#: cross-check of the sharing proof (0 disables the backstop)
VERIFY_SHARED_SAMPLE = 1


@dataclass
class BatchReport:
    """What the batch executor actually did, for tests and diagnostics.

    ``reps + verified + serial + degraded`` is the number of serial
    simulations executed; ``shared`` lanes were served without one.
    """

    groups: int = 0      #: lockstep groups executed
    lanes: int = 0       #: points that entered a lockstep group
    serial: int = 0      #: points run serially (unbatchable/singleton)
    reps: int = 0        #: representative runs (peel recursion)
    shared: int = 0      #: lanes served from a representative's machine
    verified: int = 0    #: shared lanes re-run as the serial cross-check
    degraded: int = 0    #: lanes forced serial after a failed cross-check
    divergences: list = field(default_factory=list)  #: (index, why)


def group_key(point: GridPoint):
    """The lockstep-group key of a grid point, or ``None`` when the
    point must run serially.

    Two points share a group exactly when their kwargs agree on
    everything but ``d_distance``/``gi_timeout`` *and* they sit on the
    same side of the approximation on/off switch (``d_distance == 0``
    resolves a different effective protocol, so it never groups with
    enabled lanes).
    """
    kwargs = dict(point.kwargs)
    d = kwargs.get("d_distance")
    if not isinstance(d, int) or isinstance(d, bool):
        return None
    gi = kwargs.get("gi_timeout", 1024)
    if not isinstance(gi, int) or isinstance(gi, bool):
        return None
    options = kwargs.get("options")
    if options is not None and getattr(options, "tracing", False):
        return None
    kwargs.pop("d_distance", None)
    kwargs.pop("gi_timeout", None)
    try:
        key = (canonical_point(point.workload, kwargs), d > 0)
        hash(key)
    except Exception:
        return None
    return key


def _lane_cfg(kwargs: dict):
    """The SimConfig :func:`~repro.harness.experiment.run_workload`
    would build for this point — the per-lane config shared lanes use
    to rebuild their own rows (protocol tag, energy model, d label)."""
    d = kwargs["d_distance"]
    return experiment_config(
        enabled=d > 0, d_distance=max(d, 1),
        gi_timeout=kwargs.get("gi_timeout", 1024),
        num_cores=kwargs.get("num_threads", DEFAULT_THREADS),
        protocol=kwargs.get("protocol"),
        topology=kwargs.get("topology"),
        options=kwargs.get("options"),
    )


def _rep_run(point: GridPoint) -> RepRun:
    """Run one representative serially with the decision probe armed."""
    records: list = []
    with probe_hook(records):
        result, cfg = run_workload_result(point.workload,
                                          **dict(point.kwargs))
    gw = cfg.ghostwriter
    trace = DecisionTrace(records, swept_d=gw.d_distance,
                          mode=gw.similarity_mode)
    return RepRun(result=result, cfg=cfg, trace=trace)


def _shared_row(point: GridPoint, out: RepRun):
    """Rebuild a lane's ``RunRow`` from the representative's machine,
    under the lane's own config and d label."""
    kwargs = dict(point.kwargs)
    cfg = _lane_cfg(kwargs)
    return row_from_result(point.workload, kwargs["d_distance"],
                           out.result, cfg)


def batch_fan_out(points, *, retry: RetryPolicy = RetryPolicy(),
                  on_result=None, report: BatchReport | None = None):
    """``fan_out(_run_point, points)`` with lockstep lane sharing.

    Runs in-process (representatives are serial runs; the parallelism
    is *across lanes of one run*, not across processes).  Outcomes are
    returned in input order; failures carry the local index, exactly as
    ``fan_out`` reports them.
    """
    points = list(points)
    rpt = report if report is not None else BatchReport()
    results: list = [None] * len(points)

    def emit(i: int, outcome) -> None:
        results[i] = outcome
        if on_result is not None:
            on_result(i, outcome)

    groups: dict = {}
    serial: list[int] = []
    for i, point in enumerate(points):
        key = group_key(point)
        if key is None:
            serial.append(i)
        else:
            groups.setdefault(key, []).append(i)
    # a singleton group has nothing to share with: plain serial run
    for key in [k for k, idxs in groups.items() if len(idxs) == 1]:
        serial.extend(groups.pop(key))
    rpt.serial += len(serial)
    for i in sorted(serial):
        emit(i, _attempt_serial(_run_point, i, points[i], retry))

    for idxs in groups.values():
        rpt.groups += 1
        rpt.lanes += len(idxs)
        _run_lockstep_group(points, idxs, retry, emit, rpt)
    return results


def _run_lockstep_group(points, idxs, policy, emit, rpt) -> None:
    lanes = []
    for i in idxs:
        kwargs = dict(points[i].kwargs)
        lanes.append(Lane(d=kwargs["d_distance"],
                          gi=kwargs.get("gi_timeout", 1024), payload=i))

    def run_rep(lane: Lane):
        rpt.reps += 1
        return _attempt_serial(_rep_run, lane.payload,
                               points[lane.payload], policy)

    for rep, out, shared in run_group(lanes, run_rep):
        if not isinstance(out, RepRun):
            # representative failed: its outcome is its own (a
            # GridFailure); nobody shared it, the rest re-seeded
            emit(rep.payload, out)
            continue
        try:
            emit(rep.payload, _shared_row(points[rep.payload], out))
        except Exception as exc:
            emit(rep.payload, _failure_from(exc, rep.payload,
                                            points[rep.payload],
                                            tb=_traceback_tail()))
        # trust-but-verify: sample lanes re-run serially; a mismatch
        # degrades every remaining shared lane to serial execution
        sample = shared[:VERIFY_SHARED_SAMPLE]
        rest = shared[VERIFY_SHARED_SAMPLE:]
        diverged = False
        for lane in sample:
            rpt.verified += 1
            serial_out = _attempt_serial(_run_point, lane.payload,
                                         points[lane.payload], policy)
            try:
                batch_row = _shared_row(points[lane.payload], out)
            except Exception:
                batch_row = None
            if batch_row is not None and serial_out == batch_row:
                rpt.shared += 1
                emit(lane.payload, batch_row)
            else:
                diverged = True
                rpt.divergences.append(
                    (lane.payload, "serial cross-check mismatch"))
                emit(lane.payload, serial_out)
        for lane in rest:
            if diverged:
                rpt.degraded += 1
                emit(lane.payload,
                     _attempt_serial(_run_point, lane.payload,
                                     points[lane.payload], policy))
                continue
            try:
                emit(lane.payload, _shared_row(points[lane.payload], out))
                rpt.shared += 1
            except Exception as exc:
                emit(lane.payload,
                     _failure_from(exc, lane.payload, points[lane.payload],
                                   tb=_traceback_tail()))
