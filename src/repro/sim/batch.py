"""Lockstep batched multi-point execution (the batch backend's engine).

A sweep grid — d-distance, GI-timeout — is many *almost identical*
simulations: every point runs the same compiled program on the same
machine, and the swept parameter reaches the simulation through exactly
two narrow interfaces:

* ``d_distance`` is consumed **only** by the scribe comparator
  (:meth:`repro.scribe.scribe_unit.ScribeUnit.check`, reached from the
  three scribble sites in :mod:`repro.cache.l1`) after the workload
  programs it via ``SetAprx`` (``d_distance=0`` is the precise machine,
  a different policy, so it never shares a group with ``d > 0`` lanes);
* ``gi_timeout`` is consumed **only** when an L1 arms the GI
  flash-invalidate timer (``L1Controller._enter_gi``).

So instead of re-interpreting every point, this module advances a whole
group of points ("lanes") in lockstep through **one** serial
*representative* run whose scribe units carry a decision-trace probe.
The probe records every comparator decision; a numpy pass over the
trace (:func:`repro.analysis.ddistance.within_distance_array` for the
bitwise mode) then *predicts* each other lane's decision at every check
at once.  A lane whose predicted decision vector equals the
representative's recorded decisions — and whose GI timeout either
matches the representative's or provably never mattered because the
timer was never armed — would have executed a bit-identical simulation,
so the representative's finished machine **is** that lane's result.
Lanes that disagree anywhere *peel*: they drop out of the batch and
recurse with a new representative, ultimately falling back to the
ordinary per-point ``Core._step`` interpreter — the same
validate-and-deoptimize shape the compiled-program layer uses inside a
single run.

Soundness of the substitution rule (why a passed prediction can never
share a wrong result): at a recorded check with programmed distance
``p``, the lane's scribe is programmed with the lane's swept value
``d_lane`` if the site's ``SetAprx`` operand was the swept parameter,
and with ``p`` itself if the operand was hardcoded.  Records with
``p != d_rep`` are necessarily hardcoded, so the lane decides exactly
as recorded.  Records with ``p == d_rep`` are predicted under
``d_lane``; if the prediction matches the recorded outcome then *both*
possible programmings agree with the representative — the swept case by
the prediction, the hardcoded-coincident case because it replays the
recorded decision verbatim.  A failed prediction at a
hardcoded-coincident site merely peels a lane that could have shared:
wasted work, never a wrong result.

The grid-level orchestration (grouping ``run_grid`` points, building
``RunRow``s, the trust-but-verify serial sample) lives in
:mod:`repro.harness.batch`; this module is the generic engine, also
driven directly by the fuzzer's batch differential
(:func:`repro.verify.fuzz.run_differential` with ``backend="batch"``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.analysis.ddistance import within_distance_array
from repro.sim.machine import machine_hook

__all__ = [
    "DecisionTrace", "Lane", "RepRun", "probe_hook", "run_group",
    "share_split", "gi_never_armed",
]


def probe_hook(records: list):
    """A :func:`~repro.sim.machine.machine_hook` context that attaches
    ``records`` as the decision-trace probe of every L1 scribe unit of
    machines constructed while the context is active.

    Each comparator decision appends
    ``(write_word, block_word, programmed_d, ok)``.

    Composition with the hit-run fast lane (:mod:`repro.core.hitrun`):
    the lane stays enabled under the batch backend, but an attached
    probe demotes every approximate-state scribble to a *dynamic run
    break* — the lane refuses to merge comparator checks it cannot
    replay record-for-record, so the breaking scribble executes on the
    scalar path at its scalar dispatch cycle and the probe tuples
    stay byte-identical to a lane-off run.
    Precise-state hits before the break still vectorize.
    """
    def attach(machine) -> None:
        for l1 in machine.l1s:
            l1.scribe.probe = records

    return machine_hook(attach)


class DecisionTrace:
    """Columnar form of one run's comparator decisions at swept sites.

    Only records whose programmed distance equals ``swept_d`` (the
    representative's configured d-distance) are kept — every other
    record came from a hardcoded ``SetAprx`` operand and replays
    identically in every lane (see the module docstring's substitution
    rule).  ``decisions(d)`` re-evaluates all kept checks under an
    alternative threshold in one vector op; ``agrees(d)`` is the lane
    sharing predicate.
    """

    __slots__ = ("mode", "write_words", "block_words", "ok", "_cache")

    def __init__(self, records: Iterable[tuple], swept_d: int,
                 mode: str = "bitwise") -> None:
        if mode not in ("bitwise", "arithmetic"):
            raise ValueError(f"unknown similarity mode {mode!r}")
        self.mode = mode
        swept = [r for r in records if r[2] == swept_d]
        n = len(swept)
        self.write_words = np.fromiter(
            (r[0] & 0xFFFFFFFF for r in swept), dtype=np.uint32, count=n)
        self.block_words = np.fromiter(
            (r[1] & 0xFFFFFFFF for r in swept), dtype=np.uint32, count=n)
        self.ok = np.fromiter((r[3] for r in swept), dtype=bool, count=n)
        self._cache: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return int(self.ok.size)

    def decisions(self, d: int) -> np.ndarray:
        """Every kept check's outcome under threshold ``d`` (vectorized;
        bit-exact with the scalar comparator of the serial path)."""
        cached = self._cache.get(d)
        if cached is not None:
            return cached
        if self.mode == "arithmetic":
            # mirror is_similar_arithmetic: signed |a - b| < 2**d, with
            # d == 32 accepting everything
            if d >= 32:
                out = np.ones(self.ok.size, dtype=bool)
            else:
                a = self.write_words.view(np.int32).astype(np.int64)
                b = self.block_words.view(np.int32).astype(np.int64)
                out = np.abs(a - b) < (np.int64(1) << d)
        else:
            out = within_distance_array(self.write_words,
                                        self.block_words, d)
        out = np.asarray(out, dtype=bool)
        out.setflags(write=False)
        self._cache[d] = out
        return out

    def agrees(self, d: int) -> bool:
        """True when a lane with threshold ``d`` provably makes every
        comparator decision the representative made."""
        return bool(np.array_equal(self.decisions(d), self.ok))


@dataclass(frozen=True, slots=True)
class Lane:
    """One grid point's view of a lockstep group.

    ``d`` is the lane's d-distance *label* (its effective comparator
    threshold — callers only group lanes whose enablement bucket
    matches, so labels are directly comparable); ``gi`` its GI timeout;
    ``payload`` an opaque caller handle (e.g. the grid index).
    """

    d: int
    gi: int
    payload: Any = None


@dataclass(frozen=True, slots=True)
class RepRun:
    """A finished representative run: the reusable result, the config it
    ran under, and its decision trace."""

    result: Any          # repro.workloads.base.WorkloadResult (or similar)
    cfg: Any             # SimConfig
    trace: DecisionTrace


def gi_never_armed(stats) -> bool:
    """True when a run provably never armed the GI flash timer, making
    its result independent of ``gi_timeout``.

    ``_enter_gi`` has exactly two call sites, bumping ``gi_serviced``
    and ``self_invalidations`` respectively — both zero means the timer
    (the only ``gi_timeout`` consumer) was never scheduled.
    """
    l1 = stats.child("l1")
    return (l1.total("gi_serviced") == 0
            and l1.total("self_invalidations") == 0)


def share_split(trace: DecisionTrace, rep: Lane, lanes: Iterable[Lane], *,
                rep_armed_gi: bool) -> tuple[list[Lane], list[Lane]]:
    """Partition ``lanes`` into (shared, peeled) against a
    representative's decision trace.

    A lane shares when (a) its GI timeout matches the representative's,
    or the representative never armed the timer, and (b) its threshold
    reproduces every recorded decision (``trace.agrees``).
    """
    shared: list[Lane] = []
    peeled: list[Lane] = []
    for lane in lanes:
        if lane.gi != rep.gi and rep_armed_gi:
            peeled.append(lane)
            continue
        if lane.d == rep.d or trace.agrees(lane.d):
            shared.append(lane)
        else:
            peeled.append(lane)
    return shared, peeled


def run_group(lanes: Iterable[Lane],
              run_rep: Callable[[Lane], Any]
              ) -> Iterator[tuple[Lane, Any, list[Lane]]]:
    """The recursive representative loop over one lockstep group.

    ``run_rep(lane)`` executes a lane serially and returns a
    :class:`RepRun` (success) or anything else (failure — yielded
    through unchanged).  Yields ``(rep, outcome, shared)`` triples:
    every lane appears exactly once, either as a representative or in
    some representative's ``shared`` list.  Lanes that fail the sharing
    predicate peel back into the pool and seed the next iteration — the
    lane-level deoptimization.  The generator keeps no reference to an
    outcome it yielded, so a consumer that drops one frees the
    representative's machine before the next representative runs.
    """
    remaining = list(lanes)
    while remaining:
        rep, rest = remaining[0], remaining[1:]
        held = [run_rep(rep)]
        shared, remaining = [], rest
        if isinstance(held[0], RepRun):
            armed = not gi_never_armed(held[0].result.stats)
            shared, remaining = share_split(held[0].trace, rep, rest,
                                           rep_armed_gi=armed)
        yield rep, held.pop(), shared   # popped: the consumer's alone

