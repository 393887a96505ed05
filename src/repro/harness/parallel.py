"""Durable, supervised parallel sweep executor.

Every sensitivity study in the harness — the figure sweeps, the ablation
grids, the fault-rate tables — is a list of *independent* simulator
runs.  ``fan_out``/``run_grid`` execute such a grid across worker
processes while preserving the property the whole verification story
rests on: **the aggregated results are bit-identical to a serial run**
(see ``tests/harness/test_parallel.py``).

Design points:

* *Chunked units* — jobs run in contiguous chunks (``chunk_size``,
  default ~4 chunks per worker) so per-process overhead amortizes while
  stragglers still rebalance across the ``jobs`` slots.
* *Crash isolation with a failure taxonomy* — a grid point that raises
  becomes a :class:`GridFailure` row at its index; sibling points
  complete normally.  Failures are classified **permanent**
  (deterministic model/config errors: a genuinely deadlocking
  configuration's :class:`~repro.verify.watchdog.DeadlockError`, a
  :class:`~repro.coherence.messages.ProtocolError`, bad arguments) or
  **transient** (worker death, OOM, wall-clock timeouts, injected
  faults): only transient failures are retried, and only permanent ones
  are committed to a result store.
* *Per-point retry, timeout and backoff* — a :class:`RetryPolicy` gives
  each point a wall-clock budget (enforced in the worker via
  ``SIGALRM``) and bounded retries with exponential backoff plus
  deterministic jitter (the jitter comes from :func:`derive_seed`, so a
  retried sweep remains reproducible).
* *One process per unit* — the supervisor forks a fresh process for
  each unit, at most ``jobs`` at a time, and reads the unit's outcomes
  back over a pipe.  A process that dies (segfault, OOM-kill) or hangs
  past its deadline is therefore its own unit's fault: a dead chunk
  re-runs as single items, and a dead single item is retried and then
  degrades to a transient :class:`GridFailure` row (``WorkerDied`` or
  ``PointTimeout``).  Nothing escapes ``fan_out``, and if the parent
  itself raises, every live child is killed before the error
  propagates.
* *Durability* — given a :class:`~repro.store.ResultStore`,
  :func:`run_grid` looks every point up by its content address before
  fanning out and commits each outcome atomically as it lands, so a
  killed sweep resumes from what is committed (``--resume``) with
  results bit-identical to a cold run.
* *Ordered aggregation* — results come back keyed by submission index
  and are returned in input order, so callers can ``zip`` them with
  their parameter values exactly as in the serial code path.

:func:`run_grid` is the one way to run grid points: how it runs — worker
count, backend, retry budget, result store — comes from its
:class:`~repro.harness.options.RunOptions` alone.  ``jobs=1`` executes
inline in the calling process (no child processes, no pickling) and is
the reference path the parallel path is tested against.
"""
from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Mapping, Sequence

from repro.harness.experiment import RunRow, run_workload
from repro.harness.options import RunOptions

__all__ = [
    "GridPoint",
    "GridFailure",
    "RetryPolicy",
    "PointTimeout",
    "PERMANENT_ERRORS",
    "is_permanent_failure",
    "derive_seed",
    "fan_out",
    "run_grid",
    "default_chunk_size",
]

#: modulus for derived seeds: keep them positive 31-bit ints so every
#: consumer (numpy included) accepts them
_SEED_SPACE = 1 << 31


def derive_seed(base_seed: int, *key: Any) -> int:
    """Deterministic per-job seed: blake2b over ``(base_seed, *key)``.

    Stable across processes, platforms and Python invocations —
    deliberately *not* built on ``hash()``, which is salted per process.
    """
    text = repr((int(base_seed),) + tuple(key)).encode("utf-8")
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "big") % _SEED_SPACE


@dataclass(frozen=True, slots=True)
class GridPoint:
    """One unit of sweep work: a workload plus its run kwargs.

    ``kwargs`` are passed verbatim to
    :func:`repro.harness.experiment.run_workload`.  ``label`` is
    free-form context echoed into failure reports.
    """

    workload: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""


# ---------------------------------------------------------------------
# failure taxonomy
# ---------------------------------------------------------------------
#: Exception type names that identify a *deterministic* failure: the
#: same configuration fails the same way every time, so retrying burns
#: cycles and a result store may commit the failure as final.  Anything
#: else — worker death, OOM, timeouts, I/O hiccups, crashes under
#: injected faults — is treated as transient and eligible for retry.
PERMANENT_ERRORS = frozenset({
    "DeadlockError",        # genuinely deadlocking configuration
    "ProtocolError",        # coherence model rejected the run
    "InvariantViolation",   # end-of-run verification failed
    "SimulationTimeout",    # cycle-budget (not wall-clock) exhaustion
    "ValueError", "TypeError", "KeyError", "AssertionError",
})


def is_permanent_failure(error_type: str) -> bool:
    """Whether an exception type name denotes a deterministic failure."""
    return error_type in PERMANENT_ERRORS


class PointTimeout(Exception):
    """A grid point exceeded its per-point wall-clock budget.

    Raised inside the worker by the ``SIGALRM`` timer that
    :class:`RetryPolicy.timeout` arms; classified transient, so the
    point is retried (the stall may be scheduler noise, not the model).
    """


@dataclass(frozen=True, slots=True)
class GridFailure:
    """A grid point that raised instead of producing a row.

    Beyond the exception itself, the failure carries the point's
    identity — ``workload``/``protocol``/``seed`` — and the tail of the
    worker-side traceback, so a sweep summary line is enough to
    reproduce and diagnose the point without re-running the grid.
    ``permanent`` marks deterministic failures (see
    :data:`PERMANENT_ERRORS`); ``attempts`` counts executions consumed,
    including retries.
    """

    index: int
    error_type: str
    message: str
    label: str = ""
    workload: str = ""
    protocol: str = ""
    seed: int | None = None
    traceback: str = ""
    permanent: bool = False
    attempts: int = 1

    def __bool__(self) -> bool:  # failed rows are falsy for easy filtering
        return False

    def render(self) -> str:
        """One-line human-readable form for sweep tables."""
        where = f" [{self.label}]" if self.label else ""
        ident = [f"workload={self.workload}" if self.workload else "",
                 f"protocol={self.protocol}" if self.protocol else "",
                 f"seed={self.seed}" if self.seed is not None else ""]
        ident = " ".join(p for p in ident if p)
        key = f" {{{ident}}}" if ident else ""
        tries = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        kind = "permanent" if self.permanent else "transient"
        tb = f" | {self.traceback}" if self.traceback else ""
        return (f"FAILED{where}{key} ({self.error_type}: {self.message}; "
                f"{kind}{tries}){tb}")


def _point_identity(item: Any) -> tuple[str, str, int | None]:
    """(workload, protocol, seed) of a grid point, best effort.

    Falls back to empty strings / ``None`` for plain ``fan_out`` items
    that are not :class:`GridPoint`-shaped.
    """
    workload = str(getattr(item, "workload", "") or "")
    kwargs = getattr(item, "kwargs", None) or {}
    protocol = kwargs.get("protocol")
    options = kwargs.get("options")
    if protocol is None and options is not None:
        protocol = getattr(options, "protocol", None)
    seed = kwargs.get("seed")
    return (workload, str(protocol or ""),
            seed if isinstance(seed, int) else None)


def _traceback_tail(limit: int = 3) -> str:
    """The last ``limit`` lines of the active traceback, one line."""
    lines = [ln.strip() for ln in traceback.format_exc().splitlines()
             if ln.strip()]
    return " ; ".join(lines[-limit:])


def _failure(index: int, item: Any, error_type: str, message: str,
             tb: str = "") -> GridFailure:
    """Build the :class:`GridFailure` row for one failed grid point."""
    workload, protocol, seed = _point_identity(item)
    label = getattr(item, "label", "") or workload
    return GridFailure(
        index=index, error_type=error_type, message=message,
        label=str(label), workload=workload, protocol=protocol, seed=seed,
        traceback=tb, permanent=is_permanent_failure(error_type),
    )


def _failure_from(exc: Exception, index: int, item: Any, *,
                  tb: str = "") -> GridFailure:
    """Build the :class:`GridFailure` row for one raised grid point."""
    return _failure(index, item, type(exc).__name__, str(exc), tb)


# ---------------------------------------------------------------------
# retry / timeout / backoff policy
# ---------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Per-point execution budget: wall-clock timeout and bounded retry.

    ``retries`` is the number of *re*-executions granted to a transient
    failure (a point runs at most ``retries + 1`` times); permanent
    failures never retry.  ``timeout`` is seconds of wall clock per
    point, enforced inside the worker via ``SIGALRM`` (0 disables).
    Backoff before retry *k* is ``backoff_base * backoff_factor**(k-1)``
    capped at ``backoff_max``, plus up to ``jitter`` of itself — the
    jitter is *deterministic* (derived from :func:`derive_seed` over the
    point index and attempt), so retried sweeps stay reproducible.
    """

    retries: int = 0
    timeout: float = 0.0
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries cannot be negative")
        if self.timeout < 0 or self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("timeouts/backoffs cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, attempt: int, *key: Any) -> float:
        """Seconds to back off before re-running after ``attempt``
        failed executions (deterministic per ``(attempt, *key)``)."""
        base = min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** (attempt - 1))
        frac = derive_seed(attempt, *key) / _SEED_SPACE
        return base * (1.0 + self.jitter * frac)


def default_chunk_size(n_items: int, jobs: int) -> int:
    """~4 chunks per worker: amortize IPC, keep stragglers rebalancing."""
    return max(1, -(-n_items // (max(1, jobs) * 4)))


# ---------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------
def _alarm_handler(signum, frame):  # pragma: no cover - fires async
    raise PointTimeout("point exceeded its wall-clock budget")


def _guarded(fn: Callable[[Any], Any], index: int, item: Any,
             timeout: float = 0.0) -> Any:
    """Run one job, converting an exception into a :class:`GridFailure`.

    A positive ``timeout`` arms a per-point ``SIGALRM`` wall-clock
    budget; exceeding it raises :class:`PointTimeout` (a transient
    failure).  Platforms or threads without ``SIGALRM`` simply skip the
    budget — supervision still bounds hung *workers* via the per-unit
    deadline.
    """
    armed = False
    previous = None
    if timeout > 0 and hasattr(signal, "SIGALRM"):
        try:
            previous = signal.signal(signal.SIGALRM, _alarm_handler)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            armed = True
        except ValueError:      # not the main thread: no alarm available
            pass
    try:
        return fn(item)
    except Exception as exc:
        return _failure_from(exc, index, item, tb=_traceback_tail())
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _run_chunk(fn: Callable[[Any], Any], start: int, chunk: Sequence[Any],
               timeout: float = 0.0) -> list[tuple[int, Any]]:
    """Worker-side entry point: execute one contiguous chunk of jobs."""
    return [(start + k, _guarded(fn, start + k, item, timeout))
            for k, item in enumerate(chunk)]


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits the imported simulator) where the
    platform offers it; fall back to the portable ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


# ---------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------
#: seconds of slack past a unit's worker-side alarm budget before the
#: supervisor declares its process hung and kills it
_DEADLINE_GRACE = 5.0


@dataclass(eq=False)
class _Unit:
    """A contiguous slice of the grid for one child process: a chunk, or
    one item (a retry, or an item of a chunk whose process died).
    ``attempt`` counts executions started; ``not_before`` is backoff."""

    start: int
    items: tuple
    attempt: int = 1
    not_before: float = 0.0


def _unit_main(conn, fn, start, items, timeout) -> None:
    """Child-process entry point: run one unit, send its outcomes."""
    conn.send(_run_chunk(fn, start, items, timeout))


def _death_message(exitcode: int) -> str:
    if exitcode < 0:
        return (f"worker process killed by signal {-exitcode} "
                f"({signal.strsignal(-exitcode)})")
    return f"worker process exited with code {exitcode} before returning"


class _Supervisor:
    """Run every unit in a process of its own, ``jobs`` at a time.

    The loop invariant: every grid index is either finalized in
    ``results`` or present in exactly one queued or running unit.  A
    process that exits without sending its outcomes, or outlives its
    deadline, was killed by its own unit, so blame is exact: a dead
    chunk splits into single items and nobody is charged; a dead single
    item is charged a retry like any transient failure.
    """

    def __init__(self, fn, items, jobs, chunk_size, policy, on_result):
        self.fn = fn
        self.items = list(items)
        self.jobs = jobs
        self.policy = policy
        self.on_result = on_result
        self.results: list[Any] = [None] * len(self.items)
        self.remaining = len(self.items)
        self.queue: list[_Unit] = [
            _Unit(start, tuple(self.items[start:start + chunk_size]))
            for start in range(0, len(self.items), chunk_size)
        ]
        #: result-pipe read end -> (unit, process, deadline)
        self.running: dict[Any, tuple[_Unit, Any, float | None]] = {}
        self.context = _pool_context()

    def _finalize(self, index: int, outcome: Any) -> None:
        self.results[index] = outcome
        self.remaining -= 1
        if self.on_result is not None:
            self.on_result(index, outcome)

    def _settle(self, unit: _Unit, pairs: list[tuple[int, Any]]) -> None:
        """Record a unit's outcomes, re-queueing retryable failures."""
        for index, outcome in pairs:
            retryable = (isinstance(outcome, GridFailure)
                         and not outcome.permanent
                         and unit.attempt <= self.policy.retries)
            if retryable:
                delay = self.policy.delay(unit.attempt, index)
                self.queue.append(_Unit(index, (self.items[index],),
                                        unit.attempt + 1,
                                        time.monotonic() + delay))
                continue
            if isinstance(outcome, GridFailure):
                outcome = dataclasses.replace(outcome, attempts=unit.attempt)
            self._finalize(index, outcome)

    def _start_eligible(self) -> None:
        """Start queued units whose backoff has elapsed, up to ``jobs``."""
        now = time.monotonic()
        for unit in [u for u in self.queue if u.not_before <= now]:
            if len(self.running) >= self.jobs:
                break
            self.queue.remove(unit)
            conn, child_conn = self.context.Pipe(duplex=False)
            proc = self.context.Process(
                target=_unit_main, args=(child_conn, self.fn, unit.start,
                                         unit.items, self.policy.timeout))
            proc.start()
            child_conn.close()  # the child holds the only write end
            # the worker-side alarm should fire first; the deadline is a
            # backstop for a process stuck ignoring signals
            deadline = (now + self.policy.timeout * len(unit.items)
                        + _DEADLINE_GRACE if self.policy.timeout > 0 else None)
            self.running[conn] = (unit, proc, deadline)

    def _wait_timeout(self) -> float | None:
        """Block until the nearest deadline or (slot free) backoff expiry."""
        marks = [d for _u, _p, d in self.running.values() if d is not None]
        if len(self.running) < self.jobs:
            marks += [u.not_before for u in self.queue]
        return max(0.0, min(marks) - time.monotonic()) if marks else None

    def _reap(self, conn, *, hung: bool) -> None:
        """Collect one finished child, or kill a hung one, and settle."""
        unit, proc, _deadline = self.running[conn]
        pairs = None
        if hung:
            proc.kill()
        else:
            try:
                pairs = conn.recv()
            except (EOFError, OSError):     # it exited without a result
                pass
        proc.join()
        conn.close()
        del self.running[conn]
        if pairs is not None:
            self._settle(unit, pairs)
        elif len(unit.items) > 1:
            # a chunk cannot say which item killed it: split, charge nobody
            self.queue.extend(_Unit(unit.start + k, (item,), unit.attempt)
                              for k, item in enumerate(unit.items))
        else:
            error = (("PointTimeout", f"worker exceeded its "
                      f"{self.policy.timeout:.1f}s budget and was killed")
                     if hung else
                     ("WorkerDied", _death_message(proc.exitcode)))
            self._settle(unit, [(unit.start, _failure(
                unit.start, unit.items[0], *error))])

    def run(self) -> list[Any]:
        """Execute every unit; the ordered outcome list."""
        try:
            while self.remaining:
                self._start_eligible()
                if not self.running:    # everything queued is backing off
                    time.sleep(self._wait_timeout())
                    continue
                ready = set(wait(
                    [*self.running, *(p.sentinel for _u, p, _d
                                      in self.running.values())],
                    timeout=self._wait_timeout()))
                now = time.monotonic()
                for conn, (_unit, proc, deadline) in list(
                        self.running.items()):
                    if conn in ready or proc.sentinel in ready:
                        self._reap(conn, hung=False)
                    elif deadline is not None and now >= deadline:
                        self._reap(conn, hung=True)
        finally:
            for conn, (_unit, proc, _deadline) in self.running.items():
                proc.kill()     # the parent raised: leave no orphans
                proc.join()
                conn.close()
        return self.results


def fan_out(fn: Callable[[Any], Any], items: Sequence[Any], *,
            jobs: int = 1, chunk_size: int | None = None,
            retry: RetryPolicy = RetryPolicy(),
            on_result: Callable[[int, Any], None] | None = None
            ) -> list[Any]:
    """Apply ``fn`` to every item, optionally across worker processes.

    Returns one outcome per item, **in input order**: ``fn``'s return
    value, or a :class:`GridFailure` if that item raised (after any
    retries granted by ``retry`` — by default there are none).
    ``on_result`` is called in the parent as ``(index, outcome)`` the
    moment each item finalizes, in completion (not input) order — the
    hook a result store uses for per-point commits.  ``jobs=1`` (the
    default) runs inline — same guard, same retry policy, no processes —
    which is the serial reference path.  Any ``jobs > 1`` grid, even a
    one-item one, runs in worker processes, so a worker death is always
    that item's :class:`GridFailure`, never the caller's.  ``fn`` and the
    items must be picklable when ``jobs > 1``.
    """
    items = list(items)
    jobs = max(1, int(jobs))
    if jobs == 1 or not items:
        results = []
        for index, item in enumerate(items):
            outcome = _attempt_serial(fn, index, item, retry)
            if on_result is not None:
                on_result(index, outcome)
            results.append(outcome)
        return results
    if chunk_size is None:
        chunk_size = default_chunk_size(len(items), jobs)
    return _Supervisor(fn, items, jobs, chunk_size, retry, on_result).run()


def _attempt_serial(fn: Callable[[Any], Any], index: int, item: Any,
                    policy: RetryPolicy) -> Any:
    """The inline path: guard + retry/backoff, no child processes."""
    attempt = 1
    while True:
        outcome = _guarded(fn, index, item, policy.timeout)
        if not isinstance(outcome, GridFailure):
            return outcome
        if outcome.permanent or attempt > policy.retries:
            return dataclasses.replace(outcome, attempts=attempt)
        time.sleep(policy.delay(attempt, index))
        attempt += 1


# ---------------------------------------------------------------------
# the grid front end
# ---------------------------------------------------------------------
def _run_point(point: GridPoint) -> RunRow:
    """Execute one grid point (module-level so it pickles to workers)."""
    return run_workload(point.workload, **dict(point.kwargs))


def retry_from_options(options: RunOptions) -> RetryPolicy:
    """The :class:`RetryPolicy` a ``RunOptions`` implies (the defaults
    imply :class:`RetryPolicy()`: no retries, no timeout)."""
    return RetryPolicy(retries=options.point_retries,
                       timeout=options.point_timeout)


def _point_traced(point: GridPoint) -> bool:
    """Whether this point produces an observability capture (captures
    are run-local, so traced points bypass store lookups)."""
    options = point.kwargs.get("options")
    return bool(options is not None and getattr(options, "tracing", False))


def _commit(store, key: str, point: GridPoint, outcome: Any) -> None:
    """Commit one finalized outcome: rows always (obs stripped),
    failures only when permanent — transient failures stay uncommitted
    so a resume retries them."""
    workload, protocol, seed = _point_identity(point)
    if isinstance(outcome, RunRow):
        if outcome.obs is not None:
            outcome = dataclasses.replace(outcome, obs=None)
        store.put(key, outcome, kind="row", workload=workload,
                  protocol=protocol, seed=seed)
    elif isinstance(outcome, GridFailure) and outcome.permanent:
        store.put(key, outcome, kind="failure", workload=workload,
                  protocol=protocol, seed=seed)


def run_grid(points: Sequence[GridPoint], *,
             options: RunOptions | None = None,
             store: Any | None = None) -> list[RunRow | GridFailure]:
    """Run a grid of workload points; one ``RunRow`` (or ``GridFailure``)
    per point, in input order.

    ``options`` says how the grid runs: ``jobs`` worker processes, the
    ``backend``, the per-point retry policy (``point_retries`` /
    ``point_timeout``) and durability.  A ``store``
    path turns on the content-addressed result store: committed points
    are served without re-running when ``options.resume`` is true, and
    every finalized point commits atomically as it lands.  ``store=``
    (an open :class:`~repro.store.ResultStore`) is used instead of
    opening ``options.store``, so a caller can share one handle across
    grids.  Resumed and cold grids are bit-identical (see
    ``tests/store/test_resume.py``).
    """
    opts = options if options is not None else RunOptions()
    points = [GridPoint(p.workload, dict(p.kwargs), p.label) for p in points]
    if store is not None or not opts.store:
        return _run_grid_stored(points, opts, store)
    from repro.store import open_store

    store = open_store(opts.store)
    try:
        return _run_grid_stored(points, opts, store)
    finally:
        store.close()


def _run_grid_stored(points: list[GridPoint], options: RunOptions,
                     store: Any | None) -> list[RunRow | GridFailure]:
    """Grid execution with optional store lookup/commit around it.

    ``options.backend == "batch"`` routes the pending points through the
    lockstep lane executor (:func:`repro.harness.batch.batch_fan_out`) —
    an in-process path that shares representative runs across d/gi-swept
    points and honors the same outcome/on_result contract as
    :func:`fan_out` — so store lookups and per-point commits compose
    identically, and served rows simply never become lanes.
    """
    retry = retry_from_options(options)
    if options.backend == "batch":
        from repro.harness.batch import batch_fan_out

        def execute(subset, on_result=None):
            return batch_fan_out(subset, retry=retry, on_result=on_result)
    else:
        def execute(subset, on_result=None):
            return fan_out(_run_point, subset, jobs=options.jobs,
                           retry=retry, on_result=on_result)

    if store is None:
        return execute(points)

    from repro.store import point_key

    keys = [point_key(p.workload, p.kwargs) for p in points]
    results: list[Any] = [None] * len(points)
    pending: list[int] = []
    for i, point in enumerate(points):
        hit = None
        if options.resume and not _point_traced(point):
            hit = store.get(keys[i])
        if hit is None:
            pending.append(i)
        else:
            if isinstance(hit, GridFailure):
                hit = dataclasses.replace(hit, index=i)
            results[i] = hit

    if pending:
        subset = [points[i] for i in pending]

        def commit(local_index: int, outcome: Any) -> None:
            i = pending[local_index]
            _commit(store, keys[i], points[i], outcome)

        outcomes = execute(subset, on_result=commit)
        for local_index, outcome in enumerate(outcomes):
            i = pending[local_index]
            if isinstance(outcome, GridFailure):
                outcome = dataclasses.replace(outcome, index=i)
            results[i] = outcome
    return results
