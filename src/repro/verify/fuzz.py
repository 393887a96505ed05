"""Randomized protocol fuzzer with trace minimization and a corpus.

A :class:`FuzzTrace` is a fully explicit, JSON-serializable program: one
op list per core over a small pool of hot addresses (a mix of
falsely-shared private words and truly shared words, the layouts that
maximize protocol races).  :func:`run_trace` executes a trace on a small
machine with the runtime invariant monitor and the progress watchdog
armed, then checks:

* quiescence + structural coherence invariants (including the monitor's
  data-value invariant against the golden memory),
* **load provenance** — every loaded value must be the initial value or
  some value previously stored to that address (store values are unique
  by construction, so cross-address mixups and fabricated data are
  caught even under approximate execution),
* **sequential oracle for precise data** — with Ghostwriter disabled the
  final coherent value of every address must be the *last* value some
  core wrote to it (per-core program order is preserved by a coherent
  memory; with Ghostwriter on, dropped scribbles legally resurface older
  values, so only provenance applies).

:func:`run_differential` runs a trace on one execution backend —
``"serial"`` (:func:`run_trace` alone, the oracle), ``"batch"`` (the
lockstep lane-sharing proof of :mod:`repro.sim.batch`) or
``"fastlane"`` (the hit-run lane of :mod:`repro.core.hitrun`) — and
demands bit-identity with the path that backend replaces.
:func:`run_matrix` sweeps seeds across :data:`PROTOCOL_MATRIX`, one
``run_differential`` call per entry; :func:`minimize_trace` is a
deterministic ddmin-style shrinker for failing traces, and
:func:`load_corpus_trace`/:func:`save_corpus_trace` round-trip shrunk
traces through ``tests/verify/corpus/`` for regression replay.
``python -m repro.verify.fuzz --seeds 200`` runs the sweep from the
command line.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

from repro.common.config import (
    FaultConfig, SimConfig, VerifyConfig, small_config,
)
from repro.isa.instructions import (
    Compute, FlushApprox, Load, Scribble, SetAprx, Store,
)
from repro.sim.machine import Machine
from repro.sim.state import fingerprint_payload

__all__ = [
    "FuzzTrace", "FuzzFailure", "approx_drops",
    "generate_trace", "run_trace", "run_differential", "run_matrix",
    "minimize_trace", "save_corpus_trace", "load_corpus_trace", "main",
    "PROTOCOL_MATRIX", "BATCH_LANE_DS",
]

#: the configurations every trace is exercised under, as ``(protocol,
#: gw, backend)``: both precise bases, every approximation-capable
#: registry variant, one approximation-stripped variant (update-hybrid
#: keeps its write-update mechanism even with approximation off), two
#: batch differentials exercising the lockstep lane-sharing proof of
#: :mod:`repro.sim.batch`, and two hit-run fast-lane differentials
#: (every trace replayed compiled, lane-on vs lane-off).  See
#: :func:`run_differential` for what each backend checks.
PROTOCOL_MATRIX: tuple[tuple[str, bool, str], ...] = (
    ("mesi", False, "serial"), ("ghostwriter", True, "serial"),
    ("moesi", False, "serial"), ("ghostwriter-moesi", True, "serial"),
    ("gw-gs-only", True, "serial"), ("gw-gi-only", True, "serial"),
    ("self-invalidate", True, "serial"),
    ("update-hybrid", True, "serial"), ("update-hybrid", False, "serial"),
    ("ghostwriter", True, "batch"),
    ("gw-gi-only", True, "batch"),
    ("ghostwriter", True, "fastlane"),
    ("mesi", False, "fastlane"),
)

_BASE = 0x8000
_WORDS_PER_BLOCK = 16
#: d-distance used by fuzz traces: store values encode the target address
#: above bit 10 and a uniqueness counter in the low 8 bits, so two values
#: for the same word are always d-similar while values for different
#: words never are
_FUZZ_D = 10
_FAR_BIT = 1 << 30
#: cycle budget of one fuzz machine run
_MAX_CYCLES = 2_000_000

_OP_WEIGHTS = (
    ("load", 32), ("store", 24), ("scribble", 24), ("scribble_far", 8),
    ("compute", 6), ("flush", 6),
)


class FuzzFailure(AssertionError):
    """A fuzz run violated an invariant or oracle; the message names the
    seed, protocol configuration, and the precise check that failed."""


@dataclass(frozen=True, slots=True)
class FuzzTrace:
    """One fully explicit multi-core fuzz program."""

    seed: int
    num_cores: int
    d_distance: int
    #: per-core tuple of ops; each op is ``(kind, addr_or_n, value)``
    ops: tuple[tuple[tuple[str, int, int], ...], ...]

    def op_count(self) -> int:
        """Total ops across all cores."""
        return sum(len(core_ops) for core_ops in self.ops)

    def to_json(self) -> dict:
        """JSON-serializable representation (corpus format)."""
        return {
            "seed": self.seed,
            "num_cores": self.num_cores,
            "d_distance": self.d_distance,
            "ops": [[list(op) for op in core_ops] for core_ops in self.ops],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FuzzTrace":
        """Inverse of :meth:`to_json`."""
        return cls(
            seed=data["seed"],
            num_cores=data["num_cores"],
            d_distance=data["d_distance"],
            ops=tuple(
                tuple((k, int(a), int(b)) for k, a, b in core_ops)
                for core_ops in data["ops"]
            ),
        )


def _pool_addr(slot: int, tid: int, blocks: int) -> int:
    """Map a slot choice to an address.  Even slots pick a word private
    to the thread inside a shared block (false sharing); odd slots pick a
    fully shared word."""
    block = (slot % blocks) * 64
    if slot % 2 == 0:
        off = 4 * (4 + tid % (_WORDS_PER_BLOCK - 4))
    else:
        off = 4 * (slot % 4)
    return _BASE + block + off


def _encode_value(addr: int, uniq: int, far: bool) -> int:
    value = ((addr >> 2) & 0xFFFF) << 10 | (uniq & 0xFF)
    return value | _FAR_BIT if far else value


def generate_trace(seed: int, *, num_cores: int = 3, ops_per_core: int = 24,
                   blocks: int = 3) -> FuzzTrace:
    """A seeded random trace over a small hot-address pool."""
    rng = random.Random(seed)
    kinds = [k for k, w in _OP_WEIGHTS for _ in range(w)]
    uniq = 0
    cores = []
    for tid in range(num_cores):
        ops: list[tuple[str, int, int]] = []
        for _ in range(ops_per_core):
            kind = rng.choice(kinds)
            if kind == "compute":
                ops.append(("compute", rng.randint(1, 8), 0))
                continue
            if kind == "flush":
                ops.append(("flush", 0, 0))
                continue
            addr = _pool_addr(rng.randrange(blocks * 4), tid, blocks)
            if kind == "load":
                ops.append(("load", addr, 0))
                continue
            uniq += 1
            far = kind == "scribble_far"
            value = _encode_value(addr, uniq, far)
            ops.append(
                ("scribble" if far else kind, addr, value)
            )
        cores.append(tuple(ops))
    return FuzzTrace(seed=seed, num_cores=num_cores, d_distance=_FUZZ_D,
                     ops=tuple(cores))


# ---------------------------------------------------------------------
# execution + oracles
# ---------------------------------------------------------------------
def _trace_config(trace: FuzzTrace, *, protocol: str, gw: bool,
                  jitter: int, monitor_period: int) -> SimConfig:
    """The small machine every backend runs a trace on; ``gw=False`` is
    the precise machine (``d_distance=0``)."""
    cfg = small_config(
        num_cores=max(2, trace.num_cores),
        d_distance=trace.d_distance if gw else 0, gi_timeout=256,
    )
    return dc_replace(
        cfg,
        protocol=protocol,
        verify=VerifyConfig(monitor_period=monitor_period,
                            watchdog_interval=50_000),
        faults=FaultConfig(delay_jitter=jitter, seed=trace.seed or 1),
    )


def _run_checked(m: Machine, label: str, max_cycles: int) -> None:
    """Run to completion and check quiescence + coherence invariants,
    wrapping any failure in a :class:`FuzzFailure` naming ``label``."""
    try:
        m.run(max_cycles=max_cycles)
        m.check_quiescent()
        m.check_coherence_invariants()
    except FuzzFailure:
        raise
    except Exception as exc:
        raise FuzzFailure(f"[{label}] {type(exc).__name__}: {exc}") from exc


def run_trace(trace: FuzzTrace, *, protocol: str = "ghostwriter",
              gw: bool = True, jitter: int = 0, monitor_period: int = 64,
              max_cycles: int = _MAX_CYCLES) -> Machine:
    """Execute one trace under one protocol configuration and apply every
    oracle; raises :class:`FuzzFailure` on any violation.  Returns the
    finished machine for further inspection."""
    label = (
        f"seed={trace.seed} protocol={protocol} gw={gw} jitter={jitter}"
    )
    m = Machine(_trace_config(trace, protocol=protocol, gw=gw,
                              jitter=jitter, monitor_period=monitor_period))

    written: dict[int, set[int]] = {}
    last_write: dict[int, dict[int, int]] = {}  # addr -> {tid: last value}
    loads: list[tuple[int, int, int]] = []      # (tid, addr, observed)

    def program(tid: int, ops):
        def prog():
            yield SetAprx(trace.d_distance)
            for kind, a, b in ops:
                if kind == "load":
                    value = yield Load(a)
                    loads.append((tid, a, value))
                elif kind == "store":
                    written.setdefault(a, set()).add(b)
                    last_write.setdefault(a, {})[tid] = b
                    yield Store(a, b)
                elif kind == "scribble":
                    written.setdefault(a, set()).add(b)
                    last_write.setdefault(a, {})[tid] = b
                    yield Scribble(a, b)
                elif kind == "compute":
                    yield Compute(a)
                elif kind == "flush":
                    yield FlushApprox()
                else:
                    raise ValueError(f"unknown fuzz op kind {kind!r}")
        return prog()

    for tid, core_ops in enumerate(trace.ops):
        m.add_thread(tid, program(tid, core_ops))
    _run_checked(m, label, max_cycles)

    # load provenance: every observed value was initial (0) or stored
    for tid, addr, value in loads:
        if value != 0 and value not in written.get(addr, ()):
            raise FuzzFailure(
                f"[{label}] core {tid} loaded fabricated value "
                f"{value:#x} from {addr:#x}"
            )

    # final-state oracles on the coherent view
    golden = m.monitor.golden if m.monitor is not None else None
    for addr, values in written.items():
        final = (
            golden.word(addr) if golden is not None
            else m.backing.load_word(addr)
        )
        if not gw:
            allowed = set(last_write[addr].values())
        else:
            # dropped scribbles legally resurface older/initial values
            allowed = values | {0}
        if final not in allowed:
            raise FuzzFailure(
                f"[{label}] final value of {addr:#x} is {final:#x}, "
                f"not among {sorted(hex(v) for v in allowed)}"
            )
    return m


#: alternative d-distance lanes the batch differential predicts sharing
#: for, straddling :data:`_FUZZ_D` (values encode same-word similarity
#: in the low 8 bits: lanes above 8 share, while 4 — and sometimes 6 —
#: peel, so both paths of the sharing predicate get exercised)
BATCH_LANE_DS = (4, 6, 8, 12, 14)


def _assert_identical(label: str, what: str, ref: dict, got: dict) -> None:
    """Raise a :class:`FuzzFailure` naming every fingerprint key on
    which ``got`` differs from ``ref``."""
    if got != ref:
        diff = [k for k in ref if got[k] != ref[k]]
        raise FuzzFailure(f"[{label}] {what} diverged in {', '.join(diff)}")


def _lower_fuzz_core(ops, d_distance: int):
    """Lower one fuzz core's op tuple to a :class:`CompiledProgram`
    (``SetAprx`` prefix, then the ops verbatim) so the hit-run fast
    lane — which only exists on the compiled path — can engage."""
    import numpy as np

    from repro.isa.compiled import (
        CompiledProgram, OP_COMPUTE, OP_FLUSH, OP_LOAD, OP_SCRIBBLE,
        OP_SETAPRX, OP_STORE,
    )

    codes = {"load": OP_LOAD, "store": OP_STORE, "scribble": OP_SCRIBBLE}
    ops_o: list[int] = [OP_SETAPRX]
    addr_o: list[int] = [0]
    val_o: list[int] = [0]
    cyc_o: list[int] = [d_distance]
    for kind, a, b in ops:
        if kind == "compute":
            ops_o.append(OP_COMPUTE)
            addr_o.append(0)
            val_o.append(0)
            cyc_o.append(a)
        elif kind == "flush":
            ops_o.append(OP_FLUSH)
            addr_o.append(0)
            val_o.append(0)
            cyc_o.append(0)
        else:
            ops_o.append(codes[kind])
            addr_o.append(a)
            val_o.append(b & 0xFFFFFFFF)
            cyc_o.append(0)
    return CompiledProgram(
        np.asarray(ops_o, dtype=np.int8),
        np.asarray(addr_o, dtype=np.int64),
        np.asarray(val_o, dtype=np.int64),
        np.asarray(cyc_o, dtype=np.int64),
        validate_loads=False,
    )


def run_differential(trace: FuzzTrace, *, protocol: str, gw: bool,
                     backend: str, jitter: int = 0,
                     lane_ds=BATCH_LANE_DS) -> dict[str, int]:
    """Run one trace on one execution ``backend`` and demand that it
    match the path it stands in for; raises :class:`FuzzFailure` on any
    oracle violation or difference.

    ``"serial"``
        :func:`run_trace` and its oracles — the reference the other
        backends are compared against.  Returns ``{"ops": ...}``.
    ``"batch"``
        The lockstep lane-sharing proof of :mod:`repro.sim.batch`: the
        trace runs once as a *representative* with the scribe decision
        probe armed, then for every alternative d-distance in
        ``lane_ds`` the :class:`~repro.sim.batch.DecisionTrace` predicts
        whether that lane would share.  Each lane predicted to share is
        re-run serially and must be **bit-identical** to the
        representative in every counter, backing word and cache line
        (:func:`~repro.sim.state.fingerprint_payload`).  Lanes predicted
        to peel are exactly the lanes the batch backend runs through the
        ordinary interpreter, so there is nothing to verify for them.
        Returns ``{"shared": ..., "peeled": ..., "checks": ...}``.
    ``"fastlane"``
        The hit-run fast lane (:mod:`repro.core.hitrun`): the trace is
        lowered to compiled programs (the only form the lane executes)
        and run ``fast_lane=True`` vs ``False`` with the runtime monitor
        *disabled* (its commit hook forces the scalar path, which would
        make the differential vacuous) and ``MIN_RUN`` shrunk to 1 so
        even short hit runs vectorize.  Both runs must pass the
        quiescence/coherence invariants and be bit-identical in the
        fingerprint plus the engine's cycle/event accounting.  Returns
        ``{"ops": ...}``.
    """
    label = f"seed={trace.seed} protocol={protocol} gw={gw} backend={backend}"
    if backend == "serial":
        run_trace(trace, protocol=protocol, gw=gw, jitter=jitter)
        return {"ops": trace.op_count()}

    if backend == "batch":
        from repro.sim.batch import DecisionTrace, probe_hook

        records: list = []
        with probe_hook(records):
            rep = run_trace(trace, protocol=protocol, gw=gw, jitter=jitter)
        dtrace = DecisionTrace(records, swept_d=trace.d_distance)
        rep_print = None
        shared = peeled = 0
        for d in lane_ds:
            if d == trace.d_distance:
                continue
            if not dtrace.agrees(d):
                peeled += 1
                continue
            lane = run_trace(dc_replace(trace, d_distance=d),
                             protocol=protocol, gw=gw, jitter=jitter)
            shared += 1
            if rep_print is None:
                rep_print = fingerprint_payload(rep)
            _assert_identical(
                label,
                f"lane d={d}, predicted to share with the "
                f"d={trace.d_distance} representative "
                f"({len(dtrace)} swept checks),",
                rep_print, fingerprint_payload(lane),
            )
        return {"shared": shared, "peeled": peeled, "checks": len(dtrace)}

    if backend == "fastlane":
        import repro.core.hitrun as hitrun

        base = _trace_config(trace, protocol=protocol, gw=gw,
                             jitter=jitter, monitor_period=0)
        prints = {}
        saved_min_run = hitrun.MIN_RUN
        hitrun.MIN_RUN = 1
        try:
            for lane in (True, False):
                m = Machine(dc_replace(base, fast_lane=lane))
                for tid, core_ops in enumerate(trace.ops):
                    m.add_thread(tid, _lower_fuzz_core(core_ops,
                                                       trace.d_distance))
                _run_checked(m, f"{label} fast_lane={lane}", _MAX_CYCLES)
                payload = fingerprint_payload(m)
                payload["engine"] = (m.engine.now, m.engine.events_executed)
                prints[lane] = payload
        finally:
            hitrun.MIN_RUN = saved_min_run
        _assert_identical(label, "fast-lane run (vs the scalar run)",
                          prints[False], prints[True])
        return {"ops": trace.op_count()}

    raise ValueError(
        f"unknown backend {backend!r}; expected serial, batch or fastlane"
    )


def run_matrix(seeds, *, jitter: int = 0, num_cores: int = 3,
               ops_per_core: int = 24, matrix=PROTOCOL_MATRIX,
               corpus_dir: str | Path | None = None) -> dict[str, int]:
    """Run every seed under every ``(protocol, gw, backend)`` entry of
    ``matrix`` through :func:`run_differential`.

    Raises :class:`FuzzFailure` on the first violation — after
    ddmin-minimizing the offending trace into ``corpus_dir`` (when
    given) for regression replay.  Returns summary counters (``runs``,
    ``ops``) when everything passes.
    """
    runs = ops = 0
    for seed in seeds:
        trace = generate_trace(seed, num_cores=num_cores,
                               ops_per_core=ops_per_core)
        for protocol, gw, backend in matrix:
            try:
                run_differential(trace, protocol=protocol, gw=gw,
                                 backend=backend, jitter=jitter)
            except FuzzFailure:
                if corpus_dir is not None:
                    _minimize_divergence(trace, backend, protocol=protocol,
                                         gw=gw, jitter=jitter,
                                         corpus_dir=corpus_dir)
                raise
            runs += 1
            ops += trace.op_count()
    return {"runs": runs, "ops": ops}


def _minimize_divergence(trace: FuzzTrace, backend: str, *, protocol: str,
                         gw: bool, jitter: int,
                         corpus_dir: str | Path) -> Path:
    """Shrink a failing :func:`run_differential` trace and save it to
    the corpus as ``{backend}_divergence_seed{seed}_{protocol}.json``."""
    def diverges(t: FuzzTrace) -> bool:
        try:
            run_differential(t, protocol=protocol, gw=gw, backend=backend,
                             jitter=jitter)
        except FuzzFailure:
            return True
        return False

    small = minimize_trace(trace, diverges)
    path = (Path(corpus_dir)
            / f"{backend}_divergence_seed{trace.seed}_{protocol}.json")
    save_corpus_trace(
        small, path,
        note=(f"{backend} backend divergence: protocol={protocol} "
              f"gw={gw} jitter={jitter}; replay with "
              f"run_differential(..., backend={backend!r})"),
    )
    return path


def approx_drops(machine: Machine) -> int:
    """Total approximate updates forfeited across all L1s (the
    Ghostwriter GS/GI-invalidation race the corpus traces pin down)."""
    l1_stats = machine.stats.child("l1")
    return sum(
        l1_stats.child(f"c{n}").approx_data_dropped
        for n in range(machine.cfg.num_cores)
    )


# ---------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------
def minimize_trace(trace: FuzzTrace, failing) -> FuzzTrace:
    """Deterministic ddmin-style shrink: greedily delete op chunks (then
    single ops, then empty cores) while ``failing(trace)`` stays True.
    ``failing`` must be a pure predicate of the trace.

    Verdicts are memoized on the candidate's canonical-JSON BLAKE2b
    digest: the shrink loop revisits identical candidates whenever a
    later pass re-derives an earlier deletion, and ``failing`` runs a
    full (often multi-lane) simulation each time.  This is the
    checkpoint-reuse analog scoped to ddmin — successive trims share
    most of their simulated prefix, but safe-point alignment across
    *different* programs is not generally possible, so the reuse is at
    verdict granularity rather than machine-state granularity.
    """
    import hashlib

    verdicts: dict[bytes, bool] = {}

    def check(t: FuzzTrace) -> bool:
        key = hashlib.blake2b(
            json.dumps(t.to_json(), sort_keys=True).encode(),
            digest_size=16,
        ).digest()
        if key not in verdicts:
            verdicts[key] = bool(failing(t))
        return verdicts[key]

    if not check(trace):
        raise ValueError("minimize_trace needs a failing trace to start from")

    def with_ops(ops_lists) -> FuzzTrace:
        return dc_replace(trace, ops=tuple(tuple(o) for o in ops_lists))

    current = [list(core_ops) for core_ops in trace.ops]
    shrunk = True
    while shrunk:
        shrunk = False
        for cid in range(len(current)):
            chunk = max(1, len(current[cid]) // 2)
            while chunk >= 1:
                start = 0
                while start < len(current[cid]):
                    candidate = [list(o) for o in current]
                    del candidate[cid][start:start + chunk]
                    if check(with_ops(candidate)):
                        current = candidate
                        shrunk = True
                    else:
                        start += chunk
                chunk //= 2
    # drop cores left with no ops (renumbering keeps the machine small)
    pruned = [ops for ops in current if ops]
    if pruned and len(pruned) < len(current):
        candidate = dc_replace(
            trace,
            num_cores=len(pruned),
            ops=tuple(tuple(o) for o in pruned),
        )
        if check(candidate):
            return candidate
    return with_ops(current)


# ---------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------
def save_corpus_trace(trace: FuzzTrace, path: str | Path, *,
                      note: str) -> None:
    """Write a shrunk trace to the regression corpus."""
    data = trace.to_json()
    data["note"] = note
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


def load_corpus_trace(path: str | Path) -> FuzzTrace:
    """Read a corpus trace back."""
    return FuzzTrace.from_json(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """``python -m repro.verify.fuzz``: run the seed sweep and report."""
    import argparse
    import time

    p = argparse.ArgumentParser(
        prog="repro.verify.fuzz",
        description="Randomized Ghostwriter protocol fuzzer.",
    )
    p.add_argument("--seeds", type=int, default=200,
                   help="number of seeded traces (each runs under every "
                        "PROTOCOL_MATRIX variant)")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--ops", type=int, default=24, help="ops per core")
    p.add_argument("--cores", type=int, default=3)
    p.add_argument("--jitter", type=int, default=0,
                   help="max extra NoC delay cycles (race shaking)")
    p.add_argument("--corpus", metavar="DIR", default=None,
                   help="directory a failing trace is ddmin-minimized "
                        "into, whichever backend it failed on (e.g. "
                        "tests/verify/corpus)")
    args = p.parse_args(argv)

    t0 = time.time()
    summary = run_matrix(
        range(args.first_seed, args.first_seed + args.seeds),
        jitter=args.jitter, num_cores=args.cores, ops_per_core=args.ops,
        corpus_dir=args.corpus,
    )
    dt = time.time() - t0
    print(
        f"fuzz: {summary['runs']} runs "
        f"({args.seeds} seeds x {len(PROTOCOL_MATRIX)} configs, "
        f"{summary['ops']} trace ops) clean in {dt:.1f}s"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
