"""Fast-lane/scalar equivalence across the whole workload registry.

The correctness bar for the vectorized hit-run fast lane (ISSUE 10,
:mod:`repro.core.hitrun`): for every registered workload and a protocol
cross-section, a run executed with ``RunOptions(fast_lane=True)`` must
be **bit-identical** to the scalar event-driven run — the full frozen
``RunRow``, every flattened counter, the backing-memory image and cache
arrays (the checkpoint layer's fingerprint payload), the engine's
cycle/event accounting, and the ``MachineCheckpoint`` fingerprint.

This mirrors tests/sim/test_batch_equivalence.py one layer down: that
suite proves the lane-sharing sweep engine preserves whole-sweep
behavior; this one proves the single-run op-merging kernel preserves
single-run behavior.  A Hypothesis property closes the loop at the op
level: random compiled streams segment into hit runs whose vectorized
replay matches the scalar interpreter op-for-op.
"""
import numpy as np
import pytest

import repro.core.core as core_module
import repro.core.hitrun as hitrun
from repro.harness.experiment import row_from_result, run_workload_result
from repro.harness.options import RunOptions
from repro.sim.state import MachineCheckpoint, machine_fingerprint
from repro.workloads.registry import (
    ALL_WORKLOADS, MICROBENCHMARKS, PROGRAM_CACHE,
)
from tests.conftest import recording_machines

THREADS = 4
SCALE = 0.05
SEED = 7

#: the ISSUE's protocol cross-section: both precise/approximate main
#: variants plus the two structurally different approximation policies
PROTOCOLS = ("mesi", "ghostwriter", "self-invalidate", "update-hybrid")

pytestmark = pytest.mark.usefixtures("clean_cache")


@pytest.fixture
def clean_cache():
    PROGRAM_CACHE.clear()
    yield
    PROGRAM_CACHE.clear()


@pytest.fixture
def tiny_min_run(monkeypatch):
    """Shrink the lane's engagement floor so scaled-down test runs merge
    aggressively (MIN_RUN is a perf heuristic, not a correctness knob)."""
    monkeypatch.setattr(hitrun, "MIN_RUN", 1)


@pytest.fixture
def merges(monkeypatch):
    """The cores of every hit run the fast lane merged (each
    ``try_hit_run`` call that returned True), in order."""
    merged = []

    def counting(core):
        ok = hitrun.try_hit_run(core)
        if ok:
            merged.append(core.cid)
        return ok

    monkeypatch.setattr(core_module, "try_hit_run", counting)
    return merged


def _sizing(name):
    if name in MICROBENCHMARKS:
        return {"n_points": 96, "max_value": 7}
    return {"scale": SCALE}


def _run(name, *, lane, d=4, protocol=None, seed=SEED, warm=True):
    """One workload run; returns (RunRow, fingerprint payload dict).

    ``warm`` first runs the same workload on a machine with a program
    recorder (only such a machine records into the program cache), so
    the measured run replays through the compiled interpreter — the
    only form the fast lane engages on.  The cache is shared between the
    lane-on and lane-off legs, so both replay the *same* compiled
    program; every measured run must hit the cache.
    """
    kwargs = dict(d_distance=d, num_threads=THREADS, seed=seed,
                  protocol=protocol, options=RunOptions(fast_lane=lane),
                  **_sizing(name))
    if warm:
        with recording_machines():
            run_workload_result(name, **kwargs)
    hits = PROGRAM_CACHE.hits
    result, cfg = run_workload_result(name, **kwargs)
    assert PROGRAM_CACHE.hits > hits, "the measured run did not replay"
    row = row_from_result(name, result, cfg)
    m = result.machine
    from repro.sim.state import fingerprint_payload

    payload = fingerprint_payload(m)
    payload["engine"] = (m.engine.now, m.engine.events_executed)
    payload["checkpoint"] = machine_fingerprint(m)
    # MachineCheckpoint round-trips through the same payload; capturing
    # proves the (never-serialized) residency mirror doesn't leak into
    # the snapshot
    MachineCheckpoint.capture(m)
    return row, payload


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_fastlane_matches_scalar_per_workload(name, tiny_min_run, merges):
    """Every workload: lane-on run byte-equal to lane-off run in row,
    stats, memory image, cache arrays, engine accounting, and
    checkpoint fingerprint."""
    row_on, pay_on = _run(name, lane=True)
    assert merges, "the fast lane never engaged"
    row_off, pay_off = _run(name, lane=False, warm=False)
    assert row_on == row_off
    assert pay_on == pay_off


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", ["histogram", "bad_dot_product"])
def test_fastlane_matches_scalar_per_protocol(name, protocol, tiny_min_run,
                                             merges):
    """The ISSUE's protocol cross-section: hit-capable state sets differ
    per protocol (GS/GI only exist under approximation policies), so the
    residency-mirror classification exercises different rows — runs must
    still be byte-equal."""
    for d in (0, 4):
        merges.clear()
        row_on, pay_on = _run(name, lane=True, d=d, protocol=protocol)
        assert merges, f"d={d}: the fast lane never engaged"
        row_off, pay_off = _run(name, lane=False, d=d, protocol=protocol,
                                warm=False)
        assert row_on == row_off, f"d={d}"
        assert pay_on == pay_off, f"d={d}"


def test_fastlane_is_execution_only_in_store_keys():
    """``fast_lane`` is an execution knob, not an identity knob: rows
    computed either way commit under the same store keys."""
    from repro.store.keys import options_fingerprint

    assert (options_fingerprint(RunOptions(fast_lane=False))
            == options_fingerprint(RunOptions()))


def test_tracing_forces_scalar_path_with_identical_rows(tiny_min_run):
    """An attached event bus disables merging dynamically (the lane
    cannot replay per-op STATE emissions), and the traced run is still
    byte-equal with the knob on or off."""
    on = RunOptions(fast_lane=True, trace_events=True)
    off = RunOptions(fast_lane=False, trace_events=True)
    result_on, cfg_on = run_workload_result(
        "bad_dot_product", d_distance=4, num_threads=THREADS, seed=SEED,
        options=on, **_sizing("bad_dot_product"))
    result_off, cfg_off = run_workload_result(
        "bad_dot_product", d_distance=4, num_threads=THREADS, seed=SEED,
        options=off, **_sizing("bad_dot_product"))
    row_on = row_from_result("bad_dot_product", result_on, cfg_on)
    row_off = row_from_result("bad_dot_product", result_off, cfg_off)
    assert row_on == row_off
    assert row_on.obs is not None
    assert np.array_equal(np.asarray(result_on.output),
                          np.asarray(result_off.output))


# ---------------------------------------------------------------------
# op-level Hypothesis property
# ---------------------------------------------------------------------
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_OP_LOAD, _OP_STORE, _OP_SCRIBBLE, _OP_COMPUTE = 0, 1, 2, 3
_OP_SETAPRX, _OP_ENDAPRX, _OP_FLUSH = 7, 8, 11

_ops_strategy = st.lists(
    st.one_of(
        # a handful of hot words across 4 blocks: runs stay hot in L1
        st.tuples(st.just("mem"),
                  st.sampled_from((_OP_LOAD, _OP_STORE, _OP_SCRIBBLE)),
                  st.integers(0, 3), st.integers(0, 15),
                  st.integers(0, 2**32 - 1)),
        st.tuples(st.just("compute"), st.integers(1, 6)),
        st.tuples(st.just("setaprx"), st.integers(0, 14)),
        st.tuples(st.just("endaprx")),
        st.tuples(st.just("flush")),
    ),
    min_size=1, max_size=120,
)


def _compiled_from(draw_ops):
    from repro.isa.compiled import CompiledProgram

    ops, addrs, vals, cycs = [], [], [], []
    for t in draw_ops:
        kind = t[0]
        if kind == "mem":
            _, code, blk, woff, value = t
            ops.append(code)
            addrs.append(0x2000 + blk * 64 + woff * 4)
            vals.append(0 if code == _OP_LOAD else value)
            cycs.append(0)
        elif kind == "compute":
            ops.append(_OP_COMPUTE)
            addrs.append(0)
            vals.append(0)
            cycs.append(t[1])
        elif kind == "setaprx":
            ops.append(_OP_SETAPRX)
            addrs.append(0)
            vals.append(0)
            cycs.append(t[1])
        elif kind == "endaprx":
            ops.append(_OP_ENDAPRX)
            addrs.append(0)
            vals.append(0)
            cycs.append(0)
        else:
            ops.append(_OP_FLUSH)
            addrs.append(0)
            vals.append(0)
            cycs.append(0)
    return CompiledProgram(
        np.asarray(ops, dtype=np.int8),
        np.asarray(addrs, dtype=np.int64),
        np.asarray(vals, dtype=np.int64),
        np.asarray(cycs, dtype=np.int64),
        validate_loads=False,
    )


def _machine_state(cfg, prog):
    from repro.sim.machine import Machine
    from repro.sim.state import fingerprint_payload

    m = Machine(cfg)
    m.add_thread(0, prog)
    m.run()
    payload = fingerprint_payload(m)
    payload["engine"] = (m.engine.now, m.engine.events_executed)
    return payload


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(draw_ops=_ops_strategy, quantum=st.sampled_from((1, 4, 16)),
       gw=st.booleans())
def test_random_compiled_streams_replay_identically(draw_ops, quantum, gw):
    """Random compiled streams segment into hit runs whose vectorized
    replay matches the scalar interpreter op-for-op: final stats,
    memory, caches, and engine accounting are all byte-equal."""
    from dataclasses import replace

    from repro.common.config import small_config

    prog = _compiled_from(draw_ops)
    saved = hitrun.MIN_RUN
    hitrun.MIN_RUN = 1
    try:
        base = small_config(num_cores=1, d_distance=6 if gw else 0,
                            core_quantum=quantum)
        on = _machine_state(replace(base, fast_lane=True), prog)
        off = _machine_state(replace(base, fast_lane=False), prog)
    finally:
        hitrun.MIN_RUN = saved
    assert on == off
