"""Unit + property tests for the compiled-program layer.

Covers the columnar representation itself (segmenting, the program
cache, trace lowering) and the round-trip property the whole design
rests on: recording a generator program and re-executing the arrays on
a fresh machine is bit-identical to running the generator — stats,
backing memory, and the program's own Python side effects.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import small_config
from repro.isa import instructions as isa
from repro.isa.compiled import (
    OP_ACQUIRE, OP_BARRIER, OP_COMPUTE, OP_LOAD, OP_SETAPRX, OP_STORE,
    CompiledProgram, ProgramCache, ProgramRecorder, ProgramSpec,
    lower_trace, replay_to_completion, resync_generator,
)
from repro.core import core as core_mod
from repro.sim.engine import CheckpointUnsupported
from repro.sim.machine import Machine
from repro.sim.state import CheckpointRecorder
from tests.conftest import attach_program_recorder


def _prog(ops, **kw):
    n = len(ops)
    return CompiledProgram(
        np.asarray(ops, dtype=np.int8),
        np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        **kw,
    )


class TestCompiledProgram:
    def test_columns_must_be_equal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            CompiledProgram(
                np.zeros(3, dtype=np.int8), np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
            )

    def test_segments_split_after_blocking_ops(self):
        p = _prog([OP_LOAD, OP_BARRIER, OP_STORE, OP_ACQUIRE, OP_COMPUTE])
        assert p.segment_starts == (0, 2, 4)

    def test_trailing_blocking_op_opens_no_empty_segment(self):
        p = _prog([OP_LOAD, OP_BARRIER])
        assert p.segment_starts == (0,)

    def test_empty_program_has_no_segments(self):
        assert _prog([]).segment_starts == ()

    def test_lists_memoized(self):
        p = _prog([OP_LOAD, OP_STORE])
        assert p.lists() is p.lists()
        assert p.lists()[0] == [OP_LOAD, OP_STORE]

    def test_nbytes_counts_all_columns(self):
        p = _prog([OP_LOAD] * 10)
        assert p.nbytes() == 10 * (1 + 8 + 8 + 8)


class TestProgramCache:
    def test_lru_eviction(self):
        c = ProgramCache(max_entries=2)
        a, b, d = _prog([OP_LOAD]), _prog([OP_STORE]), _prog([OP_COMPUTE])
        c.put("a", a)
        c.put("b", b)
        assert c.get("a") is a  # refresh: "b" is now LRU
        c.put("d", d)
        assert "b" not in c and "a" in c and "d" in c

    def test_hit_miss_counters_and_clear(self):
        c = ProgramCache()
        assert c.get("x") is None
        c.put("x", _prog([OP_LOAD]))
        assert c.get("x") is not None
        assert (c.hits, c.misses, len(c)) == (1, 1, 1)
        c.clear()
        assert (c.hits, c.misses, len(c)) == (0, 0, 0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ProgramCache(max_entries=0)


class TestRecorder:
    def test_load_value_patched_in(self):
        r = ProgramRecorder()
        r.record_load(0x40)
        r.patch_load(99)
        r.record(OP_STORE, 0x44, 7)
        p = r.finalize()
        assert p.value.tolist() == [99, 7]
        assert p.op.tolist() == [OP_LOAD, OP_STORE]

    def test_unknown_sync_object_marks_uncacheable(self):
        r = ProgramRecorder(sync_tables=([], []))
        r.record_sync(OP_BARRIER, object())
        assert not r.cacheable

    def test_known_sync_object_resolves_to_creation_index(self):
        barrier = object()
        r = ProgramRecorder(sync_tables=([object(), barrier], []))
        r.record_sync(OP_BARRIER, barrier)
        assert r.cacheable
        assert r.objs[0] == ("barrier", 1)


class TestLowerTrace:
    def test_setaprx_first_and_gaps_become_compute(self):
        p = lower_trace([100, 103, 500], [OP_LOAD, OP_STORE, OP_STORE],
                        [0x40, 0x44, 0x48], [0, 5, 6], d_distance=8)
        assert p.op.tolist() == [
            OP_SETAPRX, OP_LOAD, OP_COMPUTE, OP_STORE, OP_COMPUTE, OP_STORE,
        ]
        assert p.cycles[0] == 8          # the SetAprx operand
        assert p.cycles[2] == 3          # the 100 -> 103 gap
        assert p.cycles[4] == 200        # 103 -> 500, capped at _MAX_GAP
        assert not p.validate_loads      # replay re-decides load values

    def test_load_values_dropped_store_values_kept(self):
        p = lower_trace([0, 1], [OP_LOAD, OP_STORE], [0x40, 0x44],
                        [123, 0x1_0000_0007], d_distance=4)
        assert p.value.tolist() == [0, 0, 7]  # load dropped, store &32-bit


class TestValueDrivenReplay:
    """resync_generator / replay_to_completion: pure-Python replays fed
    with the recorded value column."""

    @staticmethod
    def _factory(out):
        def gen():
            a = yield isa.Load(0x40)
            out.append(("a", a))
            yield isa.Store(0x44, a + 1)
            b = yield isa.Load(0x44)
            out.append(("b", b))
        return gen

    @staticmethod
    def _recording():
        return CompiledProgram(
            np.asarray([OP_LOAD, OP_STORE, OP_LOAD], dtype=np.int8),
            np.asarray([0x40, 0x44, 0x44], dtype=np.int64),
            np.asarray([10, 11, 11], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        )

    def test_replay_runs_side_effects_once(self):
        out = []
        replay_to_completion(self._factory(out), self._recording())
        assert out == [("a", 10), ("b", 11)]

    def test_resync_stops_mid_stream_awaiting_send(self):
        out = []
        gen = resync_generator(self._factory(out), self._recording(), 3)
        assert out == [("a", 10)]       # prefix side effects ran
        with pytest.raises(StopIteration):
            gen.send(42)                 # deliver the divergent value
        assert out[-1] == ("b", 42)

    def test_overlong_program_raises(self):
        def gen():
            yield isa.Load(0x40)
            yield isa.Load(0x44)
        prog = CompiledProgram(
            np.asarray([OP_LOAD], dtype=np.int8),
            np.asarray([0x40], dtype=np.int64),
            np.asarray([0], dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(RuntimeError, match="beyond its 1-op recording"):
            replay_to_completion(lambda: gen(), prog)


# ---------------------------------------------------------------------
# the round-trip property
# ---------------------------------------------------------------------
_CFG = small_config(num_cores=2)

# a small strided address pool: hits, misses, evictions, cross-core
# sharing all occur within a few dozen ops
_ADDRS = st.integers(0, 63).map(lambda i: 0x1000 + i * 4)

_OPS = st.one_of(
    st.builds(isa.Load, _ADDRS),
    st.builds(isa.Store, _ADDRS, st.integers(0, 2**32 - 1)),
    st.builds(isa.Scribble, _ADDRS, st.integers(0, 2**32 - 1)),
    st.builds(isa.Compute, st.integers(1, 20)),
    st.builds(isa.SetAprx, st.integers(0, 16)),
    st.just(isa.EndAprx()),
    st.just(isa.FlushApprox()),
)


def _run_streams(streams, compiled, cache, *, record=False):
    """Run one fixed op stream per core; returns (stats, memory).
    ``record`` attaches a program recorder, so cache misses record."""
    machine = Machine(_CFG)
    if record:
        attach_program_recorder(machine)
    for cid, stream in enumerate(streams):
        def factory(stream=stream):
            def gen():
                for op in stream:
                    yield op
            return gen()
        if compiled:
            machine.add_thread(cid, ProgramSpec(factory, ("t", cid), cache))
        else:
            machine.add_thread(cid, factory())
    machine.run()
    return (machine.stats.flatten(),
            {k: tuple(v) for k, v in machine.backing._blocks.items()})


@settings(max_examples=30, deadline=None)
@given(streams=st.lists(st.lists(_OPS, max_size=40), min_size=2, max_size=2))
def test_random_streams_round_trip(streams):
    """Lowering + array re-execution of arbitrary op streams is
    bit-identical to the generator interpreter, for an unrecorded run,
    the recording (cold) run and the compiled (warm) run."""
    baseline = _run_streams(streams, compiled=False, cache=None)
    cache = ProgramCache()
    first = _run_streams(streams, compiled=True, cache=cache)
    assert len(cache) == 0, "a run without a recorder was recorded"
    cold = _run_streams(streams, compiled=True, cache=cache, record=True)
    assert len(cache) == 2, "recordings were not cached"
    warm = _run_streams(streams, compiled=True, cache=cache)
    assert first == baseline
    assert cold == baseline
    assert warm == baseline


def test_round_trip_with_barriers_and_locks():
    """Sync ops segment the program; handles rebind by creation index on
    a fresh machine."""
    def build(machine, compiled, cache):
        barrier = machine.barrier(2)
        lock = machine.lock()

        def make(cid):
            def gen():
                yield isa.Store(0x40 + cid * 4, cid + 1)
                yield isa.BarrierWait(barrier)
                v = yield isa.Load(0x40 + (1 - cid) * 4)
                yield isa.Acquire(lock)
                acc = yield isa.Load(0x100)
                yield isa.Store(0x100, acc + v)
                yield isa.Release(lock)
            return gen
        for cid in range(2):
            if compiled:
                machine.add_thread(
                    cid, ProgramSpec(make(cid), ("sync", cid), cache))
            else:
                machine.add_thread(cid, make(cid)())
        machine.run()
        return (machine.stats.flatten(),
                {k: tuple(v) for k, v in machine.backing._blocks.items()})

    baseline = build(Machine(_CFG), False, None)
    assert baseline[0]["core.c0.barrier_waits"] == 1
    cache = ProgramCache()
    first = build(Machine(_CFG), True, cache)
    cold = build(attach_program_recorder(Machine(_CFG)), True, cache)
    warm = build(Machine(_CFG), True, cache)
    assert first == baseline
    assert cold == baseline
    assert warm == baseline


def test_deoptimization_on_divergent_load():
    """A warm run whose validated load sees a different value falls back
    to a resynchronized generator and still completes correctly."""
    side = []

    def factory():
        def gen():
            v = yield isa.Load(0x40)
            side.append(v)
            yield isa.Store(0x44, v + 1)
        return gen()

    cache = ProgramCache()
    m1 = attach_program_recorder(Machine(_CFG))
    m1.add_thread(0, ProgramSpec(factory, ("d",), cache))
    m1.run()
    assert side == [0]

    # poison the recording so the warm run's load mismatches
    prog = cache.get(("d",))
    doctored = CompiledProgram(prog.op, prog.addr,
                               np.asarray([555, prog.value[1]],
                                          dtype=np.int64),
                               prog.cycles)
    cache.put(("d",), doctored)

    side.clear()
    m2 = Machine(_CFG)
    m2.add_thread(0, ProgramSpec(factory, ("d",), cache))
    m2.run()
    # the deoptimized run delivered the load's *actual* value (0, not
    # the doctored 555) to the resynchronized generator...
    assert side == [0]
    # ...and is bit-identical to a pure generator run
    m3 = Machine(_CFG)
    m3.add_thread(0, factory())
    m3.run()
    assert m2.stats.flatten() == m3.stats.flatten()


# ---------------------------------------------------------------------
# recording: only a checkpointing machine records a missed program
# ---------------------------------------------------------------------
def _load_store():
    def gen():
        v = yield isa.Load(0x40)
        yield isa.Store(0x44, v + 1)
    return gen()


@pytest.fixture
def recorders(monkeypatch):
    """Every ProgramRecorder a core constructs."""
    made = []

    def counting(*args, **kwargs):
        made.append(ProgramRecorder(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(core_mod, "ProgramRecorder", counting)
    return made


def _request(cache, *, checkpointed=False, run=True):
    machine = Machine(_CFG)
    if checkpointed:
        machine.checkpoint_recorder = CheckpointRecorder(32)
    core = machine.add_thread(0, ProgramSpec(_load_store, ("rec",), cache))
    if run:
        machine.run()
    return core


class TestRecording:
    def test_plain_machine_never_records(self, recorders):
        cache = ProgramCache()
        for _ in range(3):
            assert _request(cache).done
        assert recorders == []
        assert len(cache) == 0 and cache.misses == 3

    def test_checkpointing_machine_records_on_first_request(self, recorders):
        cache = ProgramCache()
        _request(cache, checkpointed=True)
        assert len(recorders) == 1
        assert ("rec",) in cache

    def test_later_run_replays_a_stored_program(self, recorders):
        cache = ProgramCache()
        _request(cache, checkpointed=True)
        core = _request(cache, run=False)
        assert core._compiled is not None
        assert len(recorders) == 1 and cache.hits == 1

    def test_unrecorded_core_cannot_snapshot(self):
        core = _request(ProgramCache(), run=False)
        with pytest.raises(CheckpointUnsupported, match="unrecorded"):
            core.snapshot()


def test_compile_programs_off_unwraps_to_generator():
    cfg = replace(_CFG, compile_programs=False)
    cache = ProgramCache()

    def factory():
        def gen():
            yield isa.Store(0x40, 1)
        return gen()

    # a program recorder would record a compiled run of the spec
    machine = attach_program_recorder(Machine(cfg))
    machine.add_thread(0, ProgramSpec(factory, ("off",), cache))
    machine.run()
    assert len(cache) == 0  # never recorded: the spec was unwrapped
    assert machine.cores[0].done
