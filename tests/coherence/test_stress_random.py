"""Randomized protocol stress tests.

Hypothesis generates random multi-core access interleavings over a small
set of hot blocks (maximizing races: upgrades crossing invalidations,
forwards racing writebacks, evictions under contention).  Invariants:

* the run always completes (no deadlock, no ProtocolError),
* post-run the directory and L1 states agree (SWMR etc.),
* with Ghostwriter disabled, words written by a single thread end with
  that thread's last value (per-word coherence oracle),
* with Ghostwriter disabled, every load observes *some* value previously
  written to that word (no data corruption / no made-up values).
"""
from hypothesis import given, settings, strategies as st

from repro.common.types import CoherenceState as CS
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store

from tests.conftest import build_machine

BASE = 0x4000
HOT_BLOCKS = 3          # few blocks -> heavy contention
WORDS_PER_BLOCK = 16

op_strategy = st.tuples(
    st.sampled_from(["load", "store", "scribble", "compute"]),
    st.integers(min_value=0, max_value=HOT_BLOCKS * 4 - 1),  # word choice
    st.integers(min_value=0, max_value=15),                  # value/cycles
)


def _addr(word_choice: int, tid: int) -> int:
    """Map a word choice to an address; even choices go to words unique to
    the thread (private word, shared block - false sharing), odd choices
    to fully shared words."""
    block = (word_choice // 4) * 64
    if word_choice % 2 == 0:
        off = 4 * (tid % WORDS_PER_BLOCK)
    else:
        off = 4 * (word_choice % 4)
    return BASE + block + off


def _run_program(ops_per_thread, n_threads, d_distance=4,
                 protocol="ghostwriter"):
    m = build_machine(max(2, n_threads), d_distance=d_distance,
                      gi_timeout=512, protocol=protocol)
    written: dict[int, set[int]] = {}
    last_write: dict[int, tuple[int, int]] = {}  # addr -> (tid, value)
    loads_seen: list[tuple[int, int]] = []

    def worker(tid, ops):
        def prog():
            yield SetAprx(4)
            for kind, wordc, val in ops:
                addr = _addr(wordc, tid)
                if kind == "load":
                    v = yield Load(addr)
                    loads_seen.append((addr, v))
                elif kind == "store":
                    written.setdefault(addr, set()).add(val)
                    last_write[addr] = (tid, val)
                    yield Store(addr, val)
                elif kind == "scribble":
                    written.setdefault(addr, set()).add(val)
                    last_write[addr] = (tid, val)
                    yield Scribble(addr, val)
                else:
                    yield Compute(val)
        return prog()

    for tid in range(n_threads):
        m.add_thread(tid, worker(tid, ops_per_thread[tid]))
    m.run(max_cycles=5_000_000)
    m.check_quiescent()
    m.check_coherence_invariants()
    return m, written, last_write, loads_seen


@settings(max_examples=30, deadline=None)
@given(
    progs=st.lists(
        st.lists(op_strategy, max_size=25), min_size=2, max_size=4
    )
)
def test_random_traces_complete_and_stay_consistent(progs):
    """Ghostwriter enabled: must always terminate with consistent state."""
    _run_program(progs, len(progs))


@settings(max_examples=30, deadline=None)
@given(
    progs=st.lists(
        st.lists(op_strategy, max_size=25), min_size=2, max_size=4
    )
)
def test_baseline_loads_never_see_garbage(progs):
    """Ghostwriter disabled: every loaded value was written by someone
    (or is the initial zero)."""
    m, written, _last, loads = _run_program(progs, len(progs), d_distance=0)
    for addr, value in loads:
        legal = written.get(addr, set()) | {0}
        assert value in legal, (
            f"load @{addr:#x} observed {value}, never written "
            f"(legal: {legal})"
        )


@settings(max_examples=25, deadline=None)
@given(
    progs=st.lists(
        st.lists(op_strategy, max_size=30), min_size=2, max_size=4
    )
)
def test_baseline_single_writer_words_exact(progs):
    """Words only ever written by one thread (the private-word pattern)
    must end with that thread's final value in the coherent view."""
    m, written, last_write, _ = _run_program(progs, len(progs), d_distance=0)
    # figure out which addresses were written by exactly one thread
    writers: dict[int, set[int]] = {}
    for tid, ops in enumerate(progs):
        for kind, wordc, _val in ops:
            if kind in ("store", "scribble"):
                writers.setdefault(_addr(wordc, tid), set()).add(tid)
    for addr, tids in writers.items():
        if len(tids) != 1:
            continue
        expected = last_write[addr][1]
        assert _coherent_word(m, addr) == expected


def _coherent_word(m, addr: int) -> int:
    """The globally coherent value of a word: the owner's copy if a block
    is owned, else any S copy / L2 / backing store."""
    block = addr - addr % 64
    off = (addr % 64) // 4
    for l1 in m.l1s:
        st_ = l1.state_of(addr)
        if st_ in (CS.M, CS.E):
            return l1.peek_word(addr)
    for l1 in m.l1s:
        if l1.state_of(addr) is CS.S:
            return l1.peek_word(addr)
    slc = m.l2_slices[m.cfg.home_l2_slice(block)]
    words = slc.probe(block)
    if words is not None:
        return words[off]
    return m.backing.load_word(addr)


@settings(max_examples=15, deadline=None)
@given(
    progs=st.lists(
        st.lists(op_strategy, max_size=25), min_size=2, max_size=4
    ),
    d=st.sampled_from([0, 4, 8, 16, 32]),
)
def test_any_d_distance_terminates(progs, d):
    """All d-distance settings (0, the precise machine, through the
    degenerate 32) leave the protocol consistent."""
    _run_program(progs, len(progs), d_distance=d)


@settings(max_examples=12, deadline=None)
@given(
    progs=st.lists(
        st.lists(op_strategy, max_size=20), min_size=2, max_size=3
    ),
    budget=st.sampled_from([1, 3, 8, None]),
)
def test_write_budget_never_breaks_protocol(progs, budget):
    """Any approximate-write budget leaves the protocol consistent."""
    from dataclasses import replace
    from repro.sim.machine import Machine
    from repro.common.config import small_config, GhostwriterConfig
    from repro.isa.instructions import SetAprx

    cfg = small_config(num_cores=max(2, len(progs)))
    cfg = replace(cfg, ghostwriter=GhostwriterConfig(
        d_distance=4, gi_timeout=512,
        approx_write_budget=budget,
    ))
    m = Machine(cfg)

    def worker(tid, ops):
        def prog():
            yield SetAprx(4)
            for kind, wordc, val in ops:
                addr = _addr(wordc, tid)
                if kind == "load":
                    yield Load(addr)
                elif kind == "store":
                    yield Store(addr, val)
                elif kind == "scribble":
                    yield Scribble(addr, val)
                else:
                    yield Compute(val)
        return prog()

    for tid, ops in enumerate(progs):
        m.add_thread(tid, worker(tid, ops))
    m.run(max_cycles=5_000_000)
    m.check_quiescent()
    m.check_coherence_invariants()


@settings(max_examples=12, deadline=None)
@given(
    progs=st.lists(
        st.lists(op_strategy, max_size=20), min_size=2, max_size=3
    ),
    mode=st.sampled_from(["bitwise", "arithmetic"]),
)
def test_similarity_modes_never_break_protocol(progs, mode):
    """Both comparator modes leave the protocol consistent."""
    from dataclasses import replace
    from repro.sim.machine import Machine
    from repro.common.config import small_config, GhostwriterConfig
    from repro.isa.instructions import SetAprx

    cfg = small_config(num_cores=max(2, len(progs)))
    cfg = replace(cfg, ghostwriter=GhostwriterConfig(
        d_distance=4, gi_timeout=512, similarity_mode=mode,
    ))
    m = Machine(cfg)

    def worker(tid, ops):
        def prog():
            yield SetAprx(4)
            for kind, wordc, val in ops:
                addr = _addr(wordc, tid)
                if kind == "load":
                    yield Load(addr)
                elif kind == "store":
                    yield Store(addr, val)
                elif kind == "scribble":
                    yield Scribble(addr, val)
                else:
                    yield Compute(val)
        return prog()

    for tid, ops in enumerate(progs):
        m.add_thread(tid, worker(tid, ops))
    m.run(max_cycles=5_000_000)
    m.check_quiescent()
    m.check_coherence_invariants()
