"""Conformance: the simulator follows the declarative Fig. 3 tables.

For every local-access row of every registered protocol's table, a
scenario drives one L1 into the source state, applies the event, and
checks the observed next state against that protocol's table.
(Remote-event and eviction rows are covered by test_state_machine /
test_fig3_matrix / test_l1_behaviour / test_protocol_variants; here the
focus is the exhaustive local-access matrix, per variant.)
"""
import pytest

from repro.coherence.policy import available_protocols, get_protocol
from repro.coherence.transitions import (
    Event, TRANSITIONS, _build, next_state, protocol_table, render_fig3,
)
from repro.common.types import CoherenceState as CS
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store

from tests.conftest import build_machine, run_scripts

BLK = 0x4000

_LOCAL_EVENTS = {
    Event.LOAD, Event.STORE, Event.SCRIBBLE_SIMILAR,
    Event.SCRIBBLE_DISSIMILAR,
}

_SIMILAR = 0x5        # vs resident 0x3 or 0x0: small d-distance, passes d=4
_DISSIMILAR = 1 << 20


def _event_op(event: Event):
    if event is Event.LOAD:
        return Load(BLK)
    if event is Event.STORE:
        return Store(BLK, _SIMILAR)
    if event is Event.SCRIBBLE_SIMILAR:
        return Scribble(BLK, _SIMILAR)
    return Scribble(BLK, _DISSIMILAR)


def _setup_ops(state: CS):
    """Local-core op sequence that leaves BLK in ``state`` (with help
    from a remote core at fixed delays).  S/GS setups are load-based so
    they land in S under MOESI bases too (a store-then-remote-read
    sequence would leave the local copy Owned, not Shared)."""
    if state is CS.I:     # tag present, invalid (remote GETX at ~300)
        return [Store(BLK, 0x3), Compute(600)]
    if state is CS.S:     # remote load at ~300 downgrades our E copy
        return [Load(BLK), Compute(600)]
    if state is CS.E:
        return [Load(BLK), Compute(600)]
    if state is CS.M:
        return [Store(BLK, 0x3), Compute(600)]
    if state is CS.O:     # MOESI: remote load at ~300 demotes M to O
        return [Store(BLK, 0x3), Compute(600)]
    if state is CS.GS:    # S first, then a similar scribble
        return [Load(BLK), Compute(600), Scribble(BLK, 0x3)]
    if state is CS.GI:    # invalidated, then a similar scribble
        return [Store(BLK, 0x3), Compute(600), Scribble(BLK, 0x1)]
    raise AssertionError(state)


def _remote_ops(state: CS):
    if state in (CS.I, CS.GI):
        return [Compute(300), Store(BLK + 4, 0x1), Compute(700)]
    if state in (CS.S, CS.GS, CS.O):
        return [Compute(300), Load(BLK + 4), Compute(700)]
    return [Compute(5), Compute(1000)]  # E/M: remote stays away


_CASES = [
    (p, t) for p in available_protocols()
    for t in protocol_table(p) if t.event in _LOCAL_EVENTS
]


@pytest.mark.parametrize(
    "protocol,row", _CASES,
    ids=[f"{p}-{t.state.value}-{t.event.name}" for p, t in _CASES],
)
def test_local_access_transitions(protocol, row):
    pol = get_protocol(protocol)
    m = build_machine(2, d_distance=4 if pol.approx else 0,
                      gi_timeout=100_000, protocol=protocol)
    observed = {}

    def local():
        yield SetAprx(4)
        for op in _setup_ops(row.state):
            yield op
        assert m.l1s[0].state_of(BLK) is row.state, (
            f"setup reached {m.l1s[0].state_of(BLK)}, wanted {row.state}"
        )
        yield _event_op(row.event)
        observed["state"] = m.l1s[0].state_of(BLK)
        yield Compute(10)

    def remote():
        yield SetAprx(4)
        for op in _remote_ops(row.state):
            yield op

    run_scripts(m, local(), remote())
    got = observed["state"]
    want = row.next_state
    # conventional-store/fallback/update rows complete through a
    # transient state; the observed state right after the access may
    # still be the transient or already the final state
    if want in (CS.M, CS.S) and got is not want:
        assert got in (CS.SM_D, CS.IM_D, CS.IS_D), (
            f"{row}: observed {got}"
        )
        # after quiescence the final state must match
        final = m.l1s[0].state_of(BLK)
        assert final is want or final is None
    else:
        assert got is want, f"{row}: observed {got}"


_EXPECTED_STATES = {
    "mesi": {CS.I, CS.S, CS.E, CS.M},
    "moesi": {CS.I, CS.S, CS.E, CS.M, CS.O},
    "ghostwriter": {CS.I, CS.S, CS.E, CS.M, CS.GS, CS.GI},
    "ghostwriter-moesi": {CS.I, CS.S, CS.E, CS.M, CS.O, CS.GS, CS.GI},
    "gw-gs-only": {CS.I, CS.S, CS.E, CS.M, CS.GS},
    "gw-gi-only": {CS.I, CS.S, CS.E, CS.M, CS.GI},
    "self-invalidate": {CS.I, CS.S, CS.E, CS.M, CS.GS, CS.GI},
    "update-hybrid": {CS.I, CS.S, CS.E, CS.M, CS.GS, CS.GI},
}


class TestTableShape:
    def test_generator_reproduces_ghostwriter_literal(self):
        """The per-policy generator emits the hand-written Fig. 3 table
        byte for byte — the refactor anchor."""
        assert _build(get_protocol("ghostwriter")) == TRANSITIONS

    def test_every_registered_protocol_has_a_table(self):
        assert set(_EXPECTED_STATES) == set(available_protocols())

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_stable_state_coverage(self, protocol):
        states = {t.state for t in protocol_table(protocol)}
        assert states == _EXPECTED_STATES[protocol]

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_no_duplicate_rows(self, protocol):
        keys = [(t.state, t.event) for t in protocol_table(protocol)]
        assert len(keys) == len(set(keys))

    def test_next_state_lookup(self):
        t = next_state(CS.S, Event.SCRIBBLE_SIMILAR)
        assert t is not None and t.next_state is CS.GS
        assert next_state(CS.E, Event.GI_TIMEOUT) is None
        # per-protocol lookups diverge where the policies do
        t = next_state(CS.S, Event.SCRIBBLE_SIMILAR, protocol="mesi")
        assert t is not None and t.next_state is CS.M
        t = next_state(CS.S, Event.STORE, protocol="update-hybrid")
        assert t is not None and t.next_state is CS.S
        t = next_state(CS.GS, Event.REMOTE_GETX, protocol="self-invalidate")
        assert t is not None and t.next_state is CS.GI

    def test_approximate_states_never_publish_on_exit_events(self):
        """Every GS/GI exit except the scribble fallback forfeits data,
        under every approximation-capable variant."""
        for p in available_protocols():
            for t in protocol_table(p):
                if t.state in (CS.GS, CS.GI) and t.next_state is CS.I:
                    assert "forfeit" in t.action, (p, t)

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_render_fig3(self, protocol):
        out = render_fig3(protocol)
        assert "Fig. 3" in out
        for s in _EXPECTED_STATES[protocol]:
            assert f"[{s.value}]" in out
