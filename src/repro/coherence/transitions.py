"""Per-protocol L1 transition tables — Fig. 3, explicitly, per variant.

A declarative (state, event) -> (next state, action) table for the
stable-state protocol, in three roles:

* **documentation** — :func:`render_fig3` prints the state machine the
  way the paper draws it (for any registered protocol);
* **conformance oracle** — the test suite drives the simulator through
  each entry and checks the observed transition against this table, for
  *every* registered protocol variant
  (``tests/coherence/test_transition_table.py``);
* **API** — :func:`next_state` lets tools reason about a protocol
  without instantiating a machine.

Events are the local-core accesses and the remote-induced messages a
stable L1 block can see.  Scribble events are split by the outcome of
the scribe similarity check, because that check is what selects between
the approximate and conventional paths (§3.1).

:data:`TRANSITIONS` remains the hand-written full-Ghostwriter table (the
paper's Fig. 3, pinned verbatim by tests); every other variant's table
is generated from its :class:`~repro.coherence.policy.ProtocolPolicy` by
:func:`protocol_table`, and a parity test guarantees the generator
reproduces the Ghostwriter literal exactly.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from repro.common.types import CoherenceState as CS

__all__ = ["Event", "Transition", "TRANSITIONS", "protocol_table",
           "next_state", "render_fig3", "STATE_CODES"]


class Event(enum.Enum):
    """Stimuli a stable L1 block can receive."""

    LOAD = "Load"
    STORE = "Store"
    SCRIBBLE_SIMILAR = "Scribble(similar)"
    SCRIBBLE_DISSIMILAR = "Scribble(dissimilar)"
    REMOTE_GETS = "Fwd_GETS/Inv-free read"   # a remote load
    REMOTE_GETX = "Inv/Fwd_GETX"             # a remote conventional store
    REMOTE_UPDATE = "Update"                 # pushed data (update-hybrid)
    GI_TIMEOUT = "Timeout"
    EVICT = "Replacement"


@dataclass(frozen=True, slots=True)
class Transition:
    """One edge of the protocol state machine."""

    state: CS
    event: Event
    next_state: CS
    action: str


#: The stable-state Ghostwriter protocol over MESI (Fig. 3).  ``I`` rows
#: assume the tag is present (the paper's reading of I); a full tag miss
#: always takes the conventional miss path.
TRANSITIONS: tuple[Transition, ...] = (
    # ---- I (tag present) -------------------------------------------------
    Transition(CS.I, Event.LOAD, CS.S, "GETS; fill shared (E if sole)"),
    Transition(CS.I, Event.STORE, CS.M, "GETX; fill + write"),
    Transition(CS.I, Event.SCRIBBLE_SIMILAR, CS.GI,
               "write locally; no GETX; arm timeout"),
    Transition(CS.I, Event.SCRIBBLE_DISSIMILAR, CS.M, "fallback GETX"),
    Transition(CS.I, Event.REMOTE_GETX, CS.I, "ack stray invalidation"),
    Transition(CS.I, Event.EVICT, CS.I, "drop tag"),
    # ---- S ----------------------------------------------------------------
    Transition(CS.S, Event.LOAD, CS.S, "hit"),
    Transition(CS.S, Event.STORE, CS.M, "UPGRADE; invalidate sharers"),
    Transition(CS.S, Event.SCRIBBLE_SIMILAR, CS.GS,
               "write locally; no UPGRADE"),
    Transition(CS.S, Event.SCRIBBLE_DISSIMILAR, CS.M, "fallback UPGRADE"),
    Transition(CS.S, Event.REMOTE_GETS, CS.S, "no action"),
    Transition(CS.S, Event.REMOTE_GETX, CS.I, "invalidate; ack"),
    Transition(CS.S, Event.EVICT, CS.I, "PUTS (prune sharer)"),
    # ---- E ----------------------------------------------------------------
    Transition(CS.E, Event.LOAD, CS.E, "hit"),
    Transition(CS.E, Event.STORE, CS.M, "silent upgrade"),
    Transition(CS.E, Event.SCRIBBLE_SIMILAR, CS.M, "store path (silent)"),
    Transition(CS.E, Event.SCRIBBLE_DISSIMILAR, CS.M, "store path (silent)"),
    Transition(CS.E, Event.REMOTE_GETS, CS.S, "forward data; downgrade"),
    Transition(CS.E, Event.REMOTE_GETX, CS.I, "forward data; invalidate"),
    Transition(CS.E, Event.EVICT, CS.I, "PUTE (clean notice)"),
    # ---- M ----------------------------------------------------------------
    Transition(CS.M, Event.LOAD, CS.M, "hit"),
    Transition(CS.M, Event.STORE, CS.M, "hit"),
    Transition(CS.M, Event.SCRIBBLE_SIMILAR, CS.M, "hit"),
    Transition(CS.M, Event.SCRIBBLE_DISSIMILAR, CS.M, "hit"),
    Transition(CS.M, Event.REMOTE_GETS, CS.S,
               "forward data; copy back; downgrade (O under MOESI)"),
    Transition(CS.M, Event.REMOTE_GETX, CS.I, "forward data; invalidate"),
    Transition(CS.M, Event.EVICT, CS.I, "PUTM (dirty writeback)"),
    # ---- GS ---------------------------------------------------------------
    Transition(CS.GS, Event.LOAD, CS.GS, "hit (possibly stale)"),
    Transition(CS.GS, Event.STORE, CS.GS, "hit, local-only write"),
    Transition(CS.GS, Event.SCRIBBLE_SIMILAR, CS.GS,
               "hit, local-only write"),
    Transition(CS.GS, Event.SCRIBBLE_DISSIMILAR, CS.M,
               "fallback UPGRADE publishes the local block"),
    Transition(CS.GS, Event.REMOTE_GETS, CS.GS, "no action (still sharer)"),
    Transition(CS.GS, Event.REMOTE_GETX, CS.I,
               "invalidate; local updates forfeited"),
    Transition(CS.GS, Event.EVICT, CS.I,
               "PUTS; local updates forfeited"),
    # ---- GI ---------------------------------------------------------------
    Transition(CS.GI, Event.LOAD, CS.GI, "hit (stale)"),
    Transition(CS.GI, Event.STORE, CS.GI, "hit, local-only write"),
    Transition(CS.GI, Event.SCRIBBLE_SIMILAR, CS.GI,
               "hit, local-only write"),
    Transition(CS.GI, Event.SCRIBBLE_DISSIMILAR, CS.M, "fallback GETX"),
    Transition(CS.GI, Event.GI_TIMEOUT, CS.I,
               "flash-invalidate; updates forfeited"),
    Transition(CS.GI, Event.EVICT, CS.I,
               "silent drop; updates forfeited"),
)


# ---------------------------------------------------------------------
# per-protocol table generation
# ---------------------------------------------------------------------
def _build(policy) -> tuple[Transition, ...]:
    """Generate the stable-state table a ProtocolPolicy implies.

    Row order matches the hand-written Ghostwriter table (states in
    I, S, E, M, [O], [GS], [GI] order; events in access, remote, evict
    order) so the Ghostwriter output is *identical* to ``TRANSITIONS``.
    """
    E, T = Event, Transition
    moesi = policy.base == "moesi"
    update = policy.update_on_upgrade
    rows: list[Transition] = []

    # ---- I (tag present) ----
    rows += [
        T(CS.I, E.LOAD, CS.S, "GETS; fill shared (E if sole)"),
        T(CS.I, E.STORE, CS.M, "GETX; fill + write"),
    ]
    if policy.allows_gi:
        rows.append(T(CS.I, E.SCRIBBLE_SIMILAR, CS.GI,
                      "write locally; no GETX; arm timeout"))
    else:
        rows.append(T(CS.I, E.SCRIBBLE_SIMILAR, CS.M,
                      "conventional GETX (no GI)"))
    rows.append(T(CS.I, E.SCRIBBLE_DISSIMILAR, CS.M,
                  "fallback GETX" if policy.approx
                  else "conventional GETX"))
    rows += [
        T(CS.I, E.REMOTE_GETX, CS.I, "ack stray invalidation"),
        T(CS.I, E.EVICT, CS.I, "drop tag"),
    ]

    # ---- S ----
    store_next = CS.S if update else CS.M
    store_act = ("UPGRADE; push update to sharers (M if sole)"
                 if update else "UPGRADE; invalidate sharers")
    rows.append(T(CS.S, E.LOAD, CS.S, "hit"))
    rows.append(T(CS.S, E.STORE, store_next, store_act))
    if policy.allows_gs:
        rows.append(T(CS.S, E.SCRIBBLE_SIMILAR, CS.GS,
                      "write locally; no UPGRADE"))
    else:
        rows.append(T(CS.S, E.SCRIBBLE_SIMILAR, store_next,
                      "conventional UPGRADE (no GS)"))
    rows.append(T(CS.S, E.SCRIBBLE_DISSIMILAR, store_next,
                  "fallback UPGRADE" if policy.approx
                  else "conventional UPGRADE"))
    rows += [
        T(CS.S, E.REMOTE_GETS, CS.S, "no action"),
        T(CS.S, E.REMOTE_GETX, CS.I, "invalidate; ack"),
    ]
    if update:
        rows.append(T(CS.S, E.REMOTE_UPDATE, CS.S, "apply pushed data"))
    rows.append(T(CS.S, E.EVICT, CS.I, "PUTS (prune sharer)"))

    # ---- E ----
    rows += [
        T(CS.E, E.LOAD, CS.E, "hit"),
        T(CS.E, E.STORE, CS.M, "silent upgrade"),
        T(CS.E, E.SCRIBBLE_SIMILAR, CS.M, "store path (silent)"),
        T(CS.E, E.SCRIBBLE_DISSIMILAR, CS.M, "store path (silent)"),
        T(CS.E, E.REMOTE_GETS, CS.S, "forward data; downgrade"),
        T(CS.E, E.REMOTE_GETX, CS.I, "forward data; invalidate"),
        T(CS.E, E.EVICT, CS.I, "PUTE (clean notice)"),
    ]

    # ---- M ----
    rows += [
        T(CS.M, E.LOAD, CS.M, "hit"),
        T(CS.M, E.STORE, CS.M, "hit"),
        T(CS.M, E.SCRIBBLE_SIMILAR, CS.M, "hit"),
        T(CS.M, E.SCRIBBLE_DISSIMILAR, CS.M, "hit"),
    ]
    if moesi:
        rows.append(T(CS.M, E.REMOTE_GETS, CS.O,
                      "forward data; keep supplying (Owned)"))
    else:
        rows.append(T(CS.M, E.REMOTE_GETS, CS.S,
                      "forward data; copy back; downgrade (O under MOESI)"))
    rows += [
        T(CS.M, E.REMOTE_GETX, CS.I, "forward data; invalidate"),
        T(CS.M, E.EVICT, CS.I, "PUTM (dirty writeback)"),
    ]

    # ---- O (MOESI bases only) ----
    if moesi:
        rows += [
            T(CS.O, E.LOAD, CS.O, "hit"),
            T(CS.O, E.STORE, CS.M, "UPGRADE; invalidate sharers"),
            T(CS.O, E.SCRIBBLE_SIMILAR, CS.M,
              "conventional UPGRADE (O is the coherent master)"),
            T(CS.O, E.SCRIBBLE_DISSIMILAR, CS.M,
              "conventional UPGRADE (O is the coherent master)"),
            T(CS.O, E.REMOTE_GETS, CS.O, "forward data; stay Owned"),
            T(CS.O, E.REMOTE_GETX, CS.I, "forward data; invalidate"),
            T(CS.O, E.EVICT, CS.I, "PUTM (dirty writeback)"),
        ]

    # ---- GS ----
    if policy.allows_gs:
        rows += [
            T(CS.GS, E.LOAD, CS.GS, "hit (possibly stale)"),
            T(CS.GS, E.STORE, CS.GS, "hit, local-only write"),
            T(CS.GS, E.SCRIBBLE_SIMILAR, CS.GS, "hit, local-only write"),
        ]
        if policy.gs_fallback == "getx":
            rows.append(T(CS.GS, E.SCRIBBLE_DISSIMILAR, CS.M,
                          "fallback GETX discards the divergent copy"))
        else:
            rows.append(T(CS.GS, E.SCRIBBLE_DISSIMILAR, CS.M,
                          "fallback UPGRADE publishes the local block"))
        rows.append(T(CS.GS, E.REMOTE_GETS, CS.GS,
                      "no action (still sharer)"))
        if policy.remote_store_gs == "self-invalidate":
            rows.append(T(CS.GS, E.REMOTE_GETX, CS.GI,
                          "demote to GI; self-invalidate at timeout"))
        else:
            rows.append(T(CS.GS, E.REMOTE_GETX, CS.I,
                          "invalidate; local updates forfeited"))
        if update:
            rows.append(T(CS.GS, E.REMOTE_UPDATE, CS.S,
                          "apply pushed data; local updates forfeited"))
        rows.append(T(CS.GS, E.EVICT, CS.I,
                      "PUTS; local updates forfeited"))

    # ---- GI ----
    if policy.allows_gi:
        rows += [
            T(CS.GI, E.LOAD, CS.GI, "hit (stale)"),
            T(CS.GI, E.STORE, CS.GI, "hit, local-only write"),
            T(CS.GI, E.SCRIBBLE_SIMILAR, CS.GI, "hit, local-only write"),
            T(CS.GI, E.SCRIBBLE_DISSIMILAR, CS.M, "fallback GETX"),
            T(CS.GI, E.GI_TIMEOUT, CS.I,
              "flash-invalidate; updates forfeited"),
            T(CS.GI, E.EVICT, CS.I, "silent drop; updates forfeited"),
        ]

    return tuple(rows)


@lru_cache(maxsize=None)
def protocol_table(protocol: str = "ghostwriter") -> tuple[Transition, ...]:
    """The stable-state transition table of a registered protocol.

    The Ghostwriter table is the hand-written :data:`TRANSITIONS`
    literal; other variants are generated from their policy.
    """
    if protocol == "ghostwriter":
        return TRANSITIONS
    from repro.coherence.policy import get_protocol
    return _build(get_protocol(protocol))


@lru_cache(maxsize=None)
def _index(protocol: str) -> dict[tuple[CS, Event], Transition]:
    return {(t.state, t.event): t for t in protocol_table(protocol)}


def next_state(state: CS, event: Event,
               protocol: str = "ghostwriter") -> Transition | None:
    """The table entry for (state, event) under ``protocol``, or None if
    the combination cannot occur for a stable block."""
    return _index(protocol).get((state, event))


_STATE_ORDER = (CS.I, CS.S, CS.E, CS.M, CS.O, CS.GS, CS.GI)

#: fixed state -> small-int code (the machine fingerprint's array
#: encoding of line states)
STATE_CODES: dict[CS, int] = {s: i for i, s in enumerate(_STATE_ORDER)}


def render_fig3(protocol: str = "ghostwriter") -> str:
    """Fig. 3 as a state-grouped text table, for any registered protocol."""
    table = protocol_table(protocol)
    if protocol == "ghostwriter":
        lines = ["Fig. 3: Ghostwriter L1 protocol (stable states)"]
    else:
        lines = [f"Fig. 3 variant [{protocol}]: L1 protocol (stable states)"]
    present = {t.state for t in table}
    for state in _STATE_ORDER:
        if state not in present:
            continue
        lines.append(f"\n[{state.value}]")
        for t in table:
            if t.state is state:
                lines.append(
                    f"  {t.event.value:<22} -> {t.next_state.value:<3} "
                    f"({t.action})"
                )
    return "\n".join(lines)
