"""Behavior of the non-paper protocol variants.

The registry's two variants beyond the paper's ablations:

* ``update-hybrid`` — an UPGRADE from S with other sharers becomes a
  directory-mediated write-update (sharers get the new data pushed and
  stay shared) instead of an invalidation;
* ``self-invalidate`` — a GS copy reacts to a remote store by demoting
  itself to GI (keeping the stale data until the GI timeout) instead of
  invalidating immediately.

Plus the pinned full-Ghostwriter Fig. 3 rendering (the refactor must
never drift the default protocol's documented table).
"""
from dataclasses import replace

from repro.common.config import VerifyConfig, small_config
from repro.common.types import CoherenceState as CS
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store
from repro.sim.machine import Machine

from tests.conftest import run_scripts

BLK = 0x4000


def _machine(protocol, *, d_distance=4, gi_timeout=1024, monitor_period=64):
    cfg = small_config(num_cores=2, d_distance=d_distance,
                       gi_timeout=gi_timeout)
    return Machine(replace(
        cfg, protocol=protocol,
        verify=VerifyConfig(monitor_period=monitor_period),
    ))


class TestUpdateHybrid:
    def test_store_on_shared_line_pushes_update(self):
        """With another sharer present, a store publishes by UPDATE:
        both copies end shared with the new value, no invalidation."""
        m = _machine("update-hybrid", d_distance=0)

        def writer():
            yield Load(BLK)
            yield Compute(300)
            yield Store(BLK, 7)
            yield Compute(600)

        def reader():
            yield Compute(100)
            yield Load(BLK)
            yield Compute(1200)

        run_scripts(m, writer(), reader())
        m.check_coherence_invariants()
        assert m.l1s[0].state_of(BLK) is CS.S
        assert m.l1s[1].state_of(BLK) is CS.S
        assert m.l1s[0].peek_word(BLK) == 7
        assert m.l1s[1].peek_word(BLK) == 7
        l1 = m.stats.child("l1")
        assert l1.total("updates_applied") == 1
        assert m.stats.child("dir").total("updates_sent") == 1

    def test_sole_sharer_store_takes_plain_upgrade(self):
        """No other sharers: the store falls through to the normal
        pure-upgrade M grant (no UPDATE messages at all)."""
        m = _machine("update-hybrid", d_distance=0)

        def writer():
            yield Load(BLK)
            yield Compute(300)
            yield Store(BLK, 7)
            yield Compute(600)

        def reader():
            # touches a different block entirely
            yield Load(BLK + 0x1000)
            yield Compute(900)

        run_scripts(m, writer(), reader())
        m.check_coherence_invariants()
        assert m.l1s[0].state_of(BLK) is CS.M
        assert m.stats.child("dir").total("updates_sent") == 0

    def test_update_recoheres_gs_sharer(self):
        """A pushed UPDATE lands on a GS copy: the divergent local data
        is forfeited and the copy re-coheres to S with the pushed value
        (the table's GS + Update -> S row)."""
        m = _machine("update-hybrid")

        def writer():
            yield Load(BLK)
            yield Compute(400)
            yield Store(BLK, 0x7)
            yield Compute(800)

        def scribbler():
            yield SetAprx(4)
            yield Compute(100)
            yield Load(BLK)
            yield Scribble(BLK, 0x3)      # S -> GS, local-only 0x3
            yield Compute(1500)

        run_scripts(m, writer(), scribbler())
        m.check_coherence_invariants()
        assert m.l1s[1].state_of(BLK) is CS.S
        assert m.l1s[1].peek_word(BLK) == 0x7
        assert m.stats.child("l1").total("updates_applied") >= 1


class TestSelfInvalidate:
    def test_remote_store_demotes_gs_to_gi(self):
        """The INV from a remote store turns GS into GI: the stale copy
        survives locally (still readable) until the GI timeout drops it
        to I — no immediate invalidation."""
        m = _machine("self-invalidate", gi_timeout=400)
        seen = {}

        def scribbler():
            yield SetAprx(4)
            yield Load(BLK)
            yield Compute(200)
            yield Scribble(BLK, 0x1)      # S -> GS
            yield Compute(500)            # remote store lands here
            seen["state"] = m.l1s[0].state_of(BLK)
            seen["stale"] = yield Load(BLK)
            yield Compute(1500)           # GI timeout expires

        def writer():
            yield Load(BLK)
            yield Compute(400)
            yield Store(BLK, 0x7)         # invalidates sharers
            yield Compute(1800)

        run_scripts(m, scribbler(), writer())
        m.check_coherence_invariants()
        assert seen["state"] is CS.GI
        assert seen["stale"] == 0x1       # local scribble, never 0x7
        assert m.l1s[0].state_of(BLK) in (CS.I, None)
        l1 = m.stats.child("l1")
        assert l1.total("self_invalidations") == 1
        assert l1.total("gi_timeout_invalidations") >= 1


class TestFig3Snapshot:
    def test_full_ghostwriter_rendering_is_pinned(self):
        """The default protocol's Fig. 3 text, verbatim."""
        from repro.coherence.transitions import render_fig3

        expected = """\
Fig. 3: Ghostwriter L1 protocol (stable states)

[I]
  Load                   -> S   (GETS; fill shared (E if sole))
  Store                  -> M   (GETX; fill + write)
  Scribble(similar)      -> GI  (write locally; no GETX; arm timeout)
  Scribble(dissimilar)   -> M   (fallback GETX)
  Inv/Fwd_GETX           -> I   (ack stray invalidation)
  Replacement            -> I   (drop tag)

[S]
  Load                   -> S   (hit)
  Store                  -> M   (UPGRADE; invalidate sharers)
  Scribble(similar)      -> GS  (write locally; no UPGRADE)
  Scribble(dissimilar)   -> M   (fallback UPGRADE)
  Fwd_GETS/Inv-free read -> S   (no action)
  Inv/Fwd_GETX           -> I   (invalidate; ack)
  Replacement            -> I   (PUTS (prune sharer))

[E]
  Load                   -> E   (hit)
  Store                  -> M   (silent upgrade)
  Scribble(similar)      -> M   (store path (silent))
  Scribble(dissimilar)   -> M   (store path (silent))
  Fwd_GETS/Inv-free read -> S   (forward data; downgrade)
  Inv/Fwd_GETX           -> I   (forward data; invalidate)
  Replacement            -> I   (PUTE (clean notice))

[M]
  Load                   -> M   (hit)
  Store                  -> M   (hit)
  Scribble(similar)      -> M   (hit)
  Scribble(dissimilar)   -> M   (hit)
  Fwd_GETS/Inv-free read -> S   (forward data; copy back; downgrade (O under MOESI))
  Inv/Fwd_GETX           -> I   (forward data; invalidate)
  Replacement            -> I   (PUTM (dirty writeback))

[GS]
  Load                   -> GS  (hit (possibly stale))
  Store                  -> GS  (hit, local-only write)
  Scribble(similar)      -> GS  (hit, local-only write)
  Scribble(dissimilar)   -> M   (fallback UPGRADE publishes the local block)
  Fwd_GETS/Inv-free read -> GS  (no action (still sharer))
  Inv/Fwd_GETX           -> I   (invalidate; local updates forfeited)
  Replacement            -> I   (PUTS; local updates forfeited)

[GI]
  Load                   -> GI  (hit (stale))
  Store                  -> GI  (hit, local-only write)
  Scribble(similar)      -> GI  (hit, local-only write)
  Scribble(dissimilar)   -> M   (fallback GETX)
  Timeout                -> I   (flash-invalidate; updates forfeited)
  Replacement            -> I   (silent drop; updates forfeited)"""
        assert render_fig3() == expected
