"""The hit-run fast lane: vectorized execution of guaranteed-hit op runs.

The compiled interpreter (:meth:`repro.core.core.Core._step`) retires one
op per Python dispatch.  In the regime the paper's workloads live in —
long private-hit streaks between coherence events — every op in a run is
an L1 hit whose effects are *locally* determined: no message leaves the
core, no state machine advances, no other component can observe the
intermediate states.  This module executes such runs as numpy kernels,
bit-identical to scalar stepping.

Identity argument (the contract the differential suite pins):

* **Which ops?**  Only ops that scalar execution would retire as pure L1
  hits with no externally visible side effect: loads on readable stable
  states, stores on E/M (the E->M transition is invisible when no
  transition hook, commit hook, or event bus is attached), stores on
  GS/GI (unconditional approximate hits), and — in bitwise mode with no
  probe/bus/budget — scribbles on GS/GI whose comparator check *passes*.
  Residency and state come from the L1's residency mirror
  (:attr:`repro.cache.l1.L1Controller._mirror`), which tracks exactly
  the stable hit-capable lines; a missing entry conservatively breaks
  the run.
* **Which cycles?**  Scalar execution chops a run into quanta by the
  greedy rule "retire while ``elapsed`` is under the step budget" (one
  hit latency) and schedules the next step at ``now + elapsed``.  The
  lane reproduces the exact boundaries from the plan's cost prefix-sum
  (``searchsorted`` instead of the loop), merges only *complete*
  quanta, and always schedules the first unmerged step as a real tagged
  event at its scalar dispatch cycle — so the op that misses, blocks,
  deoptimizes, or finishes the program always executes inside a real
  step with a scalar-identical ``engine.now``.
* **Which horizon?**  A merged step must not be overtaken by a foreign
  event: merging stops before the earliest queued event's cycle (strict
  — at a tie the queued event has the smaller seq and fires first in
  scalar execution) and before the engine's ``run_limit`` so timeouts
  fire at the same cycle.  While ``run_until`` is active the lane is
  disabled entirely: bounded windows have an implicit horizon at the
  cap cycle that the queue peek cannot see (this also keeps the
  checkpoint recorder's safe-point search scalar).
* **Which counters?**  Every StatGroup bump the scalar path performs per
  op is applied in bulk: L1 load/store/approx counters, the scribe's
  Fig. 2 observe histogram (``d_distance_array`` over write/previous
  word pairs) and pass counts, core ``mem_ops``/``compute_cycles``, and
  one ``quantum_yields`` per merged quantum.  The engine absorbs the
  merged steps' seq numbers and event count
  (:meth:`repro.sim.engine.Engine.absorb_merged_events`), so checkpoint
  fingerprints — which include the engine's seq — match scalar runs.
* **Which data?**  Loads are simulated against the evolving word values
  (a grouped forward-fill over (block, word) keys) so load validation
  and scribble checks see exactly the values scalar execution would;
  the first validation mismatch or failing check truncates the run
  *before* that op.  The last write per word lands in ``line.words``;
  per-block approximate write budgets (``aux``) advance by the write
  count; E lines that received a write flip to M; PLRU trees replay the
  per-access touch sequence (collapsed to last-touch-wins for the
  ubiquitous 2-way arrays).

Anything else — tracing bus attached, transition/commit hooks armed,
arithmetic similarity mode, decision-trace probe, write budgets on
scribbles, values that overflow int64 — disables or truncates the lane;
the scalar path is always the semantics of record.
"""
from __future__ import annotations

import numpy as np

from repro.common.types import CoherenceState
from repro.scribe.similarity import d_distance_array

__all__ = ["try_hit_run", "MIN_RUN"]

_S = CoherenceState

#: minimum merged-op count worth the kernel's fixed overhead; runs
#: shorter than this execute scalar (pure perf heuristic — correctness
#: never depends on it, which is how the differential tests shrink it)
MIN_RUN = 32

#: safety cap on merged quanta (one hit each) per attempt; the first
#: unmerged step simply re-enters the lane.  Every attempt classifies
#: the whole window up to the next run break, so a lower cap re-pays
#: that on long private runs
_MAX_QUANTA = 1 << 17


def try_hit_run(core) -> bool:
    """Attempt to vectorize the pending op run of ``core``.

    Returns True when a run was merged (effects applied, next step
    scheduled); False means "execute scalar" with no state touched.
    """
    l1 = core.l1
    if l1.bus is not None or l1.commit_hook is not None:
        return False
    engine = core.engine
    if engine.until_active:
        return False
    plan = core._plan
    if plan is None:
        return False

    pc = core._cpc
    n = len(core._ops)
    hl = core._hit_latency
    qc = hl                      # the core's step budget
    t0 = engine.now

    # merge horizon: strictly before the earliest queued event, and never
    # past the active run()'s cycle limit
    queue = engine._queue
    limit = engine.run_limit
    if queue:
        max_dispatch = queue[0][0] - 1
        if limit is not None and limit < max_dispatch:
            max_dispatch = limit
    else:
        max_dispatch = limit
    if max_dispatch is not None:
        avail = max_dispatch - t0
        # cheap pre-gate for contended multi-core phases: a horizon too
        # close to fit MIN_RUN memory ops cannot produce a useful merge
        if avail + qc < MIN_RUN * hl:
            return False
    else:
        avail = None

    end = plan.run_end(pc)
    if end - pc < MIN_RUN:
        return False

    cum = plan.cum
    cum_base = int(cum[pc - 1]) if pc else 0
    if avail is not None:
        hi = int(np.searchsorted(cum, cum_base + avail + qc)) + 1
        W = min(end, hi, n)
    else:
        W = min(end, n)
    if W - pc < MIN_RUN:
        return False

    prog = core._compiled
    ops_w = prog.op[pc:W]
    mem_idx = np.flatnonzero(ops_w < 3)
    if mem_idx.size == 0:
        return False
    blocks_w = plan.block[pc:W]
    ub, binv = np.unique(blocks_w[mem_idx], return_inverse=True)
    binv = binv.reshape(-1)

    # classify each touched block from the residency mirror:
    # 0 absent/unusable, 1 readable-only (S/O), 2 precise-writable (E/M),
    # 3 GS, 4 GI
    mirror = l1._mirror
    nb = len(ub)
    ub_cls = np.zeros(nb, dtype=np.int8)
    ub_lines: list = [None] * nb
    ub_set = np.zeros(nb, dtype=np.int64)
    ub_way = np.zeros(nb, dtype=np.int64)
    for i, b in enumerate(ub.tolist()):
        ent = mirror.get(b)
        if ent is None:
            continue
        line, sidx, way = ent
        if line.words is None:
            continue
        state = line.state
        if state is _S.E or state is _S.M:
            ub_cls[i] = 2
        elif state is _S.GS:
            ub_cls[i] = 3
        elif state is _S.GI:
            ub_cls[i] = 4
        else:  # S or O: loads hit, stores fall back
            ub_cls[i] = 1
        ub_lines[i] = line
        ub_set[i] = sidx
        ub_way[i] = way

    scribe = l1.scribe
    gw_scribbles = (
        scribe.enabled and scribe.mode == "bitwise"
        and scribe.probe is None and scribe.bus is None
        and l1.gw.approx_write_budget is None
    )

    # per-mem-op hit guarantee; the first violator bounds the run
    mops = ops_w[mem_idx]
    mcls = ub_cls[binv]
    is_load = mops == 0
    approx = mcls >= 3
    ok = np.where(
        is_load, mcls >= 1,
        (mcls == 2) | (approx & ((mops == 1) | gw_scribbles)),
    )
    bad = np.flatnonzero(~ok)
    lstar = int(mem_idx[bad[0]]) if bad.size else W - pc
    if lstar < MIN_RUN:
        return False

    m_in = mem_idx < lstar
    sel = mem_idx[m_in]
    kb = binv[m_in]
    opm = mops[m_in]
    is_wr = opm != 0
    wpb = l1.cfg.l1.words_per_block
    woffs = plan.woff[pc:W][sel]
    vals_m = prog.value[pc:W][sel]
    validate = prog.validate_loads
    scr_mask = (opm == 2) & (mcls[m_in] >= 3)

    # simulate the evolving word values when anything needs them: load
    # validation, scribble checks, the observe histogram (every write)
    prev = None
    any_wr = bool(is_wr.any())
    if (validate and bool((~is_wr).any())) or any_wr:
        base = np.empty(nb * wpb, dtype=np.int64)
        try:
            for i, line in enumerate(ub_lines):
                if line is not None:
                    base[i * wpb:(i + 1) * wpb] = line.words
        except (OverflowError, ValueError):
            return False  # words hold >int64 values: scalar territory
        key = kb * wpb + woffs
        order = np.argsort(key, kind="stable")
        k_s = key[order]
        v_s = vals_m[order]
        w_s = is_wr[order]
        m = len(order)
        grp_start = np.empty(m, dtype=bool)
        grp_start[0] = True
        grp_start[1:] = k_s[1:] != k_s[:-1]
        seg = np.cumsum(grp_start) - 1
        big = m + 1
        idx = np.arange(m, dtype=np.int64)
        lw = np.maximum.accumulate(np.where(w_s, idx + seg * big, -1))
        has_w = lw >= seg * big
        wpos = lw - seg * big
        prev_has = np.zeros(m, dtype=bool)
        prev_pos = np.zeros(m, dtype=np.int64)
        prev_has[1:] = has_w[:-1] & ~grp_start[1:]
        prev_pos[1:] = wpos[:-1]
        prev_s = np.where(
            prev_has, v_s[np.clip(prev_pos, 0, None)], base[k_s])
        prev = np.empty(m, dtype=np.int64)
        prev[order] = prev_s

        # dynamic truncation: the first load whose simulated value
        # diverges from the recording (scalar would deoptimize there)
        # and the first scribble whose comparator check fails (scalar
        # would miss there) both execute inside the real step
        if validate:
            mism = np.flatnonzero((~is_wr) & (prev != vals_m))
            if mism.size:
                lstar = min(lstar, int(sel[mism[0]]))
        if gw_scribbles and bool(scr_mask.any()):
            fails = np.flatnonzero(
                scr_mask
                & (((vals_m ^ prev) & np.int64(scribe._mask)) != 0))
            if fails.size:
                lstar = min(lstar, int(sel[fails[0]]))
        if lstar < MIN_RUN:
            return False

    # scalar-identical quantum boundaries over [pc, pc + lstar)
    k_steps = 0
    merged = 0
    e = 0
    cumw = cum[pc:W]
    n_rem = n - pc
    pure_mem = not bool((ops_w[:lstar] == 3).any())
    if pure_mem:
        # uniform cost: closed-form chain (the dominant shape)
        per = -(-qc // hl)          # ops per quantum
        adv = per * hl              # elapsed per quantum
        k_steps = min(lstar, n_rem - 1) // per
        if avail is not None:
            k_steps = min(k_steps, avail // adv + 1)
        k_steps = min(k_steps, _MAX_QUANTA)
        merged = k_steps * per
        e = k_steps * adv
    else:
        search = np.searchsorted
        while k_steps < _MAX_QUANTA:
            if k_steps and avail is not None and e > avail:
                break
            jg = int(search(cumw, cum_base + e + qc))
            end_rel = jg + 1
            if jg >= W - pc or end_rel > lstar or end_rel >= n_rem:
                break
            k_steps += 1
            merged = end_rel
            e = int(cumw[jg]) - cum_base
    if k_steps == 0 or merged < MIN_RUN:
        return False

    # ---- apply effects for ops [pc, pc + merged) ---------------------
    mc = sel < merged
    kbc = kb[mc]
    opc = opm[mc]
    clsc = ub_cls[kbc]
    wrm = opc != 0
    loads_n = int((~wrm).sum())
    wr_n = int(wrm.sum())
    gs_wr = int((wrm & (clsc == 3)).sum())
    gi_wr = int((wrm & (clsc == 4)).sum())
    approx_loads = int(((~wrm) & (clsc >= 3)).sum())

    stats = l1.stats
    if loads_n:
        stats.bulk_add("loads", loads_n)
        stats.bulk_add("load_hits", loads_n)
        if approx_loads:
            stats.bulk_add("approx_load_hits", approx_loads)
    if wr_n:
        stats.bulk_add("stores", wr_n)
        stats.bulk_add("store_hits", wr_n)
        if gs_wr or gi_wr:
            stats.bulk_add("approx_store_hits", gs_wr + gi_wr)
            if gs_wr:
                stats.bulk_add("gs_store_hits", gs_wr)
            if gi_wr:
                stats.bulk_add("gi_store_hits", gi_wr)

        valc = vals_m[mc]
        prevc = prev[mc]
        # Fig. 2 observe histogram: every write against the resident word
        scribe.observe_bulk(d_distance_array(
            valc[wrm].astype(np.uint32), prevc[wrm].astype(np.uint32)))
        passes = int((scr_mask[mc]).sum())
        if passes:
            scribe.count_passes(passes)

        # last write per word wins
        kw = (kbc * wpb + woffs[mc])[wrm]
        vw = valc[wrm]
        ukeys, last_rev = np.unique(kw[::-1], return_index=True)
        lastvals = vw[::-1][last_rev]
        for k, v in zip(ukeys.tolist(), lastvals.tolist()):
            ub_lines[k // wpb].words[k % wpb] = v

        wcounts = np.bincount(kbc[wrm], minlength=nb)
        for i in np.flatnonzero(wcounts).tolist():
            line = ub_lines[i]
            state = line.state
            if state is _S.E:
                # invisible E->M upgrade (hooks and bus are None here);
                # M stays in the mirror so no mirror update is needed
                line.state = _S.M
            elif state is _S.GS or state is _S.GI:
                # per-episode write budget accounting
                line.aux = (line.aux or 0) + int(wcounts[i])

    # PLRU: replay the touch sequence (dedup consecutive repeats; a
    # repeated touch of the same way is idempotent)
    sid = ub_set[kbc]
    assoc = l1.cfg.l1.assoc
    if assoc > 1 and len(sid):
        comb = sid * assoc + ub_way[kbc]
        keep = np.empty(len(comb), dtype=bool)
        keep[0] = True
        keep[1:] = comb[1:] != comb[:-1]
        seq = comb[keep]
        array = l1.array
        if assoc == 2:
            # one PLRU bit per set: last touch wins
            usets, last_rev = np.unique((seq >> 1)[::-1], return_index=True)
            lastway = (seq & 1)[::-1][last_rev]
            for s, w in zip(usets.tolist(), lastway.tolist()):
                array.plru_of(s).bits[0] = 1 if w == 0 else 0
        else:
            for c in seq.tolist():
                array.plru_of(c // assoc).touch(c % assoc)

    st = core._c
    st["mem_ops"] += loads_n + wr_n
    total_cycles = int(cumw[merged - 1]) - cum_base
    compute_cycles = total_cycles - (loads_n + wr_n) * hl
    if compute_cycles:
        st["compute_cycles"] += compute_cycles
    st["quantum_yields"] += k_steps

    # the merged steps' schedule/pop pairs never touched the queue;
    # account for them so seq and events_executed stay scalar-identical
    engine.absorb_merged_events(k_steps - 1)
    core._cpc = pc + merged
    engine.schedule_tagged(e, core._step, core._step_tag)
    return True
