"""Ablation — Ghostwriter on MOESI vs MESI baselines.

The paper's §3.2: the approximate states "can be added to most existing
protocols."  This bench runs the two heaviest-sharing workloads under
both baselines, with and without Ghostwriter, and asserts:

* the MOESI baseline is itself never slower than MESI (the O state
  removes dirty-read writebacks),
* Ghostwriter still delivers its traffic reduction on top of MOESI,
* outputs remain exact on both baselines.
"""
from repro.harness.experiment import experiment_config
from repro.harness.options import RunOptions
from repro.workloads.registry import create

from conftest import BENCH_SCALE, BENCH_SEED, BENCH_THREADS

#: approximate registry variant layered on each precise base
_GW_VARIANT = {"mesi": "ghostwriter", "moesi": "ghostwriter-moesi"}


def _run(name, *, protocol, d):
    """``d=0`` runs the precise ``protocol``; ``d>0`` its approximate
    registry variant."""
    cfg = experiment_config(
        d_distance=d,
        options=RunOptions(protocol=_GW_VARIANT[protocol] if d else protocol),
    )
    w = create(name, num_threads=BENCH_THREADS, scale=BENCH_SCALE,
               seed=BENCH_SEED)
    result = w.run(cfg)
    result.machine.check_coherence_invariants()
    return result


def test_protocol_ablation(benchmark):
    def sweep():
        out = {}
        for name in ("linear_regression", "jpeg"):
            for proto in ("mesi", "moesi"):
                out[(name, proto, "base")] = _run(name, protocol=proto, d=0)
                out[(name, proto, "gw")] = _run(name, protocol=proto, d=8)
        return out

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\nprotocol ablation (d=8):")
    for name in ("linear_regression", "jpeg"):
        for proto in ("mesi", "moesi"):
            base = rows[(name, proto, "base")]
            gw = rows[(name, proto, "gw")]
            sp = (base.cycles / gw.cycles - 1) * 100
            msgs_base = base.machine.network.stats.messages
            msgs_gw = gw.machine.network.stats.messages
            print(f"  {name:18s} {proto:5s}: base {base.cycles:>7} cyc, "
                  f"GW {sp:+6.2f}%, traffic {100 * (1 - msgs_gw / msgs_base):5.1f}% "
                  f"lower, err {gw.error_pct:7.3f}%")

    for name in ("linear_regression", "jpeg"):
        mesi_base = rows[(name, "mesi", "base")]
        moesi_base = rows[(name, "moesi", "base")]
        # both baselines exact
        assert mesi_base.error_pct == 0.0
        assert moesi_base.error_pct == 0.0
        # MOESI never slower than MESI as a baseline
        assert moesi_base.cycles <= mesi_base.cycles * 1.03
        # Ghostwriter still cuts traffic on MOESI
        gw = rows[(name, "moesi", "gw")]
        assert (gw.machine.network.stats.messages
                <= moesi_base.machine.network.stats.messages)
