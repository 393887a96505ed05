#!/usr/bin/env python3
"""Find false sharing with the trace tools, then fix it with Ghostwriter.

The paper (§2) motivates Ghostwriter with how hard false sharing is to
locate.  This example shows the full workflow the library supports:

1. record a memory trace of the suspect program on the baseline machine,
2. classify every cache block's sharing pattern and rank the
   false-sharing candidates,
3. replay the *same trace* under Ghostwriter and measure how much of the
   contended traffic the approximate states absorb.

Run:  python examples/find_false_sharing.py
"""
from repro.analysis.report import format_table
from repro.harness.experiment import experiment_config
from repro.sim.machine import Machine
from repro.trace import TraceRecorder, false_sharing_candidates, replay_trace
from repro.workloads.registry import create

THREADS = 8


def main() -> None:
    # 1. record the suspect program (Listing 1) on baseline MESI
    cfg = experiment_config(d_distance=0, num_cores=THREADS)
    workload = create("bad_dot_product", num_threads=THREADS,
                      n_points=1024, max_value=7)
    machine = Machine(cfg)
    workload.build(machine)
    snapshot = machine.backing.memory_image()
    recorder = TraceRecorder(machine)
    machine.run()
    machine.check_quiescent()
    trace = recorder.trace()
    print(f"recorded {len(trace)} accesses, "
          f"L1 miss rate {trace.miss_rate():.1%}\n")

    # 2. rank false-sharing candidates
    candidates = false_sharing_candidates(trace)
    rows = [
        [f"{r.block:#x}", r.pattern.value, str(r.writers), str(r.writes),
         str(r.write_interleavings), f"{r.contention_score:.2f}"]
        for r in candidates[:5]
    ]
    print("top false-sharing blocks (the paper's 'total' array):")
    print(format_table(
        ["block", "pattern", "writers", "writes", "ping-pongs", "score"],
        rows,
    ))

    # 3. replay the identical trace under Ghostwriter
    print("\nreplaying the same trace under Ghostwriter (d=8)...")
    gw_cfg = experiment_config(d_distance=8, num_cores=THREADS)
    base_replay = replay_trace(trace, cfg, initial_memory=snapshot)
    gw_replay = replay_trace(trace, gw_cfg, initial_memory=snapshot)
    b, g = base_replay.network.stats, gw_replay.network.stats
    l1 = gw_replay.stats.child("l1")
    absorbed = int(l1.total("gs_serviced") + l1.total("gi_serviced")
                   + l1.total("gs_store_hits") + l1.total("gi_store_hits"))
    print(f"  baseline replay : {b.messages} messages, "
          f"{b.flit_hops} flit-hops")
    print(f"  ghostwriter     : {g.messages} messages, "
          f"{g.flit_hops} flit-hops "
          f"({(1 - g.messages / b.messages):.1%} fewer)")
    print(f"  stores absorbed by GS/GI: {absorbed}")


if __name__ == "__main__":
    main()
