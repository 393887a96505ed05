"""A finished machine is freed by reference counting.

Every machine built while a case runs is captured in a weakref through
a construction hook.  With the cyclic collector disabled, the weakref
must be dead as soon as the caller drops the result: anything still
alive is held by a reference cycle, which only a full collection would
free, so a process running many machines would keep every one of them
until then.  The collector then runs under ``DEBUG_SAVEALL`` and must
find no simulator object (a ``Machine`` or any of its parts) among the
unreachable objects: a cycle among the parts frees the machine itself
but keeps its caches, directories and stats.
"""
from __future__ import annotations

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.ddistance import machine_store_histogram
from repro.harness.experiment import (
    experiment_config, run_workload, run_workload_result,
)
from repro.harness.options import RunOptions
from repro.harness.parallel import GridFailure, GridPoint, run_grid
from repro.sim.machine import machine_hook
from repro.workloads.registry import PAPER_WORKLOADS, create

THREADS = 4
SCALE = 0.05


def assert_freed(run) -> None:
    """Call ``run()``, drop what it returns, and check that every machine
    it built was freed without the cyclic collector."""
    refs: list[weakref.ref] = []
    gc.collect()
    gc.disable()
    try:
        with machine_hook(lambda m: refs.append(weakref.ref(m))):
            run()
        assert refs, "the case built no machine"
        alive = sum(r() is not None for r in refs)
        assert alive == 0, f"{alive} of {len(refs)} machine(s) outlived " \
            "their last user"
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        # type(), not isinstance(): the garbage may hold dead weak proxies
        leaked = Counter(type(o).__qualname__ for o in gc.garbage
                         if type(o).__module__.startswith("repro."))
        assert not leaked, f"left for the cyclic collector: {leaked}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _run_with(name: str, section: str, knobs: dict) -> None:
    """One run of ``name`` on the experiment machine with ``knobs`` set
    in its ``section`` config (``verify``, ``faults`` or ``obs``)."""
    cfg = experiment_config(d_distance=4, num_cores=THREADS)
    cfg = replace(cfg, **{section: replace(getattr(cfg, section), **knobs)})
    w = create(name, num_threads=THREADS, seed=3, scale=SCALE)
    result = w.run(cfg)
    if cfg.verify.monitor_period:
        # the monitor still works on a finished machine
        result.machine.check_coherence_invariants()


@pytest.mark.parametrize("name", sorted(PAPER_WORKLOADS)
                         + ["bad_dot_product"])
def test_run_workload_frees_machine(name):
    kw = dict(n_points=256, max_value=7) if name == "bad_dot_product" \
        else dict(scale=SCALE)
    assert_freed(lambda: run_workload(name, d_distance=4,
                                      num_threads=THREADS, **kw))


def test_batch_backend_frees_machines():
    points = [
        GridPoint("histogram", (("d_distance", d), ("num_threads", THREADS),
                                ("scale", SCALE)))
        for d in (0, 2, 8)
    ]

    def grid():
        rows = run_grid(points, options=RunOptions(backend="batch"))
        assert not any(isinstance(r, GridFailure) for r in rows)

    assert_freed(grid)


def test_fig2_histogram_path_frees_machine():
    def profile():
        result, _cfg = run_workload_result(
            "histogram", d_distance=0, num_threads=THREADS, scale=SCALE)
        return machine_store_histogram(result.machine)

    assert_freed(profile)


@pytest.mark.parametrize("section,knobs", [
    ("verify", dict(monitor_period=200)),
    ("faults", dict(cache_rate=5000.0)),
    ("faults", dict(msg_rate=0.01, delay_jitter=2)),
    ("obs", dict(timeline_interval=500)),
    ("obs", dict(trace_events=True, flight_recorder=64)),
    ("verify", dict(checkpoint_period=2000)),
], ids=["monitor", "cache-faults", "noc-faults", "timeline", "tracing",
        "checkpoint"])
def test_optional_components_free_machine(section, knobs):
    assert_freed(lambda: _run_with("blackscholes", section, knobs))


@pytest.mark.parametrize("protocol", ["ghostwriter-moesi", "update-hybrid"])
def test_protocol_variants_free_machine(protocol):
    assert_freed(lambda: run_workload(
        "jpeg", d_distance=4, num_threads=THREADS, scale=SCALE,
        protocol=protocol))
