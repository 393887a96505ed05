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
from repro.harness.batch import BatchReport, batch_fan_out
from repro.harness.experiment import (
    experiment_config, run_workload, run_workload_result,
)
from repro.harness.figures import fig2
from repro.harness.options import RunOptions
from repro.harness.parallel import GridFailure, GridPoint, run_grid
from repro.common.config import small_config
from repro.isa.instructions import BarrierWait
from repro.sim.engine import SimulationError, SimulationTimeout
from repro.sim.machine import Machine, machine_hook
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
        options=RunOptions(protocol=protocol)))


def test_machine_never_run_is_freed():
    assert_freed(lambda: Machine(experiment_config(d_distance=4,
                                                   num_cores=THREADS)))


def test_machine_whose_run_raises_before_the_drain_is_freed():
    def failed_run():
        machine = Machine(experiment_config(d_distance=4, num_cores=THREADS))
        try:
            machine.run()       # no thread bound: raises before draining
        except SimulationError:
            return
        raise AssertionError("run() without threads did not raise")

    assert_freed(failed_run)


def test_machine_whose_run_times_out_is_freed():
    # the timeout leaves queued events and an MSHR entry per L1 whose
    # completion is its core's resume: both point back into the machine
    def failed_run():
        cfg = experiment_config(d_distance=4, num_cores=THREADS)
        w = create("bad_dot_product", num_threads=THREADS, seed=3,
                   n_points=256)
        machine = w.prepare(cfg)
        with pytest.raises(SimulationTimeout):
            machine.run(max_cycles=300)

    assert_freed(failed_run)


def test_machine_deadlocked_at_a_barrier_is_freed():
    # two of a barrier's three parties arrive: the queue drains with
    # both cores parked among the barrier's waiters
    def failed_run():
        machine = Machine(small_config(num_cores=2))
        barrier = machine.barrier(3)

        def prog():
            yield BarrierWait(barrier)

        for cid in range(2):
            machine.add_thread(cid, prog())
        with pytest.raises(SimulationError, match="never finished"):
            machine.run()

    assert_freed(failed_run)


def assert_one_machine_at_a_time(run) -> None:
    """Call ``run()`` and check, without the cyclic collector, that
    every machine it built was dead when the next one was built."""
    refs: list[weakref.ref] = []
    overlaps: list[int] = []

    def built(machine) -> None:
        overlaps.append(sum(r() is not None for r in refs))
        refs.append(weakref.ref(machine))

    gc.collect()
    gc.disable()
    try:
        with machine_hook(built):
            run()
    finally:
        gc.enable()
    assert len(refs) > 1, "the case built fewer than two machines"
    assert overlaps == [0] * len(refs), \
        f"machines alive when each was built: {overlaps}"


def test_fig2_keeps_one_machine_alive_at_a_time():
    assert_one_machine_at_a_time(
        lambda: fig2(num_threads=THREADS, scale=SCALE))


def test_batch_grid_keeps_one_machine_alive_at_a_time():
    # histogram's first representative serves its other lanes, one of
    # which re-runs serially as the cross-check; linear_regression's
    # lanes diverge, so each peels to a representative of its own
    points = [GridPoint(app, dict(d_distance=d, gi_timeout=gi,
                                  num_threads=THREADS, scale=SCALE))
              for app in ("histogram", "linear_regression")
              for d in (2, 4, 8) for gi in (256, 1024)]
    report = BatchReport()

    def grid():
        rows = batch_fan_out(points, report=report)
        assert not any(isinstance(r, GridFailure) for r in rows)

    assert_one_machine_at_a_time(grid)
    assert report.reps >= 3 and report.verified >= 1 and report.shared >= 1
