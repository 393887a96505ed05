"""Batch/serial equivalence across the whole workload registry.

The correctness bar for the lockstep batch backend (ISSUE 7): for every
registered workload, every registered protocol, and several seeds, a
sweep grid executed through ``RunOptions(backend="batch")`` must be
**bit-identical** to the serial backend — the full frozen ``RunRow``
(stats snapshot, cycles, energy, error) for every point, the store keys
the rows would commit under, and the observability timelines of traced
points (which the batch backend routes through the serial interpreter).
By transitivity with tests/harness/test_parallel.py's serial-vs-jobs
guards, the same holds against ``--jobs N``; one direct jobs=2 vs batch
comparison pins the triangle shut.

This mirrors tests/workloads/test_compiled_equivalence.py one layer up:
that suite proves the columnar interpreter preserves single-run
behavior; this one proves the lane-sharing engine preserves whole-sweep
behavior.
"""
import pytest

from repro.harness.batch import BatchReport, batch_fan_out, group_key
from repro.harness.options import RunOptions
from repro.harness.parallel import GridPoint, run_grid
from repro.workloads.registry import (
    ALL_WORKLOADS, MICROBENCHMARKS, PROGRAM_CACHE,
)

THREADS = 4
SCALE = 0.05
SEEDS = (7, 8, 9)
BATCH = RunOptions(backend="batch")

pytestmark = pytest.mark.usefixtures("clean_cache")


@pytest.fixture
def clean_cache():
    PROGRAM_CACHE.clear()
    yield
    PROGRAM_CACHE.clear()


def _points(name, *, ds=(0, 2, 8), seeds=SEEDS, gis=(1024,),
            protocol=None, options=None):
    """A d x gi x seed sweep grid over one workload."""
    extra = []
    if protocol is not None:
        extra.append(("protocol", protocol))
    if options is not None:
        extra.append(("options", options))
    if name in MICROBENCHMARKS:
        size = [("n_points", 96), ("max_value", 7)]
    else:
        size = [("scale", SCALE)]
    return [
        GridPoint(name, tuple([("d_distance", d), ("gi_timeout", gi),
                               ("num_threads", THREADS), ("seed", seed)]
                              + size + extra))
        for seed in seeds for d in ds for gi in gis
    ]


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_batch_matches_serial_per_workload(name):
    """Every workload, d-swept across three seeds: batch rows byte-equal
    to serial rows, and the batch executor actually batched (every
    enabled lane entered a lockstep group)."""
    points = _points(name)
    serial = run_grid(points)
    report = BatchReport()
    batch = batch_fan_out(points, report=report)
    assert batch == serial
    # d=0 points are singleton groups (one per seed) and run serially;
    # the d>0 lanes all enter lockstep groups
    assert report.lanes == len(SEEDS) * 2
    assert report.serial == len(SEEDS)
    assert report.degraded == 0 and report.divergences == []


@pytest.mark.parametrize("protocol", [
    "mesi", "moesi", "ghostwriter", "ghostwriter-moesi", "gw-gs-only",
    "gw-gi-only", "self-invalidate", "update-hybrid",
])
@pytest.mark.parametrize("name", ["histogram", "bad_dot_product"])
def test_batch_matches_serial_per_protocol(name, protocol):
    """Every registered protocol variant: the scribble next-state tables
    differ per protocol, so sharing decisions replay different policy
    paths — rows must still be byte-equal."""
    points = _points(name, ds=(2, 8), protocol=protocol)
    assert run_grid(points, options=BATCH) == run_grid(points)


def test_batch_matches_serial_gi_sweep():
    """A GI-timeout sweep: lanes share only when the representative
    provably never armed the flash timer; either way rows match."""
    points = _points("bad_dot_product", ds=(4,), seeds=(7, 8),
                     gis=(64, 256, 1024, 4096))
    assert run_grid(points, options=BATCH) == run_grid(points)
    points = _points("histogram", ds=(4,), seeds=(7,),
                     gis=(64, 256, 1024, 4096))
    assert run_grid(points, options=BATCH) == run_grid(points)


def test_batch_matches_serial_when_every_lane_peels():
    """linear_regression's decisions differ at every swept d, so each
    lane peels and runs as its own representative: the peel path alone
    must still reproduce the serial rows."""
    points = _points("linear_regression", ds=(1, 2, 4, 8), seeds=(7,))
    report = BatchReport()
    batch = batch_fan_out(points, report=report)
    assert report.reps == report.lanes == len(points)
    assert report.shared == 0
    assert batch == run_grid(points)


def test_batch_matches_jobs2():
    """Close the serial/jobs/batch triangle directly."""
    points = _points("bad_dot_product", ds=(0, 1, 4, 8))
    assert (run_grid(points, options=BATCH)
            == run_grid(points, options=RunOptions(jobs=2)))


def test_store_keys_identical_across_backends(tmp_path):
    """The backend is an execution knob, not an identity knob: rows
    computed by either backend commit under the same store keys, so a
    store written by one backend serves the other."""
    from repro.store.keys import options_fingerprint

    assert (options_fingerprint(BATCH)
            == options_fingerprint(RunOptions()))

    db = str(tmp_path / "rows.db")
    points = _points("histogram", ds=(0, 2, 8), seeds=(7,))
    first = run_grid(points, options=RunOptions(store=db, backend="batch"))
    served = run_grid(points, options=RunOptions(store=db))
    assert served == first
    from repro.store import open_store
    with open_store(db) as store:
        assert len(store) == len(points)


def test_traced_points_fall_back_to_serial_with_identical_obs():
    """Tracing captures are run-local, so traced points never batch —
    and their rows + observability payloads are byte-equal to serial."""
    opts = RunOptions(trace_events=True, timeline_interval=512)
    traced = RunOptions(trace_events=True, timeline_interval=512,
                        backend="batch")
    points = _points("bad_dot_product", ds=(2, 8), seeds=(7,),
                     options=None)
    assert all(group_key(p) is not None for p in points)
    points_traced = _points("bad_dot_product", ds=(2, 8), seeds=(7,),
                            options=opts)
    assert all(group_key(p) is None for p in points_traced)

    serial_rows = run_grid(points_traced, options=opts)
    batch_rows = run_grid(points_traced, options=traced)
    for s, b in zip(serial_rows, batch_rows):
        assert s == b
        assert s.obs is not None and b.obs is not None
        assert s.obs.events == b.obs.events
        assert s.obs.timeline == b.obs.timeline
