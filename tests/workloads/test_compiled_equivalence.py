"""Compiled/generator equivalence across the whole workload registry.

The correctness bar for the compiled-program layer: for every
registered workload and protocol, executing through the columnar
interpreter — an unrecorded run, the cold recording run (a machine with
a checkpoint recorder, the only kind that records) and the warm
from-arrays run — must be *bit-identical* to the plain generator
interpreter: the full flattened StatGroup dump, the backing-memory image, and the workload's
computed error.  A warm run whose cached recording came from a
*different* protocol must deoptimize back to the generator and still
match.  By transitivity with tests/harness/test_parallel.py's
serial-vs-jobs guards, the same holds under ``--jobs N``.
"""
from dataclasses import replace

import pytest

from repro.common.config import small_config
from repro.core.core import Core
from repro.harness.experiment import run_workload
from repro.harness.parallel import GridPoint, _run_point, fan_out, run_grid
from repro.workloads.registry import ALL_WORKLOADS, PROGRAM_CACHE, create
from tests.conftest import recording_machines

THREADS = 4
SCALE = 0.25
SEED = 7

pytestmark = pytest.mark.usefixtures("clean_cache")


@pytest.fixture
def clean_cache():
    PROGRAM_CACHE.clear()
    yield
    PROGRAM_CACHE.clear()


def _run(name, protocol, *, compiled, record=False):
    # one d for every protocol, so runs under different protocols share
    # a program-cache key ("mesi" is precise at any d)
    cfg = replace(small_config(num_cores=THREADS, d_distance=4),
                  protocol=protocol, compile_programs=compiled)
    w = create(name, num_threads=THREADS, seed=SEED, scale=SCALE)
    if record:
        with recording_machines():
            result = w.run(cfg)
    else:
        result = w.run(cfg)
    machine = result.machine
    machine.check_coherence_invariants()
    return {
        "stats": machine.stats.flatten(),
        "memory": {k: tuple(v) for k, v in machine.backing._blocks.items()},
        "cycles": result.cycles,
        "error": result.error_pct,
    }


@pytest.mark.parametrize("protocol", ["mesi", "ghostwriter"])
@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_cold_and_warm_match_generator(name, protocol):
    generator = _run(name, protocol, compiled=False)
    first = _run(name, protocol, compiled=True)  # records nothing
    assert len(PROGRAM_CACHE) == 0
    cold = _run(name, protocol, compiled=True,   # records into the cache
                record=True)
    assert (PROGRAM_CACHE.misses == 2 * THREADS
            and len(PROGRAM_CACHE) == THREADS)
    warm = _run(name, protocol, compiled=True)   # executes from arrays
    assert PROGRAM_CACHE.hits == THREADS
    assert first == generator
    assert cold == generator
    assert warm == generator


@pytest.mark.parametrize("name", ["bad_dot_product", "histogram"])
def test_cross_protocol_cache_reuse_deoptimizes(name):
    """bind_program's cache key deliberately excludes the protocol knob:
    a recording made under ghostwriter may be replayed under mesi, where
    load validation catches the divergence and deoptimizes — the result
    must still be bit-identical to a pure mesi generator run."""
    _run(name, "ghostwriter", compiled=True, record=True)  # seed the cache
    warm_mesi = _run(name, "mesi", compiled=True)
    PROGRAM_CACHE.clear()
    assert warm_mesi == _run(name, "mesi", compiled=False)


@pytest.mark.parametrize("ds", [(1, 0), (0, 1)],
                         ids=["approx-then-precise", "precise-then-approx"])
def test_precise_runs_never_replay_approximate_recordings(ds, monkeypatch):
    """``d_distance=0`` is the precise machine and keys its own program
    recordings: a precise run next to an approximate one (either order)
    replays no recording made at another d, so it never deoptimizes.
    Every run records its programs, so a shared key would replay."""
    deopts = []
    deoptimize = Core._deoptimize

    def counting(self, actual):
        deopts.append(actual)
        return deoptimize(self, actual)

    monkeypatch.setattr(Core, "_deoptimize", counting)
    with recording_machines():
        for d in ds:
            run_workload("linear_regression", d_distance=d, num_threads=4,
                         scale=0.1, seed=8)
    assert deopts == []
    assert PROGRAM_CACHE.hits == 0 and len(PROGRAM_CACHE) == 2 * 4


def test_warm_cache_rows_bit_identical_across_jobs():
    """Sweep points sharing one cached op stream produce the same frozen
    RunRow serially (one shared cache: the first point records, the
    rest replay) and in worker processes (each point runs in a process
    of its own that starts from an empty cache and records)."""
    points = [
        GridPoint("bad_dot_product",
                  dict(d_distance=4, num_threads=4, seed=12345,
                       n_points=160, max_value=7),
                  label=f"p{i}")
        for i in range(6)
    ]
    with recording_machines():
        serial = run_grid(points)
        assert PROGRAM_CACHE.hits == 5 * 4
        PROGRAM_CACHE.clear()  # forked workers would inherit the recording
        pooled = fan_out(_run_point, points, jobs=2)
    assert serial == pooled
    assert all(row == serial[0] for row in serial)
