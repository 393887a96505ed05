"""Compiled/generator equivalence across the whole workload registry.

The correctness bar for the compiled-program layer (ISSUE 5): for every
registered workload and protocol, executing through the columnar
interpreter — both the cold recording run and the warm from-arrays run —
must be *bit-identical* to the plain generator interpreter: the full
flattened StatGroup dump, the backing-memory image, and the workload's
computed error.  A warm run whose cached recording came from a
*different* protocol must deoptimize back to the generator and still
match.  By transitivity with tests/harness/test_parallel.py's
serial-vs-jobs guards, the same holds under ``--jobs N``.
"""
from dataclasses import replace

import pytest

from repro.common.config import small_config
from repro.harness.parallel import GridPoint, _run_point, fan_out, run_grid
from repro.workloads.registry import ALL_WORKLOADS, PROGRAM_CACHE, create

THREADS = 4
SCALE = 0.25
SEED = 7

pytestmark = pytest.mark.usefixtures("clean_cache")


@pytest.fixture
def clean_cache():
    PROGRAM_CACHE.clear()
    yield
    PROGRAM_CACHE.clear()


def _run(name, protocol, *, compiled):
    # enabled mirrors the protocol so "mesi" runs with approximation
    # off, as the harness runs its baseline legs
    cfg = replace(small_config(num_cores=THREADS,
                               enabled=(protocol != "mesi")),
                  protocol=protocol, compile_programs=compiled)
    w = create(name, num_threads=THREADS, seed=SEED, scale=SCALE)
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
    cold = _run(name, protocol, compiled=True)   # records into the cache
    assert PROGRAM_CACHE.misses == THREADS and len(PROGRAM_CACHE) == THREADS
    warm = _run(name, protocol, compiled=True)   # executes from arrays
    assert PROGRAM_CACHE.hits == THREADS
    assert cold == generator
    assert warm == generator


@pytest.mark.parametrize("name", ["bad_dot_product", "histogram"])
def test_cross_protocol_cache_reuse_deoptimizes(name):
    """bind_program's cache key deliberately excludes the protocol knob:
    a recording made under ghostwriter may be replayed under mesi, where
    load validation catches the divergence and deoptimizes — the result
    must still be bit-identical to a pure mesi generator run."""
    _run(name, "ghostwriter", compiled=True)     # seed the cache
    warm_mesi = _run(name, "mesi", compiled=True)
    PROGRAM_CACHE.clear()
    assert warm_mesi == _run(name, "mesi", compiled=False)


def test_warm_cache_rows_bit_identical_across_jobs():
    """Sweep points sharing one cached op stream produce the same frozen
    RunRow serially (one shared warm cache) and under a worker pool
    (each worker records once, then reuses within its chunk)."""
    points = [
        GridPoint("bad_dot_product",
                  dict(d_distance=4, num_threads=4, seed=12345,
                       n_points=160, max_value=7),
                  label=f"p{i}")
        for i in range(4)
    ]
    serial = run_grid(points)
    pooled = fan_out(_run_point, points, jobs=2, chunk_size=2)
    assert serial == pooled
    assert all(row == serial[0] for row in serial)
