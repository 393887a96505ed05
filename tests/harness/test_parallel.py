"""Tests for the parallel sweep executor.

The determinism regression here is the golden guard for all future perf
work: the same config + seed must produce bit-identical ``RunRow`` stats
whether the grid runs serially or across a worker pool.
"""
import pytest

from repro.harness.experiment import RunRow
from repro.harness.options import RunOptions
from repro.harness.parallel import (
    GridFailure, GridPoint, _run_point, default_chunk_size, derive_seed,
    fan_out, run_grid,
)
from repro.verify.watchdog import DeadlockError

_POINT_KW = dict(num_threads=4, scale=1.0, seed=12345, n_points=160,
                 max_value=7)


def _grid(d_values=(0, 2, 4, 8)):
    return [
        GridPoint("bad_dot_product", dict(d_distance=d, **_POINT_KW),
                  label=f"d={d}")
        for d in d_values
    ]


# ---------------------------------------------------------------------
# the determinism regression (satellite 1)
# ---------------------------------------------------------------------
class TestDeterminism:
    def test_parallel_rows_bit_identical_to_serial(self):
        points = _grid()
        serial = run_grid(points)
        parallel = run_grid(points, options=RunOptions(jobs=2))
        assert all(isinstance(r, RunRow) for r in serial)
        # RunRow is a frozen dataclass: == compares every stat field —
        # cycles, error, full traffic dict, energy, all L1 counters
        assert serial == parallel

    def test_parallel_rows_bit_identical_across_chunkings(self):
        points = _grid((0, 4))
        a = fan_out(_run_point, points, jobs=2, chunk_size=1)
        b = fan_out(_run_point, points, jobs=2, chunk_size=2)
        assert a == b

    def test_traffic_and_cycles_fields(self):
        # spot-check the headline stats named in the issue explicitly
        points = _grid((4,))
        [serial] = run_grid(points)
        [parallel] = run_grid(points, options=RunOptions(jobs=2))
        assert serial.cycles == parallel.cycles
        assert serial.traffic == parallel.traffic
        assert serial.error_pct == parallel.error_pct

    def test_every_protocol_bit_identical_across_jobs(self):
        """Each registered protocol variant produces the same frozen
        RunRow whether its grid point runs in-process or in a worker."""
        from repro.coherence.policy import available_protocols, get_protocol

        points = [
            GridPoint("bad_dot_product",
                      dict(protocol=p,
                           d_distance=4 if get_protocol(p).approx else 0,
                           **_POINT_KW),
                      label=f"protocol={p}")
            for p in available_protocols()
        ]
        serial = run_grid(points)
        parallel = run_grid(points, options=RunOptions(jobs=2))
        assert all(isinstance(r, RunRow) for r in serial)
        assert [r.protocol for r in serial] == list(available_protocols())
        assert serial == parallel


# ---------------------------------------------------------------------
# executor mechanics
# ---------------------------------------------------------------------
def _times_ten(x):
    return x * 10


def _fail_on_three(x):
    if x == 3:
        raise DeadlockError(f"injected deadlock at {x}")
    return x * 10


class TestFanOut:
    def test_inline_path_preserves_order(self):
        assert fan_out(_times_ten, [3, 1, 2]) == [30, 10, 20]

    def test_parallel_path_preserves_order(self):
        out = fan_out(_times_ten, list(range(10)), jobs=3, chunk_size=2)
        assert out == [x * 10 for x in range(10)]

    @pytest.mark.parametrize("jobs,chunk", [(1, None), (2, 1), (2, 3)])
    def test_crash_isolation(self, jobs, chunk):
        """A DeadlockError grid point becomes a failed row at its index;
        sibling points still complete (satellite 3)."""
        out = fan_out(_fail_on_three, [1, 2, 3, 4, 5], jobs=jobs,
                      chunk_size=chunk)
        assert out[0] == 10 and out[1] == 20
        assert out[3] == 40 and out[4] == 50
        failure = out[2]
        assert isinstance(failure, GridFailure)
        assert failure.index == 2
        assert failure.error_type == "DeadlockError"
        assert "injected deadlock" in failure.message
        assert not failure  # failures are falsy for easy filtering

    def test_empty_grid(self):
        assert fan_out(_times_ten, [], jobs=4) == []

    def test_default_chunk_size(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(7, 1) == 2
        assert default_chunk_size(100, 4) == 7
        # never zero, even for degenerate inputs
        assert default_chunk_size(1, 64) == 1


class TestRunGrid:
    def test_failure_label_names_the_point(self, monkeypatch):
        import repro.harness.parallel as par

        def boom(name, **kwargs):
            raise DeadlockError("wedged")
        monkeypatch.setattr(par, "run_workload", boom)
        [out] = run_grid([GridPoint("bad_dot_product", {}, label="d=4")])
        assert isinstance(out, GridFailure)
        assert out.label == "d=4"
        assert "DeadlockError" in out.render() and "d=4" in out.render()

    @pytest.mark.parametrize("entry", ["run_grid", "fig12"])
    def test_options_jobs_builds_one_supervised_pool(self, entry,
                                                     monkeypatch):
        """``RunOptions.jobs`` alone decides the worker count: no
        caller-side ``jobs=`` can silently keep a grid in-process."""
        import repro.harness.parallel as par
        from repro.harness.figures import fig12
        built = []

        class Counting(par._Supervisor):
            def __init__(self, fn, items, jobs, *args):
                built.append(jobs)
                super().__init__(fn, items, jobs, *args)
        monkeypatch.setattr(par, "_Supervisor", Counting)
        opts = RunOptions(jobs=2)
        if entry == "run_grid":
            rows = run_grid(_grid((0, 4)), options=opts)
            assert all(isinstance(r, RunRow) for r in rows)
        else:
            fig12((128, 1024), num_threads=4, n_points=256, options=opts)
        assert built == [2]


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)

    def test_seed_space(self):
        for k in range(64):
            assert 0 <= derive_seed(12345, k) < 2**31

    def test_stable_values(self):
        # pinned: a change here silently invalidates every stored sweep
        assert derive_seed(12345, 0) == 316188692
