"""Retry, timeout and pool-supervision tests for the sweep executor.

Covers the robustness half of the durable-sweep work: transient
failures retry with bounded, deterministic backoff; permanent failures
never retry; per-point wall-clock budgets fire in the worker; and a
worker that dies outright (``BrokenProcessPool``) degrades only its own
grid point while siblings complete on a respawned pool (satellite 1).
"""
import os
import time

import pytest

from repro.harness.options import RunOptions
from repro.harness.parallel import (
    GridFailure, PERMANENT_ERRORS, RetryPolicy, fan_out,
    is_permanent_failure, retry_from_options,
)
from repro.verify.watchdog import DeadlockError

_FAST = dict(backoff_base=0.0, backoff_max=0.0)


# ---------------------------------------------------------------------
# module-level helpers (must pickle across the worker boundary)
# ---------------------------------------------------------------------
def _ok(x):
    return x * 10


def _sleep_on_two(x):
    if x == 2:
        time.sleep(60.0)
    return x * 10


def _die_on_two(x):
    if x == 2:
        os._exit(1)          # hard worker death: BrokenProcessPool
    return x * 10


def _flaky_marker(arg):
    """Fails with OSError until its marker file exists (cross-process)."""
    x, marker = arg
    if x == 2 and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("tried once")
        raise OSError("transient hiccup")
    return x * 10


def _die_once_marker(arg):
    """Kills its worker the first time only (cross-process state)."""
    x, marker = arg
    if x == 2 and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("died once")
        os._exit(1)
    return x * 10


# ---------------------------------------------------------------------
# the policy object
# ---------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(retries=5, backoff_base=1.0, backoff_factor=2.0,
                        backoff_max=3.0, jitter=0.0)
        assert p.delay(1) == 1.0
        assert p.delay(2) == 2.0
        assert p.delay(3) == 3.0   # capped
        assert p.delay(4) == 3.0

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.5)
        assert p.delay(1, 7) == p.delay(1, 7)
        assert p.delay(1, 7) != p.delay(1, 8)  # keyed by the point
        assert 1.0 <= p.delay(1, 7) <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_retry_from_options(self):
        # always a policy: the defaults imply no retries, no timeout
        assert retry_from_options(RunOptions()) == RetryPolicy()
        assert (RetryPolicy().retries, RetryPolicy().timeout) == (0, 0.0)
        p = retry_from_options(RunOptions(point_retries=3,
                                          point_timeout=2.0))
        assert p.retries == 3
        assert p.timeout == 2.0
        assert p.backoff_base == RetryPolicy().backoff_base

    def test_taxonomy(self):
        assert is_permanent_failure("DeadlockError")
        assert is_permanent_failure("ProtocolError")
        assert not is_permanent_failure("OSError")
        assert not is_permanent_failure("PointTimeout")
        assert not is_permanent_failure("BrokenProcessPool")
        assert "ValueError" in PERMANENT_ERRORS


# ---------------------------------------------------------------------
# serial (jobs=1) retry semantics
# ---------------------------------------------------------------------
class TestSerialRetry:
    def test_transient_failure_retried_until_success(self):
        attempts = []

        def flaky(x):
            attempts.append(x)
            if len(attempts) < 3:
                raise OSError("hiccup")
            return x * 10
        [out] = fan_out(flaky, [5], retry=RetryPolicy(retries=3, **_FAST))
        assert out == 50
        assert len(attempts) == 3

    def test_exhausted_retries_degrade_with_attempt_count(self):
        def always(x):
            raise OSError("hiccup")
        [out] = fan_out(always, [5], retry=RetryPolicy(retries=2, **_FAST))
        assert isinstance(out, GridFailure)
        assert not out.permanent
        assert out.attempts == 3   # 1 initial + 2 retries
        assert "after 3 attempts" in out.render()

    def test_permanent_failure_never_retried(self):
        attempts = []

        def wedged(x):
            attempts.append(x)
            raise DeadlockError("wedged config")
        [out] = fan_out(wedged, [5], retry=RetryPolicy(retries=5, **_FAST))
        assert isinstance(out, GridFailure)
        assert out.permanent
        assert out.attempts == 1
        assert len(attempts) == 1

    def test_no_policy_means_no_retries(self):
        attempts = []

        def flaky(x):
            attempts.append(x)
            raise OSError("hiccup")
        [out] = fan_out(flaky, [5])
        assert isinstance(out, GridFailure)
        assert len(attempts) == 1

    def test_backoff_actually_waits(self):
        def always(x):
            raise OSError("hiccup")
        t0 = time.monotonic()
        fan_out(always, [5],
                retry=RetryPolicy(retries=2, backoff_base=0.05,
                                  backoff_factor=1.0, jitter=0.0))
        assert time.monotonic() - t0 >= 0.1   # two 0.05 s backoffs

    def test_on_result_sees_final_outcomes_only(self):
        seen = []
        state = {"failed": False}

        def flaky(x):
            if x == 2 and not state["failed"]:
                # fails once; on_result must see only the final success
                state["failed"] = True
                raise OSError("hiccup")
            return x * 10
        out = fan_out(flaky, [1, 2, 3],
                      retry=RetryPolicy(retries=1, **_FAST),
                      on_result=lambda i, o: seen.append((i, o)))
        assert out == [10, 20, 30]
        assert sorted(seen) == [(0, 10), (1, 20), (2, 30)]


# ---------------------------------------------------------------------
# wall-clock timeouts
# ---------------------------------------------------------------------
class TestTimeouts:
    def test_serial_timeout_is_transient(self):
        def slow(x):
            time.sleep(60.0)
        [out] = fan_out(slow, [1],
                        retry=RetryPolicy(retries=0, timeout=0.2, **_FAST))
        assert isinstance(out, GridFailure)
        assert out.error_type == "PointTimeout"
        assert not out.permanent

    def test_serial_timeout_retry_can_recover(self):
        attempts = []

        def slow_once(x):
            attempts.append(x)
            if len(attempts) == 1:
                time.sleep(60.0)
            return x * 10
        [out] = fan_out(slow_once, [1],
                        retry=RetryPolicy(retries=1, timeout=0.2, **_FAST))
        assert out == 10
        assert len(attempts) == 2

    def test_pooled_timeout_spares_siblings(self):
        out = fan_out(_sleep_on_two, [1, 2, 3], jobs=2, chunk_size=1,
                      retry=RetryPolicy(retries=0, timeout=0.3, **_FAST))
        assert out[0] == 10 and out[2] == 30
        assert isinstance(out[1], GridFailure)
        assert out[1].error_type == "PointTimeout"

    def test_fast_points_unaffected_by_budget(self):
        out = fan_out(_ok, [1, 2, 3],
                      retry=RetryPolicy(retries=0, timeout=30.0, **_FAST))
        assert out == [10, 20, 30]


# ---------------------------------------------------------------------
# pool supervision (satellite 1: BrokenProcessPool degrades, not crashes)
# ---------------------------------------------------------------------
class TestPoolSupervision:
    def test_dead_worker_degrades_only_its_point(self):
        out = fan_out(_die_on_two, [1, 2, 3, 4], jobs=2, chunk_size=1)
        assert out[0] == 10 and out[2] == 30 and out[3] == 40
        assert isinstance(out[1], GridFailure)
        assert not out[1].permanent   # worker death is transient-class
        assert "BrokenProcessPool" in out[1].error_type

    def test_dead_worker_in_chunk_spares_chunk_mates(self):
        # chunk_size=2 puts the killer in a chunk with an innocent; the
        # quarantine re-runs the innocents solo and they complete
        out = fan_out(_die_on_two, [1, 2, 3, 4], jobs=2, chunk_size=2)
        assert out[0] == 10 and out[2] == 30 and out[3] == 40
        assert isinstance(out[1], GridFailure)

    def test_retry_recovers_one_off_worker_death(self, tmp_path):
        marker = str(tmp_path / "died")
        items = [(1, marker), (2, marker), (3, marker)]
        out = fan_out(_die_once_marker, items, jobs=2, chunk_size=1,
                      retry=RetryPolicy(retries=1, **_FAST))
        assert out == [10, 20, 30]
        assert os.path.exists(marker)

    def test_retry_recovers_transient_exception_in_worker(self, tmp_path):
        marker = str(tmp_path / "tried")
        items = [(1, marker), (2, marker), (3, marker)]
        out = fan_out(_flaky_marker, items, jobs=2, chunk_size=1,
                      retry=RetryPolicy(retries=1, **_FAST))
        assert out == [10, 20, 30]


# ---------------------------------------------------------------------
# failure reporting (satellite 2: identity + traceback in render())
# ---------------------------------------------------------------------
class TestFailureReporting:
    def test_render_names_the_point_and_the_traceback(self):
        from repro.harness.parallel import GridPoint, run_grid
        import repro.harness.parallel as par

        def boom(name, **kwargs):
            raise DeadlockError("wedged at barrier 3")
        original = par.run_workload
        par.run_workload = boom
        try:
            [out] = run_grid([GridPoint(
                "bad_dot_product",
                dict(d_distance=4, seed=777, protocol="ghostwriter"),
                label="d=4")])
        finally:
            par.run_workload = original
        assert isinstance(out, GridFailure)
        text = out.render()
        assert "workload=bad_dot_product" in text
        assert "protocol=ghostwriter" in text
        assert "seed=777" in text
        assert "d=4" in text
        assert "DeadlockError" in text
        assert "permanent" in text
        assert "wedged at barrier 3" in text
        # the traceback tail names the raise site
        assert out.traceback and "DeadlockError" in out.traceback

    def test_render_reads_protocol_from_options(self):
        from repro.harness.parallel import GridPoint, run_grid
        import repro.harness.parallel as par

        def boom(name, **kwargs):
            raise ValueError("bad knob")
        original = par.run_workload
        par.run_workload = boom
        try:
            [out] = run_grid([GridPoint(
                "histogram",
                dict(d_distance=4, seed=1,
                     options=RunOptions(protocol="ghostwriter-moesi")))])
        finally:
            par.run_workload = original
        assert out.protocol == "ghostwriter-moesi"
        assert out.permanent   # ValueError is deterministic

    def test_minimal_failure_renders(self):
        f = GridFailure(index=0, error_type="OSError", message="x")
        text = f.render()
        assert "OSError" in text and "transient" in text
