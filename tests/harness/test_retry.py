"""Retry, timeout and supervision tests for the sweep executor.

Covers the robustness half of the durable-sweep work: transient
failures retry with bounded, deterministic backoff; permanent failures
never retry; per-point wall-clock budgets fire in the worker; a worker
process that dies outright (``WorkerDied``) or hangs past its deadline
degrades only its own grid point while every sibling returns its row;
and a parent that raises mid-grid leaves no child process behind.
"""
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.harness.options import RunOptions
from repro.harness.parallel import (
    GridFailure, PERMANENT_ERRORS, RetryPolicy, fan_out,
    is_permanent_failure, retry_from_options,
)
from repro.verify.watchdog import DeadlockError

_SRC = str(Path(__file__).resolve().parents[2] / "src")


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
        os._exit(1)          # hard worker death: WorkerDied
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


def _fault_point(arg):
    """``(x, action, seconds, marker_dir)``: log the run, then act.

    Every execution appends a line to ``marker_dir/ran<x>`` (so a test
    can count runs across processes) and sleeps ``seconds``.  ``die``
    kills the worker every time, ``die_once`` and ``flaky_once`` only on
    the first run; ``sigkill`` kills it by signal; ``hang`` ignores
    ``SIGALRM`` and sleeps past any budget, so only the supervisor's
    deadline can stop it.
    """
    x, action, seconds, marker_dir = arg
    path = os.path.join(marker_dir, f"ran{x}")
    first = not os.path.exists(path)
    with open(path, "a") as fh:
        fh.write("ran\n")
    if action == "hang":
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        time.sleep(60.0)
    time.sleep(seconds)
    if action == "die" or (action == "die_once" and first):
        os._exit(1)
    if action == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "flaky_once" and first:
        raise OSError("transient hiccup")
    return x * 10


def _slow_on_one(x):
    if x == 1:
        time.sleep(3.0)
    return x * 10


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry at once: start the fixed backoff schedule at zero seconds."""
    import repro.harness.parallel as par
    monkeypatch.setattr(par, "_BACKOFF_BASE", 0.0)


# ---------------------------------------------------------------------
# the policy object
# ---------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        # 0.25 s doubling per retry, capped at 30 s, plus <= 10 % jitter
        for attempt, base in ((1, 0.25), (2, 0.5), (3, 1.0), (8, 30.0),
                              (20, 30.0)):
            assert base <= RetryPolicy.delay(attempt, 0) <= base * 1.1

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy()
        assert p.delay(1, 7) == p.delay(1, 7)
        assert p.delay(1, 7) != p.delay(1, 8)  # keyed by the point
        assert 0.25 <= p.delay(1, 7) <= 0.275

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=-1.0)

    def test_retry_from_options(self):
        # always a policy: the defaults imply no retries, no timeout
        assert retry_from_options(RunOptions()) == RetryPolicy()
        assert (RetryPolicy().retries, RetryPolicy().timeout) == (0, 0.0)
        p = retry_from_options(RunOptions(point_retries=3,
                                          point_timeout=2.0))
        assert p.retries == 3
        assert p.timeout == 2.0

    def test_taxonomy(self):
        assert is_permanent_failure("DeadlockError")
        assert is_permanent_failure("ProtocolError")
        assert not is_permanent_failure("OSError")
        assert not is_permanent_failure("PointTimeout")
        assert not is_permanent_failure("BrokenProcessPool")
        assert not is_permanent_failure("WorkerDied")
        assert "ValueError" in PERMANENT_ERRORS


# ---------------------------------------------------------------------
# serial (jobs=1) retry semantics
# ---------------------------------------------------------------------
class TestSerialRetry:
    @pytest.mark.usefixtures("no_backoff")
    def test_transient_failure_retried_until_success(self):
        attempts = []

        def flaky(x):
            attempts.append(x)
            if len(attempts) < 3:
                raise OSError("hiccup")
            return x * 10
        [out] = fan_out(flaky, [5], retry=RetryPolicy(retries=3))
        assert out == 50
        assert len(attempts) == 3

    @pytest.mark.usefixtures("no_backoff")
    def test_exhausted_retries_degrade_with_attempt_count(self):
        def always(x):
            raise OSError("hiccup")
        [out] = fan_out(always, [5], retry=RetryPolicy(retries=2))
        assert isinstance(out, GridFailure)
        assert not out.permanent
        assert out.attempts == 3   # 1 initial + 2 retries
        assert "after 3 attempts" in out.render()

    def test_permanent_failure_never_retried(self):
        attempts = []

        def wedged(x):
            attempts.append(x)
            raise DeadlockError("wedged config")
        [out] = fan_out(wedged, [5], retry=RetryPolicy(retries=5))
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
        fan_out(always, [5], retry=RetryPolicy(retries=2))
        assert time.monotonic() - t0 >= 0.75   # 0.25 s, then 0.5 s

    @pytest.mark.usefixtures("no_backoff")
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
                      retry=RetryPolicy(retries=1),
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
                        retry=RetryPolicy(retries=0, timeout=0.2))
        assert isinstance(out, GridFailure)
        assert out.error_type == "PointTimeout"
        assert not out.permanent

    @pytest.mark.usefixtures("no_backoff")
    def test_serial_timeout_retry_can_recover(self):
        attempts = []

        def slow_once(x):
            attempts.append(x)
            if len(attempts) == 1:
                time.sleep(60.0)
            return x * 10
        [out] = fan_out(slow_once, [1],
                        retry=RetryPolicy(retries=1, timeout=0.2))
        assert out == 10
        assert len(attempts) == 2

    def test_pooled_timeout_spares_siblings(self):
        out = fan_out(_sleep_on_two, [1, 2, 3], jobs=2,
                      retry=RetryPolicy(retries=0, timeout=0.3))
        assert out[0] == 10 and out[2] == 30
        assert isinstance(out[1], GridFailure)
        assert out[1].error_type == "PointTimeout"

    def test_fast_points_unaffected_by_budget(self):
        out = fan_out(_ok, [1, 2, 3],
                      retry=RetryPolicy(retries=0, timeout=30.0))
        assert out == [10, 20, 30]


# ---------------------------------------------------------------------
# supervision: a dead worker degrades its point, never the sweep
# ---------------------------------------------------------------------
class TestPoolSupervision:
    def test_dead_worker_degrades_only_its_point(self):
        out = fan_out(_die_on_two, [1, 2, 3, 4], jobs=2)
        assert out[0] == 10 and out[2] == 30 and out[3] == 40
        assert isinstance(out[1], GridFailure)
        assert not out[1].permanent   # worker death is transient-class
        assert "WorkerDied" in out[1].error_type

    def test_one_item_grid_dies_in_a_worker_not_the_caller(self):
        # run in a child interpreter: were the lone item run inline, its
        # os._exit would end the caller, which must not be pytest itself
        script = textwrap.dedent("""
            import os
            from repro.harness.parallel import GridFailure, fan_out

            def die(x):
                os._exit(3)

            out = fan_out(die, [1], jobs=2)
            assert len(out) == 1 and isinstance(out[0], GridFailure), out
            print(out[0].error_type)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=_SRC),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "WorkerDied"

    @pytest.mark.usefixtures("no_backoff")
    def test_retry_recovers_one_off_worker_death(self, tmp_path):
        marker = str(tmp_path / "died")
        items = [(1, marker), (2, marker), (3, marker)]
        out = fan_out(_die_once_marker, items, jobs=2,
                      retry=RetryPolicy(retries=1))
        assert out == [10, 20, 30]
        assert os.path.exists(marker)

    @pytest.mark.usefixtures("no_backoff")
    def test_retry_recovers_transient_exception_in_worker(self, tmp_path):
        marker = str(tmp_path / "tried")
        items = [(1, marker), (2, marker), (3, marker)]
        out = fan_out(_flaky_marker, items, jobs=2,
                      retry=RetryPolicy(retries=1))
        assert out == [10, 20, 30]


# ---------------------------------------------------------------------
# the supervision contract, by where the culprit dies or hangs
# ---------------------------------------------------------------------
#: case -> (items as (x, action, seconds), retry policy)
_FAULT_CASES = {
    "first_unit_dies_while_rest_start": (
        [(1, "die", 0.0), (2, "ok", 0.05), (3, "ok", 0.05), (4, "ok", 0.0)],
        RetryPolicy(retries=0)),
    "dies_while_sibling_backs_off": (
        # item 1 backs off 0.25-0.275 s; item 2 is killed at 0.1 s
        [(1, "flaky_once", 0.0), (2, "sigkill", 0.1), (3, "ok", 0.0)],
        RetryPolicy(retries=1)),
    "dies_once_then_recovers": (
        [(1, "ok", 0.0), (2, "die_once", 0.0), (3, "ok", 0.0)],
        RetryPolicy(retries=1)),
    "hangs_while_sibling_mid_run": (
        # the hang is killed at 1.3 s, while item 1 runs from 0.7 s to 1.5 s
        [(2, "hang", 0.0), (3, "ok", 0.7), (1, "ok", 0.8)],
        RetryPolicy(retries=0, timeout=1.0)),
}

#: how each culprit that does not recover fails
_DEATHS = {
    "die": ("WorkerDied", "exited with code 1"),
    "sigkill": ("WorkerDied", "killed by signal 9"),
    "hang": ("PointTimeout", "budget"),
}


class TestFaultPoints:
    """Wherever the culprit dies or hangs, every innocent returns its
    row, the culprit degrades (or recovers on retry) and no exception
    escapes ``fan_out``."""

    @pytest.mark.parametrize("case", sorted(_FAULT_CASES))
    def test_contract(self, case, tmp_path, monkeypatch):
        import repro.harness.parallel as par
        monkeypatch.setattr(par, "_DEADLINE_GRACE", 0.3)
        spec, retry = _FAULT_CASES[case]
        repeats = 10 if case == "first_unit_dies_while_rest_start" else 1
        for rep in range(repeats):
            marker_dir = tmp_path / str(rep)
            marker_dir.mkdir()
            items = [(x, action, secs, str(marker_dir))
                     for x, action, secs in spec]
            out = fan_out(_fault_point, items, jobs=2, retry=retry)
            for (x, action, _secs), outcome in zip(spec, out):
                if action in _DEATHS:
                    error_type, message = _DEATHS[action]
                    assert isinstance(outcome, GridFailure), (case, outcome)
                    assert outcome.error_type == error_type
                    assert message in outcome.message
                    assert not outcome.permanent
                else:
                    assert outcome == x * 10, (case, x, outcome)
                if action == "ok":
                    # a sibling's death never re-runs an innocent
                    ran = (marker_dir / f"ran{x}").read_text().count("ran")
                    assert ran == 1, (case, x, ran)

    def test_parent_raise_leaves_no_orphaned_workers(self):
        def commit_fails(index, outcome):
            raise OSError("store commit failed")
        t0 = time.monotonic()
        with pytest.raises(OSError, match="store commit failed"):
            fan_out(_slow_on_one, [1, 2, 3], jobs=2,
                    on_result=commit_fails)
        assert time.monotonic() - t0 < 3.0   # did not wait out the sleeper
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------
# failure reporting: identity + traceback in render()
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
                dict(d_distance=4, seed=777, options=RunOptions()),
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
