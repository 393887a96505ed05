"""RunOptions: validation, derived configs, and the options-only
harness surface."""
import pickle
import warnings

import pytest

from repro.harness import RunOptions
from repro.harness.experiment import experiment_config, run_pair, run_workload
from repro.harness.figures import SweepCache


class TestRunOptions:
    def test_defaults_are_off(self):
        opts = RunOptions()
        assert opts.check_invariants is True
        assert opts.fault_rate == 0.0
        assert opts.jobs == 1
        assert not opts.tracing

    def test_validation(self):
        with pytest.raises(ValueError):
            RunOptions(fault_rate=-1)
        with pytest.raises(ValueError):
            RunOptions(fault_policy="explode")
        with pytest.raises(ValueError):
            RunOptions(jobs=0)
        with pytest.raises(ValueError, match="one process"):
            RunOptions(backend="batch", jobs=2)
        with pytest.raises(ValueError):
            RunOptions(timeline_interval=-1)
        with pytest.raises(ValueError):
            RunOptions(point_timeout=-1)

    def test_tracing_property(self):
        assert RunOptions(trace_events=True).tracing
        assert RunOptions(timeline_interval=100).tracing
        assert not RunOptions().tracing

    def test_replace_returns_new_frozen_value(self):
        a = RunOptions()
        b = a.replace(fault_rate=5.0, fault_policy="log")
        assert a.fault_rate == 0.0 and b.fault_rate == 5.0
        with pytest.raises(Exception):
            b.fault_rate = 9.0

    def test_picklable_and_hashable(self):
        opts = RunOptions(trace_events=True, jobs=4)
        assert pickle.loads(pickle.dumps(opts)) == opts
        assert hash(opts) == hash(RunOptions(trace_events=True, jobs=4))

    def test_derived_configs(self):
        opts = RunOptions(check_invariants=False, fault_rate=2.5,
                          fault_seed=7, fault_policy="recover",
                          trace_events=True, timeline_interval=512)
        v = opts.verify_config(watchdog_interval=1000)
        assert v.check_invariants is False
        assert v.watchdog_interval == 1000
        f = opts.fault_config()
        assert (f.cache_rate, f.seed, f.policy) == (2.5, 7, "recover")
        o = opts.obs_config()
        assert o.trace_events and o.timeline_interval == 512
        # trace_events arms the default-depth flight-recorder ring
        assert o.flight_depth == o.DEFAULT_FLIGHT_DEPTH

    def test_topology_field_validated(self):
        assert RunOptions(topology="chiplet").topology == "chiplet"
        with pytest.raises(ValueError, match="unknown topology"):
            RunOptions(topology="torus")


#: the per-knob keywords every options-taking entry point used to accept
_FAULT_KEYWORDS = {"check_invariants": False, "fault_rate": 2.0,
                   "fault_seed": 9, "fault_policy": "log"}
#: the machine-shape keywords that now live on ``RunOptions`` alone
_SHAPE_KEYWORDS = {"protocol": "mesi", "topology": "ring"}


class TestSurfaceShims:
    """The retired per-knob keyword spellings are gone: every harness
    entry point takes its run-shaping knobs through ``options`` only,
    and ``d_distance`` alone says whether a machine approximates."""

    def test_sweep_cache_options_only_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = SweepCache(num_threads=2, scale=0.05,
                               options=RunOptions(check_invariants=False,
                                                  fault_rate=3.0))
        assert cache.options.check_invariants is False
        # faulty sweeps force the log policy so rows complete
        assert cache.options.fault_policy == "log"

    @pytest.mark.parametrize("entry,removed", [
        ("experiment_config", {**_FAULT_KEYWORDS, **_SHAPE_KEYWORDS,
                               "enabled": False}),
        ("run_workload", {**_FAULT_KEYWORDS, **_SHAPE_KEYWORDS}),
        ("run_workload_result", _SHAPE_KEYWORDS),
        ("SweepCache", {**_FAULT_KEYWORDS, **_SHAPE_KEYWORDS, "jobs": 2}),
        ("run_pair", {"jobs": 1}),
        ("fault_sweep", {"jobs": 1}),
        ("run_grid", {"jobs": 2, "chunk_size": 1, "retry": None,
                      "base_seed": 99}),
        ("sweep_d_distance", {"jobs": 2}),
        ("fig12", {"jobs": 2}),
        ("SweepCache.prefetch", {"jobs": 2}),
        ("with_ghostwriter", {"enabled": False}),
        ("small_config", {"enabled": False}),
        ("GhostwriterConfig", {"enabled": False}),
        ("row_from_result", {"d_label": 0}),
        ("create", {"d_distance": 4}),
        ("RunOptions", {"flight_recorder": 8, "point_backoff": 0.5}),
        ("VerifyConfig", {"check_values": False, "watchdog_stalls": 3}),
    ], ids=["experiment_config", "run_workload", "run_workload_result",
            "SweepCache", "run_pair", "fault_sweep", "run_grid",
            "sweep_d_distance", "fig12", "SweepCache.prefetch",
            "with_ghostwriter", "small_config", "GhostwriterConfig",
            "row_from_result", "create", "RunOptions", "VerifyConfig"])
    def test_removed_keyword_raises(self, entry, removed):
        from repro.common.config import (
            GhostwriterConfig, VerifyConfig, default_config, small_config,
        )
        from repro.faults.sweep import fault_sweep
        from repro.harness.experiment import (
            row_from_result, run_workload_result,
        )
        from repro.workloads.registry import create
        from repro.harness.figures import fig12
        from repro.harness.parallel import run_grid
        from repro.harness.sweeps import sweep_d_distance

        def sweep(**kw):
            result = sweep_d_distance("histogram", (4,), num_threads=2,
                                      scale=0.05, **kw)
            for _value, failure in result.failures():
                raise RuntimeError(failure.render())

        calls = {
            "experiment_config": lambda **kw: experiment_config(
                d_distance=0, **kw),
            "run_workload": lambda **kw: run_workload(
                "histogram", d_distance=4, num_threads=2, scale=0.05, **kw),
            "run_workload_result": lambda **kw: run_workload_result(
                "histogram", d_distance=4, num_threads=2, scale=0.05, **kw),
            "SweepCache": lambda **kw: SweepCache(
                num_threads=2, scale=0.05, **kw),
            "run_pair": lambda **kw: run_pair(
                "histogram", d_distance=4, num_threads=2, scale=0.05, **kw),
            "fault_sweep": lambda **kw: fault_sweep(
                "histogram", num_threads=2, scale=0.05, rates=(0.0,), **kw),
            "run_grid": lambda **kw: run_grid([], **kw),
            "sweep_d_distance": sweep,
            "fig12": lambda **kw: fig12((128,), num_threads=2, **kw),
            "SweepCache.prefetch": lambda **kw: SweepCache(
                num_threads=2, scale=0.05).prefetch(**kw),
            "with_ghostwriter": lambda **kw:
                default_config().with_ghostwriter(**kw),
            "small_config": small_config,
            "GhostwriterConfig": GhostwriterConfig,
            "row_from_result": lambda **kw: row_from_result(
                "histogram", None, None, **kw),
            "create": lambda **kw: create("histogram", num_threads=2, **kw),
            "RunOptions": RunOptions,
            "VerifyConfig": VerifyConfig,
        }
        # run_pair and the sweeps forward unknown keywords to the
        # workload, whose TypeError comes back as a failed grid point
        forwarded = entry in ("run_pair", "sweep_d_distance")
        for key, value in removed.items():
            with pytest.raises(RuntimeError if forwarded else TypeError,
                               match=rf"TypeError: .*'{key}'"
                               if forwarded else key):
                calls[entry](**{key: value})
