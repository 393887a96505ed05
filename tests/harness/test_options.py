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
        with pytest.raises(ValueError):
            RunOptions(timeline_interval=-1)
        with pytest.raises(ValueError):
            RunOptions(flight_recorder=-1)

    def test_tracing_property(self):
        assert RunOptions(trace_events=True).tracing
        assert RunOptions(timeline_interval=100).tracing
        assert RunOptions(flight_recorder=8).tracing

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
                          trace_events=True, timeline_interval=512,
                          flight_recorder=32)
        v = opts.verify_config(watchdog_interval=1000)
        assert v.check_invariants is False
        assert v.watchdog_interval == 1000
        f = opts.fault_config()
        assert (f.cache_rate, f.seed, f.policy) == (2.5, 7, "recover")
        o = opts.obs_config()
        assert o.trace_events and o.timeline_interval == 512
        assert o.flight_depth == 32

    def test_topology_field_validated(self):
        assert RunOptions(topology="chiplet").topology == "chiplet"
        with pytest.raises(ValueError, match="unknown topology"):
            RunOptions(topology="torus")


#: the per-knob keywords every options-taking entry point used to accept
_FAULT_KEYWORDS = {"check_invariants": False, "fault_rate": 2.0,
                   "fault_seed": 9, "fault_policy": "log"}


class TestSurfaceShims:
    """The retired per-knob keyword spellings are gone: every harness
    entry point takes its run-shaping knobs through ``options`` only."""

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
        ("experiment_config", _FAULT_KEYWORDS),
        ("run_workload", _FAULT_KEYWORDS),
        ("SweepCache", {**_FAULT_KEYWORDS, "jobs": 2}),
        ("run_pair", {"jobs": 1}),
        ("fault_sweep", {"jobs": 1}),
    ], ids=["experiment_config", "run_workload", "SweepCache", "run_pair",
            "fault_sweep"])
    def test_removed_keyword_raises(self, entry, removed):
        from repro.faults.sweep import fault_sweep

        calls = {
            "experiment_config": lambda **kw: experiment_config(
                enabled=False, **kw),
            "run_workload": lambda **kw: run_workload(
                "histogram", d_distance=4, num_threads=2, scale=0.05, **kw),
            "SweepCache": lambda **kw: SweepCache(
                num_threads=2, scale=0.05, **kw),
            "run_pair": lambda **kw: run_pair(
                "histogram", d_distance=4, num_threads=2, scale=0.05, **kw),
            "fault_sweep": lambda **kw: fault_sweep(
                "histogram", num_threads=2, scale=0.05, rates=(0.0,), **kw),
        }
        for key, value in removed.items():
            with pytest.raises(TypeError, match=key):
                calls[entry](**{key: value})
