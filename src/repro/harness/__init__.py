"""repro.harness subpackage.

The one public import most callers need is :class:`RunOptions` — the
consolidated run-configuration value.  ``experiment_config``,
``run_workload``, ``run_pair``, ``SweepCache``, ``faults.sweep`` and the
figures CLI take it as their single ``options`` argument; there are no
per-knob keyword spellings.
"""
from repro.harness.options import RunOptions

__all__ = ["RunOptions"]
