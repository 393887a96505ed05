"""repro.harness subpackage.

The one public import most callers need is :class:`RunOptions` — the
consolidated run-configuration value.  ``experiment_config``,
``run_workload``, ``run_pair``, ``SweepCache``, the sweeps and figures,
``faults.sweep`` and the figures CLI take it as their single
``options`` argument; there are no per-knob keyword spellings.  Every
grid — a sweep, a figure, a ``run_pair`` — runs through
:func:`repro.harness.parallel.run_grid`, which reads how to run it
(``jobs``, ``backend``, retry, ``store``) from those options alone.
"""
from repro.harness.options import RunOptions

__all__ = ["RunOptions"]
