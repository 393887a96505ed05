"""One value object for every run-shaping knob the harness accepts.

Invariant checking, fault injection, worker count, tracing, protocol,
topology, durability and backend selection all travel as one frozen
:class:`RunOptions` value: ``experiment_config``, ``run_workload``,
``run_pair``, ``SweepCache``, ``faults.sweep`` and the CLI each take it
as their single ``options`` argument.  No entry point takes a knob
beside it (a sweep over protocols or topologies gives each point its
own ``options.replace(...)``), so one simulation has one spelling and
one result-store key.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.common.config import FaultConfig, ObsConfig, VerifyConfig

__all__ = ["RunOptions"]

_POLICIES = ("abort", "log", "recover")


@dataclass(frozen=True, slots=True)
class RunOptions:
    """Run-shaping knobs shared by every harness entry point.

    Frozen and slotted so it can be hashed into sweep-cache keys and
    pickled across the ``--jobs N`` worker boundary unchanged.
    """

    #: End-of-run quiescence + coherence checks (see VerifyConfig).
    check_invariants: bool = True
    #: Cache bit-flips per million cycles (see FaultConfig.cache_rate).
    fault_rate: float = 0.0
    #: RNG seed of the fault injector.
    fault_seed: int = 1
    #: Monitor reaction to caught corruption: abort / log / recover.
    fault_policy: str = "abort"
    #: Worker processes ``run_grid`` fans a grid out over
    #: (1 = in-process serial).
    jobs: int = 1
    #: Record every protocol event (see ObsConfig.trace_events).
    trace_events: bool = False
    #: Timeline sampling period in cycles; 0 disables sampling.
    timeline_interval: int = 0
    #: Coherence protocol variant, one of
    #: :func:`repro.coherence.policy.available_protocols`.
    protocol: str = "ghostwriter"
    #: Path of the durable, content-addressed sweep-result store
    #: (SQLite; see :mod:`repro.store`).  ``None`` disables durability.
    store: str | None = None
    #: Serve grid points already committed to ``store`` instead of
    #: re-running them (``--no-resume`` forces recompute-and-overwrite).
    #: Meaningless without ``store``.
    resume: bool = True
    #: Wall-clock seconds granted to each grid point (0 = unlimited);
    #: exceeding it is a *transient* failure, eligible for retry.
    point_timeout: float = 0.0
    #: Re-executions granted to a transiently failing grid point
    #: (worker death, timeout, crash under injected faults); permanent
    #: failures — DeadlockError, ProtocolError — never retry.
    point_retries: int = 0
    #: NoC topology of the simulated machine, one of
    #: :func:`repro.noc.topologies.available_topologies` ("mesh" — the
    #: paper's 6x4 2D mesh — "ring", "crossbar", "chiplet").  The
    #: default is byte-identical to the pre-topology-layer machine and
    #: is elided from store fingerprints (see
    #: :data:`repro.store.keys.NEUTRAL_DEFAULTS`).
    topology: str = "mesh"
    #: Sweep execution backend: ``"serial"`` runs every grid point
    #: through the per-point interpreter; ``"batch"`` lets ``run_grid``
    #: advance groups of points that share a compiled program in
    #: lockstep (:mod:`repro.sim.batch`), falling back per-point where
    #: sharing is unsound.  Results are bit-identical either way.  The
    #: batch backend runs in one process, so it requires ``jobs == 1``.
    backend: str = "serial"
    #: Vectorized hit-run fast lane (:mod:`repro.core.hitrun`): execute
    #: guaranteed-L1-hit op runs as numpy kernels.  Bit-identical to the
    #: scalar event path — an execution-only knob (excluded from store
    #: fingerprints, see :data:`repro.store.keys.EXECUTION_FIELDS`),
    #: kept togglable for the equivalence suite and A/B debugging.
    fast_lane: bool = True

    def __post_init__(self) -> None:
        if self.backend not in ("serial", "batch"):
            raise ValueError(
                f"backend must be 'serial' or 'batch', got {self.backend!r}"
            )
        if self.fault_rate < 0:
            raise ValueError("fault_rate cannot be negative")
        if self.fault_policy not in _POLICIES:
            raise ValueError(
                f"fault_policy must be one of {_POLICIES}, "
                f"got {self.fault_policy!r}"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.backend == "batch" and self.jobs > 1:
            raise ValueError("the batch backend runs in one process; "
                             "it takes no jobs > 1")
        if self.timeline_interval < 0:
            raise ValueError("timeline_interval cannot be negative")
        if self.point_timeout < 0:
            raise ValueError("point_timeout cannot be negative")
        if self.point_retries < 0:
            raise ValueError("point_retries cannot be negative")
        # registry import is deferred so options stays importable from
        # contexts that never touch the coherence layer
        from repro.coherence.policy import available_protocols

        if self.protocol not in available_protocols():
            raise ValueError(
                f"unknown protocol {self.protocol!r}; registered: "
                f"{', '.join(available_protocols())}"
            )
        from repro.noc.topologies import available_topologies

        if self.topology not in available_topologies():
            raise ValueError(
                f"unknown topology {self.topology!r}; registered: "
                f"{', '.join(available_topologies())}"
            )

    # -- derived views -------------------------------------------------
    @property
    def tracing(self) -> bool:
        """True when this run produces any observability capture."""
        return self.trace_events or self.timeline_interval > 0

    def replace(self, **changes: Any) -> "RunOptions":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def verify_config(self, *, watchdog_interval: int = 0) -> VerifyConfig:
        """The VerifyConfig these options imply."""
        return VerifyConfig(check_invariants=self.check_invariants,
                            watchdog_interval=watchdog_interval)

    def fault_config(self) -> FaultConfig:
        """The FaultConfig these options imply."""
        return FaultConfig(cache_rate=self.fault_rate, seed=self.fault_seed,
                           policy=self.fault_policy)

    def obs_config(self) -> ObsConfig:
        """The ObsConfig these options imply."""
        return ObsConfig(trace_events=self.trace_events,
                         timeline_interval=self.timeline_interval)

