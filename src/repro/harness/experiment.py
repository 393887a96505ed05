"""Experiment runner: one (workload, protocol-config) -> one result row.

Defines the *experiment machine*: the paper's Table 1 machine with the
cache capacities scaled down in proportion to our scaled-down inputs
(DESIGN.md substitution 2).  The paper streams tens of megabytes through
32 kB L1s; our inputs are ~100x smaller, so the experiment machine uses
2 kB L1s / 8 kB L2 slices to preserve the stream-to-cache ratio that
drives eviction pressure and bounds approximate-state lifetimes.  All
other Table 1 parameters (cores, mesh, latencies, GI timeout) are kept.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.config import SimConfig, default_config, noc_for_topology
from repro.common.types import MessageClass
from repro.energy.accounting import EnergyAccountant, EnergyReport
from repro.harness.options import RunOptions
from repro.obs.capture import ObsCapture
from repro.workloads.base import WorkloadResult
from repro.workloads.registry import create

__all__ = ["experiment_config", "RunRow", "run_workload",
           "run_workload_result", "row_from_result", "run_pair",
           "DEFAULT_THREADS", "DEFAULT_SCALE", "WATCHDOG_INTERVAL"]

DEFAULT_THREADS = 24
DEFAULT_SCALE = 0.5


#: watchdog cadence for experiment runs: generous against the slowest
#: workload phase, but orders of magnitude tighter than the blind
#: ``max_cycles`` abort it replaces
WATCHDOG_INTERVAL = 100_000


def experiment_config(*, enabled: bool, d_distance: int = 4,
                      gi_timeout: int = 1024,
                      num_cores: int = DEFAULT_THREADS,
                      protocol: str | None = None,
                      topology: str | None = None,
                      options: RunOptions | None = None) -> SimConfig:
    """The scaled experiment machine (see module docstring).

    Run-shaping knobs — invariant checking, fault injection, event
    tracing, the coherence ``protocol``, the NoC ``topology`` — come in
    through ``options`` (:class:`RunOptions`).  An explicit
    ``protocol``/``topology`` argument overrides the matching
    ``options`` field; a protocol name means exactly its registry entry,
    and ``enabled=False`` strips its approximate states.  The default
    mesh at paper core counts is Table 1's machine exactly; a
    non-default topology — or more cores than the 6x4 mesh holds —
    rebuilds the NoC through
    :func:`~repro.common.config.noc_for_topology`.  The progress
    watchdog is always armed so a deadlocked experiment fails in ~2x
    ``WATCHDOG_INTERVAL`` cycles with a diagnostic dump instead of
    spinning to ``max_cycles``.
    """
    opts = options if options is not None else RunOptions()
    if protocol is None:
        protocol = opts.protocol
    if topology is None:
        topology = opts.topology
    # The experiment machine is the paper's Table 1 machine, unmodified:
    # with the self-limiting scribble-fallback semantics the approximate
    # dynamics do not depend on cache-capacity pressure, so no scaling of
    # the hierarchy is needed despite the scaled-down inputs.
    cfg = default_config().with_ghostwriter(
        enabled=enabled, d_distance=d_distance, gi_timeout=gi_timeout,
    )
    # noc and num_cores must land in the same replace: validation runs
    # per replace, and a non-default topology sized for few cores would
    # reject Table 1's 24 cores (and vice versa) mid-update
    noc = cfg.noc
    if topology != "mesh" or num_cores > noc.num_nodes:
        noc = noc_for_topology(topology, num_cores)
    return replace(
        cfg, num_cores=num_cores, noc=noc, protocol=protocol,
        fast_lane=opts.fast_lane,
        verify=opts.verify_config(watchdog_interval=WATCHDOG_INTERVAL),
        faults=opts.fault_config(),
        obs=opts.obs_config(),
    )


@dataclass(frozen=True, slots=True)
class RunRow:
    """Everything the figure drivers need from one run."""

    workload: str
    d_distance: int           # 0 encodes "baseline MESI" (Fig. 8 x-axis)
    cycles: int
    error_pct: float
    energy: EnergyReport
    traffic: dict[MessageClass, int]
    gs_serviced: int          # transitions into GS
    gi_serviced: int          # transitions into GI
    gs_store_hits: int        # store hits while in GS
    gi_store_hits: int        # store hits while in GI
    store_miss_on_s: int
    store_miss_on_i: int
    loads: int
    stores: int
    load_misses: int
    store_misses: int
    #: coherence protocol variant the run used (registry name)
    protocol: str = "ghostwriter"
    #: hop-weighted flit traffic (the NoC's ``flit_hops`` counter) —
    #: the distance-sensitive traffic metric of ``fig_topology``
    flit_hops: int = 0
    #: flits injected, for per-flit hop averages
    flits: int = 0
    #: GI flash invalidations fired by the timeout sweeper
    #: (``gi_timeout_invalidations``) — the staleness-bound metric
    gi_flashes: int = 0
    #: observability capture of the run (None unless tracing was on);
    #: excluded from comparisons so serial-vs-parallel row equality is
    #: about the simulated results, not the capture objects
    obs: ObsCapture | None = field(default=None, compare=False, repr=False)

    @property
    def gs_serviced_pct(self) -> float:
        """Fig. 7a: share of would-miss stores on S serviced by GS."""
        num = self.gs_serviced + self.gs_store_hits
        den = num + self.store_miss_on_s
        return 100.0 * num / den if den else 0.0

    @property
    def gi_serviced_pct(self) -> float:
        """Fig. 7b: share of would-miss stores on I serviced by GI."""
        num = self.gi_serviced + self.gi_store_hits
        den = num + self.store_miss_on_i
        return 100.0 * num / den if den else 0.0

    @property
    def total_traffic(self) -> int:
        """All coherence messages of the run."""
        return sum(self.traffic.values())

    @property
    def hops_per_flit(self) -> float:
        """Mean hops a flit traveled — distance cost of the topology."""
        return self.flit_hops / self.flits if self.flits else 0.0

    @property
    def gi_flashes_per_kcycle(self) -> float:
        """GI flash-invalidation rate, per thousand cycles."""
        return 1000.0 * self.gi_flashes / self.cycles if self.cycles else 0.0


def row_from_result(name: str, d_label: int, result: WorkloadResult,
                    cfg: SimConfig) -> RunRow:
    """Summarize a finished run into the :class:`RunRow` the figures use.

    ``d_label`` is the row's reported d-distance (0 encodes the MESI
    baseline even though the machine ran with ``d_distance=1`` disabled);
    ``cfg`` supplies the protocol tag and the energy model parameters.
    """
    return _row_from_result(name, d_label, result, cfg)


def _row_from_result(name: str, d_label: int, result: WorkloadResult,
                     cfg: SimConfig) -> RunRow:
    machine = result.machine
    l1 = result.stats.child("l1")
    noc = result.stats.child("noc")
    energy = EnergyAccountant(cfg).report(machine)
    return RunRow(
        flit_hops=int(noc.total("flit_hops")),
        flits=int(noc.total("flits")),
        gi_flashes=int(l1.total("gi_timeout_invalidations")),
        obs=ObsCapture.from_machine(machine),
        protocol=cfg.protocol,
        workload=name,
        d_distance=d_label,
        cycles=result.cycles,
        error_pct=result.error_pct,
        energy=energy,
        traffic=machine.network.class_counts(),
        gs_serviced=int(l1.total("gs_serviced")),
        gi_serviced=int(l1.total("gi_serviced")),
        gs_store_hits=int(l1.total("gs_store_hits")),
        gi_store_hits=int(l1.total("gi_store_hits")),
        store_miss_on_s=int(l1.total("store_miss_on_S")),
        store_miss_on_i=int(l1.total("store_miss_on_I")),
        loads=int(l1.total("loads")),
        stores=int(l1.total("stores")),
        load_misses=int(l1.total("load_misses")),
        store_misses=int(l1.total("store_misses")),
    )


def run_workload(name: str, *, d_distance: int,
                 num_threads: int = DEFAULT_THREADS,
                 scale: float = DEFAULT_SCALE, seed: int = 12345,
                 gi_timeout: int = 1024, protocol: str | None = None,
                 topology: str | None = None,
                 options: RunOptions | None = None,
                 **workload_kwargs) -> RunRow:
    """Run one workload once.  ``d_distance=0`` disables approximation.

    The coherence protocol comes from ``options.protocol`` unless the
    ``protocol`` keyword overrides it.  ``options`` also carries the
    other run-shaping knobs (:class:`RunOptions`); any other keyword is
    a workload parameter.  When the options enable tracing, the returned
    row's ``obs`` field holds the run's
    :class:`~repro.obs.capture.ObsCapture`.
    """
    result, cfg = run_workload_result(
        name, d_distance=d_distance, num_threads=num_threads, scale=scale,
        seed=seed, gi_timeout=gi_timeout, protocol=protocol,
        topology=topology, options=options, **workload_kwargs,
    )
    return _row_from_result(name, d_distance, result, cfg)


def run_workload_result(
    name: str, *, d_distance: int, num_threads: int = DEFAULT_THREADS,
    scale: float = DEFAULT_SCALE, seed: int = 12345, gi_timeout: int = 1024,
    protocol: str | None = None, topology: str | None = None,
    options: RunOptions | None = None,
    **workload_kwargs,
) -> tuple[WorkloadResult, SimConfig]:
    """:func:`run_workload` up to — but not including — row extraction.

    Returns the raw ``(WorkloadResult, SimConfig)`` pair so callers that
    need the live machine (the batch backend rebuilds one representative
    run into many lanes' rows) can inspect it before
    :func:`row_from_result` summarizes it away.
    """
    enabled = d_distance > 0
    cfg = experiment_config(
        enabled=enabled, d_distance=max(d_distance, 1),
        gi_timeout=gi_timeout, num_cores=num_threads, protocol=protocol,
        topology=topology, options=options,
    )
    w = create(name, num_threads=num_threads, seed=seed, scale=scale,
               **workload_kwargs)
    return w.run(cfg), cfg


def run_pair(name: str, *, d_distance: int,
             num_threads: int = DEFAULT_THREADS,
             scale: float = DEFAULT_SCALE, seed: int = 12345,
             options: RunOptions | None = None,
             **kwargs) -> tuple[RunRow, RunRow]:
    """(baseline, ghostwriter) rows for one workload and d setting.

    Both legs run through :func:`~repro.harness.parallel.run_grid`, so
    ``options`` says how (``jobs``, ``backend``, ``store``); the rows are
    bit-identical either way.  A failed leg raises ``RuntimeError`` with
    its :meth:`~repro.harness.parallel.GridFailure.render` line.
    """
    # local import: parallel builds on this module's run_workload
    from repro.harness.parallel import GridFailure, GridPoint, run_grid

    opts = options if options is not None else RunOptions()
    points = [
        GridPoint(name, dict(d_distance=d, num_threads=num_threads,
                             scale=scale, seed=seed, options=opts, **kwargs),
                  label=f"d_distance={d}")
        for d in (0, d_distance)
    ]
    base, gw = run_grid(points, options=opts)
    for row in (base, gw):
        if isinstance(row, GridFailure):
            raise RuntimeError(f"run_pair leg failed: {row.render()}")
    return base, gw
