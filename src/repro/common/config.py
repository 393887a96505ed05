"""Simulation configuration — the reproduction of the paper's Table 1.

Defaults mirror the paper's gem5 setup (24 in-order cores, 32 kB 2-way L1,
128 kB/core 8-way shared L2, 6x4 mesh with four corner directory
controllers, 1024-cycle GI timeout).  Every knob the evaluation sweeps
(d-distance, GI timeout, core count) is a plain dataclass field so sweeps
are `dataclasses.replace` calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.noc.topologies import Topology

__all__ = [
    "CacheConfig",
    "NocConfig",
    "DramConfig",
    "GhostwriterConfig",
    "VerifyConfig",
    "FaultConfig",
    "ObsConfig",
    "SimConfig",
    "table1_rows",
    "noc_for_topology",
]


def _check_power_of_two(name: str, value: int) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    block_bytes: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        _check_power_of_two("cache size", self.size_bytes)
        _check_power_of_two("associativity", self.assoc)
        _check_power_of_two("block size", self.block_bytes)
        if self.hit_latency < 1:
            raise ValueError("hit latency must be >= 1 cycle")
        if self.size_bytes < self.assoc * self.block_bytes:
            raise ValueError("cache smaller than one set")

    @property
    def num_blocks(self) -> int:
        """Total cache lines."""
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (blocks / associativity)."""
        return self.num_blocks // self.assoc

    @property
    def words_per_block(self) -> int:
        """32-bit words per cache block."""
        return self.block_bytes // 4

    def set_index(self, block_addr: int) -> int:
        """Set index for a block-aligned byte address."""
        return (block_addr // self.block_bytes) % self.num_sets


@dataclass(frozen=True, slots=True)
class NocConfig:
    """Network-on-chip parameters.

    The route/latency model itself is pluggable: ``topology`` names a
    registered :class:`~repro.noc.topologies.Topology` ("mesh" — the
    paper's 6x4 2D mesh — "ring", "crossbar", or "chiplet"), reachable
    as :attr:`topo`.  ``mesh_cols``/``mesh_rows`` describe one die
    (sub-mesh for "chiplet", which multiplies them by ``chiplets``;
    ring/crossbar just linearize ``cols * rows`` nodes).
    """

    mesh_cols: int = 6
    mesh_rows: int = 4
    router_latency: int = 1
    link_latency: int = 1
    flit_bytes: int = 16
    control_msg_bytes: int = 8
    #: Node ids hosting the directory controllers; empty defers to the
    #: topology's default placement (mesh: the four Table 1 corners;
    #: ring/crossbar: evenly spread; chiplet: one gateway per chiplet).
    directory_nodes: tuple[int, ...] = ()
    #: Registered topology name (see :mod:`repro.noc.topologies`).
    topology: str = "mesh"
    #: Sub-mesh count for the "chiplet" topology; must stay 1 for the
    #: single-die topologies.
    chiplets: int = 1
    #: Latency of the gateway-to-gateway die crossing ("chiplet" only).
    chiplet_link_latency: int = 4

    def __post_init__(self) -> None:
        if self.mesh_cols < 1 or self.mesh_rows < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.chiplets < 1:
            raise ValueError("chiplet count must be positive")
        if self.chiplet_link_latency < 1:
            raise ValueError("chiplet link latency must be >= 1")
        # runtime (not import-time) registry lookup: common.config must
        # stay importable before repro.noc — same pattern as
        # SimConfig.protocol and the coherence registry
        from repro.noc.topologies import available_topologies, get_topology
        if self.topology not in available_topologies():
            raise ValueError(
                f"unknown topology {self.topology!r}; registered: "
                f"{', '.join(available_topologies())}"
            )
        topo_cls = get_topology(self.topology)
        topo_cls.check_config(self)
        if not self.directory_nodes:
            object.__setattr__(
                self, "directory_nodes",
                topo_cls.default_directory_nodes(self))
        for n in self.directory_nodes:
            if not 0 <= n < self.num_nodes:
                raise ValueError(
                    f"directory node {n} outside the {self.num_nodes}-node "
                    f"{self.topology!r} topology"
                )

    @property
    def num_nodes(self) -> int:
        """Total nodes (cols x rows, times chiplets)."""
        return self.mesh_cols * self.mesh_rows * self.chiplets

    @property
    def topo(self) -> "Topology":
        """The (memoized) topology object — the route/latency model."""
        from repro.noc.topologies import build_topology
        return build_topology(self)

    def flits(self, payload_bytes: int) -> int:
        """Number of flits for a message of the given payload size."""
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        return -(-payload_bytes // self.flit_bytes)

    def message_latency(self, src: int, dst: int, payload_bytes: int) -> int:
        """End-to-end latency: per-hop router+link plus serialization.

        Delegates the path term to the topology; on the default mesh
        this is byte-identical to the historic
        ``hops * (router + link) + flits - 1`` arithmetic.
        """
        if src == dst:
            return self.router_latency  # local turnaround
        return (self.topo.path_latency(src, dst)
                + (self.flits(payload_bytes) - 1))

    def home_directory(self, block_addr: int, block_bytes: int) -> int:
        """NoC node of the directory controller owning a block
        (block-index interleave over ``directory_nodes``)."""
        dirs = self.directory_nodes
        if not dirs:
            raise ValueError(
                f"topology {self.topology!r} provides no directory nodes; "
                f"set NocConfig.directory_nodes explicitly"
            )
        return dirs[(block_addr // block_bytes) % len(dirs)]


@dataclass(frozen=True, slots=True)
class DramConfig:
    """Main-memory timing (DDR3-1600-class, heavily abstracted)."""

    access_latency: int = 100
    num_banks: int = 8
    bank_busy_cycles: int = 24
    size_bytes: int = 2 * 1024**3

    def __post_init__(self) -> None:
        if self.access_latency < 1:
            raise ValueError("DRAM latency must be >= 1")
        _check_power_of_two("DRAM banks", self.num_banks)


@dataclass(frozen=True, slots=True)
class GhostwriterConfig:
    """Knobs of the Ghostwriter protocol extension."""

    #: Maximum number of differing least-significant bits for a scribble
    #: to be serviced approximately.  0 is the precise machine (the
    #: paper's "0 d-distance" bars): it strips the GS/GI states from
    #: whatever ``SimConfig.protocol`` names, leaving its precise base.
    #: Protocol *selection* lives in ``SimConfig.protocol`` /
    #: :mod:`repro.coherence.policy`.
    d_distance: int = 4
    #: Periodic flash-invalidate interval for GI blocks, in cycles.
    gi_timeout: int = 1024
    #: Similarity semantics for the scribe comparator.  "bitwise" is the
    #: paper's XNOR d-distance; "arithmetic" treats values as signed ints
    #: and accepts |a - b| < 2**d — the extension the paper leaves as
    #: future work (§3.4: -1 vs 0 are arithmetically close but 32-distance
    #: apart bit-wise).
    similarity_mode: str = "bitwise"
    #: Optional bound on the number of approximate stores absorbed per
    #: GS/GI episode; once exceeded, the next scribble falls back to the
    #: conventional path, re-cohering the block.  Implements the
    #: light-weight runtime error-bounding the paper points to in §3.5.
    #: None disables the budget.
    approx_write_budget: int | None = None
    #: How a dissimilar scribble falls back from GS.  False (default):
    #: UPGRADE in place, publishing the whole locally-modified block —
    #: other threads' words are re-published from the holder's (d-similar,
    #: slightly stale) view, which measures as both faster and lower-error
    #: (see benchmarks/test_ablation_gs_fallback.py).  True: a full GETX
    #: that discards the divergent copy and publishes only the store's own
    #: word.  Exposed as an ablation knob.
    gs_fallback_getx: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.d_distance <= 32:
            raise ValueError("d-distance must be in [0, 32]")
        if self.gi_timeout < 1:
            raise ValueError("GI timeout must be positive")
        if self.similarity_mode not in ("bitwise", "arithmetic"):
            raise ValueError(
                f"unknown similarity mode {self.similarity_mode!r}"
            )
        if self.approx_write_budget is not None and self.approx_write_budget < 1:
            raise ValueError("approx write budget must be positive")

    @property
    def enabled(self) -> bool:
        """True when the machine approximates at all (``d_distance > 0``)."""
        return self.d_distance > 0


@dataclass(frozen=True, slots=True)
class VerifyConfig:
    """Knobs of the verification layer (:mod:`repro.verify`)."""

    #: Run ``check_quiescent()`` + ``check_coherence_invariants()`` at the
    #: end of every harness run (``Workload.run``).
    check_invariants: bool = True
    #: Cycle period of the *runtime* invariant monitor; 0 disables it.
    #: When enabled the monitor re-checks SWMR / directory agreement on
    #: every quiescent block while the simulation is still running.
    monitor_period: int = 0
    #: Polling interval of the progress watchdog, in cycles; 0 disables
    #: it.  The watchdog replaces the blind ``max_cycles`` abort: if no
    #: core retires work for
    #: :data:`repro.verify.watchdog.STALL_THRESHOLD` consecutive
    #: intervals it raises :class:`repro.verify.DeadlockError` with a
    #: diagnostic dump.
    watchdog_interval: int = 0
    #: Cycle period of the machine checkpoint recorder; 0 disables it.
    #: When enabled, ``Machine.run`` steps the event queue in
    #: period-sized windows and captures a restorable
    #: :class:`repro.sim.state.MachineCheckpoint` at every safe
    #: boundary (all events tagged, network empty, L1s/directories
    #: quiescent); unsafe boundaries are skipped, never fatal.
    checkpoint_period: int = 0

    def __post_init__(self) -> None:
        if self.monitor_period < 0:
            raise ValueError("monitor period cannot be negative")
        if self.watchdog_interval < 0:
            raise ValueError("watchdog interval cannot be negative")
        if self.checkpoint_period < 0:
            raise ValueError("checkpoint period cannot be negative")


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Knobs of the fault-injection layer (:mod:`repro.faults`).

    All injection is deterministic given ``seed``; a config with
    ``cache_rate == msg_rate == delay_jitter == 0`` injects nothing.
    """

    #: Expected cache-resident bit-flip events per million cycles
    #: (Poisson arrivals; each event corrupts one resident L1 word).
    cache_rate: float = 0.0
    #: Per-data-message probability of corrupting the NoC payload.
    msg_rate: float = 0.0
    #: Max extra delivery delay (cycles) added uniformly at random to
    #: every NoC message — timing jitter for race shaking.
    delay_jitter: int = 0
    #: Bits flipped per fault event (single- or multi-bit upsets).
    bits: int = 1
    #: RNG seed for the injector.
    seed: int = 1
    #: What the monitor does when the data-value invariant catches a
    #: corrupted coherent line: "abort" raises, "recover" invalidates the
    #: line and refetches coherent data (restoring in place when the line
    #: is the only copy), "log" counts it and continues.
    policy: str = "abort"

    def __post_init__(self) -> None:
        if self.cache_rate < 0 or self.msg_rate < 0:
            raise ValueError("fault rates cannot be negative")
        if not 0.0 <= self.msg_rate <= 1.0:
            raise ValueError("msg_rate is a probability in [0, 1]")
        if self.delay_jitter < 0:
            raise ValueError("delay jitter cannot be negative")
        if not 1 <= self.bits <= 32:
            raise ValueError("bits per fault must be in [1, 32]")
        if self.policy not in ("abort", "recover", "log"):
            raise ValueError(f"unknown fault policy {self.policy!r}")

    @property
    def active(self) -> bool:
        """True when any fault mechanism is enabled."""
        return bool(self.cache_rate or self.msg_rate or self.delay_jitter)


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """Knobs of the observability layer (:mod:`repro.obs`).

    Everything defaults to off; a default-constructed machine carries no
    event bus and its hot paths pay one ``is None`` attribute check.
    """

    #: Attach an :class:`~repro.obs.events.EventBus` and record every
    #: typed protocol event (state transitions, coherence messages, MSHR
    #: stalls, scribble accept/reject) into an in-memory recorder.
    trace_events: bool = False
    #: Cycle period of the metrics timeline sampler; 0 disables it.  Each
    #: sample snapshots traffic, miss-class and approximate-residency
    #: counters into columnar numpy series.
    timeline_interval: int = 0
    #: Depth of the ring-buffer flight recorder whose tail is attached to
    #: deadlock/invariant-violation dumps; 0 = off (but ``trace_events``
    #: implies a default-depth ring, see :attr:`flight_depth`).
    flight_recorder: int = 0

    #: Ring depth implied by ``trace_events`` when ``flight_recorder`` is
    #: left at 0.
    DEFAULT_FLIGHT_DEPTH = 256

    def __post_init__(self) -> None:
        if self.timeline_interval < 0:
            raise ValueError("timeline interval cannot be negative")
        if self.flight_recorder < 0:
            raise ValueError("flight-recorder depth cannot be negative")

    @property
    def flight_depth(self) -> int:
        """Effective flight-recorder ring depth."""
        if self.flight_recorder:
            return self.flight_recorder
        return self.DEFAULT_FLIGHT_DEPTH if self.trace_events else 0

    @property
    def bus_active(self) -> bool:
        """True when the machine needs an event bus at construction."""
        return self.trace_events or self.flight_depth > 0

    @property
    def active(self) -> bool:
        """True when any observability mechanism is enabled."""
        return self.bus_active or self.timeline_interval > 0


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Top-level simulated-machine configuration (paper Table 1)."""

    num_cores: int = 24
    core_freq_ghz: float = 1.0
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 2, 64, 2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(128 * 1024, 8, 64, 10))
    noc: NocConfig = field(default_factory=NocConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    ghostwriter: GhostwriterConfig = field(default_factory=GhostwriterConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Coherence protocol, by registry name (see
    #: :mod:`repro.coherence.policy`): "ghostwriter" (the paper's full
    #: protocol, the default), "mesi"/"moesi" (precise baselines), the
    #: "gw-gs-only"/"gw-gi-only" ablations, "ghostwriter-moesi", and the
    #: non-paper "self-invalidate"/"update-hybrid" variants.  A name
    #: means exactly its registry entry; ``ghostwriter.d_distance=0``
    #: strips the approximate states from any variant (the
    #: d-distance-0 baseline legs).
    protocol: str = "ghostwriter"
    #: Directory state lookup/update occupancy per transaction, in
    #: cycles.  Serializes same-block transactions at the home, which is
    #: what makes heavy false sharing collapse (Fig. 1).
    dir_access_latency: int = 6
    #: Execute thread programs through the compiled-program layer
    #: (record-once columnar op streams + the sweep-wide program cache,
    #: see repro.isa.compiled).  Results are bit-identical either way —
    #: the knob exists for the equivalence suite and for debugging with
    #: the plain generator interpreter.
    compile_programs: bool = True
    #: Vectorized hit-run fast lane (repro.core.hitrun): execute whole
    #: runs of guaranteed-L1-hit compiled ops as numpy kernels instead
    #: of one scheduler event per op.  Bit-identical to the scalar path
    #: by construction (the lane only merges complete pure-hit quanta
    #: and falls back to event-driven execution at the first op that
    #: could miss, observe, or transition state) — the knob exists for
    #: the equivalence suite and A/B debugging, like
    #: ``compile_programs``.  Requires ``compile_programs``; ignored
    #: when tracing or monitoring hooks are attached (those force the
    #: scalar path dynamically).
    fast_lane: bool = True

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.num_cores > self.noc.num_nodes:
            raise ValueError(
                f"{self.num_cores} cores do not fit a "
                f"{self.noc.num_nodes}-node {self.noc.topology!r} topology "
                f"(see noc_for_topology)"
            )
        if self.l1.block_bytes != self.l2.block_bytes:
            raise ValueError("L1/L2 block sizes must match")
        # runtime (not import-time) registry lookup: common.config must
        # stay importable before repro.coherence
        from repro.coherence.policy import available_protocols
        if self.protocol not in available_protocols():
            raise ValueError(
                f"unknown protocol {self.protocol!r}; registered: "
                f"{', '.join(available_protocols())}"
            )
        if self.dir_access_latency < 0:
            raise ValueError("directory latency cannot be negative")

    @property
    def block_bytes(self) -> int:
        """Cache block size shared by L1 and L2."""
        return self.l1.block_bytes

    @property
    def policy(self):
        """The effective :class:`~repro.coherence.policy.ProtocolPolicy`
        — the named protocol, with the approximate states stripped when
        ``ghostwriter.d_distance`` is 0.  ``Machine`` resolves this once
        at construction and hands the policy down to every controller."""
        from repro.coherence.policy import resolve_policy
        return resolve_policy(self.protocol, self.ghostwriter.enabled)

    def with_ghostwriter(
        self, *, d_distance: int | None = None, gi_timeout: int | None = None,
    ) -> "SimConfig":
        """Copy with updated Ghostwriter knobs (sweep helper);
        ``d_distance=0`` is the precise machine."""
        gw = self.ghostwriter
        if d_distance is not None:
            gw = replace(gw, d_distance=d_distance)
        if gi_timeout is not None:
            gw = replace(gw, gi_timeout=gi_timeout)
        return replace(self, ghostwriter=gw)

    def home_directory(self, block_addr: int) -> int:
        """NoC node of the directory controller owning this block."""
        return self.noc.home_directory(block_addr, self.block_bytes)

    def home_l2_slice(self, block_addr: int) -> int:
        """NoC node of the L2 slice holding this block (address interleave)."""
        return (block_addr // self.block_bytes) % self.num_cores

    def block_base(self, addr: int) -> int:
        """Block-aligned base address of ``addr``."""
        return addr - (addr % self.block_bytes)


def table1_rows(cfg: SimConfig) -> list[tuple[str, str]]:
    """Render a config as the rows of the paper's Table 1."""
    gw = cfg.ghostwriter
    proto = (
        f"Ghostwriter (baseline MESI), d-distance {gw.d_distance}, "
        f"{gw.gi_timeout}-cycle GI timeout"
        if gw.enabled
        else "Baseline MESI"
    )
    return [
        ("Cores", f"{cfg.num_cores} in-order cores, {cfg.core_freq_ghz:g}GHz"),
        (
            "L1",
            f"Private {cfg.l1.size_bytes // 1024}kB D-Cache, "
            f"{cfg.l1.assoc}-Way Set Assoc., {cfg.l1.block_bytes}B Block, "
            f"Pseudo-LRU, {cfg.l1.hit_latency}-cycle",
        ),
        (
            "L2",
            f"Shared, {cfg.l2.size_bytes // 1024}kB per core, "
            f"{cfg.l2.assoc}-Way Set Assoc., {cfg.l2.block_bytes}B Block, "
            f"Pseudo-LRU, {cfg.l2.hit_latency}-cycle",
        ),
        ("Coherence", proto),
        ("Network", cfg.noc.topo.summary()),
        ("DRAM", f"{cfg.dram.size_bytes // 1024**3}GB, DDR3 1600MHz"),
    ]


def default_config() -> SimConfig:
    """The paper's Table 1 machine."""
    return SimConfig()


def small_config(
    num_cores: int = 4,
    *,
    d_distance: int = 4,
    gi_timeout: int = 1024,
) -> SimConfig:
    """A scaled-down machine for tests and quick examples.

    Keeps the paper's structure (2-way L1, 8-way shared L2, mesh with
    corner directories) at a size where unit tests can exercise evictions.
    ``d_distance=0`` builds the precise machine.
    """
    cols = max(2, min(num_cores, 4))
    rows = -(-num_cores // cols)
    rows = max(rows, 2)
    return SimConfig(
        num_cores=num_cores,
        l1=CacheConfig(1024, 2, 64, 2),
        l2=CacheConfig(4096, 8, 64, 10),
        noc=NocConfig(mesh_cols=cols, mesh_rows=rows),
        dram=DramConfig(access_latency=60),
        ghostwriter=GhostwriterConfig(d_distance=d_distance,
                                      gi_timeout=gi_timeout),
    )


def noc_for_topology(topology: str = "mesh", num_cores: int = 24, *,
                     chiplets: int = 4) -> NocConfig:
    """A ``NocConfig`` of the named topology sized to hold ``num_cores``.

    The sizing rules keep the paper's machine exactly: the default mesh
    at <= 24 cores *is* ``NocConfig()`` (6x4, corner directories).
    Larger meshes grow square-ish; ring/crossbar linearize one node per
    core; "chiplet" splits the cores over ``chiplets`` square-ish
    sub-meshes (64 cores -> 4 chiplets of 4x4) with one directory slice
    per chiplet.
    """
    if num_cores < 1:
        raise ValueError("need at least one core")

    def grid(n: int) -> tuple[int, int]:
        cols = 1
        while cols * cols < n:
            cols += 1
        return cols, -(-n // cols)

    if topology == "mesh":
        if num_cores <= 24:
            return NocConfig()
        cols, rows = grid(num_cores)
        return NocConfig(mesh_cols=cols, mesh_rows=rows)
    if topology in ("ring", "crossbar"):
        return NocConfig(mesh_cols=num_cores, mesh_rows=1,
                         topology=topology)
    if topology == "chiplet":
        per = -(-num_cores // chiplets)
        cols, rows = grid(per)
        return NocConfig(mesh_cols=cols, mesh_rows=rows,
                         topology="chiplet", chiplets=chiplets)
    # unknown names fall through to NocConfig's canonical registry error
    return NocConfig(topology=topology)


__all__ += ["default_config", "small_config"]
