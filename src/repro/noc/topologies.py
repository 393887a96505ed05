"""Pluggable NoC topologies: the ``@register_topology`` registry.

What PR 4 did for coherence protocols, this module does for the
interconnect: :class:`Topology` is the abstract route/latency model, and
the registry maps the ``NocConfig.topology`` name to an implementation.
Four topologies ship:

``mesh``
    The paper's 2D mesh with dimension-ordered (X-then-Y) routing —
    byte-identical to the simulator's original mesh arithmetic,
    including the ``hops + 1`` router-traversal count the DSENT-style
    energy model charges.
``ring``
    A bidirectional ring; messages take the shorter direction (ties go
    clockwise).  The cheap-to-build baseline with the *worst* directory
    distance scaling.
``crossbar``
    A single-stage switch: every pair is one hop.  The idealized
    lower bound on NoC distance effects.
``chiplet``
    ``NocConfig.chiplets`` sub-meshes joined through per-chiplet gateway
    nodes (local node 0, the AMD-Zen-3-style ``Mesh_IO_Center`` shape:
    every chiplet hangs off a central IO die).  Crossing chiplets costs
    one extra hop at ``NocConfig.chiplet_link_latency`` instead of
    ``link_latency``, and the default directory placement is one slice
    per chiplet — its gateway — so ``home_directory`` interleaves
    blocks across chiplets.

Topology objects are cheap and stateless; :func:`build_topology`
memoizes them per (frozen, hashable) ``NocConfig`` so the hot paths
share one instance per machine configuration.
"""
from __future__ import annotations

import random
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.common.config import NocConfig

__all__ = [
    "Topology", "MeshTopology", "RingTopology", "CrossbarTopology",
    "ChipletTopology", "register_topology", "get_topology",
    "available_topologies", "build_topology",
]

#: Exhaustive-validation ceiling: at or below this many nodes
#: ``Topology.validate`` checks every (src, dst) pair (the paper's
#: 24-node machine is always exhaustive); above it, a seeded sample.
VALIDATE_SAMPLE_LIMIT = 64


class Topology(ABC):
    """Route and latency model of one interconnect shape.

    Subclasses are registered under :attr:`name` with
    :func:`register_topology` and built from a ``NocConfig`` (which
    carries the geometry knobs: ``mesh_cols``/``mesh_rows``, the
    per-hop latencies, ``chiplets``).  All methods are pure functions
    of the config, so one instance is shared per config via
    :func:`build_topology`.
    """

    #: Registry name (the ``NocConfig.topology`` / ``--topology`` value).
    name: ClassVar[str] = ""

    def __init__(self, cfg: "NocConfig") -> None:
        self.cfg = cfg

    # -- config hooks (classmethods: usable before directory defaulting) --
    @classmethod
    def check_config(cls, cfg: "NocConfig") -> None:
        """Raise ``ValueError`` when ``cfg`` cannot host this topology.
        Runs inside ``NocConfig.__post_init__``, before directory
        placement, so it must not touch ``directory_nodes``."""
        if cfg.chiplets != 1:
            raise ValueError(
                f"topology {cls.name!r} is single-die; NocConfig.chiplets "
                f"must be 1, got {cfg.chiplets}"
            )

    @classmethod
    @abstractmethod
    def default_directory_nodes(cls, cfg: "NocConfig") -> tuple[int, ...]:
        """Directory placement when ``NocConfig.directory_nodes`` is
        left empty."""

    # -- geometry --------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total endpoint count (``NocConfig.num_nodes``)."""
        return self.cfg.num_nodes

    @abstractmethod
    def coords(self, node: int) -> tuple[int, int]:
        """(x, y) layout position of a node (plots and XY routing)."""

    @abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Minimal link traversals between two nodes."""

    @abstractmethod
    def route(self, src: int, dst: int) -> list[int]:
        """Node ids visited by the deterministic minimal route,
        inclusive of both endpoints (``len(route) == hops + 1``)."""

    def route_routers(self, src: int, dst: int) -> int:
        """Router traversals for a message — the DSENT energy term.
        Minimal routes visit ``hops + 1`` routers (a local message
        still crosses its own router once)."""
        return self.hops(src, dst) + 1

    # -- latency ---------------------------------------------------------
    def link_latency(self, a: int, b: int) -> int:
        """Cycles on the link between two *adjacent* nodes."""
        return self.cfg.link_latency

    def path_latency(self, src: int, dst: int) -> int:
        """Head-flit latency along the route: router + link per hop.
        Serialization (``flits - 1``) is added by the caller."""
        per_hop = self.cfg.router_latency + self.cfg.link_latency
        return self.hops(src, dst) * per_hop

    # -- directory placement --------------------------------------------
    def directory_nodes(self) -> tuple[int, ...]:
        """The config's directory placement (defaulted at construction)."""
        return self.cfg.directory_nodes

    def mean_directory_hops(self) -> float:
        """Mean hop distance from a node to a (block-interleaved,
        hence uniformly likely) home directory — the x-axis of the
        ``fig_topology`` sensitivity study."""
        dirs = self.cfg.directory_nodes
        if not dirs:
            return 0.0
        n = self.num_nodes
        total = sum(self.hops(node, d) for node in range(n) for d in dirs)
        return total / (n * len(dirs))

    # -- rendering -------------------------------------------------------
    def summary(self) -> str:
        """One-line description for Table 1's Network row."""
        return (f"{self.num_nodes}-node {self.name}, "
                f"{self.cfg.router_latency}-cycle router, "
                f"{self.cfg.link_latency}-cycle link, "
                f"{len(self.cfg.directory_nodes)} Directory Controllers")

    # -- conformance -----------------------------------------------------
    def _validate_nodes(self, sample_limit: int, seed: int) -> list[int]:
        """The node set validation covers: every node up to
        ``sample_limit``, else a seeded deterministic sample that always
        includes the endpoints and every directory node."""
        n = self.num_nodes
        if n <= sample_limit:
            return list(range(n))
        # a str seed hashes deterministically (no PYTHONHASHSEED salt),
        # so the sampled pair set is stable across processes and runs
        rng = random.Random(f"{self.name}:{n}:{seed}")
        picked = set(rng.sample(range(n), sample_limit))
        picked.update(self.cfg.directory_nodes)
        picked.update((0, n - 1))
        return sorted(picked)

    def validate(self, *, sample_limit: int = VALIDATE_SAMPLE_LIMIT,
                 seed: int = 0) -> None:
        """Route conformance: minimal, connected, endpoint-correct.

        Exhaustive over all pairs up to ``sample_limit`` nodes (the
        paper-scale machines); above that, all pairs among a seeded
        deterministic node sample — O(limit²) instead of O(n²) at 256
        cores.  Raises ``AssertionError`` on the first violation.
        """
        nodes = self._validate_nodes(sample_limit, seed)
        for src in nodes:
            for dst in nodes:
                if self.hops(src, dst) != self.hops(dst, src):
                    raise AssertionError(
                        f"asymmetric hops {src}<->{dst}")
                path = self.route(src, dst)
                if path[0] != src or path[-1] != dst:
                    raise AssertionError(
                        f"route {src}->{dst} has wrong endpoints: {path}")
                if len(path) - 1 != self.hops(src, dst):
                    raise AssertionError(
                        f"non-minimal route {src}->{dst}: {path}")
                for a, b in zip(path, path[1:]):
                    if self.hops(a, b) != 1:
                        raise AssertionError(
                            f"route {src}->{dst} jumps {a}->{b}")


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------
_REGISTRY: dict[str, type[Topology]] = {}


def register_topology(cls: type[Topology]) -> type[Topology]:
    """Class decorator: register a :class:`Topology` under ``cls.name``."""
    name = getattr(cls, "name", "")
    if not name or not isinstance(name, str):
        raise ValueError(f"topology class {cls!r} needs a 'name' attribute")
    if name in _REGISTRY:
        raise ValueError(f"topology {name!r} already registered")
    _REGISTRY[name] = cls
    return cls


def get_topology(name: str) -> type[Topology]:
    """The registered topology class, or ``KeyError`` naming the options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; registered: "
            f"{', '.join(available_topologies())}"
        ) from None


def available_topologies() -> tuple[str, ...]:
    """Registered topology names, sorted."""
    return tuple(sorted(_REGISTRY))


@lru_cache(maxsize=256)
def build_topology(cfg: "NocConfig") -> Topology:
    """The (memoized) topology object of a config.  ``NocConfig`` is
    frozen and hashable, so every machine built from the same config
    shares one instance."""
    return get_topology(cfg.topology)(cfg)


# ---------------------------------------------------------------------
# Implementations
# ---------------------------------------------------------------------
@register_topology
class MeshTopology(Topology):
    """The paper's 2D mesh with dimension-ordered XY routing."""

    name = "mesh"

    @classmethod
    def default_directory_nodes(cls, cfg: "NocConfig") -> tuple[int, ...]:
        # Table 1's placement: the four mesh corners
        c, r = cfg.mesh_cols, cfg.mesh_rows
        return tuple(sorted({0, c - 1, c * (r - 1), c * r - 1}))

    def coords(self, node: int) -> tuple[int, int]:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside mesh")
        return node % self.cfg.mesh_cols, node // self.cfg.mesh_cols

    def hops(self, src: int, dst: int) -> int:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def route(self, src: int, dst: int) -> list[int]:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        cols = self.cfg.mesh_cols
        path = [src]
        x, y = sx, sy
        step = 1 if dx > x else -1
        while x != dx:
            x += step
            path.append(y * cols + x)
        step = 1 if dy > y else -1
        while y != dy:
            y += step
            path.append(y * cols + x)
        return path

    def summary(self) -> str:
        cfg = self.cfg
        return (f"{cfg.mesh_cols}x{cfg.mesh_rows} Mesh, XY Routing, "
                f"{cfg.router_latency}-cycle router, "
                f"{cfg.link_latency}-cycle link, "
                f"{len(cfg.directory_nodes)} Directory Controllers "
                f"at Mesh Corners")


def _spread_nodes(n: int, k: int = 4) -> tuple[int, ...]:
    """Up to ``k`` node ids spread evenly over ``range(n)``."""
    k = min(k, n)
    return tuple(sorted({(i * n) // k for i in range(k)}))


@register_topology
class RingTopology(Topology):
    """Bidirectional ring; the shorter direction wins, ties clockwise."""

    name = "ring"

    @classmethod
    def default_directory_nodes(cls, cfg: "NocConfig") -> tuple[int, ...]:
        return _spread_nodes(cfg.num_nodes)

    def coords(self, node: int) -> tuple[int, int]:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside ring")
        return node, 0

    def hops(self, src: int, dst: int) -> int:
        self.coords(src), self.coords(dst)  # range checks
        d = abs(src - dst)
        return min(d, self.num_nodes - d)

    def route(self, src: int, dst: int) -> list[int]:
        n = self.num_nodes
        self.coords(src), self.coords(dst)
        fwd = (dst - src) % n
        back = (src - dst) % n
        step = 1 if fwd <= back else -1
        path = [src]
        node = src
        for _ in range(min(fwd, back)):
            node = (node + step) % n
            path.append(node)
        return path

    def summary(self) -> str:
        return (f"{self.num_nodes}-node Bidirectional Ring, "
                f"{self.cfg.router_latency}-cycle router, "
                f"{self.cfg.link_latency}-cycle link, "
                f"{len(self.cfg.directory_nodes)} Directory Controllers")


@register_topology
class CrossbarTopology(Topology):
    """Single-stage crossbar: every distinct pair is one hop."""

    name = "crossbar"

    @classmethod
    def default_directory_nodes(cls, cfg: "NocConfig") -> tuple[int, ...]:
        return _spread_nodes(cfg.num_nodes)

    def coords(self, node: int) -> tuple[int, int]:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside crossbar")
        return node, 0

    def hops(self, src: int, dst: int) -> int:
        self.coords(src), self.coords(dst)
        return 0 if src == dst else 1

    def route(self, src: int, dst: int) -> list[int]:
        self.coords(src), self.coords(dst)
        return [src] if src == dst else [src, dst]

    def summary(self) -> str:
        return (f"{self.num_nodes}-port Crossbar, "
                f"{self.cfg.router_latency}-cycle router, "
                f"{self.cfg.link_latency}-cycle link, "
                f"{len(self.cfg.directory_nodes)} Directory Controllers")


@register_topology
class ChipletTopology(Topology):
    """Chiplet sub-meshes joined through per-chiplet gateway nodes.

    ``NocConfig.chiplets`` copies of a ``mesh_cols x mesh_rows`` XY
    mesh; node ids are chiplet-major (chiplet ``c`` owns
    ``[c*per, (c+1)*per)`` with ``per = cols*rows``).  Local node 0 of
    each chiplet is its gateway; a cross-chiplet message routes to the
    source gateway, takes one gateway-to-gateway hop across the IO die
    at ``chiplet_link_latency``, then routes to the destination.  This
    is the ``Mesh_IO_Center`` shape: intra-chiplet links keep
    ``link_latency``, the die crossing is strictly slower.
    """

    name = "chiplet"

    @classmethod
    def check_config(cls, cfg: "NocConfig") -> None:
        if cfg.chiplets < 2:
            raise ValueError(
                f"topology 'chiplet' needs NocConfig.chiplets >= 2, "
                f"got {cfg.chiplets}"
            )
        if cfg.chiplet_link_latency < cfg.link_latency:
            raise ValueError(
                "chiplet_link_latency below link_latency: the die "
                "crossing cannot be faster than an on-die link"
            )

    @classmethod
    def default_directory_nodes(cls, cfg: "NocConfig") -> tuple[int, ...]:
        # one directory slice per chiplet, at its gateway
        per = cfg.mesh_cols * cfg.mesh_rows
        return tuple(c * per for c in range(cfg.chiplets))

    # -- chiplet arithmetic ---------------------------------------------
    @property
    def _per(self) -> int:
        return self.cfg.mesh_cols * self.cfg.mesh_rows

    def chiplet_of(self, node: int) -> int:
        """Which chiplet owns a node id."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside chiplet array")
        return node // self._per

    def gateway(self, chiplet: int) -> int:
        """Global id of a chiplet's gateway (its local node 0)."""
        return chiplet * self._per

    def _local_coords(self, node: int) -> tuple[int, int]:
        lid = node % self._per
        return lid % self.cfg.mesh_cols, lid // self.cfg.mesh_cols

    def _local_hops(self, a: int, b: int) -> int:
        ax, ay = self._local_coords(a)
        bx, by = self._local_coords(b)
        return abs(ax - bx) + abs(ay - by)

    def _local_route(self, a: int, b: int) -> list[int]:
        """XY route within one chiplet, in global node ids."""
        base = (a // self._per) * self._per
        ax, ay = self._local_coords(a)
        bx, by = self._local_coords(b)
        cols = self.cfg.mesh_cols
        path = [a]
        x, y = ax, ay
        step = 1 if bx > x else -1
        while x != bx:
            x += step
            path.append(base + y * cols + x)
        step = 1 if by > y else -1
        while y != by:
            y += step
            path.append(base + y * cols + x)
        return path

    # -- Topology interface ---------------------------------------------
    def coords(self, node: int) -> tuple[int, int]:
        chip = self.chiplet_of(node)
        lx, ly = self._local_coords(node)
        return chip * self.cfg.mesh_cols + lx, ly

    def hops(self, src: int, dst: int) -> int:
        cs, cd = self.chiplet_of(src), self.chiplet_of(dst)
        if cs == cd:
            return self._local_hops(src, dst)
        return (self._local_hops(src, self.gateway(cs)) + 1
                + self._local_hops(self.gateway(cd), dst))

    def route(self, src: int, dst: int) -> list[int]:
        cs, cd = self.chiplet_of(src), self.chiplet_of(dst)
        if cs == cd:
            return self._local_route(src, dst)
        head = self._local_route(src, self.gateway(cs))
        tail = self._local_route(self.gateway(cd), dst)
        return head + tail

    def link_latency(self, a: int, b: int) -> int:
        if self.chiplet_of(a) != self.chiplet_of(b):
            return self.cfg.chiplet_link_latency
        return self.cfg.link_latency

    def path_latency(self, src: int, dst: int) -> int:
        cfg = self.cfg
        per_hop = cfg.router_latency + cfg.link_latency
        cs, cd = self.chiplet_of(src), self.chiplet_of(dst)
        if cs == cd:
            return self._local_hops(src, dst) * per_hop
        local = (self._local_hops(src, self.gateway(cs))
                 + self._local_hops(self.gateway(cd), dst))
        return local * per_hop + cfg.router_latency + cfg.chiplet_link_latency

    def summary(self) -> str:
        cfg = self.cfg
        return (f"{cfg.chiplets}x({cfg.mesh_cols}x{cfg.mesh_rows}) "
                f"Chiplet Mesh, XY Routing, "
                f"{cfg.router_latency}-cycle router, "
                f"{cfg.link_latency}-cycle intra-/"
                f"{cfg.chiplet_link_latency}-cycle inter-chiplet link, "
                f"{len(cfg.directory_nodes)} per-chiplet "
                f"Directory Controllers")
