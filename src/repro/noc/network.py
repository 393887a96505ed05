"""Network-on-chip transport: delivery scheduling + traffic accounting.

Latency model (documented in DESIGN.md): a message from ``src`` to ``dst``
takes the topology's path latency — ``hops * (router_latency +
link_latency)`` on the default mesh; see :mod:`repro.noc.topologies` for
ring/crossbar/chiplet — plus a serialization term
of ``flits - 1`` cycles.  There is no contention/VC arbitration model; the
paper's first-order effect — fewer coherence transactions means less
traffic, energy and stall time — is carried entirely by message counts and
hop-weighted flit counts, which we account exactly per
:class:`~repro.common.types.MessageClass` for Fig. 8 and the DSENT-style
energy model (Fig. 9).
"""
from __future__ import annotations

from typing import Callable

from repro.common.config import NocConfig
from repro.common.stats import StatGroup
from repro.common.types import MessageClass
from repro.coherence.messages import Message
from repro.noc.topologies import build_topology
from repro.obs.events import Event, EventKind
from repro.sim.engine import Engine

__all__ = ["Network"]


class Network:
    """Routes :class:`Message` objects between registered endpoints."""

    __slots__ = ("cfg", "topo", "engine", "stats", "block_bytes",
                 "_endpoints", "_class_counts", "_in_flight", "fault_hook",
                 "bus", "_c", "_route_memo", "_ctrl_bytes", "_data_bytes")

    def __init__(self, cfg: NocConfig, engine: Engine, block_bytes: int,
                 stats: StatGroup | None = None) -> None:
        self.cfg = cfg
        #: the config's route/latency model (repro.noc.topologies)
        self.topo = build_topology(cfg)
        self.engine = engine
        self.block_bytes = block_bytes
        # wire sizes (Message.payload_bytes): header, and header + block
        self._ctrl_bytes = cfg.control_msg_bytes
        self._data_bytes = block_bytes + cfg.control_msg_bytes
        self.stats = stats if stats is not None else StatGroup("noc")
        self._endpoints: dict[int, Callable[[Message], None]] = {}
        # eagerly materialize the Fig. 8 class counters
        self._class_counts = {klass: 0 for klass in MessageClass}
        self._c = self.stats.counters(
            "messages", "flits", "flit_hops", "router_traversals",
            "payload_bytes",
        )
        # (src, dst, payload) -> (latency, flits, flit_hops, traversals):
        # the route terms are pure functions of the mesh geometry, and a
        # run sees only a handful of distinct (endpoints, payload) pairs
        self._route_memo: dict[tuple[int, int, int],
                               tuple[int, int, int, int]] = {}
        #: messages sent but not yet delivered (id -> message); lets the
        #: invariant monitor skip blocks with traffic in flight and the
        #: watchdog dump what is stuck on the wire
        self._in_flight: dict[int, Message] = {}
        #: optional fault-injection hook, called once per send; may
        #: corrupt ``msg.words`` and returns extra delivery delay cycles
        self.fault_hook: Callable[[Message], int] | None = None
        #: event bus (repro.obs); None keeps send() to one attribute check
        self.bus = None

    def register(self, node: int, handler: Callable[[Message], None]) -> None:
        """Bind the message handler for a mesh node (one per node)."""
        if not 0 <= node < self.cfg.num_nodes:
            raise ValueError(f"node {node} outside mesh")
        if node in self._endpoints:
            raise ValueError(f"node {node} already registered")
        self._endpoints[node] = handler

    def clear_endpoints(self) -> None:
        """Drop every node's handler.  The handlers hold the controllers,
        which hold this network, so the machine clears them when its run
        ends to let the whole machine be freed by reference counting."""
        self._endpoints.clear()

    # -- transport -------------------------------------------------------
    def send(self, msg: Message, extra_delay: int = 0) -> None:
        """Account and deliver ``msg`` after its modeled latency.

        ``extra_delay`` lets a sender fold local processing time (e.g. an
        L2 array access) into the same scheduling step.
        """
        handler = self._endpoints.get(msg.dst)
        if handler is None:
            raise ValueError(f"no endpoint registered at node {msg.dst}")
        mtype = msg.mtype
        payload = (self._data_bytes if mtype.carries_data
                   else self._ctrl_bytes)
        latency = self._entry(msg.src, msg.dst, payload, mtype.klass)
        bus = self.bus
        if bus is not None:
            bus.emit(Event(
                self.engine.now, EventKind.MSG, msg.src, msg.block_addr,
                mtype.label, mtype.klass.value, msg.dst,
            ))
        if self.fault_hook is not None:
            extra_delay += self.fault_hook(msg)
        in_flight = self._in_flight
        in_flight[id(msg)] = msg

        def deliver() -> None:
            del in_flight[id(msg)]
            handler(msg)

        self.engine.schedule(latency + extra_delay, deliver)

    def account_transfer(
        self, src: int, dst: int, data: bool,
        klass: MessageClass = MessageClass.OTHER,
    ) -> int:
        """Account an internal transfer (e.g. directory <-> L2 slice) and
        return its latency, without delivering a message object.  Used for
        hops the home agent orchestrates directly."""
        payload = self._data_bytes if data else self._ctrl_bytes
        return self._entry(src, dst, payload, klass)

    def _entry(self, src: int, dst: int, payload: int,
               klass: MessageClass) -> int:
        """Account one transfer and return its latency (memoized route)."""
        key = (src, dst, payload)
        ent = self._route_memo.get(key)
        if ent is None:
            cfg, topo = self.cfg, self.topo
            flits = cfg.flits(payload)
            ent = (
                cfg.message_latency(src, dst, payload),
                flits,
                flits * topo.hops(src, dst),
                flits * topo.route_routers(src, dst),
            )
            self._route_memo[key] = ent
        self._class_counts[klass] += 1
        c = self._c
        c["messages"] += 1
        c["flits"] += ent[1]
        c["flit_hops"] += ent[2]
        c["router_traversals"] += ent[3]
        c["payload_bytes"] += payload
        return ent[0]

    # -- introspection -----------------------------------------------------
    def in_flight(self) -> list[Message]:
        """Messages currently on the wire (sent, not yet delivered)."""
        return list(self._in_flight.values())

    def blocks_in_flight(self) -> set[int]:
        """Block addresses with at least one undelivered message."""
        return {m.block_addr for m in self._in_flight.values()}

    # -- checkpoint layer --------------------------------------------------
    def snapshot(self) -> dict:
        """Restorable transport state: the per-class message counters.

        Requires an empty wire — an undelivered :class:`Message`'s
        ``deliver`` closure cannot round-trip, so checkpoints are only
        taken when nothing is in flight."""
        from repro.sim.engine import CheckpointUnsupported

        if self._in_flight:
            raise CheckpointUnsupported(
                f"{len(self._in_flight)} message(s) in flight; snapshot "
                "requires an empty network"
            )
        return {"class_counts": {k.value: n
                                 for k, n in self._class_counts.items()}}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state (the route memo is pure cache)."""
        counts = blob["class_counts"]
        self._class_counts = {klass: counts[klass.value]
                              for klass in MessageClass}
        self._in_flight = {}

    # -- reporting ---------------------------------------------------------
    def class_counts(self) -> dict[MessageClass, int]:
        """Per-class message counts (the Fig. 8 breakdown)."""
        return dict(self._class_counts)

    def finalize_stats(self) -> None:
        """Copy class counts into the stats tree for flattening."""
        for klass, n in self._class_counts.items():
            setattr(self.stats, f"msgs_{klass.value}", n)
