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

The network keeps no state of its own beyond routing.  A message in
flight is its queued delivery, ``partial(handler, msg)`` on the engine,
and :meth:`Network.in_flight` reads the queue; the traffic it carried is
the ``noc`` stats group's counters (``msgs_<class>`` per traffic class),
which the checkpoint layer saves and restores with the rest of the tree.
"""
from __future__ import annotations

from functools import partial
from typing import Callable

from repro.common.config import NocConfig
from repro.common.stats import StatGroup
from repro.common.types import MessageClass
from repro.coherence.messages import Message
from repro.noc.topologies import build_topology
from repro.obs.events import Event, EventKind
from repro.sim.engine import Engine

__all__ = ["Network"]

#: the stats-tree counter of each traffic class (the Fig. 8 breakdown)
_CLASS_KEYS = {klass: f"msgs_{klass.value}" for klass in MessageClass}


class Network:
    """Routes :class:`Message` objects between registered endpoints."""

    __slots__ = ("cfg", "topo", "engine", "stats", "block_bytes",
                 "_endpoints", "fault_hook", "bus", "_c", "_route_memo",
                 "_ctrl_bytes", "_data_bytes")

    def __init__(self, cfg: NocConfig, engine: Engine, block_bytes: int,
                 stats: StatGroup | None = None) -> None:
        self.cfg = cfg
        #: the config's route/latency model (repro.noc.topologies)
        self.topo = build_topology(cfg)
        self.engine = engine
        self.block_bytes = block_bytes
        # wire sizes: header, and header + block
        self._ctrl_bytes = cfg.control_msg_bytes
        self._data_bytes = block_bytes + cfg.control_msg_bytes
        self.stats = stats if stats is not None else StatGroup("noc")
        self._endpoints: dict[int, Callable[[Message], None]] = {}
        self._c = self.stats.counters(
            "messages", "flits", "flit_hops", "router_traversals",
            "payload_bytes", *_CLASS_KEYS.values(),
        )
        # (src, dst, payload) -> (latency, flits, flit_hops, traversals):
        # the route terms are pure functions of the mesh geometry, and a
        # run sees only a handful of distinct (endpoints, payload) pairs
        self._route_memo: dict[tuple[int, int, int],
                               tuple[int, int, int, int]] = {}
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

    # -- transport -------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Account and deliver ``msg`` after its modeled latency."""
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
            latency += self.fault_hook(msg)
        self.engine.schedule(latency, partial(handler, msg))

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
        c = self._c
        c[_CLASS_KEYS[klass]] += 1
        c["messages"] += 1
        c["flits"] += ent[1]
        c["flit_hops"] += ent[2]
        c["router_traversals"] += ent[3]
        c["payload_bytes"] += payload
        return ent[0]

    # -- introspection -----------------------------------------------------
    def in_flight(self) -> list[Message]:
        """Messages on the wire (sent, not yet delivered), in delivery
        order: the queued deliveries' arguments."""
        handlers = set(self._endpoints.values())
        return [cb.args[0] for cb in self.engine.queued()
                if type(cb) is partial and cb.func in handlers]

    def blocks_in_flight(self) -> set[int]:
        """Block addresses with at least one undelivered message."""
        return {m.block_addr for m in self.in_flight()}

    # -- reporting ---------------------------------------------------------
    def class_counts(self) -> dict[MessageClass, int]:
        """Per-class message counts (the Fig. 8 breakdown)."""
        c = self._c
        return {klass: c[key] for klass, key in _CLASS_KEYS.items()}
