"""Coherence message objects exchanged over the NoC.

A :class:`Message` is a plain record; routing/latency/energy accounting
happens in :mod:`repro.noc.network`.  ``requestor`` carries the original
requesting L1's node id through forwards so owners can reply directly
(three-hop protocol).
"""
from __future__ import annotations

from repro.common.types import MessageType

__all__ = ["Message", "ProtocolError"]


class ProtocolError(RuntimeError):
    """An impossible protocol state was reached — always a simulator bug,
    never a workload condition."""


class Message:
    """One coherence message: type, block, src/dst nodes, and payload."""
    __slots__ = ("mtype", "block_addr", "src", "dst", "requestor", "words",
                 "stale", "addr", "value", "shared")

    def __init__(
        self,
        mtype: MessageType,
        block_addr: int,
        src: int,
        dst: int,
        *,
        requestor: int | None = None,
        words: list[int] | None = None,
        stale: bool = False,
        addr: int | None = None,
        value: int | None = None,
        shared: bool = False,
    ) -> None:
        if mtype.carries_data and words is None:
            raise ProtocolError(f"{mtype.label} must carry data")
        self.mtype = mtype
        self.block_addr = block_addr
        self.src = src
        self.dst = dst
        #: original requesting node for forwarded requests
        self.requestor = requestor
        #: functional block contents for data-bearing messages
        self.words = words
        #: marks a directory ACK for a PUT that lost a race (discard)
        self.stale = stale
        #: update-hybrid UPGRADE: byte address and value of the store, so
        #: the home can apply it and push the result to the sharers
        self.addr = addr
        self.value = value
        #: marks an upgrade-grant ACK that leaves the requestor in S (the
        #: directory fanned the write out as UPDATEs instead of INVs)
        self.shared = shared

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = f", req={self.requestor}" if self.requestor is not None else ""
        return (
            f"Message({self.mtype.label} {self.block_addr:#x} "
            f"{self.src}->{self.dst}{extra})"
        )
