"""Seeded fault injector: bit flips in caches and on the wire.

Three mechanisms, all deterministic given ``FaultConfig.seed``:

* **Cache-resident flips** — a periodic event registered with the
  machine (tag ``("flip_lottery",)``, every ``_FLIP_PERIOD`` cycles
  while cores are unfinished, so the injector never stretches the event
  queue past the end of real work) injects a fault with probability
  ``cache_rate * period / 1e6``, picking a uniformly random valid,
  stable, non-invalid L1 line and flipping ``bits`` random bits of one
  random word.
* **NoC payload flips** — each data-carrying message is corrupted with
  probability ``msg_rate`` (the payload is copied first, so the sender's
  SRAM copy is untouched — only the wire is noisy).
* **Delay jitter** — every message gets up to ``delay_jitter`` extra
  delivery cycles, uniformly at random; useful for shaking out timing
  races under the fuzzer even with both flip rates at zero.

Detection and recovery are not this module's job: the runtime invariant
monitor (:mod:`repro.verify.monitor`) catches corrupted *coherent* lines
against its golden memory and applies ``FaultConfig.policy``.  Faults in
GS/GI lines are indistinguishable from approximation error by design —
they surface only in application output quality (see
:mod:`repro.faults.sweep`).
"""
from __future__ import annotations

import random

from repro.common.config import FaultConfig
from repro.common.types import CoherenceState as CS
from repro.coherence.messages import Message

__all__ = ["FaultInjector"]

#: cadence of the cache-flip lottery; small enough that the last injector
#: event trails the end of real work by a negligible number of cycles
_FLIP_PERIOD = 256


class FaultInjector:
    """Injects the faults described by a :class:`FaultConfig` into one
    machine: construction hooks the network and registers the cache-flip
    lottery, so a machine restored from a checkpoint injects exactly as
    the uninterrupted run does."""

    def __init__(self, machine, cfg: FaultConfig) -> None:
        self.machine = machine
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.stats = machine.stats.child("faults")
        #: (cycle, where, block, word, mask) of every injected flip
        self.log: list[tuple[int, str, int, int, int]] = []
        if cfg.msg_rate or cfg.delay_jitter:
            machine.network.fault_hook = self._on_message
        if cfg.cache_rate:
            machine.register(("flip_lottery",), self._flip_lottery,
                             _FLIP_PERIOD)

    # ------------------------------------------------------------------
    # checkpoint layer
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Restorable injector state: the RNG stream and the fault log
        (so a restored run draws the *same* remaining random sequence)."""
        return {"rng": self.rng.getstate(), "log": list(self.log)}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state."""
        self.rng.setstate(blob["rng"])
        self.log = list(blob["log"])

    # ------------------------------------------------------------------
    # cache-resident upsets
    # ------------------------------------------------------------------
    def _flip_lottery(self) -> None:
        p = self.cfg.cache_rate * _FLIP_PERIOD / 1e6
        while p > 0 and self.rng.random() < min(p, 1.0):
            self.inject_cache_flip()
            p -= 1.0

    def inject_cache_flip(self) -> tuple[int, int, int] | None:
        """Flip bits in one random resident L1 word.

        Returns ``(node, block, word_offset)`` of the victim, or None when
        no line is eligible.  Also callable directly from tests to place a
        deterministic corruption.
        """
        candidates = [
            (l1, line)
            for l1 in self.machine.l1s
            for line in l1.array.iter_valid()
            if line.words is not None
            and line.state is not None
            and line.state.stable
            and line.state is not CS.I
        ]
        if not candidates:
            return None
        l1, line = self.rng.choice(candidates)
        off = self.rng.randrange(len(line.words))
        mask = self._bit_mask()
        line.words[off] ^= mask
        self.stats.cache_flips += 1
        self.log.append(
            (self.machine.engine.now, f"l1-{l1.node}", line.tag, off, mask)
        )
        return l1.node, line.tag, off

    # ------------------------------------------------------------------
    # NoC faults
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> int:
        cfg = self.cfg
        if (
            msg.words is not None
            and cfg.msg_rate
            and self.rng.random() < cfg.msg_rate
        ):
            msg.words = msg.words.copy()  # corrupt the wire, not the SRAM
            off = self.rng.randrange(len(msg.words))
            mask = self._bit_mask()
            msg.words[off] ^= mask
            self.stats.msg_flips += 1
            self.log.append(
                (self.machine.engine.now, "noc", msg.block_addr, off, mask)
            )
        if cfg.delay_jitter:
            self.stats.jittered_messages += 1
            return self.rng.randint(0, cfg.delay_jitter)
        return 0

    # ------------------------------------------------------------------
    def _bit_mask(self) -> int:
        bits = self.rng.sample(range(32), self.cfg.bits)
        mask = 0
        for b in bits:
            mask |= 1 << b
        return mask
