"""Unified snapshotable machine state: whole-machine checkpoint/restore.

Every stateful component exposes the same two-method surface —
``snapshot() -> StateBlob`` returning plain picklable data, and
``restore(blob)`` adopting it — and this module composes them into one
:class:`MachineCheckpoint`: engine clock + tagged event queue, cores,
L1/L2 arrays and write-back buffers, directory entries, DRAM bank
timing, backing memory, scribe programming, sync objects,
fault-injector RNG stream, and the full :class:`~repro.common.stats`
counter tree.  The NoC has no layer of its own: its traffic counters
live in the stats tree, and a message in flight is a queued delivery.

**Safe points.**  Most event-queue entries are untagged callbacks (an
in-flight coherence transaction's continuation, or a NoC delivery)
that cannot be rebuilt from data.  A checkpoint is therefore only
capturable at a *safe point*: every queued event carries a restorable
tag (see ``Engine.schedule_tagged``), so nothing is on the wire; every
L1 has no outstanding MSHR; and every directory agent is quiescent.
Any component that is mid-transaction raises
:class:`~repro.sim.engine.CheckpointUnsupported`; the
:class:`CheckpointRecorder` treats that as "try again at the next
boundary", never as an error.  Untagged events *block* capture by
construction, so a newly added periodic service that forgets to tag
itself degrades checkpointing gracefully instead of corrupting it.
Restore resolves each queued tag through the machine's own tag table
(``Machine.tags``), filled at construction by every site that
schedules a tag, and carries the state of each service in the
machine's service table (``Machine.services``).

**Fingerprints.**  Each checkpoint is stamped with a BLAKE2b digest of
the machine's observable state (every counter, the backing-memory image,
each L1's canonical array arrays) — the same payload the protocol
fuzzer's differential oracle compares — so a restore can be verified and
two machines can be compared for bit-identity in O(1).

Layering: this module knows only the duck-typed component surface; it
never imports :mod:`repro.sim.machine` (the machine lazily imports the
recorder instead), so there is no import cycle.
"""
from __future__ import annotations

import argparse
import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from repro.sim.engine import CheckpointUnsupported

__all__ = [
    "StateBlob", "Snapshotable", "CheckpointUnsupported",
    "fingerprint_payload", "machine_fingerprint",
    "MachineCheckpoint", "CheckpointRecorder",
]

#: every component snapshot is a plain dict of picklable builtins
StateBlob = dict


@runtime_checkable
class Snapshotable(Protocol):
    """The uniform two-method surface every stateful component exposes."""

    def snapshot(self) -> StateBlob:
        """Restorable copy of all mutable state, as picklable builtins
        and numpy arrays (never aliasing live state)."""
        ...

    def restore(self, blob: StateBlob) -> None:
        """Adopt a :meth:`snapshot` blob, leaving this component
        bit-identical to the captured one; never mutates ``blob``."""
        ...


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def fingerprint_payload(machine) -> dict:
    """Complete observable state of a machine: every counter, the
    backing-memory image, and each L1's canonical array snapshot
    (:meth:`repro.cache.sram.CacheArray.state_arrays`).

    This is the payload the fuzzer's differential oracle compares
    field-by-field; :func:`machine_fingerprint` folds it into one hash.
    """
    from repro.coherence.transitions import STATE_CODES

    caches = []
    for l1 in machine.l1s:
        tags, states, words = l1.array.state_arrays(
            lambda s: STATE_CODES.get(s, -1))
        caches.append((tags.tobytes(), states.tobytes(), words.tobytes()))
    return {
        "stats": machine.stats.flatten(),
        "memory": machine.backing.memory_image(),
        "caches": caches,
    }


def machine_fingerprint(machine) -> str:
    """BLAKE2b hex digest over the canonically-ordered
    :func:`fingerprint_payload` — equal digests ⇔ bit-identical
    observable machines."""
    payload = fingerprint_payload(machine)
    h = hashlib.blake2b(digest_size=16)
    for name, value in sorted(payload["stats"].items()):
        h.update(name.encode())
        h.update(b"=")
        h.update(repr(value).encode())
        h.update(b";")
    for addr in sorted(payload["memory"]):
        h.update(repr((addr, payload["memory"][addr])).encode())
    for tags_b, states_b, words_b in payload["caches"]:
        h.update(tags_b)
        h.update(states_b)
        h.update(words_b)
    return h.hexdigest()


#: the layers every checkpoint has; the others are its services
_LAYERS = frozenset({"engine", "l1s", "dirs", "l2", "dram", "memory",
                     "cores", "barriers", "locks", "stats"})


# ----------------------------------------------------------------------
# the checkpoint
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineCheckpoint:
    """One restorable whole-machine state, stamped and fingerprinted.

    ``blob`` maps component names to their :meth:`snapshot` output; the
    engine blob additionally carries the tagged event queue.  Capture
    with :meth:`capture`, re-animate with :meth:`restore_into`, persist
    with :meth:`save`/:meth:`load` (pickle, or ``.npz``-wrapped pickle
    when the path ends in ``.npz``).
    """

    cycle: int
    fingerprint: str
    blob: StateBlob

    # -- capture -------------------------------------------------------
    @classmethod
    def capture(cls, machine) -> "MachineCheckpoint":
        """Snapshot every component of ``machine`` at the current cycle.

        Raises :class:`CheckpointUnsupported` when the machine is not at
        a safe point (an untagged queued event such as an in-flight NoC
        message, an outstanding MSHR, a busy directory entry, or a core
        state the program layer cannot rebuild).
        """
        # cheap O(components) precheck before any state is copied —
        # the recorder probes unsafe boundaries far more often than it
        # captures, so rejection must not cost a memory-image copy
        if not machine.engine.all_tagged():
            raise CheckpointUnsupported("untagged event in queue")
        for l1 in machine.l1s:
            if l1.mshrs.outstanding():
                raise CheckpointUnsupported(f"L1 {l1.node} has MSHRs")
        for agent in machine.agents.values():
            if not agent.quiescent():
                raise CheckpointUnsupported(f"directory {agent.node} busy")
        blob: StateBlob = {
            "engine": machine.engine.snapshot(),
            "l1s": [l1.snapshot() for l1 in machine.l1s],
            "dirs": {node: agent.snapshot()
                     for node, agent in machine.agents.items()},
            "l2": [slc.snapshot() for slc in machine.l2_slices],
            "dram": machine.dram.snapshot(),
            "memory": machine.backing.memory_image(),
            "cores": {cid: core.snapshot()
                      for cid, core in enumerate(machine.cores)
                      if core is not None},
            "barriers": [b.snapshot() for b in machine._barriers],
            "locks": [lk.snapshot() for lk in machine._locks],
            "stats": machine.stats.snapshot(),
        }
        for key, service in machine.services.items():
            blob[key] = service.snapshot()
        return cls(
            cycle=machine.engine.now,
            fingerprint=machine_fingerprint(machine),
            blob=blob,
        )

    # -- restore -------------------------------------------------------
    def restore_into(self, machine, verify: bool = False) -> None:
        """Adopt this checkpoint's state on ``machine``.

        The machine must be *shape-compatible*: built from the same
        config and the same deterministic workload build (same cores
        bound, same sync objects created in the same order) — the
        program layer replays generators from the workload's own
        factories, so a mismatched build fails loudly.  With
        ``verify=True`` the restored machine's fingerprint is checked
        against the captured one.
        """
        blob = self.blob
        services = set(blob) - _LAYERS
        if services != set(machine.services):
            # an older format kept the NoC class counts in a 'network'
            # layer, outside the stats tree: resuming one would restart
            # them at zero
            raise ValueError(
                f"checkpoint services {sorted(services)} != machine "
                f"services {sorted(machine.services)} (different verify/"
                "faults/obs config, or an older format?)")
        if len(blob["l1s"]) != len(machine.l1s):
            raise ValueError(
                f"checkpoint has {len(blob['l1s'])} L1s, "
                f"machine has {len(machine.l1s)}")
        if set(blob["dirs"]) != set(machine.agents):
            raise ValueError(
                f"checkpoint directory nodes {sorted(blob['dirs'])} != "
                f"machine directory nodes {sorted(machine.agents)}")
        if len(blob["l2"]) != len(machine.l2_slices):
            raise ValueError("checkpoint/machine L2 slice count mismatch")
        bound = {cid for cid, c in enumerate(machine.cores) if c is not None}
        if set(blob["cores"]) != bound:
            raise ValueError(
                f"checkpoint cores {sorted(blob['cores'])} != "
                f"machine's bound cores {sorted(bound)}")
        if (len(blob["barriers"]) != len(machine._barriers)
                or len(blob["locks"]) != len(machine._locks)):
            raise ValueError("checkpoint/machine sync-object mismatch "
                             "(different workload build?)")

        for l1, sub in zip(machine.l1s, blob["l1s"]):
            l1.restore(sub)
        for node, sub in blob["dirs"].items():
            machine.agents[node].restore(sub)
        for slc, sub in zip(machine.l2_slices, blob["l2"]):
            slc.restore(sub)
        machine.dram.restore(blob["dram"])
        machine.backing.restore(blob["memory"])
        for cid, sub in blob["cores"].items():
            machine.cores[cid].restore(sub)

        def wake_for(owner: int):
            return machine.cores[owner]._wake

        for barrier, sub in zip(machine._barriers, blob["barriers"]):
            barrier.restore(sub, wake_for)
        for lock, sub in zip(machine._locks, blob["locks"]):
            lock.restore(sub, wake_for)
        machine.stats.restore(blob["stats"])
        for key, service in machine.services.items():
            service.restore(blob[key])

        def resolve(tag: tuple):
            entry = machine.tags.get(tag)
            if entry is None:
                raise ValueError(f"checkpoint event tag {tag!r} is not "
                                 "registered on this machine")
            return entry[0]

        machine.engine.restore(blob["engine"], resolve)

        if verify:
            got = machine_fingerprint(machine)
            if got != self.fingerprint:
                raise ValueError(
                    f"restored machine fingerprint {got} does not match "
                    f"checkpoint fingerprint {self.fingerprint}")

    # -- persistence ---------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist to ``path``.  Plain pickle by default; a ``.npz``
        suffix wraps the pickled bytes in a compressed numpy archive
        (key ``checkpoint``) for parity with the trace/timeline
        formats."""
        path = Path(path)
        payload = pickle.dumps(
            {"cycle": self.cycle, "fingerprint": self.fingerprint,
             "blob": self.blob},
            protocol=pickle.HIGHEST_PROTOCOL)
        if path.suffix == ".npz":
            import numpy as np
            np.savez_compressed(
                path, checkpoint=np.frombuffer(payload, dtype=np.uint8))
        else:
            path.write_bytes(payload)

    @classmethod
    def load(cls, path: str | Path) -> "MachineCheckpoint":
        """Load a checkpoint saved with :meth:`save`."""
        path = Path(path)
        if path.suffix == ".npz":
            import numpy as np
            with np.load(path) as data:
                payload = data["checkpoint"].tobytes()
        else:
            payload = path.read_bytes()
        raw = pickle.loads(payload)
        return cls(cycle=raw["cycle"], fingerprint=raw["fingerprint"],
                   blob=raw["blob"])


# ----------------------------------------------------------------------
# the recorder
# ----------------------------------------------------------------------
class CheckpointRecorder:
    """Collects periodic checkpoints while ``Machine.run`` drains the
    queue in ``period``-cycle windows (see ``VerifyConfig.
    checkpoint_period``).

    The machine calls :meth:`maybe_capture` at each window boundary; a
    boundary that is not a safe point is *skipped* (counted in
    :attr:`skipped`), never fatal — transient unsafe states (a core
    blocked mid-miss across the boundary) simply thin the checkpoint
    stream.  ``max_keep`` bounds memory by dropping the oldest."""

    def __init__(self, period: int, max_keep: int | None = None) -> None:
        if period < 1:
            raise ValueError("checkpoint period must be >= 1 cycle")
        if max_keep is not None and max_keep < 1:
            raise ValueError("max_keep must be >= 1")
        self.period = period
        self.max_keep = max_keep
        self.checkpoints: list[MachineCheckpoint] = []
        #: capture attempts that found the machine unsafe (the machine
        #: retries a few cycle-batches past each boundary, so this
        #: counts attempts, not window boundaries)
        self.skipped = 0

    def __len__(self) -> int:
        return len(self.checkpoints)

    def maybe_capture(self, machine) -> MachineCheckpoint | None:
        """Capture if the machine is at a safe point; None otherwise."""
        if (self.checkpoints
                and self.checkpoints[-1].cycle == machine.engine.now):
            return None  # nothing executed since the last capture
        try:
            ckpt = MachineCheckpoint.capture(machine)
        except CheckpointUnsupported:
            self.skipped += 1
            return None
        self.checkpoints.append(ckpt)
        if self.max_keep is not None and len(self.checkpoints) > self.max_keep:
            del self.checkpoints[0]
        return ckpt

    def latest(self) -> MachineCheckpoint | None:
        """Most recent checkpoint, or None."""
        return self.checkpoints[-1] if self.checkpoints else None


# ----------------------------------------------------------------------
# CLI: run a workload with checkpointing armed and dump the result
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """``python -m repro.sim.state --workload histogram
    --dump-checkpoint ckpt.npz`` — run a workload with periodic
    checkpointing and save the last safe-point checkpoint."""
    from dataclasses import replace

    from repro.coherence.policy import available_protocols
    from repro.harness.experiment import experiment_config
    from repro.harness.options import RunOptions
    from repro.noc.topologies import available_topologies
    from repro.workloads.registry import create

    ap = argparse.ArgumentParser(
        description="Run one workload with checkpointing armed and dump "
                    "the most recent safe-point checkpoint.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dump-checkpoint", required=True, metavar="PATH",
                    help="output path (.npz wraps pickle in numpy)")
    ap.add_argument("--d-distance", type=int, default=4)
    ap.add_argument("--num-threads", type=int, default=8)
    ap.add_argument("--scale", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--checkpoint-period", type=int, default=50_000)
    ap.add_argument("--protocol", choices=available_protocols(),
                    default="ghostwriter")
    ap.add_argument("--topology", choices=available_topologies(),
                    default="mesh")
    args = ap.parse_args(argv)

    cfg = experiment_config(
        d_distance=args.d_distance,
        num_cores=args.num_threads,
        options=RunOptions(protocol=args.protocol, topology=args.topology),
    )
    cfg = replace(cfg, verify=replace(
        cfg.verify, checkpoint_period=args.checkpoint_period))
    workload = create(args.workload, num_threads=args.num_threads,
                      seed=args.seed, scale=args.scale)
    machine = workload.prepare(cfg)
    machine.run()
    workload.collect(machine, cfg)
    rec = machine.checkpoint_recorder
    ckpt = rec.latest()
    if ckpt is None:
        print(f"no safe-point checkpoint captured "
              f"({rec.skipped} boundaries skipped); try a smaller "
              f"--checkpoint-period")
        return 1
    ckpt.save(args.dump_checkpoint)
    print(f"checkpoint @ cycle {ckpt.cycle} "
          f"(fingerprint {ckpt.fingerprint}, "
          f"{len(rec)} kept / {rec.skipped} skipped) "
          f"-> {args.dump_checkpoint}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
