"""Metrics timelines: periodic StatGroup sampling into columnar series.

End-of-run counter totals cannot show *when* an invalidation burst
happened or how long GS/GI residency windows last — the time-resolved
behavior behind Figs. 7–12.  A :class:`MetricsTimeline` attached to a
machine samples the interesting counters every ``timeline_interval``
cycles (plus once at the end of the run) and freezes them into an
immutable columnar :class:`Timeline` with an ``.npz`` round-trip,
mirroring :class:`repro.trace.record.Trace`.

Multi-run files: :func:`save_merged` packs many labeled timelines into
one ``.npz`` (keys ``label/column``), which is how the CLI merges the
per-run timelines of a ``--jobs N`` sweep; :func:`load_merged` splits
them back out.
"""
from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.common.types import CoherenceState

__all__ = ["DEFAULT_TIMELINE_INTERVAL", "Timeline", "MetricsTimeline",
           "save_merged", "load_merged"]

#: Sampling period used when tracing is requested without an explicit
#: interval (the CLI's ``--trace-events`` without ``--timeline-interval``).
DEFAULT_TIMELINE_INTERVAL = 4096

#: L1 counters sampled cumulatively each tick (summed over all L1s).
_L1_COUNTERS = (
    "loads", "stores", "load_misses", "store_misses", "approx_load_hits",
    "approx_store_hits", "gs_serviced", "gi_serviced", "gs_store_hits",
    "gi_store_hits", "invalidations", "gi_timeout_invalidations",
    "approx_data_dropped",
)


class Timeline:
    """An immutable set of equally-long named numpy columns."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        if not columns:
            raise ValueError("timeline needs at least one column")
        self.columns = {k: np.asarray(v) for k, v in columns.items()}
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError("timeline columns have mismatched lengths")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        return (self.columns.keys() == other.columns.keys()
                and all(np.array_equal(v, other.columns[k])
                        for k, v in self.columns.items()))

    __hash__ = None  # mutable ndarray payload

    def column(self, name: str) -> np.ndarray:
        """One named series."""
        return self.columns[name]

    def records(self) -> list[dict[str, Any]]:
        """Row records (uniform keys), for the harness.export writers."""
        names = list(self.columns)
        return [
            {name: self.columns[name][i].item() for name in names}
            for i in range(len(self))
        ]

    # -- persistence ---------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist as compressed ``.npz`` (one array per column)."""
        np.savez_compressed(Path(path), **self.columns)

    @classmethod
    def load(cls, path: str | Path) -> "Timeline":
        """Load a timeline saved with :meth:`save`."""
        with np.load(Path(path)) as data:
            return cls({name: data[name] for name in data.files})


def save_merged(labeled: Sequence[tuple[str, Timeline]],
                path: str | Path) -> None:
    """Pack labeled timelines into one ``.npz`` keyed ``label/column``.

    Labels must be unique and slash-free; entries are written in the
    given order, so a sorted ``labeled`` yields byte-identical files
    regardless of how the runs were scheduled (the ``--jobs N``
    bit-identity guarantee).
    """
    arrays: dict[str, np.ndarray] = {}
    seen: set[str] = set()
    for label, timeline in labeled:
        if "/" in label:
            raise ValueError(f"timeline label may not contain '/': {label!r}")
        if label in seen:
            raise ValueError(f"duplicate timeline label {label!r}")
        seen.add(label)
        for name, col in timeline.columns.items():
            arrays[f"{label}/{name}"] = col
    if not arrays:
        raise ValueError("nothing to save")
    np.savez_compressed(Path(path), **arrays)


def load_merged(path: str | Path) -> dict[str, Timeline]:
    """Inverse of :func:`save_merged`: label -> Timeline."""
    grouped: dict[str, dict[str, np.ndarray]] = {}
    with np.load(Path(path)) as data:
        for key in data.files:
            label, _, name = key.partition("/")
            grouped.setdefault(label, {})[name] = data[key]
    return {label: Timeline(cols) for label, cols in grouped.items()}


class MetricsTimeline:
    """Live periodic sampler bound to one machine.

    Registers itself with the machine as a periodic event (tag
    ``("timeline",)``, re-armed while cores are unfinished), and takes
    one final sample when the run completes so short runs still produce
    at least one row.
    """

    def __init__(self, machine, interval: int) -> None:
        if interval < 1:
            raise ValueError("timeline interval must be >= 1 cycle")
        self.machine = machine
        self.interval = interval
        self._rows: list[dict[str, float]] = []
        machine.register(("timeline",), self.sample, interval)

    def __len__(self) -> int:
        return len(self._rows)

    # -- checkpoint layer ----------------------------------------------
    def snapshot(self) -> dict:
        """Restorable sampler state: the rows collected so far."""
        return {"rows": [dict(r) for r in self._rows]}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state."""
        self._rows = [dict(r) for r in blob["rows"]]

    def finish(self) -> None:
        """Take the end-of-run sample (skipped if one just fired)."""
        if not self._rows or self._rows[-1]["cycle"] != self.machine.engine.now:
            self.sample()

    # -- sampling ------------------------------------------------------
    def sample(self) -> None:
        """Snapshot one row of counters at the current cycle."""
        m = self.machine
        row: dict[str, float] = {"cycle": m.engine.now}
        for klass, count in m.network.class_counts().items():
            row[f"msgs_{klass.value}"] = count
        noc = m.stats.child("noc")
        row["flits"] = noc.flits
        row["flit_hops"] = noc.flit_hops
        l1 = m.stats.child("l1")
        for name in _L1_COUNTERS:
            row[name] = l1.total(name)
        gs = gi = 0
        for ctrl in m.l1s:
            for line in ctrl.array.iter_valid():
                if line.state is CoherenceState.GS:
                    gs += 1
                elif line.state is CoherenceState.GI:
                    gi += 1
        row["gs_resident"] = gs
        row["gi_resident"] = gi
        self._rows.append(row)

    # -- result --------------------------------------------------------
    def result(self) -> Timeline:
        """Freeze the samples into an immutable :class:`Timeline`."""
        if not self._rows:
            self.sample()
        names = list(self._rows[0])
        return Timeline({
            name: np.asarray([row[name] for row in self._rows])
            for name in names
        })
