"""Hierarchical statistics counters.

Every simulator component owns a :class:`StatGroup`; groups nest under a
root so a finished run can be flattened into ``component.counter`` rows
for the harness/report layer.  Counters are plain ints/floats; hot paths
bump them through the live counter dict (:meth:`StatGroup.counters`)
rather than the attribute protocol.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Iterator

__all__ = ["StatGroup", "HistogramStat"]


class HistogramStat:
    """Integer-keyed histogram (used for d-distance distributions)."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()

    def add(self, key: int, n: int = 1) -> None:
        """Count ``n`` samples in bucket ``key``."""
        self.counts[key] += n

    def total(self) -> int:
        """Total samples across all buckets."""
        return sum(self.counts.values())

    def cdf(self, max_key: int) -> list[float]:
        """Cumulative fraction of samples with key <= k, for k in 0..max_key."""
        total = self.total()
        if total == 0:
            return [0.0] * (max_key + 1)
        out: list[float] = []
        running = 0
        for k in range(max_key + 1):
            running += self.counts.get(k, 0)
            out.append(running / total)
        return out

    def merge(self, other: "HistogramStat") -> None:
        """Accumulate another histogram's buckets into this one."""
        self.counts.update(other.counts)

    def as_dict(self) -> dict[int, int]:
        """Bucket counts as a plain dict, sorted by key."""
        return dict(sorted(self.counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HistogramStat({self.as_dict()})"


class StatGroup:
    """A named bag of counters with nested child groups.

    Attribute access auto-creates numeric counters::

        g = StatGroup("l1")
        g.hits += 1            # auto-initialized to 0
        g.child("noc").flits += 8
    """

    def __init__(self, name: str) -> None:
        # bypass __setattr__ bookkeeping during init
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_children", {})
        # a counter springs into existence, at 0, when first read or bumped
        object.__setattr__(self, "_values", defaultdict(int))

    # -- counters -----------------------------------------------------
    def __getattr__(self, key: str) -> Any:
        # only called when normal lookup fails
        if key.startswith("_"):
            raise AttributeError(key)
        return object.__getattribute__(self, "_values")[key]

    def __setattr__(self, key: str, value: Any) -> None:
        if key.startswith("_") or key == "name":
            object.__setattr__(self, key, value)
        else:
            self._values[key] = value

    def counters(self, *names: str) -> dict[str, Any]:
        """Hot-path view: seed ``names`` to 0 and return the *live*
        underlying counter dict.

        ``group.counters("loads")["loads"] += 1`` is the same counter as
        ``group.loads += 1`` but costs one dict item access instead of
        two attribute-protocol dispatches — components bind the dict
        once at construction and bump it in their per-access paths.  A
        name left unseeded starts at 0 on its first ``+=``, exactly as
        with attribute access, so a rarely-bumped counter stays out of
        the tree (and its snapshots) until it counts something.
        """
        values = self._values
        for name in names:
            if name.startswith("_"):
                raise ValueError(f"invalid counter name {name!r}")
            values.setdefault(name, 0)
        return values

    def bulk_add(self, name: str, n: int) -> None:
        """Add ``n`` to counter ``name`` in one update.

        The vectorized paths (the hit-run fast lane, GI flash sweeps,
        approx flushes) account for a whole batch of events at once;
        ``bulk_add`` is the single-dict-op equivalent of bumping the
        counter ``n`` times in a loop.
        """
        if name.startswith("_"):
            raise ValueError(f"invalid counter name {name!r}")
        values = self._values
        values[name] = values.get(name, 0) + n

    def histogram(self, key: str) -> HistogramStat:
        """Fetch-or-create a histogram counter."""
        h = self._values.get(key)
        if h is None:
            h = HistogramStat()
            self._values[key] = h
        elif not isinstance(h, HistogramStat):
            raise TypeError(f"stat {key!r} already holds {type(h).__name__}")
        return h

    # -- hierarchy ----------------------------------------------------
    def child(self, name: str) -> "StatGroup":
        """Fetch-or-create a nested group."""
        grp = self._children.get(name)
        if grp is None:
            grp = StatGroup(name)
            self._children[name] = grp
        return grp

    def children(self) -> dict[str, "StatGroup"]:
        """Shallow copy of the nested groups."""
        return dict(self._children)

    def values(self) -> dict[str, Any]:
        """Shallow copy of this group's counters."""
        return dict(self._values)

    # -- aggregation ----------------------------------------------------
    def flatten(self, prefix: str = "") -> dict[str, Any]:
        """All counters as ``group.subgroup.counter`` -> value."""
        base = f"{prefix}{self.name}" if prefix or self.name else self.name
        out: dict[str, Any] = {}
        for key, val in self._values.items():
            full = f"{base}.{key}" if base else key
            out[full] = val.as_dict() if isinstance(val, HistogramStat) else val
        for kid in self._children.values():
            out.update(kid.flatten(f"{base}." if base else ""))
        return out

    def merge(self, other: "StatGroup") -> None:
        """Accumulate another group's counters into this one (same shape)."""
        for key, val in other._values.items():
            if isinstance(val, HistogramStat):
                self.histogram(key).merge(val)
            else:
                self._values[key] = self._values.get(key, 0) + val
        for name, kid in other._children.items():
            self.child(name).merge(kid)

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Deep restorable copy of the whole tree (histograms included)."""
        values: dict[str, Any] = {}
        for key, val in self._values.items():
            values[key] = (
                ("__hist__", dict(val.counts))
                if isinstance(val, HistogramStat) else val
            )
        return {
            "values": values,
            "children": {name: kid.snapshot()
                         for name, kid in self._children.items()},
        }

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state **in place**.

        Components bind the live ``_values`` dict (:meth:`counters`) and
        histogram ``counts`` objects at construction, so restore mutates
        the existing containers rather than replacing them — every
        hot-path binding stays valid across a restore.
        """
        values = self._values
        hists = {k: v for k, v in values.items()
                 if isinstance(v, HistogramStat)}
        values.clear()
        for key, val in blob["values"].items():
            if isinstance(val, tuple) and len(val) == 2 and val[0] == "__hist__":
                h = hists.get(key)
                if h is None:
                    h = HistogramStat()
                h.counts.clear()
                h.counts.update(val[1])
                values[key] = h
            else:
                values[key] = val
        for name, kid_blob in blob["children"].items():
            self.child(name).restore(kid_blob)

    def total(self, key: str) -> float:
        """Sum of a counter across this group and all descendants."""
        tot = self._values.get(key, 0) or 0
        for kid in self._children.values():
            tot += kid.total(key)
        return tot

    def iter_groups(self) -> Iterator["StatGroup"]:
        """This group and every descendant, preorder."""
        yield self
        for kid in self._children.values():
            yield from kid.iter_groups()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StatGroup({self.name!r}, {len(self._values)} counters)"
