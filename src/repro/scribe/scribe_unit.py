"""The scribe comparator module of the modified cache controller (Fig. 6).

In hardware this is a bank of XNOR equality comparators sitting beside the
data RAM: on a scribble, the incoming write word (W) is compared against
the resident block word (B) under the currently-programmed d-distance, and
the ``approx`` signal enables the approximate coherence transitions.  The
module is (re)programmed by the ``setaprx`` instruction and disabled by
``endaprx``.

We model it as a small stateful object owned by each L1 controller.  It
also keeps the instrumentation the evaluation needs: a histogram of
observed store d-distances (Fig. 2) and pass/fail counts.
"""
from __future__ import annotations

from repro.common.stats import StatGroup
from repro.common.types import WORD_BITS, WORD_MASK
from repro.obs.events import Event, EventKind
from repro.scribe.similarity import is_similar_arithmetic, similarity_mask

__all__ = ["ScribeUnit"]


class ScribeUnit:
    """Per-L1 comparator state + instrumentation.

    Hot-path layout: the comparator mask for the programmed d-distance
    is memoized at (re)program time, the Fig. 2 histogram's bucket dict
    and the pass/fail counters are bound directly, so the per-store
    ``observe``/``check`` calls do one XOR + mask compare and one dict
    increment each — no attribute-protocol dispatch, no allocation.
    """

    __slots__ = ("d_distance", "enabled", "mode", "stats", "_hist",
                 "_mask", "_hist_counts", "_counters", "node", "engine",
                 "bus", "probe")

    def __init__(self, d_distance: int = 0, enabled: bool = False,
                 stats: StatGroup | None = None,
                 mode: str = "bitwise", node: int = -1,
                 engine=None) -> None:
        if not 0 <= d_distance <= WORD_BITS:
            raise ValueError(f"d-distance out of range: {d_distance}")
        if mode not in ("bitwise", "arithmetic"):
            raise ValueError(f"unknown similarity mode {mode!r}")
        self.d_distance = d_distance
        self.enabled = enabled
        self.mode = mode
        self.stats = stats if stats is not None else StatGroup("scribe")
        self._hist = self.stats.histogram("store_d_distance")
        self._hist_counts = self._hist.counts
        self._mask = similarity_mask(d_distance)
        self._counters = self.stats.counters("passes", "fails", "reprograms")
        self.node = node
        self.engine = engine
        #: event bus (repro.obs); None on the enabled-check path keeps
        #: the comparator emission to one attribute check
        self.bus = None
        #: decision-trace probe (repro.sim.batch): a list that records
        #: every comparator decision as
        #: ``(write_word, block_word, programmed_d, ok)``;
        #: None keeps the hot path to a single attribute check
        self.probe = None

    # -- setaprx / endaprx --------------------------------------------
    def program(self, d: int) -> None:
        """``setaprx d`` — reprogram the comparator and enable it."""
        self._mask = similarity_mask(d)  # validates d
        self.d_distance = d
        self.enabled = True
        self._counters["reprograms"] += 1

    def disable(self) -> None:
        """``endaprx`` — disable approximate transitions."""
        self.enabled = False

    # -- per-store checks ---------------------------------------------
    def observe(self, write_word: int, block_word: int) -> None:
        """Record a store's d-distance for Fig. 2 value-similarity profiling
        ("irrespective of coherence state")."""
        self._hist_counts[
            ((write_word ^ block_word) & WORD_MASK).bit_length()
        ] += 1

    def observe_bulk(self, buckets) -> None:
        """Vectorized :meth:`observe`: fold per-bucket counts into the
        Fig. 2 histogram in one pass.

        ``buckets`` is a ``d_distance_array`` output (one d-distance per
        observed store); the fast lane hands a whole hit run's worth at
        once instead of one dict increment per store.
        """
        import numpy as np

        counts = np.bincount(buckets)
        hist = self._hist_counts
        for d, n in enumerate(counts.tolist()):
            if n:
                hist[d] += n

    def count_passes(self, n: int) -> None:
        """Vectorized pass accounting: ``n`` comparator checks passed.

        The fast lane only merges scribbles whose checks *pass* (a
        failing check is a run break executed scalar), so its bulk
        update is always on the pass counter.
        """
        self._counters["passes"] += n

    def check(self, write_word: int, block_word: int,
              block: int = -1) -> bool:
        """The ``approx`` output signal: True when the scribble may be
        serviced approximately under the programmed d-distance.

        ``block`` only labels the emitted scribble event.
        """
        if not self.enabled:
            return False
        if self.mode == "arithmetic":
            ok = is_similar_arithmetic(write_word, block_word,
                                       self.d_distance)
        else:
            ok = (write_word ^ block_word) & self._mask == 0
        self._counters["passes" if ok else "fails"] += 1
        if self.probe is not None:
            self.probe.append(
                (write_word, block_word, self.d_distance, ok))
        bus = self.bus
        if bus is not None:
            bus.emit(Event(
                self.engine.now if self.engine is not None else 0,
                EventKind.SCRIBBLE, self.node, block,
                "accept" if ok else "reject", "",
                ((write_word ^ block_word) & WORD_MASK).bit_length(),
            ))
        return ok

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Restorable comparator state (the mask is derived; the stats
        live in the machine's StatGroup tree and restore there)."""
        return {"d_distance": self.d_distance, "enabled": self.enabled}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state without counting a reprogram."""
        self.d_distance = blob["d_distance"]
        self._mask = similarity_mask(self.d_distance)
        self.enabled = blob["enabled"]
