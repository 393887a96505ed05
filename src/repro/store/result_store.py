"""SQLite-backed result store: WAL journaling, migrations, integrity.

One row per committed grid point, keyed by the content address from
:mod:`repro.store.keys`.  The design goals, in order:

1. **Never serve a wrong result silently.**  Every payload is stored
   next to a BLAKE2b hash of its bytes; a row whose payload no longer
   matches (bit rot, a torn write that survived SQLite's own
   journaling) is treated as absent, deleted, and counted — the caller
   recomputes.  A database file that is itself corrupt (truncated,
   overwritten) fails to open with a clean :class:`StoreError`.
2. **Atomic per-point commits.**  Each :meth:`ResultStore.put` is its
   own transaction; a sweep killed between points loses at most the
   point in flight.  WAL journaling keeps concurrent readers (a resume
   probe, ``repro store show``) consistent while a sweep commits.
3. **Versioned schema.**  ``PRAGMA user_version`` tracks the schema;
   :data:`_MIGRATIONS` applies in order inside one transaction, so a
   store created by an older build upgrades in place.

Payloads are pickles of the committed outcome — a
:class:`~repro.harness.experiment.RunRow` (with its ``obs`` capture
stripped; captures are run-local side channels, not results) or a
*permanent* :class:`~repro.harness.parallel.GridFailure`.  Pickle is
appropriate here: the store is a local cache of this package's own
frozen dataclasses, not an interchange format.
"""
from __future__ import annotations

import hashlib
import pickle
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.store.keys import CODE_VERSION

__all__ = ["SCHEMA_VERSION", "ResultStore", "StoreError", "StoreStats",
           "open_store"]


class StoreError(RuntimeError):
    """The store database is unusable (corrupt, wrong format, locked)."""


#: Migrations, applied in order; ``PRAGMA user_version`` records how far
#: a database has been upgraded.  Append — never edit — entries.
_MIGRATIONS: tuple[str, ...] = (
    # v1: the initial schema
    """
    CREATE TABLE IF NOT EXISTS meta (
        k TEXT PRIMARY KEY,
        v TEXT NOT NULL
    );
    CREATE TABLE IF NOT EXISTS results (
        key          TEXT PRIMARY KEY,
        kind         TEXT NOT NULL CHECK (kind IN ('row', 'failure')),
        workload     TEXT NOT NULL DEFAULT '',
        protocol     TEXT NOT NULL DEFAULT '',
        seed         INTEGER,
        payload      BLOB NOT NULL,
        payload_hash TEXT NOT NULL,
        code_version TEXT NOT NULL,
        created_at   REAL NOT NULL,
        hits         INTEGER NOT NULL DEFAULT 0
    );
    CREATE INDEX IF NOT EXISTS idx_results_point
        ON results (workload, protocol, seed);
    """,
)

SCHEMA_VERSION = len(_MIGRATIONS)


def _payload_hash(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


@dataclass
class StoreStats:
    """Session counters of one :class:`ResultStore` handle.

    ``hits``/``misses`` count :meth:`ResultStore.get` probes,
    ``commits`` counts :meth:`ResultStore.put`, and ``corrupt`` counts
    rows that failed their integrity check and were evicted (each such
    probe also counts as a miss — the caller recomputes).
    """

    hits: int = 0
    misses: int = 0
    commits: int = 0
    corrupt: int = 0

    @property
    def probes(self) -> int:
        """Total ``get`` calls this session."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from the store (0.0 when idle)."""
        return self.hits / self.probes if self.probes else 0.0

    def render(self) -> str:
        """One-line summary, e.g. for sweep progress banners."""
        pct = 100.0 * self.hit_rate
        text = (f"{self.hits}/{self.probes} hits ({pct:.0f}%), "
                f"{self.commits} committed")
        if self.corrupt:
            text += f", {self.corrupt} corrupt evicted"
        return text


#: the same counters summed over every handle this process opened, so a
#: caller can report the store traffic of code that opens its own
#: handles (each :func:`~repro.harness.parallel.run_grid` does)
SESSION_STATS = StoreStats()


@dataclass(frozen=True, slots=True)
class StoredRow:
    """Metadata view of one stored row (``payload`` omitted)."""

    key: str
    kind: str
    workload: str
    protocol: str
    seed: int | None
    code_version: str
    created_at: float
    hits: int
    payload_bytes: int = field(default=0)


class ResultStore:
    """Content-addressed (key -> outcome) store over one SQLite file.

    Use as a context manager or call :meth:`close`; every write commits
    immediately, so an open handle is always crash-consistent.
    """

    def __init__(self, path: str | Path, *,
                 code_version: str = CODE_VERSION) -> None:
        self.path = Path(path)
        self.code_version = code_version
        self.stats = StoreStats()
        try:
            self._conn = sqlite3.connect(self.path)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._check_integrity()
            self._migrate()
        except sqlite3.DatabaseError as exc:
            raise StoreError(
                f"result store {self.path} is corrupt or not a store "
                f"database: {exc}"
            ) from exc

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    # -- schema --------------------------------------------------------
    def _check_integrity(self) -> None:
        """Fail fast on a damaged database file.

        ``quick_check`` walks the b-trees without verifying every index
        entry — cheap enough to run at open, and it catches truncation
        and torn pages, the failure modes a killed sweep can leave.
        """
        row = self._conn.execute("PRAGMA quick_check(1)").fetchone()
        if row is None or row[0] != "ok":
            raise sqlite3.DatabaseError(
                f"quick_check failed: {row[0] if row else 'no result'}"
            )

    def _migrate(self) -> None:
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise StoreError(
                f"result store {self.path} has schema v{version}, newer "
                f"than this build's v{SCHEMA_VERSION}; refusing to touch it"
            )
        if version == SCHEMA_VERSION:
            return
        # migrations are idempotent (IF NOT EXISTS) and user_version is
        # only advanced at the end, so a crash mid-upgrade simply re-runs
        # the remaining steps on the next open
        for step in _MIGRATIONS[version:]:
            self._conn.executescript(step)
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (k, v) VALUES "
                "('code_version', ?)", (self.code_version,))
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    @property
    def schema_version(self) -> int:
        """The database's current ``PRAGMA user_version``."""
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    # -- the content-addressed map -------------------------------------
    def get(self, key: str) -> Any | None:
        """The committed outcome under ``key``, or ``None``.

        A row that fails its payload-hash check or does not unpickle is
        **evicted and reported as a miss** (never served): the sweep
        recomputes and recommits it.  Hits bump the row's persistent
        ``hits`` counter and the session :class:`StoreStats`.
        """
        row = self._conn.execute(
            "SELECT payload, payload_hash FROM results WHERE key = ?",
            (key,)).fetchone()
        if row is None:
            self.stats.misses += 1
            SESSION_STATS.misses += 1
            return None
        payload, expected = row
        if _payload_hash(payload) != expected:
            self._evict_corrupt(key)
            return None
        try:
            outcome = pickle.loads(payload)
        except Exception:
            self._evict_corrupt(key)
            return None
        with self._conn:
            self._conn.execute(
                "UPDATE results SET hits = hits + 1 WHERE key = ?", (key,))
        self.stats.hits += 1
        SESSION_STATS.hits += 1
        return outcome

    def _evict_corrupt(self, key: str) -> None:
        with self._conn:
            self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
        self.stats.corrupt += 1
        self.stats.misses += 1
        SESSION_STATS.corrupt += 1
        SESSION_STATS.misses += 1

    def put(self, key: str, outcome: Any, *, kind: str, workload: str = "",
            protocol: str = "", seed: int | None = None) -> None:
        """Commit one outcome atomically (replacing any previous row)."""
        if kind not in ("row", "failure"):
            raise ValueError(f"kind must be 'row' or 'failure', got {kind!r}")
        payload = pickle.dumps(outcome)
        with self._conn:  # its own transaction: the atomic per-point commit
            self._conn.execute(
                "INSERT OR REPLACE INTO results (key, kind, workload, "
                "protocol, seed, payload, payload_hash, code_version, "
                "created_at, hits) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                (key, kind, workload, protocol, seed, payload,
                 _payload_hash(payload), self.code_version, time.time()))
        self.stats.commits += 1
        SESSION_STATS.commits += 1

    def __contains__(self, key: str) -> bool:
        """``key in store`` without touching hit counters."""
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE key = ?", (key,)).fetchone()
        return row is not None

    def __len__(self) -> int:
        """Number of committed rows."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM results").fetchone()[0]

    # -- maintenance (the ``repro store`` subcommands) -----------------
    def rows(self) -> Iterator[StoredRow]:
        """Metadata of every stored row, newest first."""
        cur = self._conn.execute(
            "SELECT key, kind, workload, protocol, seed, code_version, "
            "created_at, hits, LENGTH(payload) FROM results "
            "ORDER BY created_at DESC")
        for r in cur:
            yield StoredRow(key=r[0], kind=r[1], workload=r[2],
                            protocol=r[3], seed=r[4], code_version=r[5],
                            created_at=r[6], hits=r[7], payload_bytes=r[8])

    def verify(self) -> list[str]:
        """Integrity-check every row; the keys that failed.

        Checks the payload hash and that the payload unpickles.  Bad
        rows are reported, **not** deleted — ``repro store verify
        --evict`` (or a later ``get``) removes them.
        """
        bad: list[str] = []
        for key, payload, expected in self._conn.execute(
                "SELECT key, payload, payload_hash FROM results"):
            if _payload_hash(payload) != expected:
                bad.append(key)
                continue
            try:
                pickle.loads(payload)
            except Exception:
                bad.append(key)
        return bad

    def evict(self, keys: list[str]) -> int:
        """Delete the given keys; returns how many rows went away."""
        with self._conn:
            cur = self._conn.executemany(
                "DELETE FROM results WHERE key = ?", [(k,) for k in keys])
        return cur.rowcount if cur.rowcount >= 0 else len(keys)

    def gc(self, *, keep_code_version: str | None = None,
           vacuum: bool = False) -> int:
        """Drop rows whose ``code_version`` is stale; returns the count.

        Stale rows can never be served again — their keys embed the old
        version — so they are pure dead weight.  ``vacuum=True`` also
        compacts the file afterwards.
        """
        keep = keep_code_version or self.code_version
        with self._conn:
            cur = self._conn.execute(
                "DELETE FROM results WHERE code_version != ?", (keep,))
        if vacuum:
            self._conn.execute("VACUUM")
        return cur.rowcount

    def summary(self) -> dict[str, Any]:
        """Aggregate view for ``repro store show``."""
        by_kind = dict(self._conn.execute(
            "SELECT kind, COUNT(*) FROM results GROUP BY kind"))
        by_workload = dict(self._conn.execute(
            "SELECT workload, COUNT(*) FROM results GROUP BY workload "
            "ORDER BY COUNT(*) DESC"))
        versions = dict(self._conn.execute(
            "SELECT code_version, COUNT(*) FROM results "
            "GROUP BY code_version"))
        total_hits, payload_bytes = self._conn.execute(
            "SELECT COALESCE(SUM(hits), 0), COALESCE(SUM(LENGTH(payload)), "
            "0) FROM results").fetchone()
        return {
            "path": str(self.path),
            "schema_version": self.schema_version,
            "code_version": self.code_version,
            "rows": len(self),
            "by_kind": by_kind,
            "by_workload": by_workload,
            "by_code_version": versions,
            "total_hits": total_hits,
            "payload_bytes": payload_bytes,
        }


def open_store(path: str | Path | None) -> ResultStore | None:
    """Open a :class:`ResultStore`, or ``None`` when no path is set.

    The one-liner every harness entry point uses to turn the optional
    ``RunOptions.store`` path into a handle.
    """
    return ResultStore(path) if path else None
