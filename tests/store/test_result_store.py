"""Unit tests for the SQLite result store and the content-address keys.

The store's contract, in order of importance: never serve a wrong
result silently (integrity hashes, quick_check at open), atomic
per-point commits, and content keys that ignore execution-only knobs
(``jobs``, ``resume``, retry budgets) so the same logical point always
finds its committed row.
"""
import dataclasses
import pickle
import sqlite3

import pytest

from repro.harness.options import RunOptions
from repro.harness.parallel import GridFailure
from repro.store import (
    CODE_VERSION, ResultStore, StoreError, canonical_point, open_store,
    options_fingerprint, point_key,
)
from repro.store.result_store import SCHEMA_VERSION, SESSION_STATS


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "results.db") as s:
        yield s


# ---------------------------------------------------------------------
# the content-addressed map
# ---------------------------------------------------------------------
class TestRoundTrip:
    def test_put_get_row(self, store):
        store.put("k1", {"cycles": 42}, kind="row", workload="hist",
                  protocol="ghostwriter", seed=7)
        assert store.get("k1") == {"cycles": 42}
        assert "k1" in store
        assert len(store) == 1

    def test_put_get_failure(self, store):
        failure = GridFailure(index=0, error_type="DeadlockError",
                              message="wedged", permanent=True)
        store.put("k2", failure, kind="failure", workload="hist")
        out = store.get("k2")
        assert isinstance(out, GridFailure)
        assert out.permanent and out.error_type == "DeadlockError"

    def test_miss_returns_none(self, store):
        assert store.get("absent") is None
        assert "absent" not in store
        assert store.stats.misses == 1 and store.stats.hits == 0

    def test_replace_is_atomic_overwrite(self, store):
        store.put("k", 1, kind="row")
        store.put("k", 2, kind="row")
        assert store.get("k") == 2
        assert len(store) == 1

    def test_hits_counted_per_row_and_per_session(self, store):
        store.put("k", 1, kind="row")
        store.get("k")
        store.get("k")
        assert store.stats.hits == 2
        [row] = list(store.rows())
        assert row.hits == 2

    def test_bad_kind_rejected(self, store):
        with pytest.raises(ValueError, match="kind"):
            store.put("k", 1, kind="banana")

    def test_open_store_none_path(self):
        assert open_store(None) is None
        assert open_store("") is None

    def test_session_stats_sum_every_handle(self, store, tmp_path):
        before = dataclasses.replace(SESSION_STATS)
        store.put("k", 1, kind="row")
        with ResultStore(tmp_path / "other.db") as other:
            other.get("k")
        store.get("k")
        assert (SESSION_STATS.commits - before.commits,
                SESSION_STATS.hits - before.hits,
                SESSION_STATS.misses - before.misses) == (1, 1, 1)

    def test_stats_render(self, store):
        store.put("k", 1, kind="row")
        store.get("k")
        store.get("absent")
        assert "1/2 hits" in store.stats.render()


# ---------------------------------------------------------------------
# integrity: tampered rows, truncated files, schema versions
# ---------------------------------------------------------------------
class TestIntegrity:
    def _tamper(self, store, key):
        conn = sqlite3.connect(store.path)
        with conn:
            conn.execute(
                "UPDATE results SET payload = ? WHERE key = ?",
                (b"garbage-not-the-pickle", key))
        conn.close()

    def test_verify_reports_tampered_row(self, store):
        store.put("good", 1, kind="row")
        store.put("bad", 2, kind="row")
        self._tamper(store, "bad")
        assert store.verify() == ["bad"]
        assert len(store) == 2  # verify reports, never deletes

    def test_get_evicts_tampered_row_never_serves_it(self, store):
        store.put("bad", 2, kind="row")
        self._tamper(store, "bad")
        assert store.get("bad") is None
        assert store.stats.corrupt == 1
        assert "bad" not in store  # self-healed: next sweep recomputes

    def test_unpicklable_payload_evicted(self, store):
        store.put("k", 1, kind="row")
        # valid hash over an invalid pickle: hash check alone won't catch
        payload = b"\x80\x04not a pickle"
        import hashlib
        h = hashlib.blake2b(payload, digest_size=16).hexdigest()
        conn = sqlite3.connect(store.path)
        with conn:
            conn.execute("UPDATE results SET payload=?, payload_hash=? "
                         "WHERE key='k'", (payload, h))
        conn.close()
        assert store.get("k") is None
        assert store.stats.corrupt == 1

    def test_truncated_database_fails_clean(self, tmp_path):
        path = tmp_path / "trunc.db"
        with ResultStore(path) as s:
            for i in range(50):
                s.put(f"k{i}", list(range(200)), kind="row")
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(StoreError):
            ResultStore(path)

    def test_non_database_file_fails_clean(self, tmp_path):
        path = tmp_path / "notdb.db"
        path.write_text("this is not a sqlite database at all\n" * 100)
        with pytest.raises(StoreError):
            ResultStore(path)

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "future.db"
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            ResultStore(path)


class TestMigrations:
    def test_fresh_store_at_current_schema(self, store):
        assert store.schema_version == SCHEMA_VERSION

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "re.db"
        with ResultStore(path) as s:
            s.put("k", 1, kind="row")
        with ResultStore(path) as s:
            assert s.get("k") == 1
            assert s.schema_version == SCHEMA_VERSION

    def test_version_zero_database_upgrades(self, tmp_path):
        # an empty sqlite file is "schema v0": migrations bring it up
        path = tmp_path / "v0.db"
        sqlite3.connect(path).close()
        with ResultStore(path) as s:
            assert s.schema_version == SCHEMA_VERSION


class TestGc:
    def test_gc_drops_stale_code_versions_only(self, store):
        store.put("old", 1, kind="row")
        conn = sqlite3.connect(store.path)
        with conn:
            conn.execute("UPDATE results SET code_version='0.0.1+k0' "
                         "WHERE key='old'")
        conn.close()
        store.put("new", 2, kind="row")
        assert store.gc() == 1
        assert store.get("new") == 2
        assert "old" not in store

    def test_evict_returns_count(self, store):
        store.put("a", 1, kind="row")
        store.put("b", 2, kind="row")
        assert store.evict(["a", "absent"]) >= 1
        assert "a" not in store and "b" in store

    def test_summary_shape(self, store):
        store.put("a", 1, kind="row", workload="hist")
        info = store.summary()
        assert info["rows"] == 1
        assert info["by_kind"] == {"row": 1}
        assert info["by_workload"] == {"hist": 1}
        assert CODE_VERSION in info["by_code_version"]


# ---------------------------------------------------------------------
# content-address keys
# ---------------------------------------------------------------------
class TestPointKey:
    def test_stable_across_kwarg_order(self):
        assert (point_key("w", {"a": 1, "b": 2})
                == point_key("w", {"b": 2, "a": 1}))

    def test_distinct_per_workload_and_kwargs(self):
        base = point_key("w", {"seed": 1})
        assert base != point_key("v", {"seed": 1})
        assert base != point_key("w", {"seed": 2})
        assert base != point_key("w", {"seed": 1, "d_distance": 4})

    def test_execution_knobs_do_not_change_the_key(self):
        # jobs/store/resume/retry/trace shape *how* a sweep runs, not
        # *what* it computes: a row cached at --jobs 8 must be served at
        # --jobs 1, and the store path must not invalidate its own cache
        a = RunOptions(jobs=1)
        b = RunOptions(jobs=8, store="/tmp/x.db", resume=False,
                       point_retries=3, point_timeout=9.0,
                       trace_events=True,
                       timeline_interval=100)
        assert (point_key("w", {"options": a})
                == point_key("w", {"options": b}))

    def test_result_shaping_knobs_change_the_key(self):
        a = RunOptions()
        assert (point_key("w", {"options": a})
                != point_key("w", {"options": a.replace(fault_rate=1.0)}))
        assert (point_key("w", {"options": a})
                != point_key("w", {"options": a.replace(protocol="mesi")}))
        assert (point_key("w", {"options": a})
                != point_key("w", {"options":
                                   a.replace(check_invariants=False)}))

    def test_code_version_in_key(self):
        assert (point_key("w", {}, code_version="a")
                != point_key("w", {}, code_version="b"))

    def test_canonical_point_is_deterministic_repr(self):
        c = canonical_point("w", {"b": 2, "a": 1})
        assert c == canonical_point("w", {"a": 1, "b": 2})
        assert "w" in repr(c)

    def test_options_fingerprint_excludes_execution_fields(self):
        fp = dict(options_fingerprint(RunOptions()))
        for knob in ("jobs", "store", "resume", "point_timeout",
                     "point_retries", "trace_events",
                     "timeline_interval"):
            assert knob not in fp
        assert fp["protocol"] == "ghostwriter"


# ---------------------------------------------------------------------
# the maintenance CLI
# ---------------------------------------------------------------------
class TestStoreCli:
    def test_show(self, tmp_path, capsys):
        from repro.store.cli import main
        db = tmp_path / "s.db"
        with ResultStore(db) as s:
            s.put("k", 1, kind="row", workload="hist")
        assert main(["show", str(db), "--rows", "5"]) == 0
        out = capsys.readouterr().out
        assert "1 rows" in out and "hist" in out

    def test_verify_clean_and_corrupt(self, tmp_path, capsys):
        from repro.store.cli import main
        db = tmp_path / "s.db"
        with ResultStore(db) as s:
            s.put("k", 1, kind="row")
        assert main(["verify", str(db)]) == 0
        conn = sqlite3.connect(db)
        with conn:
            conn.execute("UPDATE results SET payload=x'00'")
        conn.close()
        assert main(["verify", str(db)]) == 1
        assert main(["verify", str(db), "--evict"]) == 1
        assert main(["verify", str(db)]) == 0  # evicted: clean again
        capsys.readouterr()

    def test_gc(self, tmp_path, capsys):
        from repro.store.cli import main
        db = tmp_path / "s.db"
        with ResultStore(db) as s:
            s.put("k", 1, kind="row")
        assert main(["gc", str(db), "--vacuum"]) == 0
        assert "dropped 0" in capsys.readouterr().out

    def test_unusable_database_exits_2(self, tmp_path, capsys):
        from repro.store.cli import main
        bad = tmp_path / "bad.db"
        bad.write_text("not a database " * 100)
        assert main(["show", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
