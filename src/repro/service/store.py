"""Durable content-addressed result store (sqlite, WAL mode).

This is the production-grade form of the paper's "persistent disk-based
database": one sqlite file shared by any number of processes, holding

* ``results`` — string-keyed JSON metric values partitioned into
  *namespaces* (``metrics``, ``evalcache``, ``frontiers``, ...), with
  atomic per-key upserts instead of whole-file rewrites;
* ``jobs`` — the job queue's persistent state (owned by
  :mod:`repro.service.queue`, created here so one connection bootstraps
  the whole schema);
* ``runs`` / ``run_rows`` — the analytics subsystem's durable run
  tables (owned by :mod:`repro.analytics.runs`): one row per recorded
  execution plus one row per (design, benchmark, repetition) measured.

Keys are *content addresses*: they embed the trace digest and the
configuration-family identity (see :func:`repro.service.jobs.trace_key`
and the sweep checkpoint key format), so identical work submitted by
different clients lands on the same row and is computed once.

Concurrency: WAL mode allows one writer plus many readers without
blocking; writes go through short ``BEGIN IMMEDIATE`` transactions with
a busy timeout, so concurrent multi-process writers queue rather than
corrupt.  Connections are per-thread (sqlite connections must not cross
threads), created lazily.

:class:`StoreEvaluationCache` exposes one store namespace as the
paper's EvaluationCache (get / put / get-or-compute with hit and miss
accounting); it is the checkpoint type of sweep checkpointing and
evaluator priming.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.errors import EvaluationCacheError

#: JSON-representable metric values.
Metric = float | int | list | dict | str

#: Default namespace for loose (non-adapter) results.
DEFAULT_NAMESPACE = "metrics"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    namespace TEXT NOT NULL,
    key       TEXT NOT NULL,
    value     TEXT NOT NULL,
    created   REAL NOT NULL,
    updated   REAL NOT NULL,
    PRIMARY KEY (namespace, key)
);
CREATE TABLE IF NOT EXISTS jobs (
    id            TEXT PRIMARY KEY,
    spec          TEXT NOT NULL,
    state         TEXT NOT NULL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL DEFAULT 3,
    result        TEXT,
    error         TEXT,
    owner         TEXT,
    submitted     REAL NOT NULL,
    started       REAL,
    finished      REAL,
    lease_expires REAL
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, submitted);
CREATE TABLE IF NOT EXISTS workers (
    id         TEXT PRIMARY KEY,
    tags       TEXT NOT NULL DEFAULT '[]',
    meta       TEXT NOT NULL DEFAULT '{}',
    registered REAL NOT NULL,
    last_seen  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id        TEXT PRIMARY KEY,
    kind      TEXT NOT NULL,
    label     TEXT,
    benchmark TEXT,
    state     TEXT NOT NULL DEFAULT 'running',
    spec      TEXT NOT NULL DEFAULT '{}',
    error     TEXT,
    started   REAL NOT NULL,
    finished  REAL,
    wall_s    REAL,
    rows      INTEGER NOT NULL DEFAULT 0,
    journal   TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS runs_started ON runs (started);
CREATE TABLE IF NOT EXISTS run_rows (
    run_id        TEXT NOT NULL,
    idx           INTEGER NOT NULL,
    benchmark     TEXT,
    role          TEXT,
    design        TEXT NOT NULL,
    sets          INTEGER,
    assoc         INTEGER,
    line_size     INTEGER,
    repetition    INTEGER NOT NULL DEFAULT 0,
    accesses      INTEGER,
    misses        REAL,
    miss_rate     REAL,
    cycles        REAL,
    cost          REAL,
    area          REAL,
    estimated     INTEGER NOT NULL DEFAULT 0,
    error         REAL,
    source        TEXT,
    wall_s        REAL,
    kernel_s      REAL,
    retries       INTEGER,
    timeouts      INTEGER,
    fallbacks     INTEGER,
    cache_hits    INTEGER,
    cache_misses  INTEGER,
    bytes_shipped INTEGER,
    extra         TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, idx)
);
CREATE INDEX IF NOT EXISTS run_rows_design
    ON run_rows (run_id, design, benchmark, repetition);
"""

#: Columns added after the first released schema; applied as ALTERs so
#: databases created by older builds keep working (sqlite has no
#: ADD COLUMN IF NOT EXISTS).  Whole new tables (``runs`` /
#: ``run_rows``, the analytics run model) migrate via the idempotent
#: CREATE IF NOT EXISTS statements in ``_SCHEMA``, which rerun on every
#: open — only retrofitted *columns* need an entry here.
_MIGRATIONS = (
    "ALTER TABLE jobs ADD COLUMN lease_expires REAL",
    "ALTER TABLE runs ADD COLUMN benchmark TEXT",
)


class ResultStore:
    """Content-addressed metric store over one sqlite database file.

    ``namespace`` is the default partition for the key/value methods;
    every method also takes an explicit ``namespace=`` override so one
    store object can serve several logical tables.  Hit/miss counters
    are per-instance (they describe *this* process's lookup traffic, not
    the shared database).
    """

    def __init__(
        self,
        path: str | Path,
        namespace: str = DEFAULT_NAMESPACE,
        timeout: float = 30.0,
    ):
        self.path = Path(path)
        self.namespace = namespace
        self.timeout = timeout
        self.hits = 0
        self.misses = 0
        self._local = threading.local()
        self._init_schema()

    # ------------------------------------------------------------------
    # Connections and transactions.
    # ------------------------------------------------------------------

    def connection(self) -> sqlite3.Connection:
        """This thread's connection (created lazily, WAL mode)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                conn = sqlite3.connect(
                    self.path, timeout=self.timeout, isolation_level=None
                )
                conn.row_factory = sqlite3.Row
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(
                    f"PRAGMA busy_timeout={int(self.timeout * 1000)}"
                )
            except sqlite3.Error as exc:
                raise EvaluationCacheError(
                    f"cannot open result store {self.path}: {exc}"
                ) from exc
            self._local.conn = conn
        return conn

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """A short ``BEGIN IMMEDIATE`` write transaction.

        IMMEDIATE takes the write lock up front, so concurrent
        multi-process writers serialize at BEGIN (bounded by the busy
        timeout) instead of deadlocking on lock upgrades.  Nested use
        inside an open transaction joins it.
        """
        conn = self.connection()
        if conn.in_transaction:
            yield conn
            return
        try:
            conn.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as exc:
            raise EvaluationCacheError(
                f"result store {self.path} is locked or unusable: {exc}"
            ) from exc
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        else:
            conn.execute("COMMIT")

    def _init_schema(self) -> None:
        # executescript manages its own transaction (it commits any open
        # one first), so it must not run inside self.transaction().
        try:
            conn = self.connection()
            conn.executescript(_SCHEMA)
            for statement in _MIGRATIONS:
                try:
                    conn.execute(statement)
                except sqlite3.OperationalError as exc:
                    if "duplicate column" not in str(exc).lower():
                        raise
        except sqlite3.Error as exc:
            raise EvaluationCacheError(
                f"cannot initialize result store {self.path}: {exc}"
            ) from exc

    def close(self) -> None:
        """Close this thread's connection (others close on GC/exit)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # ------------------------------------------------------------------
    # Key/value API.
    # ------------------------------------------------------------------

    def _ns(self, namespace: str | None) -> str:
        return namespace if namespace is not None else self.namespace

    def put(
        self, key: str, value: Metric, namespace: str | None = None
    ) -> None:
        """Atomically upsert one metric (durable on return)."""
        self.put_many({key: value}, namespace=namespace)

    def put_many(
        self, items: Mapping[str, Metric], namespace: str | None = None
    ) -> None:
        """Upsert a batch of metrics in one transaction."""
        if not items:
            return
        ns = self._ns(namespace)
        now = time.time()
        try:
            rows = [
                (ns, key, json.dumps(value), now, now) for key, value in items.items()
            ]
        except (TypeError, ValueError) as exc:
            raise EvaluationCacheError(
                f"metric value is not JSON-representable: {exc}"
            ) from exc
        with self.transaction() as conn:
            conn.executemany(
                "INSERT INTO results (namespace, key, value, created, updated)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT (namespace, key) DO UPDATE"
                " SET value = excluded.value, updated = excluded.updated",
                rows,
            )

    def _fetch(self, key: str, namespace: str | None) -> sqlite3.Row | None:
        return self.connection().execute(
            "SELECT value FROM results WHERE namespace = ? AND key = ?",
            (self._ns(namespace), key),
        ).fetchone()

    def get(self, key: str, namespace: str | None = None) -> Metric | None:
        """The stored metric, or None when absent (counted as a miss).

        A present key whose stored value is ``null`` still counts as a
        hit.
        """
        row = self._fetch(key, namespace)
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return json.loads(row["value"])

    def contains(self, key: str, namespace: str | None = None) -> bool:
        """Presence test without hit/miss accounting."""
        return self._fetch(key, namespace) is not None

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def get_or_compute(
        self, key: str, compute: Callable[[], Metric], namespace: str | None = None
    ) -> Metric:
        """Lookup, else evaluate and durably store."""
        row = self._fetch(key, namespace)
        if row is not None:
            self.hits += 1
            return json.loads(row["value"])
        self.misses += 1
        value = compute()
        self.put(key, value, namespace=namespace)
        return value

    def items(
        self,
        prefix: str = "",
        namespace: str | None = None,
        limit: int | None = None,
    ) -> dict[str, Metric]:
        """All (key, value) pairs whose key starts with ``prefix``."""
        sql = (
            "SELECT key, value FROM results"
            " WHERE namespace = ? AND key GLOB ? ORDER BY key"
        )
        args: list[Any] = [self._ns(namespace), _glob_prefix(prefix)]
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        rows = self.connection().execute(sql, args).fetchall()
        return {row["key"]: json.loads(row["value"]) for row in rows}

    def keys(
        self, prefix: str = "", namespace: str | None = None
    ) -> list[str]:
        """All keys with the given prefix, sorted."""
        rows = self.connection().execute(
            "SELECT key FROM results WHERE namespace = ? AND key GLOB ?"
            " ORDER BY key",
            (self._ns(namespace), _glob_prefix(prefix)),
        ).fetchall()
        return [row["key"] for row in rows]

    def namespaces(self) -> dict[str, int]:
        """Entry counts per namespace across the whole database."""
        rows = self.connection().execute(
            "SELECT namespace, COUNT(*) AS n FROM results GROUP BY namespace"
        ).fetchall()
        return {row["namespace"]: row["n"] for row in rows}

    def count(self, namespace: str | None = None) -> int:
        """Entries in one namespace."""
        row = self.connection().execute(
            "SELECT COUNT(*) AS n FROM results WHERE namespace = ?",
            (self._ns(namespace),),
        ).fetchone()
        return int(row["n"])

    def __len__(self) -> int:
        return self.count()

    # ------------------------------------------------------------------
    # GC.
    # ------------------------------------------------------------------

    def delete(self, key: str, namespace: str | None = None) -> bool:
        """Remove one entry; True when it existed."""
        with self.transaction() as conn:
            cur = conn.execute(
                "DELETE FROM results WHERE namespace = ? AND key = ?",
                (self._ns(namespace), key),
            )
        return cur.rowcount > 0

    def gc(
        self,
        namespace: str | None = None,
        older_than: float | None = None,
        prefix: str = "",
    ) -> int:
        """Remove entries; returns how many were deleted.

        ``older_than`` is an age in seconds against each row's last
        update, so periodically re-derived results survive while
        abandoned ones age out.  With no arguments, clears the default
        namespace.
        """
        sql = "DELETE FROM results WHERE namespace = ? AND key GLOB ?"
        args: list[Any] = [self._ns(namespace), _glob_prefix(prefix)]
        if older_than is not None:
            sql += " AND updated < ?"
            args.append(time.time() - older_than)
        with self.transaction() as conn:
            cur = conn.execute(sql, args)
        return cur.rowcount

    def vacuum(self) -> None:
        """Reclaim disk space after large GCs."""
        self.connection().execute("VACUUM")

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in this process; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, Metric]:
        """Hit/miss accounting plus database-wide shape (journal-friendly)."""
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": self.count(),
            "namespaces": self.namespaces(),
            "db_bytes": size,
        }


def _glob_prefix(prefix: str) -> str:
    """GLOB pattern matching keys that start with ``prefix`` literally.

    GLOB (unlike LIKE) is case-sensitive and its metacharacters are
    rare in keys; escape the ones that do occur via character classes.
    """
    escaped = []
    for ch in prefix:
        if ch in "*?[":
            escaped.append(f"[{ch}]")
        else:
            escaped.append(ch)
    return "".join(escaped) + "*"


class StoreEvaluationCache:
    """The evaluation cache: get-or-compute over one store namespace.

    Every lookup reads through to sqlite (no stale in-memory snapshot),
    so concurrent processes sharing the database observe each other's
    writes immediately — the property that lets parallel spacewalker
    runs de-duplicate simulation work.  ``bulk()`` batches puts into one
    transaction.
    """

    def __init__(self, store: ResultStore, namespace: str = "evalcache"):
        self.store = store
        self.namespace = namespace
        self.hits = 0
        self.misses = 0
        self._deferring = False
        self._pending: dict[str, Metric] = {}

    def __contains__(self, key: str) -> bool:
        if self._deferring and key in self._pending:
            return True
        return self.store.contains(key, namespace=self.namespace)

    def _lookup(self, key: str) -> tuple[bool, Metric | None]:
        """``(present, value)``, counted as a hit or a miss."""
        if self._deferring and key in self._pending:
            present, value = True, self._pending[key]
        else:
            row = self.store._fetch(key, self.namespace)
            present = row is not None
            value = json.loads(row["value"]) if present else None
        if present:
            self.hits += 1
        else:
            self.misses += 1
        return present, value

    def get(self, key: str) -> Metric | None:
        """The stored metric, or None when absent (a miss).

        A present key whose stored value is ``null`` counts as a hit.
        """
        return self._lookup(key)[1]

    def put(self, key: str, value: Metric) -> None:
        """Upsert one metric (deferred to one transaction inside bulk)."""
        if self._deferring:
            self._pending[key] = value
            return
        self.store.put(key, value, namespace=self.namespace)

    def put_many(self, items: Mapping[str, Metric]) -> None:
        """Upsert a batch in one transaction."""
        if self._deferring:
            self._pending.update(items)
            return
        self.store.put_many(items, namespace=self.namespace)

    @contextmanager
    def bulk(self) -> Iterator["StoreEvaluationCache"]:
        """Defer puts inside the block; one transaction on exit."""
        if self._deferring:
            yield self
            return
        self._deferring = True
        try:
            yield self
        finally:
            self._deferring = False
            pending, self._pending = self._pending, {}
            if pending:
                self.store.put_many(pending, namespace=self.namespace)

    def get_or_compute(self, key: str, compute: Callable[[], Metric]) -> Metric:
        """Lookup, else evaluate and store."""
        present, value = self._lookup(key)
        if not present:
            value = compute()
            self.put(key, value)
        return value

    @property
    def hit_rate(self) -> float:
        """Hits per lookup; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, Metric]:
        """Hit/miss accounting snapshot (journal-friendly)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self),
        }

    def __len__(self) -> int:
        return self.store.count(self.namespace) + len(self._pending)

