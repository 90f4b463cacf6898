"""Trial result cache, keyed by :func:`repro.perf.spec.spec_key`.

Layout: one SQLite file, ``<root>/results.db``, holding one table
``results(key, result)`` with one pickled result dataclass per trial.
A whole grid is read by one keyed ``SELECT`` and a worker batch is
written by one ``BEGIN IMMEDIATE`` transaction, so a killed sweep never
leaves a torn entry behind, and several processes (pool workers, farm
workers) can share one root.  An unreadable row is a miss and is
deleted.

Cache invalidation is by construction: the key covers the full trial spec
and the engine version salt, so a doc-only change hits, and an engine
bump (or any spec change) misses.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import sqlite3
import weakref
from pathlib import Path
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from .resilience import connect_sqlite, is_transient_store_error
from .spec import TrialSpec, spec_key

log = logging.getLogger("repro.perf.cache")

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The database file under a cache root.
DB_NAME = "results.db"

_SCHEMA = ("CREATE TABLE IF NOT EXISTS results"
           " (key TEXT PRIMARY KEY, result BLOB NOT NULL)")
_SELECT = ("SELECT key, result FROM results"
           " WHERE key IN (SELECT value FROM json_each(?))")
_DELETE = "DELETE FROM results WHERE key IN (SELECT value FROM json_each(?))"
_INSERT = "INSERT OR REPLACE INTO results (key, result) VALUES (?, ?)"

#: Caches holding an open connection in this process.
_OPEN: "weakref.WeakSet[TrialCache]" = weakref.WeakSet()


def _close_before_fork() -> None:
    # SQLite's rule: a connection open across fork() breaks locking in
    # the child, even for connections the child opens itself (they share
    # the inherited lock state).  Close them all; each reopens lazily.
    for cache in list(_OPEN):
        cache.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_close_before_fork)


def _open_read_only(path: Path) -> Optional[sqlite3.Connection]:
    """``path`` opened for reads only, or ``None`` if it holds no table.

    ``immutable=1`` because a WAL file in a directory this process may
    not write can be read no other way (its ``-shm`` index cannot be
    created); it assumes nobody writes the file meanwhile, so a file
    that was merely locked is never opened this way.
    """
    try:
        conn = sqlite3.connect(
            path.resolve().as_uri() + "?mode=ro&immutable=1", uri=True,
            check_same_thread=False,
        )
    except sqlite3.Error:
        return None
    try:
        conn.execute("SELECT 1 FROM results LIMIT 0")
    except sqlite3.Error:
        conn.close()
        return None
    return conn


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/trials``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "trials"


class TrialCache:
    """Content-addressed store of trial results.

    ``hits`` / ``misses`` / ``stores`` count this instance's traffic —
    the sweep CLI reports them after every run.  ``corrupt`` counts the
    subset of misses caused by unreadable rows (each is logged, deleted,
    and rewritten when the recomputed result is stored).

    ``get_round_trips`` / ``put_round_trips`` count *database visits*,
    not entries: a :meth:`get_many` over a whole grid or a
    :meth:`put_many` of a worker batch is one round trip each — the
    quantity the batched executor minimizes and
    ``dispatch_overhead_per_trial`` reports.

    The connection opens on first use and belongs to the process that
    opened it: a fork closes it first, so a child opens its own.
    :meth:`close` closes it (the next use reopens), and so does dropping
    the cache.

    A failure to open or commit (disk full, a read-only directory or
    file, a ``results.db`` that is not a database) must never fail the
    trial whose result was being stored: the first one flips the cache
    into **degraded read-only mode** — ``cache_degraded`` goes to 1, a
    WARNING is logged, and every later write becomes a no-op while
    reads keep serving what they can (a file that cannot be opened for
    writing is opened read-only).
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.cache_degraded = 0
        self.get_round_trips = 0
        self.put_round_trips = 0
        self._conn: Optional[sqlite3.Connection] = None

    @property
    def degraded(self) -> bool:
        """True once a failure switched the cache to read-only."""
        return self.cache_degraded > 0

    def _degrade(self, exc: BaseException) -> None:
        if self.cache_degraded == 0:
            log.warning(
                "cache %s failed (%s: %s); cache degraded to read-only — "
                "results still computed, just not cached",
                self.root / DB_NAME, type(exc).__name__, exc,
            )
        self.cache_degraded = 1

    def _connection(self) -> Optional[sqlite3.Connection]:
        """The open connection, opened now if need be.

        A file that cannot be opened for writing (a read-only directory,
        a full disk) degrades the cache and is opened read-only, so it
        still serves hits; ``None`` if even that fails, or if the open
        failed on a lock.
        """
        if self._conn is None:
            path = self.root / DB_NAME
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                self._conn = connect_sqlite(path, check_same_thread=False)
                _OPEN.add(self)
                self._conn.execute(_SCHEMA)
            except (sqlite3.Error, OSError) as exc:
                self.close()
                self._degrade(exc)
                if not is_transient_store_error(exc):
                    self._conn = _open_read_only(path)
                    if self._conn is not None:
                        _OPEN.add(self)
        return self._conn

    def close(self) -> None:
        """Close the connection; the next use opens a new one."""
        conn, self._conn = self._conn, None
        _OPEN.discard(self)
        if conn is not None:
            conn.close()

    # -- spec-level API ----------------------------------------------------

    def _loads(self, blob: bytes) -> Any:
        return pickle.loads(blob)

    def get(self, spec: TrialSpec) -> Optional[Any]:
        """The cached result for ``spec``, or ``None`` on a miss."""
        return self.get_many([spec])[0]

    def get_many(self, specs: Sequence[TrialSpec],
                 keys: Optional[Sequence[str]] = None) -> List[Optional[Any]]:
        """Batched :meth:`get`: one keyed ``SELECT`` for the whole grid.

        ``keys``, if given, are the specs' :func:`spec_key` values in
        the same order, so a caller that already holds them does not
        hash the grid twice.  Rows are unpickled as the cursor yields
        them.  Hit/miss/corrupt accounting is per entry, identical to
        ``len(specs)`` individual :meth:`get` calls.
        """
        if not specs:
            return []
        self.get_round_trips += 1
        if keys is None:
            keys = [spec_key(spec) for spec in specs]
        found = {}
        bad = []
        conn = self._connection()
        if conn is not None:
            try:
                for key, blob in conn.execute(_SELECT, (json.dumps(keys),)):
                    try:
                        found[key] = self._loads(blob)
                    except Exception as exc:
                        # Truncated, corrupted or stale bytes (unpickling
                        # hostile bytes can raise nearly anything): a
                        # cache must never turn a bad entry into a sweep
                        # failure.  Log, drop, recompute — the recomputed
                        # result is rewritten by the usual put.
                        bad.append(key)
                        log.warning(
                            "dropping corrupt cache entry %s (%s: %s); "
                            "recomputing", key, type(exc).__name__, exc,
                        )
                if bad:
                    conn.execute(_DELETE, (json.dumps(bad),))
            except sqlite3.Error as exc:
                self._degrade(exc)
        self.corrupt += len(bad)
        out: List[Optional[Any]] = []
        for key in keys:
            if key in found:
                self.hits += 1
                out.append(found[key])
            else:
                self.misses += 1
                out.append(None)
        return out

    def put(self, spec: TrialSpec, result: Any) -> None:
        """Store ``result`` for ``spec`` (replacing any earlier one)."""
        self.put_many([(spec, result)])

    def _commit(self, conn: sqlite3.Connection) -> None:
        conn.execute("COMMIT")

    def put_many(self, pairs: Iterable[Tuple[TrialSpec, Any]],
                 keys: Optional[Sequence[str]] = None) -> None:
        """Batched :meth:`put`: one transaction for a whole batch.

        ``keys``, if given, are the specs' :func:`spec_key` values, in
        the order of ``pairs``.  A failed commit stores none of the
        batch and degrades the cache.
        """
        if self.degraded:
            return
        pairs = list(pairs)
        if not pairs:
            return
        self.put_round_trips += 1
        conn = self._connection()
        if conn is None:
            return
        if keys is None:
            keys = [spec_key(spec) for spec, _ in pairs]
        # Rows are pickled as SQLite consumes them, so a batch never
        # holds all its pickles at once.
        rows = (
            (key, pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            for key, (_, result) in zip(keys, pairs)
        )
        try:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany(_INSERT, rows)
                self._commit(conn)
            except BaseException:
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
                raise
        except (sqlite3.Error, OSError) as exc:
            # Disk full / file gone read-only mid-sweep: degrade, don't
            # fail the trial whose result we were caching.
            self._degrade(exc)
            return
        self.stores += len(pairs)

    # -- maintenance -------------------------------------------------------

    def __len__(self) -> int:
        conn = self._connection()
        if conn is None:
            return 0
        return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def clear(self) -> int:
        """Delete every entry; returns how many were removed (none from
        a file this process cannot write)."""
        conn = self._connection()
        if conn is None:
            return 0
        try:
            return conn.execute("DELETE FROM results").rowcount
        except sqlite3.Error:
            return 0
